"""Per-layer spans and counts, recorded by wrapping bankadapt's functions
from outside, in the benchmark's own process.

Each wrap replaces the name a caller looks up (for example
`bankadapt.cli.stage1_sample` or `bankadapt.objective.contrastive_loss`),
so the program's files stay untouched.  Spans nest: a span records the span
that was open when it started, so self time can be told from inclusive time.
Peak allocation is measured afterwards, by calling each peak-reported
function again under tracemalloc with the arguments of its first traced
call, so tracemalloc's cost stays out of the timed spans.
"""

from __future__ import annotations

import functools
import gc
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level


def _rows(value) -> int:
    return len(value) if hasattr(value, "__len__") else 0


def _count_pseudo_rows(tracer, args, kwargs, result):
    tracer.add("pseudo_triplets.pseudo_label_rows", _rows(result))


def _count_confident(tracer, args, kwargs, result):
    breakdown = result[0] if isinstance(result, tuple) else result
    tracer.add("objective.n_confident", getattr(breakdown, "n_confident", 0))


def _count_steps(tracer, args, kwargs, result):
    tracer.add("trainer.steps", _rows(getattr(result, "metrics", ())))


def _count_call(name):
    def count(tracer, args, kwargs, result):
        tracer.add(name, 1)
    return count


# (module, attribute, span name, counter, replay for peak allocation)
WRAP_POINTS = (
    ("bankadapt.cli", "generate_pretrain_bank", "synth.generate_bank", None, False),
    ("bankadapt.cli", "encode_bank_file", "embank.encode_bank", None, False),
    ("bankadapt.cli", "decode_bank_file", "embank.decode_bank", None, True),
    ("bankadapt.cli", "stage1_sample", "sampler.stage1", None, True),
    ("bankadapt.cli", "stage2_sample", "sampler.stage2", None, True),
    ("bankadapt.cli", "fit", "trainer.fit", _count_steps, False),
    ("bankadapt.trainer", "compose_batch", "trainer.compose_batch", None, False),
    ("bankadapt.trainer", "augment_view", "augment.augment",
     _count_call("augment.view_calls"), False),
    ("bankadapt.trainer", "batch_objective", "objective.batch_objective",
     _count_confident, False),
    ("bankadapt.trainer", "sgd_update", "trainer.sgd_update", None, False),
    ("bankadapt.trainer", "evaluate", "trainer.evaluate", None, False),
    ("bankadapt.objective", "encode_and_classify", "encoder.forward", None, False),
    ("bankadapt.objective", "param_gradients", "encoder.backward", None, False),
    ("bankadapt.objective", "pseudo_label_batch", "pseudo_triplets.pseudo_label",
     _count_pseudo_rows, False),
    ("bankadapt.objective", "build_batch_triplets", "pseudo_triplets.build_triplets",
     None, False),
    ("bankadapt.pseudo_triplets", "pseudo_label_batch", "pseudo_triplets.pseudo_label",
     _count_pseudo_rows, False),
    ("bankadapt.objective", "contrastive_loss", "losses.contrastive", None, False),
)


class Tracer:
    """Installs the wraps, keeps spans and counts in memory, and restores
    every original name on uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.first_calls: dict[str, tuple] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def install(self) -> None:
        import importlib

        for module_name, attr, name, counter, replay in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, counter, replay))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, counter, replay):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if replay and name not in tracer.first_calls:
                tracer.first_calls[name] = (fn, args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(Span(name, time.perf_counter(), 0.0, parent))
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[index].end = time.perf_counter()
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return wrapper

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def seconds(self, name: str) -> float:
        """Inclusive time of every span of this name that is not nested in
        another span of the same name."""
        total = 0.0
        for span in self.spans:
            if span.name == name and not self._inside_same(span):
                total += span.end - span.start
        return total

    def _inside_same(self, span: Span) -> bool:
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].name == span.name:
                return True
            parent = self.spans[parent].parent
        return False

    def summary(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, inclusive s, self s) per span name."""
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for span in self.spans:
            calls[span.name] += 1
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        own: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            own[span.name] += span.end - span.start - child[i]
        for name in calls:
            inclusive[name] = self.seconds(name)
        return [(n, calls[n], inclusive[n], own[n]) for n in calls]

    def replay_peaks(self) -> dict[str, float]:
        """Peak traced allocation (MiB) of one more call of each
        peak-reported function, with its first traced arguments.  The bank
        decode runs last, once the replays that hold a decoded bank are done."""
        peaks = {}
        names = sorted(self.first_calls, key=lambda n: n == "embank.decode_bank")
        for name in names:
            fn, args, kwargs = self.first_calls.pop(name)
            gc.collect()
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peaks[name] = tracemalloc.get_traced_memory()[1] / MIB
            finally:
                tracemalloc.stop()
            del fn, args, kwargs
        return peaks
