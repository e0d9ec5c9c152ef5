"""Run the frozen benchmark variants and print per-seed accuracy tables.

Each variant also reports, per seed and in total, its confident
pseudo-labels (n_confident summed over every step of the fit) and the
probabilities its cross-entropy terms clamped to 1e-12 (n_clamped).

Usage:
    python3 scripts/run_benchmark.py
    python3 scripts/run_benchmark.py --seeds 3 --variants baseline,full
"""

import argparse
import time

from bankadapt.benchmark import VARIANTS, mean_accuracy, run_fits


def print_counts(name: str, counts: dict[str, list[int]], seeds: str) -> None:
    """A table of one count per variant and seed, with each variant's total."""
    print(f"\n{name:<12} {seeds}   total")
    for v, per_seed in counts.items():
        row = " ".join(f"{c:5d}" for c in per_seed)
        print(f"{v:<12} {row}  {sum(per_seed):5d}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=5,
                    help="number of seeds, 0..seeds-1 (default 5)")
    ap.add_argument("--variants", type=str, default=",".join(VARIANTS),
                    help=f"comma list from {sorted(VARIANTS)}")
    args = ap.parse_args()

    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    for v in variants:
        if v not in VARIANTS:
            ap.error(f"unknown variant {v!r}, expected one of {sorted(VARIANTS)}")

    t0 = time.perf_counter()
    fits = run_fits(seeds=range(args.seeds), variants=tuple(variants))
    elapsed = time.perf_counter() - t0
    accs = {v: [r.final_acc for r in fits[v]] for v in variants}
    confident = {v: [sum(m.n_confident for m in r.metrics) for r in fits[v]]
                 for v in variants}
    clamped = {v: [r.n_clamped for r in fits[v]] for v in variants}
    means = mean_accuracy(accs)

    seeds = " ".join(f"seed{s}" for s in range(args.seeds))
    print(f"variant      {seeds}   mean")
    for v in variants:
        row = " ".join(f"{a:5.3f}" for a in accs[v])
        print(f"{v:<12} {row}  {means[v]:5.3f}")
    if "baseline" in means:
        for v in variants:
            if v != "baseline":
                delta = (means[v] - means["baseline"]) * 100
                print(f"{v} - baseline: {delta:+.1f} points")
    print_counts("n_confident", confident, seeds)
    print_counts("n_clamped", clamped, seeds)
    print(f"{len(variants) * args.seeds} runs in {elapsed:.0f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
