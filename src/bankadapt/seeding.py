"""Deterministic RNG streams derived from structured keys.

Every random draw in the package is keyed here, so that a run is a pure
function of its config.  Keys mix a user seed with string tags and loop
indices; strings are folded in through blake2b so the streams are stable
across platforms and Python processes (the builtin hash() is salted).

Two kinds of stream use the keys.  Most draws (worlds, permutations,
initial weights) come from a `derive_rng` Generator.  Augmentation is
counter-based instead: `augment.py` takes one 64-bit key per call from
`derive_seed_sequence(seed, "augment", epoch, view)` and derives each draw
from a (sample_id, coordinate) counter under that key, so no per-row
Generator is built.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _fold(part) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"seed key parts must be non-negative, got {part}")
        return int(part)
    if isinstance(part, str):
        digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    raise TypeError(f"unsupported seed key part {part!r}")


def derive_seed_sequence(*parts) -> np.random.SeedSequence:
    return np.random.SeedSequence([_fold(p) for p in parts])


def derive_rng(*parts) -> np.random.Generator:
    """Generator keyed by (seed, tag, indices...); same key, same stream."""
    return np.random.default_rng(derive_seed_sequence(*parts))
