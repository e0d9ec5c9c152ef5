"""Measure retrieval precision as the bank's in-distribution share shrinks.

For each contamination level the script builds a synthetic bank, runs both
retrieval stages, and prints stage-1 precision, stage-2 precision, and the
re-ranking lift, averaged over seeds.

Usage:
    python3 scripts/precision_vs_contamination.py
    python3 scripts/precision_vs_contamination.py --bank_size 20000 --seeds 3
"""

import argparse

import numpy as np

from bankadapt.config import RunConfig
from bankadapt.sampler import sampler_precision, stage1_sample, stage2_sample
from bankadapt.synth import generate_downstream, generate_pretrain_bank

FRACTIONS = (0.75, 0.5, 0.25, 0.1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--bank_size", type=int, default=8000)
    ap.add_argument("--noise_sigma", type=float, default=1.0)
    args = ap.parse_args()

    print("in_dist  stage1  stage2   lift")
    for frac in FRACTIONS:
        p1s, p2s = [], []
        for seed in range(args.seeds):
            cfg = RunConfig(seed=seed, n_classes=10, n_per_class=20,
                            bank_size=args.bank_size, image_dim=32,
                            feat_dim=16, class_sep=4.0,
                            in_dist_fraction=frac, weak_pair_rate=0.3,
                            noise_sigma=args.noise_sigma)
            ds = generate_downstream(cfg)
            bank = generate_pretrain_bank(cfg, ds)
            s1 = stage1_sample(bank, ds, cfg)
            s2 = stage2_sample(s1, ds, cfg)
            p1s.append(sampler_precision(s1, ds))
            p2s.append(sampler_precision(s2, ds))
        p1 = float(np.mean(p1s))
        p2 = float(np.mean(p2s))
        print(f"{frac:7.2f}  {p1:6.3f}  {p2:6.3f}  {p2 - p1:+6.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
