#!/usr/bin/env python3
"""Sweep the dimension-reduction ratio and print the error/compression trade-off.

Reproduces the mean-field error collapse at the critical ratio on a
structured mesh, with timings per ratio.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lram import spde  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--h", type=float, default=0.1)
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--epsilon", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--taus", default="0.4,0.6,0.8,0.88,1.0")
    args = parser.parse_args()

    cfg = spde.SpdeRunConfig(h=args.h, num_samples=args.samples,
                             epsilon=args.epsilon, master_seed=args.seed)
    taus = [float(t) for t in args.taus.split(",")]

    t0 = time.perf_counter()
    result = spde.scan(cfg, taus)
    elapsed = time.perf_counter() - t0

    print(f"critical rank k* = {result.k_star}  (tau* = {result.tau_star:.4f})")
    print(f"{'tau':>6} {'rank':>5} {'err_l2':>12} {'rmsre':>12}")
    for tau, rank, err, rmsre in result.rows:
        print(f"{tau:6.2f} {rank:5d} {err:12.4e} {rmsre:12.4e}")
    print(f"total {elapsed:.2f}s")


if __name__ == "__main__":
    main()
