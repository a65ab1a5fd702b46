#!/usr/bin/env python3
"""Estimate the Monte-Carlo convergence slope of the mean-field error."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lram import spde  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--h", type=float, default=0.25)
    parser.add_argument("--epsilon", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--m-list", default="25,100,400")
    parser.add_argument("--repetitions", type=int, default=10)
    args = parser.parse_args()

    cfg = spde.SpdeRunConfig(h=args.h, samples=25, epsilon=args.epsilon, seed=args.seed)
    m_list = [int(m) for m in args.m_list.split(",")]
    study = spde.mc_convergence_study(cfg, m_list, repetitions=args.repetitions)

    print(f"{'M':>6} {'mean error':>12}")
    for m, err in study.points:
        print(f"{m:6d} {err:12.4e}")
    print(f"fitted log-log slope: {study.slope:.3f} "
          f"({args.repetitions} repetitions averaged)")


if __name__ == "__main__":
    main()
