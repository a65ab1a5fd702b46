#!/usr/bin/env python3
"""Run the five minimizers on one control problem and print a comparison table.

``passes`` counts evaluations in full passes over the sample operators (one
forward and at most one adjoint application each); ``trials`` counts the
line-search step sizes tried.

    PYTHONPATH=src python scripts/compare_optimizers.py --h 0.05 --tau 0.88
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lram import fem, socp  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--h", type=float, default=0.1)
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument("--tau", type=float, default=0.88)
    parser.add_argument("--beta", type=float, default=1e-4)
    parser.add_argument("--grad-tol", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=1234)
    args = parser.parse_args()

    cfg = socp.SocpRunConfig(h=args.h, num_samples=args.samples, ratio=args.tau,
                             beta=args.beta, master_seed=args.seed)
    _, _, _, problem = socp.build_control_problem(cfg)
    control0 = np.zeros(problem.dim)

    print(f"{'method':>8} {'iters':>6} {'passes':>7} {'trials':>6} {'time(s)':>8} "
          f"{'error':>10} {'ratio(%)':>9}")
    for method in socp.METHODS:
        spec = socp.OptimizerSpec(method=method, grad_tol=args.grad_tol)
        t0 = time.perf_counter()
        res = socp.optimize(problem, spec, control0)
        elapsed = time.perf_counter() - t0
        err = fem.mass_norm(problem.mass, res.state_mean - problem.desired_nodal)
        ratio = 100.0 * res.objective_final / res.objective_initial
        flag = "" if res.converged else "  (not converged)"
        print(f"{method:>8} {res.iterations:6d} {res.operator_passes:7.2f} "
              f"{res.line_search_trials:6d} {elapsed:8.3f} {err:10.4f} {ratio:9.2f}{flag}")


if __name__ == "__main__":
    main()
