"""Run one ``lram`` CLI invocation in this fresh process and report what it cost.

Usage: python3 perfbench/invoke.py RESULT_JSON [--trace TRACE_NPZ] -- CLI_ARGS...

Imports ``lram.cli`` from ``src/`` of the checkout this file sits in, then
times ``lram.cli.main(CLI_ARGS)`` from call to return.  The import is not in
the timed window; ``run.py`` measures it separately as ``setup_s``.  With
``--trace`` the layer boundaries are wrapped first (see ``tracer.py``), and
after the run one SMW sample's work is timed at the run's shape, so the rate
of ``solve_smw``'s own loop can be set against what BLAS and LAPACK reach here.  Writes ``{"rc", "wall_s",
"peak_rss_mb"}`` to RESULT_JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
MIX_REPEATS = 5


def smw_mix_gflops(k: int, n: int) -> float:
    """Median rate, in GF/s of computed flops, of one SMW sample's own work at this shape.

    The same operations as one pass of ``solve_smw``'s loop: the k x N by
    N x k capacitance product, the reduced right-hand side, the k x k dense
    solve, the residual check and the solution update.
    """
    import numpy as np

    from tracer import smw_sample_flops

    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal((k, n))
    basis_solved = rng.standard_normal((n, k))
    u0 = rng.standard_normal(n)
    eye_k = np.eye(k)

    def sample():
        update = eye_k + coeffs @ basis_solved
        reduced_rhs = coeffs @ u0
        y = np.linalg.solve(update, reduced_rhs)
        np.linalg.norm(update @ y - reduced_rhs)
        return u0 - basis_solved @ y

    sample()  # the first call pays BLAS thread start-up
    times = []
    for _ in range(MIX_REPEATS):
        t0 = time.perf_counter()
        sample()
        times.append(time.perf_counter() - t0)
    return smw_sample_flops(k, n) / statistics.median(times) / 1e9


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result")
    parser.add_argument("--trace")
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]

    src = CHECKOUT / "src"
    sys.path.insert(0, str(src))
    import lram.cli

    if not Path(lram.cli.__file__).resolve().is_relative_to(src):
        print(f"invoke: lram imported from {lram.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    recorder = None
    if args.trace:
        from tracer import Recorder

        recorder = Recorder()
        recorder.install()

    t0 = time.perf_counter()
    rc = lram.cli.main(cli_args)
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if recorder is not None:
        smw = recorder.span_attrs("perturbed.solve_smw")
        if smw:
            recorder.extra["smw_mix_gflops"] = smw_mix_gflops(smw[0]["k"], smw[0]["n"])
        recorder.dump(args.trace)

    Path(args.result).write_text(json.dumps(
        {"rc": rc, "wall_s": wall, "peak_rss_mb": peak_rss_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
