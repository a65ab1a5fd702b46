"""lram benchmark: end-to-end metrics (untraced) or per-layer metrics (traced).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``; metric names and units come from
``BENCHMARK.json``.  Each CLI invocation runs in a fresh interpreter
(``invoke.py``) with as many BLAS threads as the workload sets, by default
the CPUs this process may use.

``--trace 0`` first times a fresh ``import lram.cli`` (``setup_s``, median of
SETUP_REPEATS after one warm-up), then repeats the workload's invocation until
the time inside ``lram.cli.main`` adds up to ``--seconds`` (at least once), checking every
invocation's outputs outside the timed window.  It reports the medians of
``wall_s`` (time inside ``lram.cli.main``), ``peak_rss_mb`` (the invocation's
own ``ru_maxrss``), ``output_mb`` (bytes written to the out-dir) and
``setup_s``.

``--trace 1`` runs the invocation once untraced and once traced, and reports
the per-layer metrics of the traced one plus ``trace_overhead_frac`` (traced
over untraced ``wall_s``, minus 1).  The spans are kept in
``.perfbench_out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a line before it carries the
provenance (library versions, BLAS threads, nproc, seed, rank and k*).
Outputs that fail a check count as failed operations.  Without
``src/lram`` in the working directory the benchmark exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9
#: A run must end within 180 s; no invocation starts that could overrun this.
RUN_BUDGET_S = 165.0
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def child_env(root: Path, blas_threads: int = NPROC) -> dict:
    env = dict(os.environ)
    env.update({var: str(blas_threads) for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def measure_setup(root: Path, env: dict) -> list[float]:
    """Wall time of a fresh interpreter importing lram.cli (numpy and scipy included)."""
    cmd = [sys.executable, "-c", "import lram.cli"]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time up by up to 50 ms
        subprocess.run(cmd, cwd=root, env=env, check=True)
        if i:  # the first import also compiles bytecode
            samples.append(time.perf_counter() - t0)
    return samples


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Runner:
    """Runs and checks invocations of one workload; tallies operations."""

    def __init__(self, root: Path, workload, seed: int, workdir: Path):
        self.started = time.monotonic()
        self.root = root
        self.workload = workload
        self.workdir = workdir
        self.blas_threads = workload.blas_threads or NPROC
        self.env = child_env(root, self.blas_threads)
        self.context = workload.prepare(workdir, seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.info: dict = {}
        self.count = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def invoke(self, trace_path: Path | None = None) -> dict | None:
        """One CLI invocation, then its output check; returns the invocation's figures."""
        self.count += 1
        out_dir = self.workdir / f"out{self.count}"
        result_path = self.workdir / f"result{self.count}.json"
        cmd = [sys.executable, str(HERE / "invoke.py"), str(result_path)]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        cmd += ["--", *self.workload.cli_args(self.context, out_dir)]
        ops = self.workload.operations_per_invocation
        timeout = max(10.0, RUN_BUDGET_S + 10.0 - self.elapsed())
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, timeout=timeout,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            return self._fail(ops, f"invocation {self.count} exceeded {timeout:.0f} s")
        if proc.returncode != 0 or not result_path.is_file():
            return self._fail(ops, f"invocation {self.count} crashed: {proc.stderr[-2000:]}")
        figures = json.loads(result_path.read_text())
        if figures["rc"] != 0:
            return self._fail(ops, f"lram exited {figures['rc']}: {proc.stderr[-2000:]}")
        figures["output_mb"] = dir_bytes(out_dir) / 1e6
        try:
            check = self.workload.check(self.context, out_dir)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return self._fail(ops, f"unreadable outputs: {type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += check.attempted
        self.failures += [f"{op}: {why}" for op, why in check.failures.items()]
        self.info.update(check.info)
        figures["check"] = check.info
        return figures

    def _fail(self, ops: int, why: str):
        self.attempted += ops
        self.failures += [why] * ops
        return None


def provenance(runner: Runner, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": runner.blas_threads,
        "nproc": NPROC,
        "seed": seed,
        "rank": runner.info.get("rank"),
        "rank_source": runner.info.get("rank_source"),
        "k_star": runner.info.get("k_star"),
        "k_star_source": runner.info.get("k_star_source"),
    }


def run_untraced(runner: Runner, seconds: int) -> tuple[dict, dict]:
    setup = measure_setup(runner.root, runner.env)
    runs, measured = [], 0.0
    while True:
        t0 = time.monotonic()
        figures = runner.invoke()
        last = time.monotonic() - t0
        if figures is not None:
            runs.append(figures)
        measured += last if figures is None else figures["wall_s"]
        if measured >= seconds or runner.elapsed() + last > RUN_BUDGET_S:
            break
    values = {"setup_s": setup}
    for key in ("wall_s", "peak_rss_mb", "output_mb"):
        values[key] = [r[key] for r in runs]
    return values, {"setup_s": setup, "invocations": runs}


def run_traced(runner: Runner, trace_path: Path) -> tuple[dict, dict]:
    from tracer import Trace, layer_metrics
    from workloads import SOCP_METHODS

    plain = runner.invoke()
    traced = runner.invoke(trace_path)
    if plain is None or traced is None:
        return {}, {"invocations": [plain, traced]}
    values = layer_metrics(Trace(trace_path))
    values["trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    values["rank"] = runner.info.get("rank", 0)
    values["k_star"] = runner.info.get("k_star", 0)
    for method in SOCP_METHODS:
        iterations = runner.info.get(f"socp.iterations.{method}", 0)
        values[f"socp.gap.{method}"] = runner.info.get(f"socp.gap.{method}", 0.0)
        values[f"socp.iterations.{method}"] = iterations
        values[f"socp.evals_per_iter.{method}"] = (
            values[f"socp.evals.{method}"] / max(iterations, 1))
    return values, {"invocations": [plain, traced], "trace": str(trace_path)}


def measure(root: Path, workload, seed: int, seconds: int, trace: bool,
            tag: str) -> tuple[Runner, dict, dict]:
    """Prepare inputs, run the workload untraced or traced; returns raw figures."""
    workdir = root / WORK_DIR / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    (root / OUT_DIR).mkdir(exist_ok=True)
    try:
        runner = Runner(root, workload, seed, workdir)
        if trace:
            values, detail = run_traced(runner, root / OUT_DIR / f"{tag}.npz")
        else:
            values, detail = run_untraced(runner, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return runner, values, detail


def summarize(values: dict, metric_specs: list) -> tuple[dict, dict]:
    """Median of each named metric with its unit, and the number of samples behind it."""
    metrics, counts = {}, {}
    for m in metric_specs:
        raw = values.get(m["name"])
        if raw is None or (isinstance(raw, list) and not raw):
            continue  # every invocation failed; reported through "failed"
        samples = raw if isinstance(raw, list) else [raw]
        metrics[m["name"]] = {"value": statistics.median(samples), "unit": m["unit"]}
        counts[m["name"]] = len(samples)
    return metrics, counts


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    os.environ.update({var: str(NPROC) for var in BLAS_THREAD_VARS})  # before numpy loads
    try:
        if not (root / "src" / "lram" / "__init__.py").is_file():
            raise BenchmarkError(f"no lram sources under {root / 'src'}")
        spec = json.loads((root / "BENCHMARK.json").read_text())
        sys.path.insert(0, str(root / "src"))
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchmarkError(f"unknown workload {args.workload!r}; "
                                 f"choose from {sorted(WORKLOADS)}")
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner, values, detail = measure(root, WORKLOADS[args.workload], args.seed,
                                     args.seconds, bool(args.trace), tag)
    metrics, counts = summarize(values, metric_specs)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']} (median of {counts[name]})")

    failed = len(runner.failures)
    for why in runner.failures:
        print(f"FAILED {why}")
    print(f"operations: {runner.attempted} attempted, {failed} failed "
          f"(failed_frac {failed / max(runner.attempted, 1):.4f})")
    prov = provenance(runner, args.seed)
    if args.trace:
        prov["trace_overhead_frac"] = values.get("trace_overhead_frac")
    print("provenance " + json.dumps(prov, sort_keys=True))
    (root / OUT_DIR / f"{tag}.json").write_text(json.dumps(
        {"provenance": prov, "metrics": metrics, "samples": counts,
         "failures": runner.failures, "detail": detail}, indent=1, default=str))
    result = {"correct": failed == 0 and len(metrics) == len(metric_specs),
              "attempted": max(runner.attempted, 1), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
