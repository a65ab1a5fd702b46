"""Tests of the benchmark itself: its contract file, metric coverage, spans, counts, oracles.

Workloads run here at reduced mesh sizes so the suite stays short; the
sample counts that the work counts depend on are kept.  Nothing here asserts
on wall time.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
from tracer import Recorder, Trace, layer_metrics
from workloads import WORKLOADS, SOCP_METHODS, read_csv

ROOT = Path(run.__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

# Smaller meshes, same sample counts where a count depends on them.  h = 0.05
# (N = 441) keeps the base factorization on the sparse LU route.
SMALL = {
    "spde-ensemble": replace(WORKLOADS["spde-ensemble"], h=0.05),
    "compress-lowrank": replace(WORKLOADS["compress-lowrank"], h=0.05, samples=10),
    "socp-methods": replace(WORKLOADS["socp-methods"], h=0.1, samples=10),
}

# Boundaries each workload must cross, after the layer table of the benchmark.
EXERCISED = {
    "spde-ensemble": [
        "cli.main", "cli.cmd_spde", "cli.write_csv", "cli.write_manifest",
        "spde.run_spde", "spde.critical_tau", "fem.structured_mesh", "fem.sample_fields",
        "fem.assemble", "lowrank.ensemble_gram", "lowrank.compress", "lowrank.rmsre",
        "lowrank.energy_ratio", "numerics.sym_eig_topk", "numerics.factorize_spd",
        "numerics.SpdFactorization.solve", "numerics.splu", "numerics.condition_estimate",
        "perturbed.solve_smw", "perturbed.solve_direct", "perturbed.solution_to_csv",
    ],
    "compress-lowrank": [
        "cli.main", "cli.cmd_compress", "cli.write_csv", "cli.write_manifest",
        "numerics.load_matrix_market", "lowrank.ensemble_gram", "lowrank.compress",
        "lowrank.rmsre", "numerics.sym_eig_topk", "lowrank.save_factors",
    ],
    "socp-methods": [
        "cli.main", "cli.cmd_socp", "cli.write_csv", "cli.write_manifest",
        "socp.build_control_problem", "socp.build_reduced_problem", "socp.optimize",
        "socp.objective", "socp.gradient", "socp.hessian", "socp.SampleStateOperator.apply",
        "socp.SampleStateOperator.apply_t", "fem.assemble", "lowrank.ensemble_gram",
        "lowrank.compress", "numerics.sym_eig_topk", "numerics.factorize_spd",
        "numerics.SpdFactorization.solve",
    ],
}

# Layers a workload must not reach.
BYPASSED = {
    "spde-ensemble": ["socp.", "numerics.load_matrix_market", "lowrank.save_factors"],
    "compress-lowrank": ["perturbed.", "socp.", "spde.", "fem."],
    "socp-methods": ["perturbed.solve_", "numerics.load_matrix_market"],
}

SEED_COUNTS = {
    "lowrank.ensemble_gram.calls": {"spde-ensemble": 3, "compress-lowrank": 1,
                                    "socp-methods": 1},
    "numerics.sym_eig_topk.calls": {"spde-ensemble": 3, "compress-lowrank": 1,
                                    "socp-methods": 1},
    "numerics.factorize_spd.calls": {"spde-ensemble": 2, "compress-lowrank": 0,
                                     "socp-methods": 1},
    "numerics.splu.calls": {"spde-ensemble": 103},
}

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_schema():
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path)
        assert not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    command = SPEC["command"]
    assert 1 <= len(command) <= 32 and all(len(c) <= 200 for c in command)
    for arg in command[1:]:
        assert not arg.startswith("/") and ".." not in arg.split("/")
        if "/" in arg:
            assert any(arg.startswith(p.rstrip("/") + "/") for p in SPEC["paths"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name, workload in SMALL.items():
        runner, values, detail = run.measure(ROOT, workload, SEED, 1, True, f"test-{name}")
        out[name] = (runner, values, Trace(detail["trace"]))
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_reports_every_per_layer_metric(traced, name):
    runner, values, _ = traced[name]
    assert runner.failures == []
    metrics, counts = run.summarize(values, SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert counts[m["name"]] == 1


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_run_reports_every_end_to_end_metric(name):
    runner, values, _ = run.measure(ROOT, SMALL[name], SEED, 1, False, f"test-{name}")
    assert runner.failures == [] and runner.attempted >= 1
    metrics, counts = run.summarize(values, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
    assert counts["setup_s"] == run.SETUP_REPEATS


@pytest.mark.parametrize("name", sorted(SMALL))
def test_each_exercised_boundary_records_spans(traced, name):
    _, _, trace = traced[name]
    missing = [span for span in EXERCISED[name] if trace.calls(span) == 0]
    assert missing == []
    reached = [n for n in trace.names if trace.calls(n)
               and any(n.startswith(prefix) for prefix in BYPASSED[name])]
    assert reached == []


@pytest.mark.parametrize("metric", sorted(SEED_COUNTS))
def test_seed_counts_repeat_exactly(traced, metric):
    for name, expected in SEED_COUNTS[metric].items():
        assert traced[name][1][metric] == expected, name


def test_socp_evaluations_are_attributed_to_methods(traced):
    _, values, trace = traced["socp-methods"]
    evals = sum(values[f"socp.evals.{m}"] for m in SOCP_METHODS)
    assert evals == trace.calls("socp.objective") + trace.calls("socp.sample_objective")
    assert values["socp.gap.newton"] == 0.0


def test_self_time_excludes_child_spans(tmp_path):
    rec = Recorder()
    inner = rec.wrap("lowrank.ensemble_gram", lambda: sum(range(1000)))
    outer = rec.wrap("lowrank.compress", lambda: [inner() for _ in range(3)])
    outer()
    rec.dump(tmp_path / "t.npz")
    trace = Trace(tmp_path / "t.npz")
    assert trace.calls("lowrank.ensemble_gram") == 3
    assert trace.self_s("lowrank.compress") == pytest.approx(
        trace.total_s("lowrank.compress") - trace.total_s("lowrank.ensemble_gram"),
        rel=1e-9, abs=1e-12)
    assert trace.layer_self_s("lowrank") == pytest.approx(trace.total_s("lowrank.compress"),
                                                          rel=1e-9, abs=1e-12)
    metrics = layer_metrics(trace)
    assert metrics["lowrank.ensemble_gram.calls"] == 3


def test_install_rebinds_aliases_and_dispatch_tables():
    script = """
import lram.numerics, lram.spde, lram.cli
from tracer import Recorder
lram.spde.aliased_eig = lram.numerics.sym_eig_topk  # as `from .numerics import ...` would
rec = Recorder()
rec.install()
assert lram.spde.aliased_eig is lram.numerics.sym_eig_topk
assert lram.cli.COMMANDS["spde"] is lram.cli.cmd_spde
assert lram.numerics.sym_eig_topk.__wrapped__ is not None
lram.spde.aliased_eig(lram.numerics.to_dense([[2.0, 0.0], [0.0, 1.0]]), 1)
assert "numerics.sym_eig_topk" in [rec.names[i] for i in rec.name_id]
"""
    env = run.child_env(ROOT)
    env["PYTHONPATH"] = f"{ROOT / 'src'}:{ROOT / 'perfbench'}"
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)


# --- oracles trip on corrupted outputs -------------------------------------------------


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One untraced invocation per small workload, with its inputs and outputs kept."""
    out = {}
    for name, workload in SMALL.items():
        base = tmp_path_factory.mktemp(name)
        context = workload.prepare(base, SEED)
        out_dir = base / "out"
        result = base / "result.json"
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "invoke.py"), str(result),
                        "--", *workload.cli_args(context, out_dir)],
                       env=run.child_env(ROOT), check=True, timeout=300)
        assert json.loads(result.read_text())["rc"] == 0
        out[name] = (workload, context, out_dir)
    return out


def _copy(outputs, name, tmp_path):
    workload, context, out_dir = outputs[name]
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    return workload, context, copy


def _edit_csv(path, column, edit, row=0):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    idx = header.index(column)
    cells[idx] = edit(cells[idx])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _find_row(path, column, value):
    return next(i for i, row in enumerate(read_csv(path)) if row[column] == value)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_oracles_pass_on_unmodified_outputs(outputs, name, tmp_path):
    workload, context, out_dir = _copy(outputs, name, tmp_path)
    check = workload.check(context, out_dir)
    assert check.failures == {}
    assert check.attempted == workload.operations_per_invocation
    if name == "spde-ensemble":
        assert check.info["rank"] >= check.info["k_star"]


def test_spde_oracle_trips_on_perturbed_mean(outputs, tmp_path):
    workload, context, out_dir = _copy(outputs, "spde-ensemble", tmp_path)
    row = int(len(read_csv(out_dir / "qoi.csv")) / 2)
    _edit_csv(out_dir / "qoi.csv", "qoi", lambda v: repr(float(v) * (1 + 1e-6)), row)
    assert "spde" in workload.check(context, out_dir).failures


def test_spde_oracle_trips_on_rank_below_critical(outputs, tmp_path):
    workload, context, out_dir = _copy(outputs, "spde-ensemble", tmp_path)
    k_star = int(read_csv(out_dir / "report.csv")[0]["k_star"])
    _edit_csv(out_dir / "report.csv", "rank", lambda v: str(k_star - 1))
    assert "rank" in workload.check(context, out_dir).failures["spde"]


def _rewrite_factors(path, edit):
    raw = bytearray(path.read_bytes())
    path.write_bytes(bytes(edit(raw)))


def test_compress_oracle_trips_on_non_orthonormal_basis(outputs, tmp_path):
    import numpy as np

    workload, context, out_dir = _copy(outputs, "compress-lowrank", tmp_path)

    def bump(raw):
        # a basis entry of an interior node (boundary rows of the basis are zero)
        dim, rank = np.frombuffer(raw, dtype="<u8", count=2, offset=8)
        offset = 32 + 8 * int(dim * rank // 2)
        entry = np.frombuffer(raw, dtype="<f8", count=1, offset=offset)[0]
        raw[offset:offset + 8] = np.array([entry + 1e-4], dtype="<f8").tobytes()
        return raw

    _rewrite_factors(out_dir / "factors.bin", bump)
    assert "orthonormal" in workload.check(context, out_dir).failures["compress"]


def test_compress_oracle_trips_on_truncated_file(outputs, tmp_path):
    workload, context, out_dir = _copy(outputs, "compress-lowrank", tmp_path)
    _rewrite_factors(out_dir / "factors.bin", lambda raw: raw[:-8])
    assert "bytes" in workload.check(context, out_dir).failures["compress"]


def test_compress_oracle_trips_on_wrong_coefficients(outputs, tmp_path):
    import numpy as np

    workload, context, out_dir = _copy(outputs, "compress-lowrank", tmp_path)

    def bump_last(raw):
        last = np.frombuffer(raw, dtype="<f8", count=1, offset=len(raw) - 8)[0]
        raw[-8:] = np.array([last + 1e-3], dtype="<f8").tobytes()
        return raw

    _rewrite_factors(out_dir / "factors.bin", bump_last)
    assert "coefficients" in workload.check(context, out_dir).failures["compress"]


def test_compress_oracle_trips_on_reported_error(outputs, tmp_path):
    workload, context, out_dir = _copy(outputs, "compress-lowrank", tmp_path)
    _edit_csv(out_dir / "factors.csv", "rmsre", lambda v: repr(float(v) * (1 + 1e-6)))
    assert "reported rmsre" in workload.check(context, out_dir).failures["compress"]


def test_socp_oracle_trips_on_unconverged_method(outputs, tmp_path):
    workload, context, out_dir = _copy(outputs, "socp-methods", tmp_path)
    path = out_dir / "methods.csv"
    _edit_csv(path, "converged", lambda v: "false", _find_row(path, "method", "sdm"))
    assert set(workload.check(context, out_dir).failures) == {"sdm"}


def test_socp_oracle_trips_on_newton_trm_disagreement(outputs, tmp_path):
    workload, context, out_dir = _copy(outputs, "socp-methods", tmp_path)
    path = out_dir / "methods.csv"
    _edit_csv(path, "objective_final", lambda v: repr(float(v) * (1 + 1e-6)),
              _find_row(path, "method", "trm"))
    assert set(workload.check(context, out_dir).failures) == {"newton", "trm"}


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "socp-methods",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
