import argparse
import dataclasses
import hashlib
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from lram import cli, fem, lowrank, numerics, perturbed, socp, spde
from lram.errors import (
    ConfigParseError,
    ConfigRangeError,
    NoConvergenceError,
    SingularSampleError,
    UnknownKeyError,
)


def run(argv):
    return cli.main(argv)


def manifest_record(out, *prefixes):
    lines = (out / "manifest.txt").read_text().splitlines()
    return dict(line.split(" = ") for line in lines if line.startswith(prefixes))


def digest_all(out_dir, names):
    return {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in names}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_empty_config_gives_documented_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing here\n\n")
    (cfg,) = cli.parse_config("spde", path=path)
    assert cfg.h == 0.1
    assert cfg.samples == 100
    assert cfg.tau == 0.88
    assert cfg.epsilon == 0.2
    assert cfg.distribution == "normal"
    assert cfg.method == "smw"
    assert cfg.seed == 1234
    assert cfg.out_dir == "out"


def test_flag_overrides_file_overrides_default(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("tau = 0.6\nsamples = 7\n")
    (cfg,) = cli.parse_config("spde", path=path, overrides={"tau": "0.88"})
    assert cfg.tau == 0.88   # flag wins
    assert cfg.samples == 7  # file wins over default


def test_out_of_range_value_rejected():
    with pytest.raises(ConfigRangeError):
        cli.parse_config("spde", overrides={"tau": "1.5"})


@pytest.mark.parametrize("make", [
    lambda: spde.SpdeRunConfig(seed=-1),
    lambda: spde.SpdeRunConfig(h=1.5),
    lambda: socp.OptimizerSpec(method="sgd", sgd_decay=0.0),
    lambda: socp.OptimizerSpec(tr_radius0=-1.0),
    lambda: socp.SocpRunConfig(desired_mode="x"),
], ids=["seed", "h", "sgd_decay", "tr_radius0", "desired_mode"])
def test_library_config_checks_range_at_construction(make):
    with pytest.raises(ConfigRangeError):
        make()


def test_optimizer_range_error_exits_before_assembly(monkeypatch, tmp_path):
    assembled = []
    assemble = fem.assemble
    monkeypatch.setattr(fem, "assemble",
                        lambda *a, **kw: assembled.append(1) or assemble(*a, **kw))
    out = tmp_path / "out"
    # each flag passes on its own; the Wolfe pair needs wolfe_c1 < wolfe_c2 = 0.9
    assert run(["socp", "--h", "0.05", "--wolfe-c1", "0.95", "--out-dir", str(out)]) == 1
    assert not out.exists()
    assert assembled == []


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("taus = 0.5\n")
    with pytest.raises(UnknownKeyError):
        cli.parse_config("spde", path=path)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("tau = 0.5\nnot a pair\n")
    with pytest.raises(ConfigParseError) as err:
        cli.parse_config("spde", path=path)
    assert "line 2" in str(err.value)


def test_bad_value_type_reports_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("samples = many\n")
    with pytest.raises(ConfigParseError) as err:
        cli.parse_config("spde", path=path)
    assert "samples" in str(err.value)


# ---------------------------------------------------------------------------
# spde subcommand
# ---------------------------------------------------------------------------


def test_spde_zero_epsilon_matches_deterministic(tmp_path):
    out = tmp_path / "run"
    code = run(["spde", "--h", "0.25", "--samples", "4", "--tau", "1.0",
                "--epsilon", "0", "--out-dir", str(out)])
    assert code == 0
    lines = (out / "qoi.csv").read_text().splitlines()
    assert lines[0] == "node,unperturbed,qoi"
    for line in lines[1:]:
        _, ubar, qoi = line.split(",")
        assert float(ubar) == float(qoi)
    report = (out / "report.csv").read_text().splitlines()
    header = report[0].split(",")
    row = report[1].split(",")
    assert float(row[header.index("err_l2")]) <= 1e-12


def test_err_l2_u0_matches_independent_solves(tmp_path):
    single, scan = tmp_path / "single", tmp_path / "scan"
    args = ["spde", "--h", "0.1", "--samples", "5", "--seed", "3"]
    assert run([*args, "--tau", "0.5", "--out-dir", str(single)]) == 0
    assert run([*args, "--tau-scan", "0.5,1.0", "--out-dir", str(scan)]) == 0
    # u0 and the reference mean from SciPy's spsolve on the same assembly
    (cfg,) = cli.parse_config("spde", overrides={"h": "0.1", "samples": "5", "seed": "3"})
    system = fem.sampled_system(cfg)
    u0 = sp.linalg.spsolve(system.base.tocsc(), system.load)
    mean = np.mean([sp.linalg.spsolve((system.base + p).tocsc(), system.load)
                    for p in system.perturbations], axis=0)
    expected = np.linalg.norm(mean - u0)
    header, row = ((single / "report.csv").read_text().splitlines()[i].split(",")
                   for i in (0, 1))
    assert header[header.index("err_l2") + 1] == "err_l2_u0"
    assert abs(float(row[header.index("err_l2_u0")]) - expected) <= 1e-12
    rows = [line.split(",") for line in (scan / "errors_vs_tau.csv").read_text().splitlines()]
    assert [abs(float(r[rows[0].index("err_l2_u0")]) - expected) <= 1e-12
            for r in rows[1:]] == [True, True]
    # well above the compression error at k* and below: k = 61 of N = 121 is below k* = 81
    assert expected > 1e-3 and float(row[header.index("err_l2")]) < expected


def test_spde_tau_scan_monotone_error_column(tmp_path):
    out = tmp_path / "scan"
    code = run(["spde", "--h", "0.25", "--samples", "8", "--seed", "5",
                "--tau-scan", "0.4,0.6,0.8,1.0", "--out-dir", str(out)])
    assert code == 0
    lines = (out / "errors_vs_tau.csv").read_text().splitlines()
    assert lines[0] == "tau,rank,err_l2,err_l2_u0,rmsre"
    errs = [float(line.split(",")[2]) for line in lines[1:]]
    for a, b in zip(errs, errs[1:]):
        assert b <= a * 1.05 + 1e-9


def test_spde_determinism_byte_identical(tmp_path):
    args = ["spde", "--h", "0.25", "--samples", "4", "--seed", "9"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out-dir", str(out1)]) == 0
    assert run(args + ["--out-dir", str(out2)]) == 0
    names = ["report.csv", "qoi.csv", "energy.csv"]
    assert digest_all(out1, names) == digest_all(out2, names)


def test_band_route_energy_csv_byte_identical(tmp_path, monkeypatch):
    # the band route at h = 0.1, whose support is too wide for it by default; the
    # direct method reads eigenvalues only
    monkeypatch.setattr(numerics, "BAND_EIG_MAX_FRACTION", 1.0)
    args = ["spde", "--h", "0.1", "--samples", "6", "--seed", "9", "--method", "direct"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out-dir", str(out1)]) == 0
    assert run(args + ["--out-dir", str(out2)]) == 0
    assert manifest_record(out1, "spectrum.") == {"spectrum.route": "band",
                                                  "spectrum.bandwidth": "18"}
    assert (out1 / "energy.csv").read_bytes() == (out2 / "energy.csv").read_bytes()


def test_manifest_records_spectrum_route_and_peak_rss(tmp_path, monkeypatch):
    outs = {name: tmp_path / name for name in ("spde", "socp", "compress", "diagnose")}
    # h = 0.1: the support's bandwidth 18 of 81 rows keeps the values dense
    assert run(["spde", "--h", "0.1", "--samples", "3", "--tau", "0.95",
                "--out-dir", str(outs["spde"])]) == 0
    assert run(["socp", "--h", "0.1", "--samples", "3", "--out-dir", str(outs["socp"])]) == 0
    assert run(["diagnose", "--h", "0.025", "--samples", "3",
                "--out-dir", str(outs["diagnose"])]) == 0
    monkeypatch.setattr(numerics, "DENSE_EIG_MAX_DIM", 10)
    assert run(["compress", "--h", "0.1", "--samples", "3", "--tau", "0.05",
                "--out-dir", str(outs["compress"])]) == 0
    routes = {name: manifest_record(out, "spectrum.") for name, out in outs.items()}
    # the block products and outer steps of the Chebyshev route
    # (test_chebyshev_route_records_its_products)
    assert int(routes["compress"].pop("spectrum.products")) > 0
    assert int(routes["compress"].pop("spectrum.steps")) > 0
    assert routes == {
        "spde": {"spectrum.route": "dense"},
        "socp": {"spectrum.route": "dense"},
        # h = 0.025: |S| = 1521 with bandwidth 78, under a tenth
        "diagnose": {"spectrum.route": "band", "spectrum.bandwidth": "78"},
        "compress": {"spectrum.route": "chebyshev"},
    }
    for out in outs.values():
        assert float(manifest_record(out, "peak_rss_mb")["peak_rss_mb"]) > 1.0


def test_chebyshev_route_records_its_products(tmp_path, monkeypatch):
    # the Chebyshev route counts its block products with the Gram matrix and its outer
    # steps: the same in two runs, which write the same factor file; socp reaches that
    # route too.  Here one step, its degree-24 filter and its Rayleigh-Ritz product.
    monkeypatch.setattr(numerics, "DENSE_EIG_MAX_DIM", 10)
    records = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert run(["compress", "--h", "0.1", "--samples", "3", "--tau", "0.05",
                    "--out-dir", str(out)]) == 0
        records.append(manifest_record(out, "spectrum.", "sha256.factors.bin"))
    assert records[0] == records[1]
    assert records[0]["spectrum.route"] == "chebyshev"
    assert (records[0]["spectrum.products"], records[0]["spectrum.steps"]) == ("25", "1")
    out = tmp_path / "socp"
    assert run(["socp", "--h", "0.1", "--samples", "3", "--tau", "0.05",
                "--out-dir", str(out)]) == 0
    record = manifest_record(out, "spectrum.")
    assert record["spectrum.route"] == "chebyshev" and int(record["spectrum.products"]) > 0
    assert int(record["spectrum.steps"]) > 0


def test_compress_digests_the_factor_file_as_it_writes_it(tmp_path, monkeypatch):
    # lowrank.save_factors hashes factors.bin as it writes it: the manifest reads back
    # the other outputs only
    read_back = []

    def sha256(path, _original=cli._sha256):
        assert path.name != "factors.bin", "factors.bin was read back for its digest"
        read_back.append(path.name)
        return _original(path)

    monkeypatch.setattr(cli, "_sha256", sha256)
    out = tmp_path / "out"
    assert run(["compress", "--h", "0.1", "--samples", "3", "--tau", "0.05",
                "--out-dir", str(out)]) == 0
    assert read_back == ["factors.csv"]
    assert manifest_record(out, "sha256.factors.bin") == {
        "sha256.factors.bin": hashlib.sha256((out / "factors.bin").read_bytes()).hexdigest()}


def test_all_zero_ensemble_on_the_iterative_route(tmp_path, monkeypatch):
    # an empty support needs no eigensolve on the route that would run an iteration too
    for m in range(3):
        numerics.save_matrix_market(tmp_path / f"zero_{m}.mtx", sp.csr_array((60, 60)))
    monkeypatch.setattr(numerics, "DENSE_EIG_MAX_DIM", 10)
    assert not numerics.dense_eig(60, lowrank.rank_from_ratio(0.05, 60))
    out = tmp_path / "out"
    assert run(["compress", "--input", str(tmp_path / "zero_*.mtx"), "--tau", "0.05",
                "--out-dir", str(out)]) == 0
    assert manifest_record(out, "spectrum.") == {"spectrum.route": "none"}
    header, row = ((out / "factors.csv").read_text().splitlines()[i].split(",") for i in (0, 1))
    assert float(row[header.index("rmsre")]) == 0.0
    factors = lowrank.load_factors(out / "factors.bin")
    assert factors.basis.tobytes() == np.eye(60, 3).tobytes()


def test_spde_numerical_failure_exit_2(tmp_path, capsys):
    out = tmp_path / "indefinite"
    code = run(["spde", "--h", "0.25", "--samples", "2", "--epsilon", "5.0",
                "--method", "cg", "--out-dir", str(out)])
    assert code == 2
    error = manifest_record(out, "error")["error"]
    assert error.startswith("NoConvergenceError") and "sample 1" in error
    assert "nonpositive curvature for sample 1" in capsys.readouterr().err


def test_failed_run_records_its_field(tmp_path, capsys):
    # CG breaks down in the solve; the field that caused it was recorded before
    out = tmp_path / "indefinite"
    code = run(["spde", "--h", "0.25", "--samples", "2", "--epsilon", "5",
                "--method", "cg", "--out-dir", str(out)])
    assert code == 2
    record = manifest_record(out, "field.", "error")
    assert record["error"].startswith("NoConvergenceError")
    assert float(record["field.min_coefficient"]) < 0.0
    assert int(record["field.nonpositive_samples"]) > 0
    assert "nonpositive diffusion coefficient" in capsys.readouterr().err


def test_sample_failure_while_the_spectrum_runs_exits_2(monkeypatch, tmp_path):
    # the direct method factors every sample of the --epsilon 5 field; here sample 1's
    # matrix is made singular, and its LU fails on the calling thread while the worker
    # thread computes the spectrum
    sampled_system = fem.sampled_system

    def singular_sample_1(cfg):
        system = sampled_system(cfg)
        system.perturbations[1] = -system.base
        return system

    failed, worker = threading.Event(), []
    sample_lu, gram_spectrum = perturbed._sample_lu, lowrank.gram_spectrum

    def failing(ensemble, m):
        try:
            return sample_lu(ensemble, m)
        except SingularSampleError:
            failed.set()
            raise

    def waiting(*args, **kwargs):
        worker.append((threading.current_thread() is threading.main_thread(), failed.wait(60)))
        return gram_spectrum(*args, **kwargs)

    monkeypatch.setattr(fem, "sampled_system", singular_sample_1)
    monkeypatch.setattr(perturbed, "_sample_lu", failing)
    monkeypatch.setattr(lowrank, "gram_spectrum", waiting)
    out = tmp_path / "singular"
    assert run(["spde", "--h", "0.25", "--samples", "2", "--epsilon", "5",
                "--method", "direct", "--out-dir", str(out)]) == 2
    # the worker, off the main thread, was still running when the sample failed
    assert worker == [(False, True)]
    record = manifest_record(out, "error", "timing.")
    assert record == {"error": "SingularSampleError: perturbed matrix singular for sample 1"}


@pytest.mark.parametrize("argv", [
    ["--method", "direct"],
    ["--method", "cg"],
    [],
    ["--no-reference"],
], ids=["direct", "cg", "smw-reference", "smw-no-reference"])
def test_spectrum_failure_on_the_worker_exits_as_a_serial_run(monkeypatch, tmp_path, argv):
    # as if raised on the calling thread: exit 2, the error in the manifest, no timings
    def unconverged(*args, **kwargs):
        raise NoConvergenceError("Chebyshev subspace iteration converged for 0 of 9 pairs")

    monkeypatch.setattr(lowrank, "gram_spectrum", unconverged)
    out = tmp_path / "out"
    assert run(["spde", "--h", "0.25", "--samples", "3", *argv, "--out-dir", str(out)]) == 2
    assert manifest_record(out, "error", "timing.") == {
        "error": "NoConvergenceError: Chebyshev subspace iteration converged for 0 of 9 pairs"}


@pytest.mark.parametrize("argv, concurrent", [
    ([], "compress,solve,diagnostics"),
    (["--method", "direct", "--no-reference"], "compress,solve,diagnostics"),
    (["--method", "cg", "--no-reference"], "compress,solve,diagnostics"),
    (["--tau-scan", "0.5,1.0"], "compress,solve,diagnostics"),
    (["--no-reference"], "compress,solve,diagnostics"),
], ids=["smw-reference", "direct", "cg", "scan", "smw-no-reference"])
def test_manifest_names_the_phases_that_overlapped(tmp_path, argv, concurrent):
    # their timings overlap, so timing.compress + timing.solve can exceed the wall time
    out = tmp_path / "out"
    assert run(["spde", "--h", "0.25", "--samples", "3", *argv, "--out-dir", str(out)]) == 0
    record = manifest_record(out, "timing.")
    assert {"timing.compress", "timing.solve", "timing.diagnostics"} <= set(record)
    assert record.get("timing.concurrent") == concurrent


def test_spde_export_samples_columns(tmp_path):
    out = tmp_path / "exp"
    code = run(["spde", "--h", "0.5", "--samples", "2", "--export-samples",
                "--out-dir", str(out)])
    assert code == 0
    header, *rows = (out / "qoi.csv").read_text().splitlines()
    assert header == "node,unperturbed,qoi,sample_0000,sample_0001"
    # every cell parses back to the value the run computed: repr round-trips exactly
    solution = spde.run_spde(spde.SpdeRunConfig(h=0.5, samples=2)).solution
    assert len(rows) == solution.qoi.shape[0] == 9
    for i, row in enumerate(rows):
        cells = row.split(",")
        assert int(cells[0]) == i
        assert [float(c) for c in cells[1:]] == [
            solution.unperturbed[i], solution.qoi[i], *(u[i] for u in solution.samples)]


def test_spde_manifest_contents(tmp_path):
    out = tmp_path / "m"
    assert run(["spde", "--h", "0.25", "--samples", "3", "--out-dir", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    keys = {line.split(" = ")[0] for line in manifest}
    assert {"tool_version", "subcommand", "h", "samples", "seed",
            "sha256.report.csv", "sha256.qoi.csv"} <= keys


def test_spde_manifest_records_woodbury_form(tmp_path):
    above, below, direct = tmp_path / "above", tmp_path / "below", tmp_path / "direct"
    assert run(["spde", "--h", "0.05", "--samples", "3", "--tau", "0.95",
                "--out-dir", str(above)]) == 0
    assert run(["spde", "--h", "0.05", "--samples", "3", "--tau", "0.6",
                "--out-dir", str(below)]) == 0
    assert run(["spde", "--h", "0.25", "--samples", "3", "--method", "direct",
                "--out-dir", str(direct)]) == 0
    # N = 441, k* = 361: rank 419 is above k*, so the update rank is 0 and each sample
    # is solved directly; rank 265 leaves a rank-96 complement, but its per-sample LU
    # costs more than it saves, so the basis form runs.  The direct method is the
    # direct form.
    assert manifest_record(above, "woodbury.") == {
        "woodbury.form": "direct", "woodbury.update_rank": "0"}
    assert manifest_record(below, "woodbury.") == {
        "woodbury.form": "basis", "woodbury.update_rank": "265"}
    assert manifest_record(direct, "woodbury.") == {
        "woodbury.form": "direct", "woodbury.update_rank": "0"}


def test_cg_manifest_records_iterations_and_residual(tmp_path):
    out = tmp_path / "cg"
    assert run(["spde", "--h", "0.1", "--samples", "4", "--method", "cg",
                "--out-dir", str(out)]) == 0
    # block CG makes no Woodbury update and compresses nothing
    record = manifest_record(out, "woodbury.", "cg.")
    solution = spde.run_spde(spde.SpdeRunConfig(h=0.1, samples=4, method="cg")).solution
    assert record == {"woodbury.form": "none", "woodbury.update_rank": "0",
                      "cg.iterations": str(solution.iterations),
                      "cg.residual_max": repr(max(solution.residuals))}
    assert 0 < solution.iterations and 0.0 < max(solution.residuals) <= 1e-10
    header, row = (out / "report.csv").read_text().splitlines()
    report = dict(zip(header.split(","), row.split(",")))
    assert (report["method"], report["rank"], report["rmsre"]) == ("cg", "-1", "nan")
    assert (report["form"], report["update_rank"]) == ("none", "0")
    assert float(report["err_l2"]) <= 1e-10 * np.linalg.norm(solution.qoi)
    smw = tmp_path / "smw"
    assert run(["spde", "--h", "0.25", "--samples", "3", "--out-dir", str(smw)]) == 0
    assert manifest_record(smw, "cg.") == {}


def test_manifest_digest_streams_the_file(tmp_path):
    # compress writes factor files of 100+ MB; the digest must not hold one whole
    big = tmp_path / "factors.bin"
    big.write_bytes(np.arange(1 << 20, dtype="<f8").tobytes())  # 8 MiB
    tracemalloc.start()
    try:
        cli.write_manifest(tmp_path, "compress", {}, {}, ["factors.bin"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < big.stat().st_size // 2
    assert manifest_record(tmp_path, "sha256.") == {
        "sha256.factors.bin": hashlib.sha256(big.read_bytes()).hexdigest()}


def test_usage_error_exit_1(tmp_path):
    assert run(["spde", "--tau", "1.5", "--out-dir", str(tmp_path / "x")]) == 1
    assert run(["frobnicate"]) == 1


def test_out_dir_that_cannot_be_made_exits_1(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    # an existing file, and a directory below one
    for out in (taken, taken / "below"):
        assert run(["diagnose", "--h", "0.25", "--samples", "2", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("lram: cannot create output directory") and err.count("\n") == 1
        assert "Traceback" not in err
    assert taken.read_text() == ""


def test_sgd_check_cadence_is_no_key(tmp_path):
    # sgd's stopping cadence is socp.SGD_CHECK_EVERY, not a key
    out = str(tmp_path / "out")
    assert run(["socp", "--sgd-check-every", "10", "--out-dir", out]) == 1
    assert run(["socp", "--set", "sgd_check_every=10", "--out-dir", out]) == 1
    assert "sgd_check_every" not in cli.schema("socp")


def test_record_spectrum_writes_each_set_field_in_field_order():
    def recorded(eigensolve):
        record = {}
        cli._record_spectrum(record, eigensolve)
        return list(record.items())

    assert recorded(numerics.EigenSolve("chebyshev", products=25, steps=1)) == [
        ("spectrum.route", "chebyshev"), ("spectrum.products", 25), ("spectrum.steps", 1)]
    assert recorded(numerics.EigenSolve("none")) == [("spectrum.route", "none")]
    # a new field of the record reaches the manifest with no further change
    names = [f.name for f in dataclasses.fields(numerics.EigenSolve)]
    every = numerics.EigenSolve(*range(len(names)))
    assert recorded(every) == [(f"spectrum.{name}", i) for i, name in enumerate(names)]


# ---------------------------------------------------------------------------
# socp subcommand
# ---------------------------------------------------------------------------


def test_socp_newton_single_iteration_history(tmp_path):
    out = tmp_path / "newton"
    code = run(["socp", "--h", "0.25", "--samples", "4", "--method", "newton",
                "--grad-tol", "1e-8", "--out-dir", str(out)])
    assert code == 0
    lines = (out / "socp_history.csv").read_text().splitlines()
    assert lines[0] == "iteration,objective,grad_norm,step"
    assert len(lines) == 2  # one outer iteration
    assert (out / "control.csv").read_text().splitlines()[0] == "node,value"
    assert (out / "state_mean.csv").read_text().splitlines()[0] == "node,value"


def test_socp_compare_methods_table(tmp_path):
    out = tmp_path / "cmp"
    code = run(["socp", "--h", "0.25", "--samples", "4", "--compare-methods",
                "--out-dir", str(out)])
    assert code == 0
    lines = (out / "methods.csv").read_text().splitlines()
    assert lines[0] == ("method,iterations,converged,objective_initial,"
                        "objective_final,ratio,error,grad_norm_final,grad_norm_initial")
    assert len(lines) == 1 + 5
    assert [line.split(",")[0] for line in lines[1:]] == list(cli.socp.METHODS)
    timings = manifest_record(out, "timing.optimize.")
    assert sorted(timings) == sorted(f"timing.optimize.{m}" for m in cli.socp.METHODS)
    # every method starts from the same control, so from the same gradient
    initial = {line.split(",")[-1] for line in lines[1:]}
    assert len(initial) == 1 and float(initial.pop()) > 1e-3
    # operator passes and line-search trials go to the manifest, outside the
    # deterministic CSV set
    passes = manifest_record(out, "socp.operator_passes.")
    assert sorted(passes) == sorted(f"socp.operator_passes.{m}" for m in cli.socp.METHODS)
    assert all(float(value) >= 2.0 for value in passes.values())
    trials = manifest_record(out, "socp.line_search_trials.")
    assert sorted(trials) == sorted(f"socp.line_search_trials.{m}" for m in cli.socp.METHODS)
    iterations = {line.split(",")[0]: int(line.split(",")[1]) for line in lines[1:]}
    # each Wolfe iteration tries at least one step; the trust region tries none
    for method in ("sdm", "newton", "bfgs"):
        assert int(trials[f"socp.line_search_trials.{method}"]) >= iterations[method] >= 1
    assert trials["socp.line_search_trials.trm"] == "0"


def test_socp_invalid_method_usage_error(tmp_path):
    assert run(["socp", "--method", "annealing", "--out-dir", str(tmp_path)]) == 1


def test_socp_determinism(tmp_path):
    args = ["socp", "--h", "0.25", "--samples", "3", "--method", "sgd", "--seed", "4"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out-dir", str(out1)]) == 0
    assert run(args + ["--out-dir", str(out2)]) == 0
    names = ["socp_history.csv", "control.csv", "state_mean.csv"]
    assert digest_all(out1, names) == digest_all(out2, names)


# ---------------------------------------------------------------------------
# compress / diagnose subcommands
# ---------------------------------------------------------------------------


def write_rank_one_ensemble(directory, n=5, m=3):
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(m):
        a = np.zeros((n, n))
        a[0, 0] = float(i + 1)
        numerics.save_matrix_market(directory / f"member_{i}.mtx", sp.csr_array(a))
    return str(directory / "member_*.mtx")


def test_spde_manifest_reports_field_and_critical_rank(tmp_path, capsys):
    keys = ("field.", "rank_below_k_star")
    below, rough, default = tmp_path / "below", tmp_path / "rough", tmp_path / "default"
    # h = 0.1: tau = 0.5 asks for rank 61 of N = 121, below k* = 81
    assert run(["spde", "--h", "0.1", "--tau", "0.5", "--out-dir", str(below)]) == 0
    warned = capsys.readouterr().err
    assert manifest_record(below, *keys)["rank_below_k_star"] == "true"
    assert "warning" in warned and "rank 61" in warned and "k* = 81" in warned
    assert run(["spde", "--h", "0.1", "--epsilon", "0.9", "--out-dir", str(rough)]) == 0
    record = manifest_record(rough, *keys)
    assert int(record["field.nonpositive_samples"]) > 0
    assert float(record["field.min_coefficient"]) <= 0.0
    assert "nonpositive diffusion coefficient" in capsys.readouterr().err
    assert run(["spde", "--h", "0.1", "--out-dir", str(default)]) == 0
    record = manifest_record(default, *keys)
    assert (record["field.nonpositive_samples"], record["rank_below_k_star"]) == ("0", "false")
    assert float(record["field.min_coefficient"]) > 0.0
    assert capsys.readouterr().err == ""


def test_socp_manifest_records_woodbury_form_and_field(tmp_path):
    out = tmp_path / "socp"
    assert run(["socp", "--h", "0.05", "--samples", "3", "--out-dir", str(out)]) == 0
    # N = 441 at tau = 0.88: rank 389 is above k* = 361, so the samples are solved directly
    assert manifest_record(out, "woodbury.", "field.nonpositive") == {
        "woodbury.form": "direct", "woodbury.update_rank": "0",
        "field.nonpositive_samples": "0"}


def test_tau_scan_manifest_reports_field_and_critical_rank(tmp_path, capsys):
    keys = ("field.", "rank_below_k_star")
    crossing, above = tmp_path / "crossing", tmp_path / "above"
    # h = 0.1, N = 121, k* = 81: tau 0.5 and 0.8 ask for ranks 61 and 97
    assert run(["spde", "--h", "0.1", "--samples", "20", "--tau-scan", "0.5,0.8",
                "--out-dir", str(crossing)]) == 0
    record = manifest_record(crossing, *keys, "k_star")
    assert (record["rank_below_k_star"], record["k_star"]) == ("true", "81")
    assert (record["field.nonpositive_samples"], float(record["field.min_coefficient"]) > 0) \
        == ("0", True)
    warned = capsys.readouterr().err
    assert "rank 61 is below" in warned and "97" not in warned and "k* = 81" in warned
    assert run(["spde", "--h", "0.1", "--samples", "20", "--epsilon", "0.9",
                "--tau-scan", "0.7,1.0", "--out-dir", str(above)]) == 0
    record = manifest_record(above, *keys)
    assert record["rank_below_k_star"] == "false"
    assert int(record["field.nonpositive_samples"]) > 0
    assert "nonpositive diffusion coefficient" in capsys.readouterr().err


@pytest.fixture
def sample_work(monkeypatch):
    """Counts of sample LUs, capacitance LUs and stacked band Cholesky factorizations."""
    from lram import perturbed

    calls = {"sample_lu": 0, "capacitance": 0, "band": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(perturbed, "_sample_lu", counted("sample_lu", perturbed._sample_lu))
    monkeypatch.setattr(perturbed.sla, "lu_factor",
                        counted("capacitance", perturbed.sla.lu_factor))
    monkeypatch.setattr(numerics, "band_cholesky", counted("band", numerics.band_cholesky))
    return calls


@pytest.mark.parametrize("argv, reference, sample_lus, bands", [
    (["spde", "--tau", "0.95", "--no-reference"], {}, 4, 0),
    (["spde", "--tau", "0.95"], {"reference.reused": "true"}, 4, 0),
    (["socp", "--tau", "0.88"], {}, 0, 1),
], ids=["spde", "spde-reference", "socp"])
def test_direct_route_at_or_above_k_star(sample_work, tmp_path, argv, reference, sample_lus,
                                         bands):
    # N = 441, k* = 361: ranks 419 and 389 leave no complement, so no capacitance is
    # formed.  spde makes each of the M samples' sparse LUs, and the direct reference
    # reuses those solutions instead of making the same M LUs again; socp prices by the
    # base's factor, makes no sample LU, and factors all samples by one stacked band
    # Cholesky
    samples = 4
    out = tmp_path / "out"
    assert run([*argv, "--h", "0.05", "--samples", str(samples), "--out-dir", str(out)]) == 0
    assert manifest_record(out, "woodbury.", "reference.") == {
        "woodbury.form": "direct", "woodbury.update_rank": "0", **reference}
    assert sample_work == {"sample_lu": sample_lus, "capacitance": 0, "band": bands}


def test_report_csv_names_the_form_that_ran(tmp_path):
    # N = 441, k* = 361: method smw at rank 419 runs in the direct form, at update rank 0
    out = tmp_path / "out"
    assert run(["spde", "--h", "0.05", "--samples", "4", "--tau", "0.95",
                "--out-dir", str(out)]) == 0
    header, row = (out / "report.csv").read_text().splitlines()
    assert header == ("nodes,samples,rank,tau,epsilon,method,err_l2,err_l2_u0,rmsre,"
                      "k_star,tau_star,cond_base,form,update_rank")
    report = dict(zip(header.split(","), row.split(",")))
    assert (report["method"], report["rank"], report["form"], report["update_rank"]) == (
        "smw", "419", "direct", "0")


@pytest.mark.parametrize("argv, forced, record", [
    (["--h", "0.05", "--samples", "50", "--tau", "0.88", "--epsilon", "0.2",
      "--distribution", "uniform", "--seed", "131"], False, ("band", "19", "0")),
    (["--h", "0.1", "--samples", "5", "--tau", "1.0", "--epsilon", "0.9",
      "--distribution", "normal", "--seed", "1234"], True, ("band", "9", "3")),
], ids=["socp-methods", "indefinite-samples"])
def test_socp_manifest_records_the_held_factorization(request, tmp_path, argv, forced, record):
    # the second ensemble's samples 0, 1 and 3 are not positive definite, so they
    # keep their LUs; at N = 121 only the dense flop model puts it in the direct form
    if forced:
        request.getfixturevalue("dense_flop_model")
    out = tmp_path / "out"
    assert run(["socp", *argv, "--out-dir", str(out)]) == 0
    assert manifest_record(out, "woodbury.form", "socp.factor.") == {
        "woodbury.form": "direct", "socp.factor.route": record[0],
        "socp.factor.bandwidth": record[1], "socp.factor.lu_samples": record[2]}


def test_socp_outside_the_direct_form_records_no_held_factorization(tmp_path):
    out = tmp_path / "out"
    assert run(["socp", "--h", "0.1", "--samples", "3", "--out-dir", str(out)]) == 0
    assert manifest_record(out, "woodbury.form", "socp.factor.") == {"woodbury.form": "basis"}


@pytest.fixture
def splu_calls(monkeypatch):
    """The ``permc_spec`` of each sparse LU made anywhere (None: SuperLU's default)."""
    import scipy.sparse.linalg as spla

    calls = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu",
                        lambda *a, **kw: calls.append(kw.get("permc_spec")) or splu(*a, **kw))
    return calls


def test_tau_scan_solves_each_sample_once(splu_calls, tmp_path):
    # N = 441, k* = 361: ranks 265, 397 and 441.  Rank 265 takes the basis form,
    # priced by the base's factor; ranks 397 and 441 are both SMW at update rank 0,
    # one direct-form solve of M sample LUs, which is also the reference.  Plus the
    # base factored once, for the pricing, both solves and its condition estimate.
    samples = 10
    out = tmp_path / "scan"
    assert run(["spde", "--h", "0.05", "--samples", str(samples),
                "--tau-scan", "0.6,0.9,1.0", "--out-dir", str(out)]) == 0
    assert len(splu_calls) == samples + 1
    assert manifest_record(out, "reference.") == {"reference.reused": "true"}
    rows = [line.split(",") for line in (out / "errors_vs_tau.csv").read_text().splitlines()]
    assert [(row[1], float(row[2])) for row in rows[2:]] == [("397", 0.0), ("441", 0.0)]
    assert float(rows[1][2]) > 0.0


def test_direct_method_has_no_ratio_to_scan(splu_calls, tmp_path, capsys):
    assert run(["spde", "--h", "0.05", "--samples", "3", "--method", "direct",
                "--tau-scan", "0.6,1.0", "--out-dir", str(tmp_path / "out")]) == 1
    assert "direct method" in capsys.readouterr().err
    assert splu_calls == []


def test_cg_factors_the_base_once(splu_calls, monkeypatch, tmp_path):
    built = []
    for name in ("_sample_lu", "WoodburySolver"):
        original = getattr(perturbed, name)
        monkeypatch.setattr(perturbed, name,
                            lambda *a, original=original, name=name, **kw:
                            built.append(name) or original(*a, **kw))
    assert run(["spde", "--h", "0.1", "--samples", "10", "--method", "cg", "--no-reference",
                "--out-dir", str(tmp_path / "out")]) == 0
    # the base's factorization and nothing else: no sample LU, no capacitance
    assert len(splu_calls) == 1 and built == []


@pytest.mark.parametrize("argv", [
    ["--method", "neumann"],
    ["--neumann-order", "4"],
    ["--config", "force_neumann.cfg"],
], ids=["method-neumann", "neumann-order", "force-neumann-file"])
def test_series_settings_are_refused_before_any_work(monkeypatch, tmp_path, argv):
    assembled = []
    assemble = fem.assemble
    monkeypatch.setattr(fem, "assemble",
                        lambda *a, **kw: assembled.append(1) or assemble(*a, **kw))
    (tmp_path / "force_neumann.cfg").write_text("force_neumann = true\n")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert run(["spde", "--h", "0.5", "--samples", "2", *argv, "--out-dir", str(out)]) == 1
    assert not out.exists()
    assert assembled == []


@pytest.mark.parametrize("argv", [
    ["--tau-scan", "0.5,2"],
    ["--tau-scan", "0,0.5"],
    ["--method", "direct", "--tau-scan", "0.5,1.0"],
    ["--method", "cg", "--tau-scan", "0.5"],
], ids=["above-one", "zero", "direct", "cg"])
def test_tau_scan_checked_before_any_work(monkeypatch, tmp_path, capsys, argv):
    assembled = []
    assemble = fem.assemble
    monkeypatch.setattr(fem, "assemble",
                        lambda *a, **kw: assembled.append(1) or assemble(*a, **kw))
    out = tmp_path / "out"
    assert run(["spde", "--h", "0.5", "--samples", "2", *argv, "--out-dir", str(out)]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()
    assert assembled == []


FLOAT_KEYS = [(name, key) for name in cli.CONFIGS
              for key, default in cli.schema(name).items() if isinstance(default, float)]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("name, key", FLOAT_KEYS, ids=[f"{n}-{k}" for n, k in FLOAT_KEYS])
def test_non_finite_float_is_refused_before_any_work(tmp_path, capsys, name, key, value):
    out = tmp_path / "out"
    assert run([name, "--set", f"{key}={value}", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.strip().endswith(f", got {value}")
    assert not out.exists()


def test_tau_scan_honours_reference_and_sample_condition_keys(tmp_path):
    args = ["spde", "--h", "0.25", "--samples", "2", "--tau-scan", "0.5,1.0"]
    plain, keyed = tmp_path / "plain", tmp_path / "keyed"
    assert run([*args, "--out-dir", str(plain)]) == 0
    assert run([*args, "--no-reference", "--out-dir", str(keyed)]) == 0

    def read(out):
        return [line.split(",") for line in (out / "errors_vs_tau.csv").read_text().splitlines()]

    # no reference: err_l2 and err_l2_u0 read nan, as in report.csv; every other cell
    # is unchanged
    assert [row[2:4] for row in read(keyed)[1:]] == [["nan", "nan"]] * 2
    assert [row[:2] + row[4:] for row in read(keyed)] == [row[:2] + row[4:]
                                                         for row in read(plain)]
    assert "reference.reused" not in manifest_record(keyed, "reference.")
    # per-sample condition estimates are diagnose's: spde knows no such key
    refused = tmp_path / "refused"
    for argv in (["--sample-conditions"], ["--set", "sample_conditions=true"]):
        assert run([*args, *argv, "--out-dir", str(refused)]) == 1
    assert not refused.exists()


def test_compress_reports_ensemble_nonzeros(tmp_path):
    out = tmp_path / "fem"
    assert run(["compress", "--h", "0.1", "--out-dir", str(out)]) == 0
    header, row = ((out / "factors.csv").read_text().splitlines()[i].split(",") for i in (0, 1))
    (cfg,) = cli.parse_config("compress", overrides={"h": "0.1"})
    system = fem.sampled_system(cfg)
    assert int(row[header.index("ensemble_nnz")]) == sum(p.nnz for p in system.perturbations)


def test_compress_reports_stored_scalars_over_input_nonzeros(tmp_path):
    out = tmp_path / "fem"
    assert run(["compress", "--h", "0.1", "--samples", "5", "--tau", "0.3",
                "--out-dir", str(out)]) == 0
    header, row = ((out / "factors.csv").read_text().splitlines()[i].split(",") for i in (0, 1))
    system = fem.sampled_system(fem.Sampling(h=0.1, samples=5))
    # counted from the members: N k for the basis and k N per member, over the nonzero
    # entries the members store
    n, k, m = 121, 37, 5
    nonzeros = sum(int(np.count_nonzero(p.toarray())) for p in system.perturbations)
    assert float(row[header.index("stored_over_input")]) == (n * k + m * k * n) / nonzeros


def test_compress_from_matrix_market(tmp_path):
    pattern = write_rank_one_ensemble(tmp_path / "mm")
    out = tmp_path / "out"
    code = run(["compress", "--input", pattern, "--tau", "0.2",
                "--export-mm", "--out-dir", str(out)])
    assert code == 0
    from lram import lowrank

    factors = lowrank.load_factors(out / "factors.bin")
    assert factors.rank == 1
    assert factors.num_samples == 3
    lines = (out / "factors.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert float(row[header.index("rmsre")]) <= 1e-12
    assert (out / "factors_mm" / "basis.mtx").exists()


def test_compress_from_fem_pipeline(tmp_path):
    out = tmp_path / "fem"
    code = run(["compress", "--h", "0.25", "--samples", "4", "--tau", "1.0",
                "--out-dir", str(out)])
    assert code == 0
    assert (out / "factors.bin").exists()


def test_compress_factor_file_holds_eager_projections(tmp_path):
    out = tmp_path / "fem"
    assert run(["compress", "--h", "0.25", "--samples", "4", "--tau", "0.6",
                "--out-dir", str(out)]) == 0
    raw = (out / "factors.bin").read_bytes()
    dim, rank, samples = np.frombuffer(raw, dtype="<u8", count=3, offset=8)
    basis = np.frombuffer(raw, dtype="<f8", count=dim * rank, offset=32).reshape(dim, rank)
    (cfg,) = cli.parse_config("compress", overrides={"h": "0.25", "samples": "4"})
    system = fem.sampled_system(cfg)
    # coefficients computed up front, as one list, then laid out after the basis
    coeffs = [np.asarray((p.T @ basis).T) for p in system.perturbations]
    expected = raw[:32] + basis.astype("<f8").tobytes() + b"".join(
        np.ascontiguousarray(c, dtype="<f8").tobytes() for c in coeffs)
    assert samples == len(coeffs)
    assert raw == expected


def test_diagnose_rank_one_ensemble(tmp_path):
    pattern = write_rank_one_ensemble(tmp_path / "mm")
    out = tmp_path / "diag"
    code = run(["diagnose", "--input", pattern, "--out-dir", str(out)])
    assert code == 0
    lines = (out / "diagnose.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert int(row[header.index("k_star")]) == 1
    energy = (out / "energy.csv").read_text().splitlines()
    values = [float(line.split(",")[1]) for line in energy[1:]]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0
    eigen = (out / "eigenvalues.csv").read_text().splitlines()
    assert len(eigen) - 1 == 5  # dim 5 < 20 eigenvalues listed


def test_diagnose_fem_rank_bound(tmp_path):
    out = tmp_path / "diagfem"
    code = run(["diagnose", "--h", "0.25", "--samples", "30", "--sample-conditions",
                "--out-dir", str(out)])
    assert code == 0
    lines = (out / "diagnose.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    # 25 nodes, 16 on the boundary
    assert int(row[header.index("k_star")]) <= 25 - 16
    assert float(row[header.index("cond_base")]) > 1.0
    eigen = (out / "eigenvalues.csv").read_text().splitlines()
    assert len(eigen) - 1 == 20
    conds = [float(line.split(",")[1])
             for line in (out / "sample_conditions.csv").read_text().splitlines()[1:]]
    assert len(conds) == 30 and all(np.isfinite(c) and c >= 1.0 for c in conds)


@pytest.mark.parametrize("subcommand", ["compress", "diagnose"])
def test_malformed_matrix_market_is_usage_error(tmp_path, capsys, subcommand):
    header = "%%MatrixMarket matrix coordinate real general\n"
    # (file contents in glob order, the offending file): an unparsable entry, a
    # non-square member, members of two shapes
    cases = {
        "garbled": (["3 3 1\n1 1 abc\n"], 0),
        "nonsquare": (["3 2 1\n1 1 1.0\n"], 0),
        "shapes": (["3 3 1\n1 1 1.0\n", "4 4 1\n1 1 1.0\n"], 1),
    }
    for name, (contents, offending) in cases.items():
        paths = [tmp_path / name / f"member_{i}.mtx" for i in range(len(contents))]
        paths[0].parent.mkdir()
        for path, body in zip(paths, contents):
            path.write_text(header + body)
        code = run([subcommand, "--input", str(tmp_path / name / "member_*.mtx"),
                    "--out-dir", str(tmp_path / "out")])
        assert code == 1, name
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(paths[offending]) in err, name
        assert "Traceback" not in err


@pytest.mark.parametrize("subcommand", sorted(cli.CONFIGS))
def test_each_schema_key_has_exactly_one_flag(subcommand):
    parsers = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
    flagged = [action.dest for action in parsers[subcommand]._actions
               if action.option_strings and action.dest not in ("help", "config", "set")]
    assert sorted(flagged) == sorted(cli.schema(subcommand))


def test_zero_ensemble_has_critical_rank_zero(tmp_path):
    # at epsilon = 0 every member is zero: k* = 0 in every command, not a failure
    diag, scan = tmp_path / "diag", tmp_path / "scan"
    assert run(["diagnose", "--h", "0.25", "--samples", "3", "--epsilon", "0",
                "--out-dir", str(diag)]) == 0
    header, row = ((diag / "diagnose.csv").read_text().splitlines()[i].split(",")
                   for i in (0, 1))
    assert (row[header.index("k_star")], row[header.index("tau_star")]) == ("0", "0.0")
    assert (diag / "energy.csv").read_text() == "rank,energy\n"
    assert run(["spde", "--h", "0.25", "--samples", "3", "--epsilon", "0",
                "--tau-scan", "0.5,1.0", "--out-dir", str(scan)]) == 0
    assert manifest_record(scan, "k_star") == {"k_star": "0"}
    errors = [line.split(",") for line in (scan / "errors_vs_tau.csv").read_text().splitlines()]
    assert [float(row[2]) for row in errors[1:]] == [0.0, 0.0]


def test_config_file_through_cli(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h = 0.25\nsamples = 3\ntau = 1.0\nepsilon = 0\n")
    out = tmp_path / "out"
    code = run(["spde", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 0
    manifest = (out / "manifest.txt").read_text()
    assert "samples = 3" in manifest


def test_sample_conditions_reuse_the_solve_lus(splu_calls, tmp_path):
    # diagnose solves nothing, but estimates each sample with its direct-form sample LU:
    # 10 sample LUs and the base's.  One ordering per ensemble: every sample LU takes
    # the base's, in natural order.
    samples = 10
    system = fem.sampled_system(fem.Sampling(h=0.1, samples=samples))
    # against estimates made on a fresh general LU of each sample matrix
    fresh = [numerics.condition_estimate(system.base + p) for p in system.perturbations]
    splu_calls.clear()
    out = tmp_path / "diagnose"
    assert run(["diagnose", "--h", "0.1", "--samples", str(samples),
                "--sample-conditions", "--out-dir", str(out)]) == 0
    assert len(splu_calls) == samples + 1
    assert splu_calls.count("NATURAL") == samples
    rows = (out / "sample_conditions.csv").read_text().splitlines()[1:]
    got = [float(row.split(",")[1]) for row in rows]
    assert np.allclose(got, fresh, rtol=1e-8, atol=0.0)


def test_diagnose_and_spde_estimate_cond_base_alike(tmp_path):
    # both with the base's SPD factorization, so the same name reads the same bits
    spde_out, diag_out = tmp_path / "spde", tmp_path / "diagnose"
    args = ["--h", "0.1", "--samples", "2"]
    assert run(["spde", *args, "--method", "cg", "--no-reference",
                "--out-dir", str(spde_out)]) == 0
    assert run(["diagnose", *args, "--out-dir", str(diag_out)]) == 0

    def cond_base(path):
        header, row = (line.split(",") for line in path.read_text().splitlines())
        return row[header.index("cond_base")]

    assert cond_base(diag_out / "diagnose.csv") == cond_base(spde_out / "report.csv")


@pytest.mark.parametrize("argv", [
    ["spde", "--h", "0.25", "--samples", "3", "--tau-scan", "0.5,1.0"],
    ["spde", "--h", "0.25", "--samples", "3", "--method", "cg", "--export-samples"],
    ["socp", "--h", "0.25", "--samples", "3", "--compare-methods"],
    ["compress", "--h", "0.25", "--samples", "3", "--tau", "0.5", "--export-mm"],
    ["diagnose", "--h", "0.25", "--samples", "3", "--sample-conditions"],
], ids=["spde-scan", "spde-cg", "socp-compare-methods", "compress", "diagnose"])
def test_only_the_manifest_differs_between_two_runs(tmp_path, argv):
    def written(out):
        return {str(path.relative_to(out)): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()}

    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        assert run([*argv, "--out-dir", str(out)]) == 0
    outputs = written(first)
    assert "manifest.txt" in outputs
    del outputs["manifest.txt"]
    assert outputs and outputs == {name: data for name, data in written(second).items()
                                   if name != "manifest.txt"}
