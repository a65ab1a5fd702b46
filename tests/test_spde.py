import threading

import numpy as np
import pytest

from lram import cli, fem, lowrank, numerics, perturbed, socp, spde
from lram.errors import ConfigRangeError

import oracles


def small_cfg(**overrides):
    base = dict(h=0.25, samples=6, tau=1.0, epsilon=0.2,
                distribution="normal", seed=11, method="smw")
    base.update(overrides)
    return spde.SpdeRunConfig(**base)


# ---------------------------------------------------------------------------
# run_spde
# ---------------------------------------------------------------------------


def test_zero_epsilon_recovers_deterministic_solve():
    report = spde.run_spde(small_cfg(epsilon=0.0))
    assert np.allclose(report.qoi, report.solution.unperturbed, atol=1e-12)
    assert report.err_l2 <= 1e-12


def test_full_ratio_matches_direct_reference():
    report = spde.run_spde(small_cfg())
    scale = np.linalg.norm(report.qoi)
    assert report.err_l2 <= 1e-9 * scale


def test_cg_method_runs_and_reports_residuals():
    report = spde.run_spde(small_cfg(method="cg"))
    assert len(report.solution.residuals) == 6
    assert max(report.solution.residuals) <= perturbed.CG_RTOL
    # the direct reference solves the same uncompressed systems
    assert report.err_l2 <= 1e-10 * np.linalg.norm(report.qoi)
    assert report.rank is None and report.rmsre is None
    with pytest.raises(ConfigRangeError, match="cg method has no reduction ratio"):
        spde.run_spde(small_cfg(method="cg"), [0.5])


def test_direct_method_reference_is_itself():
    report = spde.run_spde(small_cfg(method="direct"))
    assert report.err_l2 == 0.0
    assert report.rank is None and report.rmsre is None


def test_err_l2_u0_is_the_unperturbed_solution_against_the_reference():
    report = spde.run_spde(small_cfg(tau=0.5))
    assert report.err_l2_u0 == np.linalg.norm(report.qoi_reference
                                              - report.solution.unperturbed) > 0.0
    assert spde.run_spde(small_cfg(tau=0.5, reference=False)).err_l2_u0 is None


def test_direct_form_reuses_solution_as_reference(monkeypatch):
    sample_lus = []
    sample_lu = perturbed._sample_lu
    monkeypatch.setattr(perturbed, "_sample_lu",
                        lambda *args: sample_lus.append(args[-1]) or sample_lu(*args))
    # N = 441, k* = 361: rank 419 runs SMW at update rank 0, one sample LU each (sample
    # 0's made for pricing); that solve is the run's only direct one, and the
    # reference is no second one
    report = spde.run_spde(small_cfg(h=0.05, samples=3, tau=0.95))
    assert report.solution.woodbury_form == "direct"
    assert report.reference_reused and report.err_l2 == 0.0
    assert sorted(sample_lus) == [0, 1, 2]
    # rank 265 runs the basis form, which the reference checks: its LUs are the only
    # ones, sample 0's being the LU pricing made
    sample_lus.clear()
    report = spde.run_spde(small_cfg(h=0.05, samples=3, tau=0.6))
    assert report.solution.woodbury_form == "basis"
    assert not report.reference_reused and report.err_l2 > 0.0
    assert sorted(sample_lus) == [0, 1, 2]


def test_seed_reproducibility_bitwise():
    a = spde.run_spde(small_cfg())
    b = spde.run_spde(small_cfg())
    assert np.array_equal(a.qoi, b.qoi)
    assert np.array_equal(a.qoi_reference, b.qoi_reference)
    assert a.err_l2 == b.err_l2
    c = spde.run_spde(small_cfg(seed=12))
    assert not np.array_equal(a.qoi, c.qoi)


def test_report_carries_diagnostics():
    report = spde.run_spde(small_cfg())
    assert report.cond_base > 1.0
    assert report.energy_curve[-1][1] == 1.0
    assert set(report.timings) >= {"assemble", "compress", "solve", "reference", "diagnostics"}


def test_config_validation():
    with pytest.raises(ConfigRangeError):
        small_cfg(tau=0.0)
    with pytest.raises(ConfigRangeError):
        small_cfg(tau=1.5)
    with pytest.raises(ConfigRangeError):
        small_cfg(samples=0)
    with pytest.raises(ConfigRangeError):
        small_cfg(method="qr")


# ---------------------------------------------------------------------------
# critical ratio
# ---------------------------------------------------------------------------


def test_critical_rank_of_rank_one_ensemble():
    e1 = np.zeros((5, 5))
    e1[0, 0] = 1.0
    k_star, tau_star = spde.critical_tau(lowrank.gram_spectrum([e1, 2.0 * e1]).energy_curve())
    assert k_star == 1
    assert tau_star == pytest.approx(0.2)


def test_critical_rank_bounded_by_interior_nodes():
    mesh = fem.structured_mesh(0.25)
    fields = fem.sample_fields(mesh, 40, 0.2, "normal", master_seed=3)
    system = fem.assemble(mesh, fields, lambda x, y: 1.0)
    k_star, tau_star = spde.critical_tau(
        lowrank.gram_spectrum(system.perturbations).energy_curve())
    interior = mesh.num_nodes - mesh.boundary_nodes.shape[0]
    assert k_star <= interior
    assert tau_star == pytest.approx(k_star / mesh.num_nodes)
    # with enough samples the bound is attained
    assert k_star == interior


def test_critical_rank_zero_ensemble():
    assert spde.critical_tau(lowrank.gram_spectrum([np.zeros((4, 4))]).energy_curve()) \
        == (0, 0.0)


def test_compression_exact_at_critical_rank():
    mesh = fem.structured_mesh(0.25)
    fields = fem.sample_fields(mesh, 30, 0.2, "normal", master_seed=5)
    system = fem.assemble(mesh, fields, lambda x, y: 1.0)
    spectrum = lowrank.gram_spectrum(system.perturbations)
    k_star, _ = spde.critical_tau(spectrum.energy_curve())
    factors = lowrank.compress(system.perturbations, k_star / mesh.num_nodes, spectrum)
    scale = max(np.linalg.norm(p.toarray()) for p in system.perturbations)
    assert oracles.rmsre(system.perturbations, factors) <= 1e-9 * scale
    assert lowrank.rmsre(system.perturbations, spectrum, k_star) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_tau_scan_error_non_increasing():
    cfg = small_cfg(samples=12)
    result = spde.run_spde(cfg, [0.4, 0.6, 0.8, 1.0])
    errs = [row[2] for row in result.rows]
    for a, b in zip(errs, errs[1:]):
        assert b <= a * 1.05 + 1e-9
    assert errs[-1] <= 1e-9


def test_rank_scan_basis_tracks_requested_ranks():
    cfg = small_cfg(samples=8)
    n = fem.structured_mesh(cfg.h).num_nodes
    result = spde.run_spde(cfg, [k / n for k in (3, 10, 20)])
    assert [row[1] for row in result.rows] == [3, 10, 20]
    rmsres = [row[3] for row in result.rows]
    assert rmsres[0] >= rmsres[1] >= rmsres[2]


@pytest.fixture
def spectral_calls(monkeypatch):
    """Counts of Gram builds and eigensolves made through the library.

    ``vectors`` lists, per eigensolve, whether it built an eigenvector array.
    """
    calls = {"gram": 0, "eig": 0, "vectors": []}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            result = fn(*args, **kwargs)
            if key == "eig":
                calls["vectors"].append(result.vectors is not None)
            return result
        return wrapper

    monkeypatch.setattr(lowrank, "ensemble_gram", counted("gram", lowrank.ensemble_gram))
    monkeypatch.setattr(numerics, "sym_eig_topk", counted("eig", numerics.sym_eig_topk))
    return calls


@pytest.mark.parametrize("run, vectors", [
    (lambda tmp: spde.run_spde(small_cfg()), True),
    # the direct and cg routes and diagnose need eigenvalues only: no eigenvector array
    # is built
    (lambda tmp: spde.run_spde(small_cfg(method="cg")), False),
    (lambda tmp: spde.run_spde(small_cfg(method="direct")), False),
    (lambda tmp: spde.run_spde(small_cfg(), [0.4, 0.6, 0.8, 1.0]), True),
    (lambda tmp: cli.main(["diagnose", "--h", "0.25", "--out-dir", str(tmp)]), False),
    (lambda tmp: cli.main(["compress", "--h", "0.25", "--tau", "0.5", "--out-dir", str(tmp)]),
     True),
    # N = 441, |S| = k* = 361: rank 419 prices SMW in the direct form, which reads
    # no eigenvector
    (lambda tmp: spde.run_spde(small_cfg(h=0.05, samples=3, tau=0.95)), False),
], ids=["smw", "cg", "direct", "scan", "diagnose", "compress", "smw-direct-form"])
def test_one_spectral_pass_per_ensemble(spectral_calls, run, vectors, tmp_path):
    run(tmp_path)
    assert spectral_calls == {"gram": 1, "eig": 1, "vectors": [vectors]}


@pytest.mark.parametrize("cfg", [
    # N = 441, k* = 361: rank 419 solves SMW in the direct form, rank 265 in the basis form
    small_cfg(h=0.05, samples=3, tau=0.95),
    small_cfg(h=0.05, samples=3, tau=0.6),
    small_cfg(method="direct"),
    small_cfg(method="cg"),
    # rank 133 leaves a rank-228 complement, so the basis form runs without pricing an LU
    small_cfg(h=0.05, samples=3, tau=0.3, reference=False),
], ids=["smw-direct", "smw-basis", "direct", "cg", "smw-no-reference"])
def test_overlapped_run_matches_serial_library_calls(spectral_calls, monkeypatch, cfg):
    # the same spectrum, solves and diagnostics, made one after the other
    system = fem.sampled_system(cfg)
    ensemble = perturbed.PerturbedEnsemble(base=system.base, perturbations=system.perturbations,
                                           rhs=system.load)
    if cfg.method == "smw":
        rank = lowrank.rank_from_ratio(cfg.tau, ensemble.dim)
        spectrum, (form,) = perturbed.plan_smw(ensemble, [rank])
    else:
        spectrum = lowrank.gram_spectrum(system.perturbations, vectors=False)
    direct = perturbed.solve_ensemble(ensemble, perturbed.DIRECT)
    run = {"smw": lambda: perturbed.solve_ensemble(ensemble, form),
           "direct": lambda: direct, "cg": lambda: perturbed.solve_cg(ensemble)}[cfg.method]()
    cond_base = numerics.condition_estimate(system.base, solve=ensemble.base_factor.solve)

    spectral_calls.update(gram=0, eig=0, vectors=[])
    splu_threads, gram_threads = [], []
    splu = perturbed.spla.splu
    monkeypatch.setattr(perturbed.spla, "splu", lambda *a, **kw: splu_threads.append(
        threading.current_thread()) or splu(*a, **kw))
    ensemble_gram = lowrank.ensemble_gram
    monkeypatch.setattr(lowrank, "ensemble_gram", lambda *a, **kw: gram_threads.append(
        threading.current_thread()) or ensemble_gram(*a, **kw))
    built_before_pricing = []
    plan_smw = perturbed.plan_smw
    monkeypatch.setattr(perturbed, "plan_smw", lambda ensemble, ranks: built_before_pricing.append(
        "base_factor" in vars(ensemble)) or plan_smw(ensemble, ranks))
    report = spde.run_spde(cfg, system=system)
    # one Gram build, on the worker, one eigensolve, and every LU on the calling thread:
    # the base's and, with the reference, M sample LUs, the worker pricing with the
    # base's factor made before it started
    assert (spectral_calls["gram"], spectral_calls["eig"]) == (1, 1)
    assert len(gram_threads) == 1 and gram_threads[0] is not threading.main_thread()
    assert splu_threads == [threading.main_thread()] * (1 + cfg.samples * cfg.reference)
    assert built_before_pricing == ([] if cfg.method != "smw" else [True])
    assert report.solution.woodbury_form == run.woodbury_form
    assert all(a.tobytes() == b.tobytes() for a, b in zip(report.solution.samples, run.samples))
    assert report.qoi.tobytes() == run.qoi.tobytes()
    if cfg.reference:
        assert report.qoi_reference.tobytes() == direct.qoi.tobytes()
        assert report.err_l2 == float(np.linalg.norm(direct.qoi - run.qoi))
    else:
        assert report.qoi_reference is None and report.err_l2 is None
    assert report.energy_curve == spectrum.energy_curve()
    assert report.cond_base == cond_base


@pytest.mark.parametrize("run, form", [
    (lambda: spde.run_spde(small_cfg(tau=0.6)), "basis"),
    (lambda: spde.run_spde(small_cfg(h=0.05, samples=3, tau=0.7)), "complement"),
    (lambda: spde.run_spde(small_cfg(h=0.05, samples=3, tau=0.95)), "direct"),
    (lambda: spde.run_spde(small_cfg(method="cg")), "none"),
    (lambda: socp.build_control_problem(socp.SocpRunConfig(h=0.25, samples=4, tau=1.0))[1],
     "basis"),
    # rank 2 of N = 25 with the dense route capped below N: the leading pairs only, no k*
    (lambda: socp.build_control_problem(socp.SocpRunConfig(h=0.25, samples=4, tau=0.05))[1],
     "basis"),
], ids=["smw-basis", "smw-complement", "smw-direct", "cg", "socp-dense",
        "socp-partial"])
def test_nothing_in_spde_or_socp_compresses(monkeypatch, run, form):
    calls = []
    compress = lowrank.compress

    def counted(*args, **kwargs):
        calls.append(args[1])
        return compress(*args, **kwargs)

    monkeypatch.setattr(lowrank, "compress", counted)
    monkeypatch.setattr(numerics, "DENSE_EIG_MAX_DIM", 10)
    result = run()
    solution = getattr(result, "solution", result)
    assert solution.woodbury_form == form
    assert calls == []


def test_smw_above_half_rank_builds_no_coefficient_matrix(monkeypatch):
    calls = {"factorize": 0, "sample_lu": 0, "capacitance": 0, "projections": []}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recorded(basis, a):
        out = sample_coeffs(basis, a)
        calls["projections"].append(out.shape)
        return out

    sample_coeffs = lowrank._sample_coeffs
    monkeypatch.setattr(lowrank, "_sample_coeffs", recorded)
    monkeypatch.setattr(numerics, "factorize_spd", counted("factorize", numerics.factorize_spd))
    monkeypatch.setattr(perturbed, "_sample_lu", counted("sample_lu", perturbed._sample_lu))
    monkeypatch.setattr(perturbed.sla, "lu_factor",
                        counted("capacitance", perturbed.sla.lu_factor))
    cfg = small_cfg(h=0.05, samples=5, tau=0.95, reference=False)
    report = spde.run_spde(cfg)
    n = report.qoi.shape[0]
    k = report.rank
    assert k > report.k_star
    # at k >= k* the route is direct: the base factored once (for u0), one LU per
    # sample (sample 0's made once, for pricing), no capacitance, and no projection:
    # rmsre reads the eigenvalue tail of a values-only spectrum
    assert (report.solution.woodbury_form, report.solution.update_rank) == ("direct", 0)
    assert calls["factorize"] == 1
    assert calls["sample_lu"] == cfg.samples
    assert calls["capacitance"] == 0
    assert calls["projections"] == []
    assert k < n and report.rmsre == 0.0


# ---------------------------------------------------------------------------
# Monte-Carlo study
# ---------------------------------------------------------------------------


def test_mc_error_zero_when_m_equals_reference():
    cfg = small_cfg(h=0.5, samples=4)
    study = spde.mc_convergence_study(cfg, [2, 8], repetitions=2, reference_factor=1)
    # last point uses every reference sample, so the error vanishes exactly
    assert study.points[-1][1] == 0.0


def test_mc_error_decays_with_samples():
    cfg = small_cfg(h=0.5)
    study = spde.mc_convergence_study(cfg, [4, 16, 64], repetitions=4)
    errs = [e for _, e in study.points]
    assert errs[0] > errs[-1]
    assert study.slope < 0.0
    assert study.errors.shape == (4, 3)


def test_mc_rejects_unsorted_m_list():
    with pytest.raises(ConfigRangeError):
        spde.mc_convergence_study(small_cfg(h=0.5), [16, 4], repetitions=1)


def test_mc_averaging_reduces_slope_variance():
    cfg = small_cfg(h=0.5)
    study = spde.mc_convergence_study(cfg, [4, 16, 64], repetitions=16)
    m_log = np.log([4, 16, 64])

    def slope(errors):
        return np.polyfit(m_log, np.log(errors), 1)[0]

    single = [slope(study.errors[i]) for i in range(16)]
    paired = [slope(study.errors[2 * i:2 * i + 2].mean(axis=0)) for i in range(8)]
    assert np.var(paired) < np.var(single)
