import collections
import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from lram import fem, lowrank, numerics, perturbed, socp, spde
from lram.errors import (
    ConfigRangeError,
    DimensionMismatchError,
    EmptyInputError,
    LineSearchError,
)

import oracles
from oracles import rand_spd


def fem_problem(h=0.25, num_samples=4, epsilon=0.2, ratio=1.0, seed=3,
                desired="sin-pi", amplitude=10.0, beta=1e-4, mode="interpolant"):
    cfg = socp.SocpRunConfig(h=h, samples=num_samples, tau=ratio,
                             epsilon=epsilon, seed=seed, beta=beta,
                             desired=desired, desired_amplitude=amplitude,
                             desired_mode=mode)
    return socp.build_control_problem(cfg)


def synthetic_problem(rng, n=8, m=3, beta=0.5):
    """Constructed instance with explicit dense inverse state matrices and SPD mass."""
    mass = sp.csr_array(rand_spd(rng, n, shift=1.0) / n)
    solvers = [oracles.DenseSolver(rng.standard_normal((n, n))) for _ in range(m)]
    target = rng.standard_normal(n)
    return socp.ReducedControlProblem(
        mass=mass, solvers=solvers, desired_nodal=target,
        desired_proj=mass @ target, beta=beta,
    )


# ---------------------------------------------------------------------------
# state maps S_m f = K_m^-1 Phi f
# ---------------------------------------------------------------------------


def test_zero_perturbations_reduce_to_mean_response():
    system, problem = fem_problem(epsilon=0.0)
    fact = numerics.factorize_spd(system.base)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(problem.dim)
    expected = fact.solve(system.mass @ f)
    for solver in problem.solvers:
        assert np.allclose(solver.solve(problem.mass @ f), expected, atol=1e-12)


def test_operator_matches_dense_oracle():
    system, problem = fem_problem(h=1 / 3, num_samples=3)
    factors = lowrank.compress(system.perturbations, 1.0)
    n = system.base.shape[0]
    base_inv = np.linalg.inv(system.base.toarray())
    mass = system.mass.toarray()
    rng = np.random.default_rng(1)
    f = rng.standard_normal(n)
    g = rng.standard_normal(n)
    for m, solver in enumerate(problem.solvers):
        coeffs = factors.coeffs[m]
        update = np.eye(factors.rank) + coeffs @ base_inv @ factors.basis
        z = (np.eye(n) - base_inv @ factors.basis @ np.linalg.inv(update) @ coeffs) \
            @ base_inv @ mass
        assert np.allclose(solver.solve(mass @ f), z @ f, atol=1e-9 * np.linalg.norm(z @ f))
        assert np.allclose(mass @ solver.solve_t(g), z.T @ g,
                           atol=1e-9 * np.linalg.norm(z.T @ g))
        assert np.allclose(solver.solve(mass), z, atol=1e-10)


def test_operator_linearity():
    _, problem = fem_problem()
    rng = np.random.default_rng(2)
    f = rng.standard_normal(problem.dim)
    g = rng.standard_normal(problem.dim)
    mass = problem.mass
    for solver in problem.solvers:
        lhs = solver.solve(mass @ (2.5 * f + g))
        rhs = 2.5 * solver.solve(mass @ f) + solver.solve(mass @ g)
        assert np.allclose(lhs, rhs, atol=1e-12 * max(np.linalg.norm(rhs), 1.0))


@pytest.mark.parametrize("h, ratio, forced, form", [
    (0.05, 0.88, False, "direct"),
    (0.1, 0.88, False, "basis"),
    (0.1, 0.55, True, "complement"),
], ids=["h0.05-model", "h0.1-model", "h0.1-half-rank"])
def test_operators_in_either_form_match_basis_form(request, h, ratio, forced, form):
    if forced:
        request.getfixturevalue("dense_flop_model")
    system, problem = fem_problem(h=h, num_samples=3, ratio=ratio, seed=5)
    n = problem.dim
    assert problem.woodbury_form == form
    spectrum = lowrank.gram_spectrum(system.perturbations)
    k, k_star = lowrank.rank_from_ratio(ratio, n), spde.critical_tau(spectrum.energy_curve())[0]
    # ranks truncated at k*: direct at k >= k* (h = 0.05), basis at min(k, k*) = k*
    # (h = 0.1, where N is too small for a sample LU to pay), complement k* - k below k*
    assert problem.update_rank == {"direct": 0, "basis": min(k, k_star),
                                   "complement": k_star - k}[form]
    # the basis form at rank k, past k*, on the base factorization
    hand = perturbed.WoodburyForm("basis", k, vectors=spectrum.vectors[:, :k])
    ensemble = perturbed.PerturbedEnsemble(system.base, system.perturbations, system.load)
    ref = socp.build_reduced_problem(system, ensemble, hand,
                                     socp.desired_state_function("sin-pi"), problem.beta)
    assert ref.woodbury_form == "basis"
    rng = np.random.default_rng(4)
    f = rng.standard_normal(n)
    g = rng.standard_normal(n)
    mass, dense_mass = problem.mass, problem.mass.toarray()
    for solver, ref_solver in zip(problem.solvers, ref.solvers):
        for ours, expected in [(solver.solve(mass @ f), ref_solver.solve(mass @ f)),
                               (mass @ solver.solve_t(g), mass @ ref_solver.solve_t(g)),
                               (solver.solve(dense_mass), ref_solver.solve(dense_mass))]:
            assert np.linalg.norm(ours - expected) <= 1e-12 * np.linalg.norm(expected)


def test_complement_build_factors_each_sample_once_and_no_coefficient_matrix(monkeypatch):
    calls = {"factorize": 0, "sample_lu": 0, "capacitance": 0, "compress": 0, "band": 0,
             "projections": []}

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
    monkeypatch.setattr(lowrank, "compress", counted("compress", lowrank.compress))
    monkeypatch.setattr(perturbed.sla, "lu_factor",
                        counted("capacitance", perturbed.sla.lu_factor))
    monkeypatch.setattr(numerics, "band_cholesky", counted("band", numerics.band_cholesky))
    num_samples = 4
    _, problem = fem_problem(h=0.05, num_samples=num_samples, ratio=0.88)
    assert (problem.woodbury_form, problem.update_rank) == ("direct", 0)
    oracles.hessian(problem)
    # at k >= k*: nothing compressed, the base factored once, for pricing, and every
    # sample factored by one stacked band Cholesky; no sample LU, no projection, no
    # capacitance
    assert calls["compress"] == 0
    assert calls["sample_lu"] == 0
    assert calls["band"] == 1
    assert calls["factorize"] == 1
    assert calls["projections"] == []
    assert calls["capacitance"] == 0


# ---------------------------------------------------------------------------
# objective / gradient / hessian
# ---------------------------------------------------------------------------


def test_objective_zero_control_zero_target():
    _, problem = fem_problem(amplitude=0.0)
    assert socp.objective(problem, np.zeros(problem.dim)) == 0.0
    assert np.allclose(socp.gradient(problem, np.zeros(problem.dim)), 0.0, atol=1e-16)


def test_objective_penalty_term_alone():
    # target chosen equal to the produced state, so only the penalty survives
    rng = np.random.default_rng(3)
    n = 6
    mass = sp.csr_array(rand_spd(rng, n, shift=1.0) / n)
    z = rng.standard_normal((n, n))
    f = rng.standard_normal(n)
    target = z @ (mass @ f)
    problem = socp.ReducedControlProblem(
        mass=mass, solvers=[oracles.DenseSolver(z)], desired_nodal=target,
        desired_proj=mass @ target, beta=0.3,
    )
    expected = 0.5 * 0.3 * float(f @ (mass @ f))
    assert socp.objective(problem, f) == pytest.approx(expected, rel=1e-12)


def test_objective_matches_summation_oracle():
    rng = np.random.default_rng(4)
    problem = synthetic_problem(rng)
    f = rng.standard_normal(problem.dim)
    mass = problem.mass.toarray()
    total = 0.0
    for solver in problem.solvers:
        diff = solver.inverse @ mass @ f - problem.desired_nodal
        total += 0.5 * diff @ mass @ diff
    total /= len(problem.solvers)
    total += 0.5 * problem.beta * f @ mass @ f
    assert socp.objective(problem, f) == pytest.approx(total, rel=1e-12)


def test_gradient_vanishes_at_dense_normal_equations_solution():
    rng = np.random.default_rng(5)
    problem = synthetic_problem(rng)
    mass = problem.mass.toarray()
    h = np.zeros((problem.dim, problem.dim))
    rhs = np.zeros(problem.dim)
    for solver in problem.solvers:
        state_map = solver.inverse @ mass
        h += state_map.T @ mass @ state_map
        rhs += state_map.T @ mass @ problem.desired_nodal
    h /= len(problem.solvers)
    rhs /= len(problem.solvers)
    h += problem.beta * mass
    f_star = np.linalg.solve(h, rhs)
    grad = socp.gradient(problem, f_star)
    assert np.linalg.norm(grad) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)


@pytest.mark.parametrize("mode", ["interpolant", "projection"])
def test_gradient_matches_central_differences(mode):
    _, problem = fem_problem(mode=mode)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(problem.dim)
    grad = socp.gradient(problem, f)
    step = 1e-6
    for _ in range(10):
        d = rng.standard_normal(problem.dim)
        d /= np.linalg.norm(d)
        fd = (socp.objective(problem, f + step * d)
              - socp.objective(problem, f - step * d)) / (2.0 * step)
        assert fd == pytest.approx(float(grad @ d), rel=1e-5)


def test_hessian_identity_instance():
    problem = socp.ReducedControlProblem(
        mass=sp.eye_array(4).tocsr(), solvers=[oracles.DenseSolver(np.eye(4))],
        desired_nodal=np.zeros(4), desired_proj=np.zeros(4), beta=1.0,
    )
    assert np.allclose(oracles.hessian(problem), 2.0 * np.eye(4), atol=1e-15)


def test_hessian_spd_and_quadratic_expansion():
    _, problem = fem_problem()
    h = oracles.hessian(problem)
    np.linalg.cholesky(h)  # raises if not SPD
    rng = np.random.default_rng(7)
    f = rng.standard_normal(problem.dim)
    j0 = socp.objective(problem, np.zeros(problem.dim))
    g0 = socp.gradient(problem, np.zeros(problem.dim))
    expansion = j0 + g0 @ f + 0.5 * f @ (h @ f)
    actual = socp.objective(problem, f)
    assert actual == pytest.approx(expansion, abs=1e-10 * max(1.0, abs(actual)))


def test_hessian_constant_and_bitwise_identical():
    _, problem = fem_problem()
    h1 = oracles.hessian(problem)
    socp.objective(problem, np.ones(problem.dim))  # unrelated evaluation in between
    h2 = oracles.hessian(problem)
    assert np.array_equal(h1, h2)


@pytest.mark.parametrize("kind", ["fem", "dense"])
def test_hessian_vector_matches_dense_hessian(kind):
    rng = np.random.default_rng(9)
    problem = fem_problem()[1] if kind == "fem" else synthetic_problem(rng)
    h = oracles.hessian(problem)
    for _ in range(3):
        d = rng.standard_normal(problem.dim)
        expected = h @ d
        err = np.linalg.norm(socp.hessian_vector(problem, d) - expected)
        assert err <= 1e-12 * np.linalg.norm(expected)


def test_dimension_checks():
    _, problem = fem_problem()
    with pytest.raises(DimensionMismatchError):
        socp.objective(problem, np.zeros(problem.dim + 1))
    with pytest.raises(DimensionMismatchError):
        socp.gradient(problem, np.zeros(3))


@pytest.mark.parametrize("h, ratio, forced, form, batch", [
    (0.1, 0.88, False, "basis", None),
    (0.1, 0.55, True, "complement", None),
    (0.05, 0.88, False, "direct", None),
    (0.1, 0.88, False, "basis", [2, 0, 2]),
    (0.05, 0.88, False, "direct", [2, 0, 2]),
    (0.05, 0.88, False, "direct", [1]),
], ids=["basis", "complement", "direct", "sgd-batch-repeats", "direct-batch-repeats",
        "direct-single"])
def test_batched_pass_matches_per_sample_oracle(request, h, ratio, forced, form, batch):
    if forced:
        request.getfixturevalue("dense_flop_model")
    _, problem = fem_problem(h=h, num_samples=3, ratio=ratio, seed=5)
    assert problem.woodbury_form == form
    rng = np.random.default_rng(12)
    f = rng.standard_normal(problem.dim)
    d = rng.standard_normal(problem.dim)
    value, grad, mean = socp._evaluate(problem, f, batch)
    ref_value, ref_grad, ref_mean = oracles.evaluate_per_sample(problem, f, batch)
    assert abs(value - ref_value) <= 1e-13 * abs(ref_value)
    for ours, expected in [(grad, ref_grad), (mean, ref_mean)]:
        assert np.linalg.norm(ours - expected) <= 1e-13 * np.linalg.norm(expected)
    zero = np.zeros(problem.dim)
    hd = (socp.hessian_vector(problem, d) if batch is None
          else socp._evaluate(problem, d, batch, target=zero)[1])
    ref_hd = oracles.evaluate_per_sample(problem, d, batch, target=zero)[1]
    assert np.linalg.norm(hd - ref_hd) <= 1e-13 * np.linalg.norm(ref_hd)


class CountingMass:
    """A mass matrix that counts its products."""

    def __init__(self, mass):
        self.mass, self.products = mass, 0

    def __matmul__(self, other):
        self.products += 1
        return self.mass @ other


def test_pass_makes_three_mass_products_and_one_solve_each_way_per_sample(monkeypatch):
    _, problem = fem_problem(h=0.25, num_samples=6)
    assert problem.woodbury_form == "basis"
    mass = CountingMass(problem.mass)
    problem = dataclasses.replace(problem, mass=mass)
    counts = collections.Counter()
    for name in ("solve", "solve_t"):
        def counted(self, rhs, name=name, fn=getattr(perturbed.WoodburySolver, name)):
            counts[name] += 1
            return fn(self, rhs)
        monkeypatch.setattr(perturbed.WoodburySolver, name, counted)

    def work(evaluate, *args):
        mass.products = 0
        counts.clear()
        evaluate(problem, *args)
        return mass.products, counts["solve"], counts["solve_t"]

    f, m = np.ones(problem.dim), problem.num_samples
    # (mass products, forward solves, adjoint solves)
    assert work(socp.gradient, f) == (3, m, m)
    assert work(socp.hessian_vector, f) == (3, m, m)
    assert work(socp.objective, f) == (2, m, 0)
    assert work(socp.sample_gradient, f, [1, 4, 1]) == (3, 3, 3)
    assert work(socp.sample_objective, f, [5]) == (2, 1, 0)


def test_direct_pass_makes_one_stacked_solve_each_way(monkeypatch):
    _, problem = fem_problem(h=0.05, num_samples=6, ratio=0.88)
    assert isinstance(problem.solvers, perturbed.DirectSolvers)
    assert (problem.solvers.route, problem.solvers.lu_samples) == ("band", ())
    mass = CountingMass(problem.mass)
    problem = dataclasses.replace(problem, mass=mass)
    calls = []
    band_solve = numerics.band_cholesky_solve

    def counted(factor, rhs, start=0):
        calls.append(rhs.shape[0])
        return band_solve(factor, rhs, start)

    monkeypatch.setattr(numerics, "band_cholesky_solve", counted)

    def work(evaluate, *args):
        mass.products = 0
        calls.clear()
        evaluate(problem, *args)
        return mass.products, list(calls)

    f, n, m = np.ones(problem.dim), problem.dim, problem.num_samples
    # (mass products, rows of each band solve): a full pass solves all M samples in one
    # call each way, and a listed sample on its own block
    assert work(socp.gradient, f) == (3, [n * m, n * m])
    assert work(socp.hessian_vector, f) == (3, [n * m, n * m])
    assert work(socp.objective, f) == (2, [n * m])
    assert work(socp.sample_gradient, f, [1, 4, 1]) == (3, [n] * 6)
    assert work(socp.sample_objective, f, [5]) == (2, [n])


def test_stacked_pass_passes_indefinite_samples_to_their_lu():
    # h = 0.1, epsilon 0.9: samples 0, 1 and 3 have an indefinite base + P_m (dense
    # Cholesky fails on them), so their blocks fail and their LUs solve them
    cfg = socp.SocpRunConfig(h=0.1, samples=5, epsilon=0.9, distribution="normal", seed=1234)
    system = fem.sampled_system(cfg)
    for m in range(5):
        matrix = (system.base + system.perturbations[m]).toarray()
        assert (np.linalg.eigvalsh(matrix)[0] < 0.0) == (m in (0, 1, 3))
    ensemble = perturbed.PerturbedEnsemble(system.base, system.perturbations, system.load)
    problem = socp.build_reduced_problem(system, ensemble, perturbed.DIRECT,
                                         socp.desired_state_function("sin-pi"), 1e-4)
    assert (problem.solvers.route, problem.solvers.lu_samples) == ("band", (0, 1, 3))
    lus = perturbed.WoodburySolvers(ensemble, perturbed.DIRECT)
    f = np.random.default_rng(3).standard_normal(problem.dim)
    forcing = problem.mass @ f
    for m in (0, 1, 3):
        assert np.array_equal(problem.solvers[m].solve(forcing), lus[m].solve(forcing))
    value, grad, mean = socp._evaluate(problem, f)
    ref_value, ref_grad, ref_mean = oracles.evaluate_per_sample(problem, f)
    assert abs(value - ref_value) <= 1e-13 * abs(ref_value)
    for ours, expected in [(grad, ref_grad), (mean, ref_mean)]:
        assert np.linalg.norm(ours - expected) <= 1e-13 * np.linalg.norm(expected)


def test_direct_solvers_keep_per_sample_lus_past_the_band_limit(monkeypatch):
    monkeypatch.setattr(perturbed, "SAMPLE_BAND_MAX_BANDWIDTH", 18)
    _, problem = fem_problem(h=0.05, num_samples=3, ratio=0.88)
    solvers = problem.solvers
    assert (solvers.route, solvers.bandwidth, solvers.lu_samples) == ("lu", 19, (0, 1, 2))
    f = np.random.default_rng(5).standard_normal(problem.dim)
    value, grad, mean = socp._evaluate(problem, f)
    ref_value, ref_grad, ref_mean = oracles.evaluate_per_sample(problem, f)
    assert abs(value - ref_value) <= 1e-13 * abs(ref_value)
    for ours, expected in [(grad, ref_grad), (mean, ref_mean)]:
        assert np.linalg.norm(ours - expected) <= 1e-13 * np.linalg.norm(expected)


def test_direct_solvers_band_only_exactly_symmetric_samples():
    # Cholesky reads one triangle: a sample that differs from its transpose in one
    # entry keeps every sample on its LU
    system, _ = fem_problem(h=0.1, num_samples=2)
    perturbations = list(system.perturbations)
    skewed = perturbations[1].tolil()
    skewed[12, 13] += 1e-3
    perturbations[1] = sp.csr_array(skewed)
    ensemble = perturbed.PerturbedEnsemble(system.base, perturbations, system.load)
    solvers = perturbed.DirectSolvers(ensemble)
    assert (solvers.route, solvers.lu_samples) == ("lu", (0, 1))
    rhs = np.ones(ensemble.dim)
    matrix = (system.base + perturbations[1]).toarray()
    assert np.allclose(matrix @ solvers[1].solve(rhs), rhs, atol=1e-12)
    assert np.allclose(matrix.T @ solvers[1].solve_t(rhs), rhs, atol=1e-12)


def test_dropped_direct_solvers_are_freed_without_the_cyclic_collector():
    # no item's solve refers back to the solvers, so the last reference's drop frees
    # them and their band at once
    system, _ = fem_problem(h=0.1, num_samples=4)
    ensemble = perturbed.PerturbedEnsemble(system.base, system.perturbations, system.load)
    solvers = perturbed.DirectSolvers(ensemble)
    assert solvers.route == "band" and solvers.lu_samples == ()
    dropped = weakref.ref(solvers)
    gc.disable()
    try:
        del solvers
        assert dropped() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("indices, error", [
    ([], EmptyInputError),
    ([-1], ConfigRangeError),
    ([0, 6], ConfigRangeError),
], ids=["empty", "negative", "past-last"])
def test_bad_sample_indices_raise(indices, error):
    _, problem = fem_problem(h=0.25, num_samples=6)
    f = np.zeros(problem.dim)
    with pytest.raises(error):
        socp.sample_gradient(problem, f, indices)
    with pytest.raises(error):
        socp.sample_objective(problem, f, indices)
    assert problem._sample_evals == 0


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


def test_newton_single_iteration_exact_quadratic():
    _, problem = fem_problem()
    spec = socp.OptimizerSpec(method="newton", grad_tol=1e-10)
    res = socp.optimize(problem, spec, np.zeros(problem.dim))
    assert res.converged
    assert res.iterations == 1
    assert res.grad_norm_final <= 1e-10


def test_all_methods_converge_and_newton_fewest():
    _, problem = fem_problem(h=0.25, num_samples=8, ratio=0.88)
    f0 = np.zeros(problem.dim)
    results = {}
    for method in ("sdm", "sgd", "newton", "bfgs", "trm"):
        res = socp.optimize(problem, socp.OptimizerSpec(method=method), f0)
        assert res.converged, method
        assert res.grad_norm_final <= 1e-3
        assert res.objective_final <= res.objective_initial
        results[method] = res
    newton_iters = results["newton"].iterations
    for other in ("sdm", "bfgs", "trm"):
        assert newton_iters < results[other].iterations


def test_methods_agree_at_matched_tolerance():
    # At grad tolerance 1e-3 the beta-dominated soft modes still admit a few
    # percent of control spread, so cross-method agreement is asserted at a
    # tolerance tight enough to pin the minimizer.
    _, problem = fem_problem(h=0.25, num_samples=8, ratio=0.88)
    f0 = np.zeros(problem.dim)
    newton = socp.optimize(problem, socp.OptimizerSpec(method="newton"), f0)
    scale = np.linalg.norm(newton.control)
    for method in ("sdm", "bfgs", "trm"):
        res = socp.optimize(
            problem, socp.OptimizerSpec(method=method, grad_tol=1e-6, max_iters=20_000), f0
        )
        assert np.linalg.norm(res.control - newton.control) <= 1e-2 * scale, method
    # stochastic iterates keep wandering in the soft modes, which barely move
    # the state; agreement for the stochastic method is therefore asserted on
    # the mean state it produces
    sgd = socp.optimize(
        problem, socp.OptimizerSpec(method="sgd", grad_tol=2e-4, max_iters=20_000), f0
    )
    state_scale = np.linalg.norm(newton.state_mean)
    assert np.linalg.norm(sgd.state_mean - newton.state_mean) <= 5e-2 * state_scale


def test_wolfe_methods_strictly_decrease():
    _, problem = fem_problem(h=0.25, num_samples=6)
    f0 = np.zeros(problem.dim)
    for method in ("sdm", "newton", "bfgs"):
        res = socp.optimize(problem, socp.OptimizerSpec(method=method), f0)
        values = [res.objective_initial] + [row[0] for row in res.history]
        assert all(a > b for a, b in zip(values, values[1:])), method


def test_newton_optimality_via_normal_equations():
    _, problem = fem_problem()
    res = socp.optimize(
        problem, socp.OptimizerSpec(method="newton", grad_tol=1e-10),
        np.zeros(problem.dim),
    )
    h = oracles.hessian(problem)
    mass = problem.mass
    rhs = np.zeros(problem.dim)
    for solver in problem.solvers:
        rhs += mass @ solver.solve_t(mass @ problem.target)
    rhs /= problem.num_samples
    assert np.linalg.norm(h @ res.control - rhs) <= 1e-6 * np.linalg.norm(rhs)


def test_ratio_bounded_and_stable_across_ratios():
    # the objective ratio stays small and does not deteriorate as the
    # reduction ratio grows toward exact reconstruction
    ratios = []
    for tau in (0.4, 0.6, 0.8, 1.0):
        _, problem = fem_problem(h=0.25, num_samples=8, ratio=tau)
        res = socp.optimize(problem, socp.OptimizerSpec(method="newton"),
                            np.zeros(problem.dim))
        ratios.append(res.objective_final / res.objective_initial)
    assert all(r <= 0.25 for r in ratios)
    for a, b in zip(ratios, ratios[1:]):
        assert b <= a * 1.05 + 1e-12


def test_line_search_rejects_ascent_direction():
    _, problem = fem_problem()
    f = np.zeros(problem.dim)
    g = socp.gradient(problem, f)

    def phi(t):
        x = f + t * g
        return socp.objective(problem, x), float(socp.gradient(problem, x) @ g)

    with pytest.raises(LineSearchError):
        socp.wolfe_line_search(phi, socp.objective(problem, f), float(g @ g))


def test_line_search_rejects_nonpositive_curvature():
    # a negative definite "mass" makes J concave: no Wolfe step exists
    # (S = K^-1 Phi = I)
    n = 4
    problem = socp.ReducedControlProblem(
        mass=-sp.eye_array(n).tocsr(), solvers=[oracles.DenseSolver(-np.eye(n))],
        desired_nodal=np.ones(n), desired_proj=-np.ones(n), beta=1.0,
    )
    # Newton's truncated CG meets the nonpositive curvature before any line search
    for method in ("sdm", "newton"):
        with pytest.raises(LineSearchError):
            socp.optimize(problem, socp.OptimizerSpec(method=method), np.zeros(n))


@pytest.mark.parametrize("method", ["sdm", "newton", "bfgs"])
def test_model_line_search_matches_exact_oracle(method):
    _, problem = fem_problem(h=0.25, num_samples=8, ratio=0.88)
    f0 = np.zeros(problem.dim)
    spec = socp.OptimizerSpec(method=method)
    res = socp.optimize(problem, spec, f0)
    direction_state = {
        "sdm": lambda: socp._SteepestDirection(),
        "newton": lambda: socp._NewtonDirection(problem),
        "bfgs": lambda: socp._BfgsDirection(problem.dim),
    }[method]()

    def value_and_grad(x):
        return socp.objective(problem, x), socp.gradient(problem, x)

    iterations, converged, history = oracles.exact_line_search_descent(
        value_and_grad, f0, direction_state, spec)
    assert (res.iterations, res.converged) == (iterations, converged)
    assert [row[2] for row in res.history] == [row[2] for row in history]
    for ours, exact in zip(res.history, history):
        assert ours[0] == pytest.approx(exact[0], rel=1e-10)


def test_sdm_operator_applications_follow_iterations_not_trials(monkeypatch):
    _, problem = fem_problem(h=0.25, num_samples=6)
    counts = collections.Counter()
    solve = perturbed.WoodburySolver.solve

    def counted(self, rhs):
        counts[id(self)] += 1
        return solve(self, rhs)

    monkeypatch.setattr(perturbed.WoodburySolver, "solve", counted)
    res = socp.optimize(problem, socp.OptimizerSpec(method="sdm"), np.zeros(problem.dim))
    assert res.iterations >= 2
    assert res.line_search_trials > 2 * res.iterations
    # the initial point, one Hessian-vector product per iteration, the final report
    assert len(counts) == problem.num_samples
    assert set(counts.values()) == {res.iterations + 2}
    assert res.operator_passes == res.iterations + 2


def test_trm_operator_passes_do_not_follow_iterations(monkeypatch):
    _, problem = fem_problem(h=0.25, num_samples=6)
    f0 = np.zeros(problem.dim)
    newton = socp.optimize(problem, socp.OptimizerSpec(method="newton", grad_tol=1e-8), f0)
    counts = collections.Counter()
    solve, hessian_vector = perturbed.WoodburySolver.solve, socp.hessian_vector

    def counted_solve(self, rhs):
        counts["solve"] += 1
        return solve(self, rhs)

    def counted_product(problem, direction):
        counts["products"] += 1
        return hessian_vector(problem, direction)

    monkeypatch.setattr(perturbed.WoodburySolver, "solve", counted_solve)
    monkeypatch.setattr(socp, "hessian_vector", counted_product)
    runs = []
    for tol in (1e-2, 1e-8):
        counts.clear()
        res = socp.optimize(problem, socp.OptimizerSpec(method="trm", grad_tol=tol), f0)
        assert res.converged
        # every application is counted: the initial point, each truncated-CG
        # product and the final report
        assert res.operator_passes == counts["solve"] / problem.num_samples
        assert res.operator_passes == counts["products"] + 2
        assert res.operator_passes > res.iterations + 2
        runs.append(res)
    assert runs[0].iterations < runs[1].iterations
    rel = abs(runs[1].objective_final - newton.objective_final) / newton.objective_final
    assert rel <= 1e-8


@pytest.mark.parametrize("method", ["newton", "trm"])
def test_newton_and_trm_allocate_no_dense_square(method):
    """The truncated-CG steps work on vectors: no N-by-N array at N = 1681."""
    _, problem = fem_problem(h=0.025, num_samples=4, ratio=0.88)
    n = problem.dim
    tracemalloc.start()
    try:
        res = socp.optimize(problem, socp.OptimizerSpec(method=method), np.zeros(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.converged
    # one N-by-N array of doubles is 8 N^2 bytes
    assert peak < 0.25 * 8 * n * n


def test_newton_and_trm_reach_the_dense_hessian_minimizer():
    _, problem = fem_problem(h=0.05, num_samples=6, ratio=0.88, seed=11)
    f0 = np.zeros(problem.dim)
    g0 = socp.gradient(problem, f0)
    minimizer = np.linalg.solve(oracles.hessian(problem), -g0)
    j_star = socp.objective(problem, minimizer)
    for method in ("newton", "trm"):
        res = socp.optimize(problem, socp.OptimizerSpec(method=method), f0)
        assert res.converged, method
        assert abs(res.objective_final - j_star) <= 1e-10 * abs(j_star), method


def test_sgd_deterministic_given_seed():
    _, problem = fem_problem(h=0.25, num_samples=6)
    f0 = np.zeros(problem.dim)
    a = socp.optimize(problem, socp.OptimizerSpec(method="sgd", seed=5), f0)
    b = socp.optimize(problem, socp.OptimizerSpec(method="sgd", seed=5), f0)
    assert np.array_equal(a.control, b.control)


@pytest.mark.parametrize("grad_tol, max_iters, status", [
    (1e3, 50, "converged"),
    (1e-12, 7, "max-iterations"),
], ids=["converged", "best-iterate"])
def test_sgd_outcome_reuses_the_last_full_pass(grad_tol, max_iters, status):
    # one full pass at the start and one per iteration, the batch passes of the first
    # step's search and of each iteration, and none for the outcome: it is the pass the
    # loop made at the last iterate, or at the best one
    _, problem = fem_problem(h=0.25, num_samples=6)
    spec = socp.OptimizerSpec(method="sgd", grad_tol=grad_tol, max_iters=max_iters, seed=2)
    res = socp.optimize(problem, spec, np.zeros(problem.dim))
    assert res.status == status
    batch, m = spec.sgd_batch, problem.num_samples
    assert res.operator_passes == (m + (1 + res.line_search_trials) * batch
                                   + res.iterations * (batch + m)) / m
    value, grad, mean = socp._evaluate(problem, res.control)
    assert res.objective_final == value == min(row[0] for row in res.history)
    assert res.grad_norm_final == float(np.linalg.norm(grad))
    assert np.array_equal(res.state_mean, mean)


def test_max_iters_flagged_with_best_iterate():
    _, problem = fem_problem(h=0.25, num_samples=4)
    res = socp.optimize(
        problem,
        socp.OptimizerSpec(method="sdm", grad_tol=1e-12, max_iters=3),
        np.zeros(problem.dim),
    )
    assert not res.converged
    assert res.status == "max-iterations"
    assert res.iterations == 3
    assert res.objective_final <= res.objective_initial


def test_spec_validation():
    with pytest.raises(ConfigRangeError):
        socp.OptimizerSpec(method="adam")
    with pytest.raises(ConfigRangeError):
        socp.OptimizerSpec(wolfe_c1=0.5, wolfe_c2=0.4)
    with pytest.raises(ConfigRangeError):
        socp.OptimizerSpec(grad_tol=0.0)
    with pytest.raises(ConfigRangeError):
        socp.SocpRunConfig(beta=0.0)
    with pytest.raises(ConfigRangeError):
        socp.desired_state_function("plateau")


def test_desired_mode_exposes_both_pairings():
    _, interp = fem_problem(mode="interpolant")
    _, proj = fem_problem(mode="projection")
    f = np.ones(interp.dim)
    assert socp.objective(interp, f) != socp.objective(proj, f)
    # both are self-consistent quadratics with the analytic gradient
    for problem in (interp, proj):
        g = socp.gradient(problem, f)
        step = 1e-6
        rng = np.random.default_rng(8)
        d = rng.standard_normal(problem.dim)
        d /= np.linalg.norm(d)
        fd = (socp.objective(problem, f + step * d)
              - socp.objective(problem, f - step * d)) / (2.0 * step)
        assert fd == pytest.approx(float(g @ d), rel=1e-5)


def test_run_socp_end_to_end():
    cfg = socp.SocpRunConfig(h=0.25, samples=6)
    _, problem = socp.build_control_problem(cfg)
    res = socp.optimize(problem, socp.OptimizerSpec(method="newton"),
                        np.full(problem.dim, cfg.control_init))
    assert res.converged
    assert res.state_mean.shape == (problem.dim,)
    # tracking actually improves on the zero control
    err0 = fem.mass_norm(problem.mass, problem.desired_nodal)
    err = fem.mass_norm(problem.mass, res.state_mean - problem.desired_nodal)
    assert err < err0
