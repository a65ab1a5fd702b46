import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from lram import cli, fem, lowrank, numerics, perturbed, spde
from lram.errors import (
    DimensionMismatchError,
    EmptyInputError,
    NoConvergenceError,
    SingularCapacitanceError,
    SingularSampleError,
)

from oracles import rand_orthonormal, rand_spd


def synthetic_instance(rng, n, k, m, scale=0.1):
    """Ensemble of members U C_m, exactly rank k in a shared basis U, and U's basis form."""
    base = sp.csr_array(rand_spd(rng, n))
    basis = rand_orthonormal(rng, n, k)
    coeffs = [scale * rng.standard_normal((k, n)) for _ in range(m)]
    perturbations = [sp.csr_array(basis @ c) for c in coeffs]
    rhs = rng.standard_normal(n)
    ensemble = perturbed.PerturbedEnsemble(base=base, perturbations=perturbations, rhs=rhs)
    return ensemble, perturbed.WoodburyForm("basis", k, vectors=basis)


def basis_form(rng, n, k):
    """The basis form at rank k on a random orthonormal basis."""
    return perturbed.WoodburyForm("basis", k, vectors=rand_orthonormal(rng, n, k))


# ---------------------------------------------------------------------------
# solve_ensemble
# ---------------------------------------------------------------------------


def test_smw_zero_perturbations_return_base_solution():
    rng = np.random.default_rng(0)
    n, k, m = 6, 2, 3
    base = sp.csr_array(rand_spd(rng, n))
    zeros = [sp.csr_array((n, n)) for _ in range(m)]
    rhs = rng.standard_normal(n)
    ensemble = perturbed.PerturbedEnsemble(base=base, perturbations=zeros, rhs=rhs)
    sol = perturbed.solve_ensemble(ensemble, basis_form(rng, n, k))
    for u in sol.samples:
        assert np.allclose(u, sol.unperturbed, atol=1e-14)
    assert np.allclose(sol.qoi, sol.unperturbed, atol=1e-14)
    assert (sol.woodbury_form, sol.update_rank) == ("basis", k)


def test_smw_matches_dense_direct_oracle():
    rng = np.random.default_rng(1)
    ensemble, form = synthetic_instance(rng, 8, 2, 3)
    sol = perturbed.solve_ensemble(ensemble, form)
    for m, u in enumerate(sol.samples):
        dense = ensemble.base.toarray() + ensemble.perturbations[m].toarray()
        expected = np.linalg.solve(dense, ensemble.rhs)
        rel = np.linalg.norm(u - expected) / np.linalg.norm(expected)
        assert rel <= 1e-9


def test_smw_residual_identity():
    rng = np.random.default_rng(2)
    ensemble, form = synthetic_instance(rng, 10, 3, 4)
    sol = perturbed.solve_ensemble(ensemble, form)
    coeffs = lowrank.Projections(form.vectors, ensemble.perturbations)
    rhs_norm = np.linalg.norm(ensemble.rhs)
    for m, u in enumerate(sol.samples):
        resid = ensemble.base @ u + form.vectors @ (coeffs[m] @ u) - ensemble.rhs
        assert np.linalg.norm(resid) <= 1e-9 * rhs_norm


def test_smw_update_stays_in_solved_basis_span():
    rng = np.random.default_rng(3)
    ensemble, form = synthetic_instance(rng, 12, 3, 3)
    fact = numerics.factorize_spd(ensemble.base)
    basis_solved = fact.solve(form.vectors)
    q, _ = np.linalg.qr(basis_solved)
    sol = perturbed.solve_ensemble(ensemble, form)
    for u in sol.samples:
        delta = u - sol.unperturbed
        resid = delta - q @ (q.T @ delta)
        assert np.linalg.norm(resid) <= 1e-8 * max(np.linalg.norm(delta), 1e-30)


def test_smw_singular_update_raises_with_sample_index():
    rng = np.random.default_rng(4)
    n = 5
    base = sp.csr_array(np.eye(n))
    basis = np.eye(n)[:, :1]
    # P_0 = -e1 e1', so C_0 = -e1' and the update matrix is 1 + (-1) = 0
    form = perturbed.WoodburyForm("basis", 1, vectors=basis)
    ensemble = perturbed.PerturbedEnsemble(
        base=base, perturbations=[sp.csr_array(-basis @ basis.T)], rhs=np.ones(n)
    )
    with pytest.raises(SingularCapacitanceError) as err:
        perturbed.solve_ensemble(ensemble, form)
    assert err.value.sample == 0


def test_smw_dimension_mismatch():
    rng = np.random.default_rng(6)
    ensemble, _ = synthetic_instance(rng, 6, 2, 3)
    with pytest.raises(DimensionMismatchError):
        perturbed.solve_ensemble(ensemble, basis_form(rng, 7, 2))


@pytest.mark.parametrize("name, rank, shape", [
    ("basis", 2, (6, 3)),
    ("complement", 3, (6, 2)),
    ("basis", 2, None),
    ("direct", 0, (6, 1)),
], ids=["wider", "narrower", "none", "direct-with-vectors"])
def test_form_vectors_not_n_by_update_rank_raise(name, rank, shape):
    rng = np.random.default_rng(6)
    ensemble, _ = synthetic_instance(rng, 6, 2, 3)
    vectors = None if shape is None else np.zeros(shape)
    form = perturbed.WoodburyForm(name, rank, vectors=vectors)
    with pytest.raises(DimensionMismatchError):
        perturbed.WoodburySolvers(ensemble, form)
    with pytest.raises(DimensionMismatchError):
        perturbed.solve_ensemble(ensemble, form)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_smw_exactness_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 24))
    k = int(rng.integers(1, max(2, n // 2)))
    m = int(rng.integers(1, 6))
    ensemble, form = synthetic_instance(rng, n, k, m)
    smw = perturbed.solve_ensemble(ensemble, form)
    direct = perturbed.solve_ensemble(ensemble, perturbed.DIRECT)
    for u, v in zip(smw.samples, direct.samples):
        assert np.linalg.norm(u - v) <= 1e-9 * np.linalg.norm(v)


# ---------------------------------------------------------------------------
# solve_ensemble: complement form above half rank
# ---------------------------------------------------------------------------


def fem_ensemble(h=0.1, num_samples=6, seed=21, epsilon=0.2):
    mesh = fem.structured_mesh(h)
    fields = fem.sample_fields(mesh, num_samples, epsilon, "normal", seed)
    system = fem.assemble(mesh, fields, lambda x, y: 1.0)
    return perturbed.PerturbedEnsemble(base=system.base, perturbations=system.perturbations,
                                       rhs=system.load)


@pytest.mark.parametrize("rank_of, below_k_star", [
    (lambda n, k_star: n - 1, False),
    (lambda n, k_star: int(0.88 * n), False),
    (lambda n, k_star: (n // 2 + k_star) // 2, True),
], ids=["N-1", "0.88N", "below-k*"])
def test_complement_form_matches_basis_form(dense_flop_model, rank_of, below_k_star):
    ensemble = fem_ensemble()
    spectrum = lowrank.gram_spectrum(ensemble.perturbations)
    n = ensemble.dim
    k_star, _ = spde.critical_tau(spectrum.energy_curve())
    k = rank_of(n, k_star)
    assert n / 2 < k < n and (k < k_star) == below_k_star
    _, (form,) = perturbed.plan_smw(ensemble, [k])
    # the basis form at rank k, past k*, as a reference
    hand = perturbed.WoodburyForm("basis", k, vectors=spectrum.vectors[:, :k])
    sol = perturbed.solve_ensemble(ensemble, form)
    ref = perturbed.solve_ensemble(ensemble, hand)
    # eigenvectors k+1..k* only: none at k >= k*, where the route is direct
    expected = ("complement", k_star - k) if below_k_star else ("direct", 0)
    assert (sol.woodbury_form, sol.update_rank) == expected
    assert (ref.woodbury_form, ref.update_rank) == ("basis", k)
    for u, v in zip(sol.samples, ref.samples):
        assert np.linalg.norm(u - v) <= 1e-10 * np.linalg.norm(v)


def test_complement_form_only_above_half_rank(dense_flop_model):
    # the complement form needs a lower rank than the basis form: k > k*/2
    ensemble = fem_ensemble(num_samples=3)
    spectrum = lowrank.gram_spectrum(ensemble.perturbations)
    k_star, _ = spde.critical_tau(spectrum.energy_curve())
    plan, (form,) = perturbed.plan_smw(ensemble, [k_star // 2])
    assert np.array_equal(form.vectors, plan.vectors[:, :k_star // 2])
    sol = perturbed.solve_ensemble(ensemble, form)
    assert (sol.woodbury_form, sol.update_rank) == ("basis", k_star // 2)


def test_complement_rank_below_k_star_is_k_star_minus_k(dense_flop_model):
    ensemble = fem_ensemble(num_samples=3)
    spectrum = lowrank.gram_spectrum(ensemble.perturbations)
    k_star, _ = spde.critical_tau(spectrum.energy_curve())
    direct = perturbed.solve_ensemble(ensemble, perturbed.DIRECT)
    ranks = (k_star // 2 + 1, k_star - 9, k_star - 1)
    _, forms = perturbed.plan_smw(ensemble, ranks)
    for k, form in zip(ranks, forms):
        assert form.vectors.shape == (ensemble.dim, k_star - k)
        sol = perturbed.solve_ensemble(ensemble, form)
        assert (sol.woodbury_form, sol.update_rank) == ("complement", k_star - k)
        # below k* the compressed ensemble differs from the sampled one
        assert np.linalg.norm(sol.qoi - direct.qoi) > 1e-10 * np.linalg.norm(direct.qoi)


@pytest.mark.parametrize("dense, expected", [
    (False, {40: "basis", 41: "basis", 81: "basis", 100: "basis"}),
    # the complement form needs k > k*/2: at k = 40 its rank 41 exceeds the basis rank
    (True, {40: "basis", 41: "complement", 81: "direct", 100: "direct"}),
], ids=["model", "dense-flops"])
def test_forms_carry_the_spectrum_columns_they_read(request, dense, expected):
    if dense:
        request.getfixturevalue("dense_flop_model")
    ensemble = fem_ensemble()
    spectrum, forms = perturbed.plan_smw(ensemble, list(expected))
    k_star = lowrank.numerical_rank(spectrum.energy_curve())
    assert k_star == 81  # every interior node of h = 0.1
    for (k, name), form in zip(expected.items(), forms):
        assert form.name == name
        if name == "direct":
            assert (form.update_rank, form.vectors) == (0, None)
            continue
        columns = slice(0, min(k, k_star)) if name == "basis" else slice(k, k_star)
        assert np.array_equal(form.vectors, spectrum.vectors[:, columns])
        assert np.shares_memory(form.vectors, spectrum.vectors)
        assert form.vectors.shape == (ensemble.dim, form.update_rank)


def test_zero_ensemble_takes_the_basis_form_at_rank_zero():
    # no direction carries energy, so k* = 0: no solve with vectors and no projection
    n = 3
    ensemble = perturbed.PerturbedEnsemble(base=sp.csr_array(2.0 * np.eye(n)),
                                           perturbations=[sp.csr_array((n, n))] * 2,
                                           rhs=np.ones(n))
    _, (form,) = perturbed.plan_smw(ensemble, [2])
    assert (form.name, form.update_rank, form.vectors.shape) == ("basis", 0, (n, 0))
    sol = perturbed.solve_ensemble(ensemble, form)
    for u in sol.samples:
        assert np.array_equal(u, sol.unperturbed)


def test_woodbury_costs_weigh_the_sample_lu():
    # L + U entry counts of the first sample LU at h = 0.1, 0.05 and 0.025
    n121, n441, n1681 = 1044, 6620, 38850
    # timed at N = 121 (2-core VM, 2 BLAS threads), the basis form wins at every
    # k > N/2, 0.52 ms per sample against 0.63 ms at k = 120: the fixed cost of a
    # sample LU keeps the complement form pricier there
    for k in range(61, 121):
        basis, complement = perturbed.woodbury_costs(121, k, 121 - k, n121)
        assert complement > basis
    for n, k, entries, form in [(441, 265, n441, "basis"), (441, 419, n441, "complement"),
                                (1681, 1009, n1681, "basis"),
                                (1681, 1597, n1681, "complement")]:
        basis, complement = perturbed.woodbury_costs(n, k, n - k, entries)
        assert ("complement" if complement < basis else "basis") == form
    # at the numerical rank (k* = 361 and 1521) the per-sample direct route is cheaper
    for n, k_star, entries in [(441, 361, n441), (1681, 1521, n1681)]:
        basis, direct = perturbed.woodbury_costs(n, k_star, 0, entries)
        assert direct < basis


def test_basis_form_wins_after_repricing_at_k_star(monkeypatch):
    # P_m = a_m (u e_0' + e_0 u') with u dense on a 20 x 20 grid: |S| = N = 400 but
    # k* = 2.  At rank |S| the gate prices one sparse LU per sample below the basis
    # form, so only eigenvalues are computed; at k* = 2 the basis form wins, so the
    # eigenvectors are computed after all, from the same Gram matrix.
    side = 20
    n = side * side
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(side, side))
    base = sp.csr_array(sp.kronsum(lap, lap))
    rng = np.random.default_rng(3)
    u = rng.uniform(0.5, 1.0, n) / np.sqrt(n)
    e0 = np.zeros(n)
    e0[0] = 1.0
    arrow = sp.csr_array(np.outer(u, e0) + np.outer(e0, u))
    members = [a * arrow for a in rng.uniform(-0.2, 0.2, 4)]
    ensemble = perturbed.PerturbedEnsemble(base=base, perturbations=members,
                                           rhs=np.ones(n))
    calls = {"gram": 0, "vectors": []}
    ensemble_gram, sym_eig_topk = lowrank.ensemble_gram, numerics.sym_eig_topk

    def gram(*args, **kwargs):
        calls["gram"] += 1
        return ensemble_gram(*args, **kwargs)

    def eig(*args, **kwargs):
        pairs = sym_eig_topk(*args, **kwargs)
        calls["vectors"].append(pairs.vectors is not None)
        return pairs

    monkeypatch.setattr(lowrank, "ensemble_gram", gram)
    monkeypatch.setattr(numerics, "sym_eig_topk", eig)
    spectrum, (form,) = perturbed.plan_smw(ensemble, [n])
    assert spectrum.support == n
    assert lowrank.numerical_rank(spectrum.energy_curve()) == 2
    assert (form.name, form.update_rank) == ("basis", 2)
    assert calls == {"gram": 1, "vectors": [False, True]}
    assert np.array_equal(form.vectors, spectrum.vectors[:, :2])
    sol = perturbed.solve_ensemble(ensemble, form)
    direct = perturbed.solve_ensemble(ensemble, perturbed.DIRECT)
    assert (sol.woodbury_form, sol.update_rank) == ("basis", 2)
    assert np.linalg.norm(sol.qoi - direct.qoi) <= 1e-10 * np.linalg.norm(direct.qoi)


def test_tau_06_keeps_the_basis_form():
    # just above half rank the per-sample LU costs more than the rank-k update saves
    ensemble = fem_ensemble(num_samples=3)
    n = ensemble.dim
    k = lowrank.rank_from_ratio(0.6, n)
    spectrum, (form,) = perturbed.plan_smw(ensemble, [k])
    k_star = lowrank.numerical_rank(spectrum.energy_curve())
    assert n / 2 < k < k_star < n
    hand = perturbed.WoodburyForm("basis", k, vectors=spectrum.basis(k))
    sol = perturbed.solve_ensemble(ensemble, form)
    ref = perturbed.solve_ensemble(ensemble, hand)
    assert (sol.woodbury_form, sol.update_rank) == ("basis", k)
    for u, v in zip(sol.samples, ref.samples):
        assert np.array_equal(u, v)


def test_complement_sample_that_does_not_factor_raises(dense_flop_model):
    # base + P_0 = diag(0, 1, 1, 1, 1) is singular.  At rank 3 the basis spans
    # e2..e4, so base + U C_0 = I, but no sample switches form: the complement
    # form raises on sample 0, as the direct reference does.
    n = 5
    eye = np.eye(n)
    perturbations = [sp.csr_array(-np.outer(eye[0], eye[0]))]
    perturbations += [sp.csr_array(5.0 * np.outer(eye[i], eye[i])) for i in (1, 2, 3)]
    rhs = np.arange(1.0, n + 1.0)
    ensemble = perturbed.PerturbedEnsemble(base=sp.csr_array(eye),
                                           perturbations=perturbations, rhs=rhs)
    # Gram diag(1, 25, 25, 25, 0): k* = 4, so the complement is e1 alone.  Pricing
    # reads the base's factor and factors no sample, so it picks the complement form
    # and its solve fails on sample 0.
    _, (form,) = perturbed.plan_smw(ensemble, [3])
    assert (form.name, form.update_rank) == ("complement", 1)
    assert np.array_equal(form.vectors, eye[:, :1])
    for solve in (lambda: perturbed.solve_ensemble(ensemble, form),
                  lambda: perturbed.solve_ensemble(ensemble, perturbed.DIRECT)):
        with pytest.raises(SingularSampleError) as err:
            solve()
        assert err.value.sample == 0


def test_direct_form_overflow_raises(dense_flop_model):
    # base + P_0 = diag(1, 1, 2^-52) factors, but its solve overflows to inf
    eye = np.eye(3)
    perturbations = [sp.csr_array(np.diag([0.0, 0.0, -(1.0 - 2.0 ** -52)])),
                     sp.csr_array(np.diag([0.0, 0.5, 0.0]))]
    ensemble = perturbed.PerturbedEnsemble(base=sp.csr_array(eye),
                                           perturbations=perturbations, rhs=np.full(3, 1e300))
    _, (form,) = perturbed.plan_smw(ensemble, [3])
    # Gram diag(0, 0.25, ~1): k* = 2 <= k, so the update rank is 0
    assert (form.name, form.vectors) == ("direct", None)
    assert perturbed.WoodburySolvers(ensemble, form).form == "direct"
    for solve in (lambda: perturbed.solve_ensemble(ensemble, form),
                  lambda: perturbed.solve_ensemble(ensemble, perturbed.DIRECT)):
        with pytest.raises(SingularSampleError) as err:
            solve()
        assert err.value.sample == 0


def test_singular_complement_capacitance_raises(dense_flop_model):
    # With U = [e1 e2 e3], W = [e4 e5] and P_0 = -e1 e1' + e1 e5' + e5 e1',
    # base + P_0 factors but base + U U' P_0 is singular, and so is I - D_0 Z.
    n = 5
    eye = np.eye(n)
    p0 = -np.outer(eye[0], eye[0]) + np.outer(eye[0], eye[4]) + np.outer(eye[4], eye[0])
    members = [sp.csr_array(p0), sp.csr_array((n, n))]
    form = perturbed.WoodburyForm("complement", 2, vectors=eye[:, 3:])
    rhs = np.arange(1.0, n + 1.0)
    ensemble = perturbed.PerturbedEnsemble(base=sp.csr_array(eye), perturbations=members,
                                           rhs=rhs)
    assert perturbed.WoodburySolvers(ensemble, form).form == "complement"
    with pytest.raises(SingularCapacitanceError) as err:
        perturbed.solve_ensemble(ensemble, form)
    assert err.value.sample == 0


# ---------------------------------------------------------------------------
# solve_cg
# ---------------------------------------------------------------------------


def test_cg_zero_member_takes_no_step():
    # member 2 is zero: its column starts exact at u0 with residual -P_2 u0 = 0, so
    # its direction would be 0 and its curvature 0; only unconverged columns step
    ensemble = fem_ensemble(num_samples=4)
    members = list(ensemble.perturbations)
    members[2] = sp.csr_array(members[2].shape)
    ensemble = perturbed.PerturbedEnsemble(ensemble.base, members, ensemble.rhs)
    sol = perturbed.solve_cg(ensemble)
    assert np.array_equal(sol.samples[2], sol.unperturbed)
    assert sol.iterations > 0 and max(sol.residuals) <= perturbed.CG_RTOL
    direct = perturbed.solve_ensemble(ensemble, perturbed.DIRECT)
    for u, expected in zip(sol.samples, direct.samples):
        assert np.linalg.norm(u - expected) <= 1e-10 * np.linalg.norm(expected)
    assert (sol.woodbury_form, sol.update_rank) == ("none", 0)


@pytest.mark.parametrize("epsilon, distribution", [(0.2, "normal"), (0.9, "uniform")],
                         ids=["normal", "uniform"])
def test_cg_matches_direct_per_sample(epsilon, distribution):
    # N = 1681, M = 100; the normal field's least coefficient is -0.087 (seed 131),
    # so one sample matrix need not be definite, yet CG converges on it
    system = fem.sampled_system(fem.Sampling(h=0.025, samples=100, epsilon=epsilon,
                                             distribution=distribution, seed=131))
    if distribution == "normal":
        assert system.min_coefficient.min() == pytest.approx(-0.0874, abs=1e-4)
    ensemble = perturbed.PerturbedEnsemble(system.base, system.perturbations, system.load)
    sol = perturbed.solve_cg(ensemble)
    direct = perturbed.solve_ensemble(ensemble, perturbed.DIRECT)
    assert np.linalg.norm(sol.qoi - direct.qoi) <= 1e-10 * np.linalg.norm(direct.qoi)
    for u, expected in zip(sol.samples, direct.samples):
        assert np.linalg.norm(u - expected) <= 1e-10 * np.linalg.norm(expected)
    assert len(sol.residuals) == 100 and max(sol.residuals) <= 2 * perturbed.CG_RTOL
    # the iteration count grows with the perturbation's size
    assert sol.iterations == (14 if distribution == "normal" else 28)


def test_cg_refuses_nonpositive_curvature():
    # base + P_1 = diag(-1, 1, 1): the first direction of sample 1 is e_1
    n = 3
    members = [sp.csr_array(np.diag([0.5, 0.0, 0.0])), sp.csr_array(np.diag([-2.0, 0.0, 0.0]))]
    ensemble = perturbed.PerturbedEnsemble(sp.csr_array(np.eye(n)), members, np.ones(n))
    with pytest.raises(NoConvergenceError, match="nonpositive curvature for sample 1"):
        perturbed.solve_cg(ensemble)
    # every sample of the h = 0.05 ensemble at epsilon 0.9 has a nonpositive coefficient
    with pytest.raises(NoConvergenceError, match="curvature for sample 5$"):
        perturbed.solve_cg(fem_ensemble(h=0.05, num_samples=100, seed=131, epsilon=0.9))


def test_cg_refuses_a_non_finite_iterate():
    # |rhs|^2 overflows, so the first step is not finite
    n = 3
    members = [sp.csr_array((n, n)), sp.csr_array(np.diag([0.5, 0.25, 0.0]))]
    ensemble = perturbed.PerturbedEnsemble(sp.csr_array(np.eye(n)), members,
                                           np.full(n, 1e300))
    with pytest.raises(NoConvergenceError, match="non-finite iterate for sample 1"):
        perturbed.solve_cg(ensemble)


def test_cg_stops_after_n_iterations(monkeypatch):
    # at a tolerance of 0 no column converges short of an exactly zero residual
    rng = np.random.default_rng(9)
    ensemble, _ = synthetic_instance(rng, 5, 2, 2)
    monkeypatch.setattr(perturbed, "CG_RTOL", 0.0)
    with pytest.raises(NoConvergenceError, match="reached 5 iterations unconverged for sample 0"):
        perturbed.solve_cg(ensemble)


# ---------------------------------------------------------------------------
# solve_ensemble in the direct form
# ---------------------------------------------------------------------------


def test_direct_zero_perturbations():
    rng = np.random.default_rng(10)
    n = 7
    base = sp.csr_array(rand_spd(rng, n))
    zeros = [sp.csr_array((n, n)) for _ in range(3)]
    ensemble = perturbed.PerturbedEnsemble(base=base, perturbations=zeros,
                                           rhs=rng.standard_normal(n))
    sol = perturbed.solve_ensemble(ensemble, perturbed.DIRECT)
    for u in sol.samples:
        assert np.allclose(u, sol.unperturbed, atol=1e-12)


def test_direct_residuals():
    rng = np.random.default_rng(11)
    n, m = 10, 4
    base = sp.csr_array(rand_spd(rng, n))
    perts = [sp.csr_array(0.1 * rand_spd(rng, n, shift=0.0)) for _ in range(m)]
    rhs = rng.standard_normal(n)
    ensemble = perturbed.PerturbedEnsemble(base=base, perturbations=perts, rhs=rhs)
    sol = perturbed.solve_ensemble(ensemble, perturbed.DIRECT)
    for mm, u in enumerate(sol.samples):
        resid = (ensemble.base + ensemble.perturbations[mm]) @ u - rhs
        assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(rhs)


def test_sample_conditions_need_the_direct_form():
    # each symmetric sample matrix is estimated with its direct-form solver, its sample
    # LU: as with a fresh general LU of base + P_m
    rng = np.random.default_rng(12)
    perts = [sp.csr_array(0.1 * rand_spd(rng, 6, shift=0.0)) for _ in range(2)]
    ensemble = perturbed.PerturbedEnsemble(base=sp.csr_array(rand_spd(rng, 6)),
                                           perturbations=perts, rhs=rng.standard_normal(6))
    conds = perturbed.sample_conditions(ensemble)
    fresh = [numerics.condition_estimate(ensemble.base + p) for p in ensemble.perturbations]
    assert len(conds) == 2 and np.all(np.isfinite(conds))
    assert np.allclose(conds, fresh, rtol=1e-8, atol=0.0)


class CountedSums(sp.csr_array):
    """A base matrix that counts the sums ``base + P_m`` formed with it."""

    sums = 0

    def __add__(self, other):
        CountedSums.sums += 1
        return sp.csr_array(super().__add__(other))


def test_sample_conditions_form_each_sample_matrix_once():
    ensemble = fem_ensemble(num_samples=4)
    counted = perturbed.PerturbedEnsemble(base=CountedSums(ensemble.base),
                                          perturbations=ensemble.perturbations,
                                          rhs=ensemble.rhs)
    counted.base_factor  # its symmetry check forms no sum with a sample
    CountedSums.sums = 0
    conds = perturbed.sample_conditions(counted)
    assert CountedSums.sums == ensemble.num_samples
    # each estimated with its sample LU, as the direct form solves
    assert conds == tuple(
        numerics.condition_estimate(ensemble.base + p, solve=solver.solve)
        for p, solver in zip(ensemble.perturbations,
                             perturbed.WoodburySolvers(ensemble, perturbed.DIRECT)))


def test_direct_agrees_with_smw_at_full_ratio():
    rng = np.random.default_rng(12)
    n, m = 9, 3
    base = sp.csr_array(rand_spd(rng, n))
    perts = [sp.csr_array(0.05 * rng.standard_normal((n, n))) for _ in range(m)]
    rhs = rng.standard_normal(n)
    ensemble = perturbed.PerturbedEnsemble(base=base, perturbations=perts, rhs=rhs)
    _, (form,) = perturbed.plan_smw(ensemble, [n])
    smw = perturbed.solve_ensemble(ensemble, form)
    direct = perturbed.solve_ensemble(ensemble, perturbed.DIRECT)
    for u, v in zip(smw.samples, direct.samples):
        assert np.linalg.norm(u - v) <= 1e-9 * np.linalg.norm(v)


def test_one_fill_reducing_ordering_per_ensemble(monkeypatch):
    # the base's factor holds the one ordering MMD makes: pricing reads its fill and
    # makes no LU, and every sample LU, in this solve or another, factors in its
    # ordering in natural order
    ensemble = fem_ensemble(h=0.05, num_samples=5)
    factor = ensemble.base_factor  # the base's LU, not a sample's
    specs = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu",
                        lambda a, **kw: specs.append(kw["permc_spec"]) or splu(a, **kw))
    _, (form,) = perturbed.plan_smw(ensemble, [ensemble.dim])
    assert specs == []
    assert form.name == "direct"
    perturbed.solve_ensemble(ensemble, form)
    perturbed.solve_ensemble(ensemble, perturbed.DIRECT)
    assert specs == ["NATURAL"] * 2 * ensemble.num_samples
    # the shared ordering fills each sample LU as the base's, and as the sample's own
    # MMD ordering would
    for m in range(ensemble.num_samples):
        lu = perturbed._sample_lu(ensemble, m)
        assert lu.order is factor.order
        fresh = splu(sp.csc_array(ensemble.base + ensemble.perturbations[m]),
                     permc_spec="MMD_AT_PLUS_A")
        assert lu.lu.L.nnz + lu.lu.U.nnz == fresh.L.nnz + fresh.U.nnz == factor.entries


def arrow_ensemble():
    """Arrows a_m (u e_j' + e_j u') on a 12 x 12 grid Laplacian, j moving with m.

    Each member has a dense row and column outside the base's pattern, and no
    later sample shares sample 0's pattern.
    """
    side = 12
    n = side * side
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(side, side))
    rng = np.random.default_rng(8)
    u = rng.uniform(0.5, 1.0, n) / np.sqrt(n)
    members = []
    for j, a in zip((0, 77, 143), rng.uniform(-0.2, 0.2, 3)):
        e = np.zeros(n)
        e[j] = 1.0
        members.append(sp.csr_array(a * (np.outer(u, e) + np.outer(e, u))))
    return perturbed.PerturbedEnsemble(base=sp.csr_array(sp.kronsum(lap, lap)),
                                       perturbations=members, rhs=rng.standard_normal(n))


def eps09_ensemble(distribution):
    system = fem.sampled_system(fem.Sampling(h=0.1, samples=6, epsilon=0.9,
                                             distribution=distribution))
    return perturbed.PerturbedEnsemble(base=system.base, perturbations=system.perturbations,
                                       rhs=system.load)


@pytest.mark.parametrize("make, pivots", [
    (arrow_ensemble, None),
    (lambda: eps09_ensemble("uniform"), False),
    # coefficients down to about -2: indefinite samples, pivoted off the diagonal
    (lambda: eps09_ensemble("normal"), True),
], ids=["arrow", "eps0.9-uniform", "eps0.9-normal"])
def test_shared_ordering_solves_match_spsolve(make, pivots):
    ensemble = make()
    rng = np.random.default_rng(9)
    block = rng.standard_normal((ensemble.dim, 3))
    for m, solver in enumerate(perturbed.WoodburySolvers(ensemble, perturbed.DIRECT)):
        matrix = sp.csc_array(ensemble.base + ensemble.perturbations[m])
        for ours, expected in [(solver.solve(ensemble.rhs), spla.spsolve(matrix, ensemble.rhs)),
                               (solver.solve_t(ensemble.rhs),
                                spla.spsolve(sp.csc_array(matrix.T), ensemble.rhs)),
                               (solver.solve(block), spla.spsolve(matrix, block))]:
            assert np.linalg.norm(ours - expected) <= 1e-12 * np.linalg.norm(expected)
    if pivots is not None:
        lus = [perturbed._sample_lu(ensemble, m).lu for m in range(ensemble.num_samples)]
        assert any(not np.array_equal(lu.perm_r, lu.perm_c) for lu in lus) == pivots


# ---------------------------------------------------------------------------
# qoi_mean
# ---------------------------------------------------------------------------


def test_qoi_single_sample_identity():
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(perturbed.qoi_mean([v]), v)


def test_qoi_symmetric_pair_cancels():
    v = np.array([1.0, -2.0, 5.0])
    assert np.allclose(perturbed.qoi_mean([v, -v]), 0.0, atol=1e-16)


def test_qoi_three_known_vectors():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 3.0])
    c = np.array([2.0, 3.0])
    assert np.allclose(perturbed.qoi_mean([a, b, c]), [1.0, 2.0])


def test_qoi_empty_raises():
    with pytest.raises(EmptyInputError):
        perturbed.qoi_mean([])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5),
       st.floats(-10, 10, allow_nan=False), st.integers(0, 10_000))
def test_qoi_linearity(n, m, c, seed):
    rng = np.random.default_rng(seed)
    samples = [rng.standard_normal(n) for _ in range(m)]
    scaled = [c * s for s in samples]
    assert np.allclose(perturbed.qoi_mean(scaled), c * perturbed.qoi_mean(samples),
                       atol=1e-12)



# ---------------------------------------------------------------------------
# qoi.csv rows
# ---------------------------------------------------------------------------


def test_solution_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    ensemble, form = synthetic_instance(rng, 5, 2, 2)
    sol = perturbed.solve_ensemble(ensemble, form)
    path = tmp_path / "solution.csv"
    # the header and columns qoi.csv gets with --export-samples
    header = ["node", "unperturbed", "qoi", "sample_0000", "sample_0001"]
    cli.write_csv(path, header,
                  zip(range(len(sol.qoi)), sol.unperturbed, sol.qoi, *sol.samples))
    lines = path.read_text().splitlines()
    assert lines[0] == "node,unperturbed,qoi,sample_0000,sample_0001"
    assert len(lines) == 1 + 5
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == i
        assert float(cells[2]) == sol.qoi[i]  # repr round-trips exactly
