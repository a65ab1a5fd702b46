import ctypes
import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lram import fem, lowrank, numerics
from lram.errors import (
    ConfigRangeError,
    DimensionMismatchError,
    EmptyEnsembleError,
    NoConvergenceError,
)

import oracles
from oracles import jacobi_eigh, rand_orthonormal


def random_ensemble(rng, n, m, rank=None):
    """Random dense ensemble; optionally each member of a fixed rank."""
    out = []
    for _ in range(m):
        if rank is None:
            out.append(rng.standard_normal((n, n)))
        else:
            out.append(rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n)))
    return out


def shared_basis_objective(ensemble, basis):
    """Sum of squared Frobenius errors of projecting onto span(basis)."""
    total = 0.0
    for a in ensemble:
        ad = np.asarray(a if not sp.issparse(a) else a.toarray(), dtype=float)
        total += np.linalg.norm(ad - basis @ (basis.T @ ad), "fro") ** 2
    return total


# ---------------------------------------------------------------------------
# compress
# ---------------------------------------------------------------------------


def test_compress_exact_rank_one():
    e1 = np.zeros((4, 4))
    e1[0, 0] = 1.0
    factors = lowrank.compress([e1], 0.25)
    assert factors.rank == 1
    assert np.allclose(np.abs(factors.basis[:, 0]), [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(np.abs(factors.coeffs[0][0]), [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert oracles.rmsre([e1], factors) <= 1e-12


def test_compress_full_ratio_reconstructs():
    rng = np.random.default_rng(0)
    ensemble = random_ensemble(rng, 6, 4)
    factors = lowrank.compress(ensemble, 1.0)
    scale = max(np.linalg.norm(a, "fro") for a in ensemble)
    assert oracles.rmsre(ensemble, factors) <= 1e-10 * scale


def test_compress_rank_deficient_matches_gram_tail():
    rng = np.random.default_rng(1)
    ensemble = random_ensemble(rng, 6, 3, rank=2)
    gram = lowrank.ensemble_gram(ensemble)
    lam, _ = jacobi_eigh(gram)
    lam = np.maximum(lam, 0.0)
    gram_rank = int(np.sum(lam > 1e-10 * lam[0]))

    exact = lowrank.compress(ensemble, gram_rank / 6)
    assert oracles.rmsre(ensemble, exact) <= 1e-9

    for k in range(1, gram_rank):
        factors = lowrank.compress(ensemble, k / 6)
        expected = math.sqrt(np.sum(lam[k:]) / len(ensemble))
        assert oracles.rmsre(ensemble, factors) == pytest.approx(expected, abs=1e-8)


def test_compress_sparse_members():
    rng = np.random.default_rng(2)
    ensemble = [sp.csr_array(a) for a in random_ensemble(rng, 5, 3)]
    factors = lowrank.compress(ensemble, 1.0)
    assert oracles.rmsre(ensemble, factors) <= 1e-9


def test_compress_orthonormal_basis():
    rng = np.random.default_rng(3)
    ensemble = random_ensemble(rng, 8, 4)
    factors = lowrank.compress(ensemble, 0.5)
    eye = factors.basis.T @ factors.basis
    assert np.allclose(eye, np.eye(factors.rank), atol=1e-10)


def test_compress_beats_random_competitors():
    rng = np.random.default_rng(4)
    ensemble = random_ensemble(rng, 8, 4)
    factors = lowrank.compress(ensemble, 3 / 8)
    best = shared_basis_objective(ensemble, factors.basis)
    for _ in range(20):
        competitor = rand_orthonormal(rng, 8, 3)
        assert best <= shared_basis_objective(ensemble, competitor) + 1e-9


def test_compress_coeffs_are_optimal_given_basis():
    rng = np.random.default_rng(5)
    ensemble = random_ensemble(rng, 6, 3)
    factors = lowrank.compress(ensemble, 2 / 6)

    def objective(coeffs):
        return sum(
            np.linalg.norm(a - factors.basis @ c, "fro") ** 2
            for a, c in zip(ensemble, coeffs)
        )

    base = objective(factors.coeffs)
    for scale in (1e-3, 1e-1):
        perturbed = [c + scale * rng.standard_normal(c.shape) for c in factors.coeffs]
        assert objective(perturbed) > base


def test_rmsre_nested_in_rank():
    rng = np.random.default_rng(6)
    ensemble = random_ensemble(rng, 7, 3)
    spectrum = lowrank.gram_spectrum(ensemble)
    errs = [lowrank.rmsre(ensemble, spectrum, k) for k in range(1, 8)]
    assert all(errs[i] >= errs[i + 1] - 1e-10 for i in range(len(errs) - 1))


def test_compress_errors():
    with pytest.raises(EmptyEnsembleError):
        lowrank.compress([], 0.5)
    with pytest.raises(DimensionMismatchError):
        lowrank.compress([np.eye(3), np.eye(4)], 0.5)
    with pytest.raises(ConfigRangeError):
        lowrank.compress([np.eye(3)], 0.0)
    with pytest.raises(ConfigRangeError):
        lowrank.compress([np.eye(3)], 1.5)


def test_tiny_ratio_clamps_to_rank_one():
    factors = lowrank.compress([np.eye(4)], 1e-6)
    assert factors.rank == 1


def test_ratio_rank_roundtrip():
    for n in (3, 7, 121, 665):
        for k in range(1, n + 1, max(1, n // 7)):
            assert lowrank.rank_from_ratio(k / n, n) == k


# ---------------------------------------------------------------------------
# Gram spectrum: sparse Gram, support eigensolve, numerical rank
# ---------------------------------------------------------------------------


def fem_members(h=0.1, num_samples=5, seed=3):
    mesh = fem.structured_mesh(h)
    fields = fem.sample_fields(mesh, num_samples, 0.2, "normal", seed)
    return mesh, fem.assemble(mesh, fields, lambda x, y: 1.0).perturbations


def test_sparse_gram_and_lanczos_build_no_dense_square(monkeypatch):
    """A sparse ensemble's Gram build and iterative eigensolve allocate no N-by-N array."""
    _, members = fem_members(h=0.025, num_samples=10)
    n = members[0].shape[0]
    densified = []
    for cls in (sp.csr_array, sp.csc_array, sp.coo_array):
        def toarray(self, *args, _original=cls.toarray, **kwargs):
            densified.append(self.shape)
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(cls, "toarray", toarray)
    monkeypatch.setattr(numerics, "DENSE_EIG_MAX_DIM", 100)
    k = 20
    assert not numerics.dense_eig(n, k)
    tracemalloc.start()
    try:
        gram = lowrank.ensemble_gram(members)
        spectrum = lowrank.gram_spectrum(members, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sp.issparse(gram) and gram.nnz < 15 * n
    assert not spectrum.complete and spectrum.vectors.shape == (n, k)
    assert densified == []
    # one N-by-N array of doubles is 8 N^2 bytes; the whole build and solve stay below
    # a quarter of that (about a sixth measured: the Chebyshev block, sparse temporaries)
    assert peak < 0.25 * 8 * n * n
    dense = gram.toarray()
    assert np.allclose(spectrum.values, np.linalg.eigvalsh(dense)[::-1][:k],
                       rtol=0.0, atol=1e-12 * spectrum.values[0])


def test_gram_iteration_filters_from_zero(monkeypatch):
    # a Gram matrix has no eigenvalue below 0, though its Gershgorin bound lies well
    # below: filtered from 0, the iteration reaches the same values in fewer products
    _, members = fem_members(h=0.05, num_samples=20)
    monkeypatch.setattr(numerics, "DENSE_EIG_MAX_DIM", 10)
    gram = lowrank.ensemble_gram(members)
    support = lowrank.gram_support(gram)
    sub = gram[np.ix_(support, support)]
    assert numerics._gershgorin(sub)[0] < -3.0
    k = 10
    floored = lowrank.gram_spectrum(members, k, gram=gram)
    bounded = numerics.sym_eig_topk(sub, k)
    assert floored.eigensolve.route == bounded.eigensolve.route == "chebyshev"
    expected = np.linalg.eigvalsh(sub.toarray())[::-1][:k]
    for values in (floored.values, bounded.values):
        assert np.max(np.abs(values - expected)) <= 1e-12 * expected[0]
    assert floored.eigensolve.products < bounded.eigensolve.products
    assert floored.eigensolve.steps < bounded.eigensolve.steps


def test_dense_route_decomposes_the_support_only(monkeypatch):
    mesh, members = fem_members()
    n = mesh.num_nodes
    interior = np.setdiff1d(np.arange(n), mesh.boundary_nodes)
    shapes = []

    def recorded(s, k, **kwargs):
        shapes.append((s.shape, k))
        return sym_eig_topk(s, k, **kwargs)

    sym_eig_topk = numerics.sym_eig_topk
    monkeypatch.setattr(numerics, "sym_eig_topk", recorded)
    spectrum = lowrank.gram_spectrum(members)
    s = interior.shape[0]
    assert shapes == [((s, s), s)]
    assert spectrum.complete
    gram = lowrank.ensemble_gram(members).toarray()
    scale = spectrum.values[0]
    assert np.allclose(spectrum.values, np.linalg.eigvalsh(gram)[::-1], rtol=0.0,
                       atol=1e-13 * scale)
    assert np.all(spectrum.values[s:] == 0.0)
    v = spectrum.vectors
    assert np.allclose(v.T @ v, np.eye(n), atol=1e-12)
    assert np.linalg.norm(gram @ v - v * spectrum.values) <= 1e-12 * scale * n
    # off the support: unit vectors, in node order, after the support's vectors
    assert np.array_equal(v[mesh.boundary_nodes][:, s:], np.eye(n - s))
    assert np.all(v[mesh.boundary_nodes, :s] == 0.0)
    values_only = lowrank.gram_spectrum(members, vectors=False)
    assert values_only.vectors is None
    assert np.allclose(values_only.values, spectrum.values, rtol=0.0, atol=1e-13 * scale)


def test_chebyshev_route_decomposes_the_support_and_pads_zero_rows(monkeypatch):
    mesh, members = fem_members()
    n = mesh.num_nodes
    shapes = []

    def recorded(s, k, **kwargs):
        shapes.append((s.shape, k))
        return sym_eig_topk(s, k, **kwargs)

    sym_eig_topk = numerics.sym_eig_topk
    monkeypatch.setattr(numerics, "sym_eig_topk", recorded)
    monkeypatch.setattr(numerics, "DENSE_EIG_MAX_DIM", 10)
    s = n - mesh.boundary_nodes.shape[0]
    spectrum = lowrank.gram_spectrum(members, 7)
    assert shapes == [((s, s), 7)]
    assert (spectrum.eigensolve.route, spectrum.complete) == ("chebyshev", False)
    v = spectrum.vectors
    assert v.shape == (n, 7) and np.all(v[mesh.boundary_nodes] == 0.0)
    gram = lowrank.ensemble_gram(members).toarray()
    scale = np.linalg.eigvalsh(gram)[-1]
    assert np.allclose(spectrum.values, np.linalg.eigvalsh(gram)[::-1][:7], rtol=0.0,
                       atol=1e-12 * scale)
    assert np.max(np.abs(v.T @ v - np.eye(7))) <= 1e-12
    # more pairs than the support holds: all of them, on the dense route
    deficient = deficient_members()
    wide = lowrank.gram_spectrum(deficient, 30)
    assert (wide.eigensolve.route, wide.complete, wide.support) == ("dense", True, 23)


def deficient_members():
    """Members u_m v_m^T with u_m on 6 neighbouring rows of 60: |S| = 23, k* = 4."""
    rng = np.random.default_rng(21)
    n = 60
    members = []
    for start in (0, 5, 20, 40):
        u = np.zeros(n)
        u[start:start + 6] = rng.standard_normal(6)
        members.append(sp.csr_array(np.outer(u, rng.standard_normal(n))))
    return members


def test_band_route_matches_dense_eigenvalues(monkeypatch):
    """Values-only spectra on the band route agree with dense LAPACK to 1e-13 of the largest."""
    monkeypatch.setattr(numerics, "BAND_EIG_MAX_FRACTION", 1.0)
    _, fem_ensemble = fem_members()
    for members, k_star in [(fem_ensemble, None), (deficient_members(), 4)]:
        spectrum = lowrank.gram_spectrum(members, vectors=False)
        assert spectrum.eigensolve.route == "band" and spectrum.eigensolve.bandwidth >= 1
        expected = np.linalg.eigvalsh(lowrank.ensemble_gram(members).toarray())[::-1]
        assert np.max(np.abs(spectrum.values - expected)) <= 1e-13 * expected[0]
        if k_star is not None:
            assert lowrank.numerical_rank(spectrum.energy_curve()) == k_star


@pytest.mark.parametrize("members", [
    lambda: fem_members(h=0.025, num_samples=10)[1],
    deficient_members,
], ids=["fem-h0.025", "rank-deficient"])
def test_band_eigenvalues_are_eig_banded_bitwise(monkeypatch, members):
    """The GIL-free band eigensolver gives SciPy ``eig_banded``'s values bit for bit."""
    monkeypatch.setattr(numerics, "BAND_EIG_MAX_FRACTION", 1.0)
    gram = lowrank.ensemble_gram(members())
    support = lowrank.gram_support(gram)
    on_support = gram[np.ix_(support, support)]
    band = numerics._lower_band(numerics.to_csr((on_support + on_support.T) * 0.5))
    expected = oracles.band_eigenvalues(band)
    assert numerics._band_eigenvalues(band.copy(order="F")).tobytes() == expected.tobytes()
    pairs = numerics.sym_eig_topk(on_support, support.shape[0], vectors=False)
    assert pairs.eigensolve.route == "band" and pairs.values.tobytes() == expected[::-1].tobytes()


def test_band_eigenvalues_refuse_what_does_not_converge():
    # LAPACK reports a NaN band as unconverged, as SciPy's eig_banded does
    band = np.full((3, 10), np.nan, order="F")
    with pytest.raises(np.linalg.LinAlgError):
        oracles.band_eigenvalues(band.copy(order="F"))
    with pytest.raises(NoConvergenceError, match="did not converge"):
        numerics._band_eigenvalues(band)


def test_band_eigensolver_is_the_one_binding_and_releases_the_gil():
    # a ctypes CFUNCTYPE call releases the GIL, a PYFUNCTYPE one holds it; the bitwise
    # test above cannot tell them apart.  spde's solves run beside this call.
    bindings = [name for name, value in vars(numerics).items()
                if isinstance(value, ctypes._CFuncPtr)]
    assert bindings == ["_DSBEVD"]
    assert not numerics._DSBEVD._flags_ & ctypes._FUNCFLAG_PYTHONAPI


def test_band_route_fraction_decides_for_fem_gram():
    # h = 0.1: |S| = 81, bandwidth 18 after reverse Cuthill-McKee, above a tenth: dense
    _, members = fem_members()
    spectrum = lowrank.gram_spectrum(members, vectors=False)
    assert (spectrum.eigensolve.route, spectrum.eigensolve.bandwidth) == ("dense", None)
    # with the vectors, always dense; a zero ensemble needs no eigensolve
    assert lowrank.gram_spectrum(members).eigensolve.route == "dense"
    zero = lowrank.gram_spectrum([sp.csr_array((4, 4))], vectors=False)
    assert (zero.eigensolve.route, zero.eigensolve.bandwidth) == ("none", None)


def test_values_only_spectrum_holds_no_dense_square():
    """At h = 0.025 (|S| = 1521, bandwidth 78) the values never densify the support."""
    _, members = fem_members(h=0.025, num_samples=10)
    gram = lowrank.ensemble_gram(members)
    s = lowrank.gram_support(gram).shape[0]
    tracemalloc.start()
    try:
        spectrum = lowrank.gram_spectrum(members, vectors=False, gram=gram)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (s, spectrum.eigensolve.route, spectrum.eigensolve.bandwidth) == (1521, "band", 78)
    # one |S|-by-|S| array of doubles is 8 |S|^2 bytes (18.5 MB)
    assert peak < 0.25 * 8 * s * s


def test_padded_basis_is_the_support_pairs_sorted_by_value():
    # rounding leaves 19 support values of the rank-deficient ensemble near 0, some
    # below the exact zeros off the support: their columns move behind those zeros
    members = deficient_members()
    gram = lowrank.ensemble_gram(members)
    support = lowrank.gram_support(gram)
    n, s = gram.shape[0], support.shape[0]
    pairs = numerics.sym_eig_topk(gram[np.ix_(support, support)], s)
    values = np.concatenate([pairs.values, np.zeros(n - s)])
    padded = np.zeros((n, n))
    padded[support, :s] = pairs.vectors
    padded[np.setdiff1d(np.arange(n), support), np.arange(s, n)] = 1.0
    order = np.argsort(-values, kind="stable")
    assert np.any(order != np.arange(n))
    spectrum = lowrank.gram_spectrum(members, gram=gram)
    assert spectrum.values.tobytes() == values[order].tobytes()
    assert spectrum.vectors.tobytes() == padded[:, order].tobytes()


def test_spectrum_with_vectors_holds_one_support_square_and_one_padded_square():
    """At h = 0.025 (|S| = 1521, N = 1681) the eigenvectors and the padded basis alone."""
    _, members = fem_members(h=0.025, num_samples=10)
    gram = lowrank.ensemble_gram(members)
    n, s = gram.shape[0], lowrank.gram_support(gram).shape[0]
    tracemalloc.start()
    try:
        spectrum = lowrank.gram_spectrum(members, gram=gram)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (n, s, spectrum.vectors.shape) == (1681, 1521, (1681, 1681))
    # 8 (|S|^2 + N^2) bytes is 41.1 MB; a second |S|-by-|S| or N-by-N array would add
    # 18.5 or 22.6 MB.  1 MB covers indices and column blocks
    assert peak < 8 * (s * s + n * n) + 1e6


def test_numerical_rank_is_the_critical_energy_rule():
    curve = [(1, 0.5), (2, 1.0 - 2e-12), (3, 1.0 - 0.5e-12), (4, 1.0)]
    assert lowrank.numerical_rank(curve) == 3
    assert lowrank.numerical_rank([(1, 0.5), (2, 0.9)]) == 2


# ---------------------------------------------------------------------------
# rmsre
# ---------------------------------------------------------------------------


def test_rmsre_exact_factors_zero():
    rng = np.random.default_rng(7)
    ensemble = random_ensemble(rng, 5, 2)
    assert lowrank.rmsre(ensemble, lowrank.gram_spectrum(ensemble), 5) <= 1e-10


def test_rmsre_hand_checkable():
    a = np.diag([3.0, 4.0])  # rank 1 keeps the second axis and drops 3^2
    assert lowrank.rmsre([a], lowrank.gram_spectrum([a]), 1) == pytest.approx(3.0, abs=1e-14)
    # the oracle rebuilds any factors, here the worse first axis: error 4
    basis = np.array([[1.0], [0.0]])
    factors = lowrank.LowRankFactors(basis=basis, coeffs=[basis.T @ a])
    assert oracles.rmsre([a], factors) == pytest.approx(4.0, abs=1e-14)


def test_rmsre_matches_direct_formula():
    rng = np.random.default_rng(8)
    ensemble = random_ensemble(rng, 5, 3)
    spectrum = lowrank.gram_spectrum(ensemble)
    factors = lowrank.compress(ensemble, 2 / 5, spectrum)
    direct = math.sqrt(
        sum(np.linalg.norm(a - factors.basis @ c, "fro") ** 2
            for a, c in zip(ensemble, factors.coeffs)) / len(ensemble)
    )
    assert lowrank.rmsre(ensemble, spectrum, 2) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("complete", [True, False])
def test_rmsre_matches_explicit_oracle(monkeypatch, complete):
    """Both branches agree with the explicit rebuild, relative where the error is
    large and absolute where it vanishes."""
    if not complete:
        monkeypatch.setattr(numerics, "DENSE_EIG_MAX_DIM", 10)
    rng = np.random.default_rng(10)
    n = 30
    ensemble = [sp.csr_array(a) for a in random_ensemble(rng, n, 4, rank=4)]
    scale = max(numerics.frobenius_norm(a) for a in ensemble)
    ranks = (2, 3) if not complete else (2, 5, 16, 30)  # k* = 16
    for k in ranks:
        spectrum = lowrank.gram_spectrum(ensemble, k)
        assert spectrum.complete is complete
        factors = lowrank.compress(ensemble, k / n, spectrum)
        expected = oracles.rmsre(ensemble, factors)
        got = lowrank.rmsre(ensemble, spectrum, k)
        if expected > 1e-6 * scale:
            assert got == pytest.approx(expected, rel=1e-8 if not complete else 1e-10)
        else:
            assert expected < 1e-13 * scale and got <= 1e-12 * scale


def test_rmsre_from_values_only_spectrum_reads_the_eigenvalue_tail():
    # members U C_m with a shared rank-4 U on rows 0..19 of 30: k* = 4 < |S| = 20
    rng = np.random.default_rng(11)
    n, m, support = 30, 5, 20
    basis = np.zeros((n, 4))
    basis[:support] = rng.standard_normal((support, 4))
    ensemble = [sp.csr_array(basis @ rng.standard_normal((4, n))) for _ in range(m)]
    spectrum = lowrank.gram_spectrum(ensemble)
    values_only = lowrank.gram_spectrum(ensemble, vectors=False)
    k_star = lowrank.numerical_rank(values_only.energy_curve())
    assert (values_only.vectors, values_only.support, k_star) == (None, support, 4)
    scale = math.sqrt(values_only.trace / m)
    for k in range(1, n + 1):
        got = lowrank.rmsre(ensemble, values_only, k)
        expected = oracles.rmsre(ensemble, lowrank.compress(ensemble, k / n, spectrum))
        if k >= support:
            assert got == 0.0  # the tail holds only the exact zeros off the support
        elif k >= k_star:
            assert abs(got - expected) <= 1e-7 * scale
        else:
            assert got == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# energy ratios
# ---------------------------------------------------------------------------


def test_energy_rank_one_saturates_immediately():
    e1 = np.zeros((4, 4))
    e1[0, 0] = 2.0
    curve = lowrank.gram_spectrum([e1]).energy_curve()
    assert curve[0] == (1, pytest.approx(1.0, abs=1e-14))
    assert curve[-1][1] == 1.0


def test_energy_explicit_eigenvalues():
    values = np.array([4.0, 3.0, 2.0, 1.0])
    a = np.diag(np.sqrt(values))  # Gram of [a] is diag(values)
    spectrum = lowrank.gram_spectrum([a])
    assert spectrum.values == pytest.approx(values, rel=1e-12)
    assert spectrum.energy_curve()[1][1] == pytest.approx((4.0 + 3.0) / values.sum(), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 10_000))
def test_energy_monotone_and_terminal(n, m, seed):
    rng = np.random.default_rng(seed)
    ensemble = random_ensemble(rng, n, m)
    curve = lowrank.gram_spectrum(ensemble).energy_curve()
    vals = [e for _, e in curve]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
    assert vals[-1] == 1.0
    assert [k for k, _ in curve] == list(range(1, n + 1))


def test_energy_relates_to_rmsre():
    rng = np.random.default_rng(9)
    ensemble = random_ensemble(rng, 6, 3)
    gram = lowrank.ensemble_gram(ensemble)
    lam_total = float(np.trace(gram))
    spectrum = lowrank.gram_spectrum(ensemble)
    assert spectrum.trace == pytest.approx(lam_total, rel=1e-12)
    m = len(ensemble)
    for k, e_k in spectrum.energy_curve():
        err = lowrank.rmsre(ensemble, spectrum, k)
        assert e_k == pytest.approx(1.0 - err ** 2 * m / lam_total, abs=1e-8)


def test_energy_curve_of_zero_ensemble_is_empty():
    zeros = [np.zeros((3, 3)), np.zeros((3, 3))]
    assert lowrank.gram_spectrum(zeros).energy_curve() == []
    # no direction carries energy, so k* = 0
    assert lowrank.numerical_rank(lowrank.gram_spectrum(zeros).energy_curve()) == 0


# ---------------------------------------------------------------------------
# compression ratio
# ---------------------------------------------------------------------------


def test_compression_ratio_reference_values():
    r = lowrank.compression_ratio(665, 585, 500)
    assert r == pytest.approx((585 / 665) * (1 + 1 / 500), rel=1e-12)
    assert round(r, 4) == 0.8815
    assert lowrank.compression_ratio(10, 5, 1) == pytest.approx(1.0, rel=1e-12)
    assert lowrank.compression_ratio(50, 50, 10_000_000) == pytest.approx(1.0, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 500), st.integers(1, 500), st.integers(1, 1000))
def test_compression_ratio_formula(n, k, m):
    if k > n:
        k = n
    r = lowrank.compression_ratio(n, k, m)
    assert r == pytest.approx((k / n) * (1 + 1 / m), rel=1e-12)


def test_compression_ratio_rejects_bad_args():
    with pytest.raises(ConfigRangeError):
        lowrank.compression_ratio(5, 6, 2)
    with pytest.raises(ConfigRangeError):
        lowrank.compression_ratio(0, 1, 1)


# ---------------------------------------------------------------------------
# two-sided baseline
# ---------------------------------------------------------------------------


def test_glram_identical_rank_k_members():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 8))
    factors = lowrank.glram_compress([a, a, a], rank=3, max_iters=5)
    assert factors.rmsre_history[-1] <= 1e-8
    assert factors.iterations <= 5


def test_glram_full_rank_reconstructs_first_iteration():
    rng = np.random.default_rng(11)
    ensemble = random_ensemble(rng, 6, 3)
    factors = lowrank.glram_compress(ensemble, rank=6, max_iters=3)
    scale = max(np.linalg.norm(a, "fro") for a in ensemble)
    assert factors.rmsre_history[0] <= 1e-10 * scale


def test_glram_history_non_increasing_and_orthonormal():
    rng = np.random.default_rng(12)
    ensemble = random_ensemble(rng, 8, 4)
    factors = lowrank.glram_compress(ensemble, rank=3, max_iters=30, rel_tol=1e-14)
    hist = factors.rmsre_history
    assert all(hist[i] >= hist[i + 1] - 1e-12 for i in range(len(hist) - 1))
    k = 3
    assert np.allclose(factors.left.T @ factors.left, np.eye(k), atol=1e-10)
    assert np.allclose(factors.right.T @ factors.right, np.eye(k), atol=1e-10)
    # recorded history agrees with an explicit reconstruction of the final state
    assert oracles.glram_rmsre(ensemble, factors) == pytest.approx(hist[-1], abs=1e-10)


def test_glram_errors():
    with pytest.raises(EmptyEnsembleError):
        lowrank.glram_compress([], 1)
    with pytest.raises(DimensionMismatchError):
        lowrank.glram_compress([np.eye(3), np.eye(2)], 1)
    with pytest.raises(DimensionMismatchError):
        lowrank.glram_compress([np.eye(3)], 4)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_factors_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    ensemble = random_ensemble(rng, 6, 3)
    factors = lowrank.compress(ensemble, 2 / 6)
    path = tmp_path / "factors.bin"
    lowrank.save_factors(path, factors)
    back = lowrank.load_factors(path)
    assert back.rank == factors.rank
    assert back.num_samples == factors.num_samples
    assert np.array_equal(back.basis, factors.basis)
    for c0, c1 in zip(factors.coeffs, back.coeffs):
        assert np.array_equal(c0, c1)
    # header spells out dims: magic, version, then N, k, M as little-endian u64
    raw = path.read_bytes()
    assert raw[:4] == b"LRFB"
    n, k, m = struct.unpack("<QQQ", raw[8:32])
    assert (n, k, m) == (6, 2, 3)


def test_factor_file_bytes_are_the_documented_layout(tmp_path):
    # each matrix is written from its buffer; the file is still the header followed by
    # each matrix's row-major little-endian bytes, and the returned digest is theirs
    rng = np.random.default_rng(14)
    ensemble = [sp.csr_array(rng.standard_normal((7, 7)) * (rng.random((7, 7)) < 0.4))
                for _ in range(3)]
    factors = lowrank.compress(ensemble, 3 / 7)
    path = tmp_path / "factors.bin"
    digest = lowrank.save_factors(path, factors)
    expected = b"LRFB" + struct.pack("<IQQQ", 1, 7, 3, 3) + b"".join(
        np.asarray(m, dtype="<f8").tobytes()
        for m in [factors.basis, *(np.asarray((p.T @ factors.basis).T) for p in ensemble)])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == hashlib.sha256(expected).hexdigest()
    assert digest == hashlib.sha256(expected).hexdigest()
    back = lowrank.load_factors(path)
    assert back.basis.tobytes() == factors.basis.tobytes()
    assert [c.tobytes() for c in back.coeffs] == [np.asarray(c).tobytes()
                                                   for c in factors.coeffs]


@pytest.mark.parametrize("edit", ["truncate", "append"])
def test_load_factors_rejects_wrong_length(tmp_path, edit):
    rng = np.random.default_rng(15)
    factors = lowrank.compress(random_ensemble(rng, 6, 3), 2 / 6)
    path = tmp_path / "factors.bin"
    lowrank.save_factors(path, factors)
    raw = path.read_bytes()
    expected = 32 + 8 * (6 * 2 + 3 * 2 * 6)
    assert len(raw) == expected
    damaged = raw[:-8] if edit == "truncate" else raw + b"\0" * 8
    path.write_bytes(damaged)
    with pytest.raises(ValueError, match=f"holds {len(damaged)} bytes.*needs {expected}"):
        lowrank.load_factors(path)


def test_factors_matrix_market_export(tmp_path):
    rng = np.random.default_rng(14)
    ensemble = random_ensemble(rng, 4, 2)
    factors = lowrank.compress(ensemble, 2 / 4)
    written = lowrank.factors_to_matrix_market(tmp_path / "mm", factors)
    assert len(written) == 3
    from lram import numerics

    basis = numerics.load_matrix_market(written[0]).toarray()
    assert np.allclose(basis, factors.basis, atol=1e-15)


def test_stored_scalars_accounting():
    rng = np.random.default_rng(15)
    ensemble = random_ensemble(rng, 9, 4)
    factors = lowrank.compress(ensemble, 3 / 9)
    assert factors.stored_scalars == 9 * 3 + 4 * 9 * 3
