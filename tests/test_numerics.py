import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from lram import numerics
from lram.errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonSymmetricError,
    NotPositiveDefiniteError,
)

import oracles
from oracles import SingularMatrixError, gauss_solve, jacobi_eigh, rand_spd


# ---------------------------------------------------------------------------
# sym_eig_topk
# ---------------------------------------------------------------------------


def test_sym_eig_identity_pair():
    pairs = numerics.sym_eig_topk(np.eye(3), 2)
    assert np.allclose(pairs.values, [1.0, 1.0])
    assert np.allclose(pairs.vectors.T @ pairs.vectors, np.eye(2), atol=1e-10)


def test_sym_eig_diagonal_top1():
    pairs = numerics.sym_eig_topk(np.diag([4.0, 1.0, 0.0]), 1)
    assert pairs.values[0] == pytest.approx(4.0, abs=1e-12)
    # sign convention: first nonzero entry positive, so the vector is +e1
    assert np.allclose(pairs.vectors[:, 0], [1.0, 0.0, 0.0], atol=1e-12)


def test_sym_eig_full_decomposition_matches_jacobi_oracle():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((8, 8))
    s = 0.5 * (m + m.T)
    pairs = numerics.sym_eig_topk(s, 8)
    w_ref, _ = jacobi_eigh(s)
    assert np.allclose(pairs.values, w_ref, atol=1e-10)
    recon = pairs.vectors @ np.diag(pairs.values) @ pairs.vectors.T
    assert np.linalg.norm(s - recon) <= 1e-8 * np.linalg.norm(s)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_sym_eig_vectors_orthonormal(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    s = m + m.T
    k = max(1, n // 2)
    pairs = numerics.sym_eig_topk(s, k)
    assert np.allclose(pairs.vectors.T @ pairs.vectors, np.eye(k), atol=1e-10)
    assert np.all(np.diff(pairs.values) <= 1e-12)


def test_sym_eig_reconstructs_dim50():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((50, 50))
    s = m + m.T
    pairs = numerics.sym_eig_topk(s, 50)
    recon = (pairs.vectors * pairs.values) @ pairs.vectors.T
    assert np.linalg.norm(s - recon) <= 1e-8 * np.linalg.norm(s)


def test_sym_eig_residual_per_pair():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((12, 12))
    s = m + m.T
    pairs = numerics.sym_eig_topk(s, 4)
    for lam, vec in zip(pairs.values, pairs.vectors.T):
        assert np.linalg.norm(s @ vec - lam * vec) <= 1e-8 * np.linalg.norm(s)


def test_sym_eig_sparse_input():
    s = sp.csr_array(np.diag([3.0, 2.0, 1.0]))
    pairs = numerics.sym_eig_topk(s, 2)
    assert np.allclose(pairs.values, [3.0, 2.0])


def test_sym_eig_rejects_nonsymmetric():
    with pytest.raises(NonSymmetricError):
        numerics.sym_eig_topk(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


def test_sym_eig_route_follows_pair_fraction(monkeypatch):
    """Above DENSE_EIG_MAX_DIM, many pairs go dense and few reach the Chebyshev iteration."""
    class ChebyshevReached(Exception):
        pass

    def refuse(*args, **kwargs):
        raise ChebyshevReached

    monkeypatch.setattr(numerics, "DENSE_EIG_MAX_DIM", 4)
    monkeypatch.setattr(numerics, "_chebyshev_topk", refuse)
    rng = np.random.default_rng(5)
    m = rng.standard_normal((20, 20))
    s = m + m.T
    pairs = numerics.sym_eig_topk(s, 18)  # k = 0.9 n
    assert np.allclose(pairs.values, np.linalg.eigvalsh(s)[::-1][:18], atol=1e-10)
    with pytest.raises(ChebyshevReached):
        numerics.sym_eig_topk(s, 2)  # k = 0.1 n


@pytest.mark.parametrize("max_dense, k", [(100, 20), (4, 3)], ids=["dense", "chebyshev"])
def test_sym_eig_values_only(monkeypatch, max_dense, k):
    monkeypatch.setattr(numerics, "DENSE_EIG_MAX_DIM", max_dense)
    rng = np.random.default_rng(6)
    m = rng.standard_normal((20, 20))
    s = m + m.T
    pairs = numerics.sym_eig_topk(s, k, vectors=False)
    assert pairs.vectors is None
    assert np.allclose(pairs.values, np.linalg.eigvalsh(s)[::-1][:k], atol=1e-10)


def test_wide_band_sparse_input_stays_dense():
    # a random a a^T has no narrow band in any ordering: the band route would be slower
    rng = np.random.default_rng(22)
    a = rng.standard_normal((200, 200))
    s = sp.csr_array(a @ a.T)
    pairs = numerics.sym_eig_topk(s, 200, vectors=False)
    assert (pairs.eigensolve.route, pairs.eigensolve.bandwidth) == ("dense", None)
    expected = np.linalg.eigvalsh(s.toarray())[::-1]
    assert np.allclose(pairs.values, expected, rtol=0.0, atol=1e-12 * expected[0])


def test_dense_route_symmetrizes_sparse_input_as_dense():
    # the sparse side's 0.5 * (S + S^T) holds the dense one's values, so the pairs agree
    rng = np.random.default_rng(23)
    m = sp.random_array((30, 30), density=0.2, rng=rng, format="csr")
    s = m + m.T
    s = s + sp.csr_array(1e-13 * sp.random_array((30, 30), density=0.1, rng=rng))
    for vectors in (True, False):
        sparse, dense = (numerics.sym_eig_topk(x, 30, vectors=vectors)
                         for x in (s, s.toarray()))
        assert sparse.values.tobytes() == dense.values.tobytes()
        if vectors:
            assert sparse.vectors.tobytes() == dense.vectors.tobytes()


@pytest.mark.parametrize("vectors", [True, False])
def test_sym_eig_refuses_non_finite_input(monkeypatch, vectors):
    # LAPACK runs without its own finiteness check, on the dense and the band route
    monkeypatch.setattr(numerics, "BAND_EIG_MAX_FRACTION", 1.0)
    s = np.eye(4)
    s[2, 2] = np.nan
    for matrix in (s, sp.csr_array(s)):
        with pytest.raises(ValueError):
            numerics.sym_eig_topk(matrix, 4, vectors=vectors)


def test_fix_column_signs_matches_column_loop_oracle():
    rng = np.random.default_rng(12)
    v = rng.standard_normal((40, 30))
    v[0, :10] = -np.abs(v[0, :10])       # negative leading entries: flipped
    v[:3, 10:20] = 1e-13 * v[:3, 10:20]  # leading entries below 1e-12 of the column's
    v[3, 10:15] = -np.abs(v[3, 10:15])   # largest are skipped: the sign is read at row 3
    v[3, 15:20] = np.abs(v[3, 15:20])
    v[:5, 20:25] = 0.0                   # exact zeros, and negative zeros
    v[:5, 25:30] = -0.0
    v[:, 29] = 0.0                       # an all-zero column stays as it is
    expected = oracles.fix_column_signs(v)
    got = numerics._fix_column_signs(v.copy())
    assert got.tobytes() == expected.tobytes()
    assert np.all(got[0, :10] > 0) and np.all(got[3, 10:20] > 0)
    assert np.array_equal(np.abs(got), np.abs(v))


@pytest.mark.parametrize("k", [0, 4])
def test_sym_eig_rejects_bad_k(k):
    with pytest.raises(DimensionMismatchError):
        numerics.sym_eig_topk(np.eye(3), k)


# ---------------------------------------------------------------------------
# the Chebyshev route: filtered block subspace iteration
# ---------------------------------------------------------------------------


def chebyshev_pairs(monkeypatch, s, k, vectors=True):
    """``sym_eig_topk`` forced onto the Chebyshev route."""
    monkeypatch.setattr(numerics, "DENSE_EIG_MAX_DIM", 10)
    pairs = numerics.sym_eig_topk(s, k, vectors=vectors)
    assert pairs.eigensolve.route == "chebyshev" and pairs.eigensolve.products > 0
    return pairs


def assert_top_pairs(pairs, dense, k):
    """Values within 1e-12 |lambda|_max of dense ``eigvalsh``'s; orthonormal vectors."""
    expected = np.linalg.eigvalsh(dense)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(pairs.values - expected[::-1][:k])) <= 1e-12 * scale
    assert np.max(np.abs(pairs.vectors.T @ pairs.vectors - np.eye(k))) <= 1e-12


def test_chebyshev_indefinite_sparse(monkeypatch):
    rng = np.random.default_rng(31)
    m = sp.random_array((300, 300), density=0.02, rng=rng, format="csr")
    s = (m + m.T + sp.diags_array(rng.uniform(-2.0, 2.0, 300))).tocsr()
    pairs = chebyshev_pairs(monkeypatch, s, 12)
    assert_top_pairs(pairs, s.toarray(), 12)
    residual = s @ pairs.vectors - pairs.vectors * pairs.values
    assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-9 * np.max(np.abs(pairs.values))
    # the values alone come from the same computation: bitwise the paired ones
    values = chebyshev_pairs(monkeypatch, s, 12, vectors=False)
    assert values.vectors is None
    assert values.values.tobytes() == pairs.values.tobytes()
    assert values.eigensolve.products == pairs.eigensolve.products


def test_chebyshev_gram_of_rank_below_the_block(monkeypatch):
    # rank 15 < block 12 + 20 columns: the filtered block is numerically rank deficient
    rng = np.random.default_rng(32)
    b = sp.random_array((250, 15), density=0.2, rng=rng, format="csr")
    s = (b @ b.T).tocsr()
    assert np.linalg.matrix_rank(s.toarray()) == 15
    pairs = chebyshev_pairs(monkeypatch, s, 12)
    assert_top_pairs(pairs, s.toarray(), 12)


def test_chebyshev_repeated_value_across_k_reaches_the_optimum(monkeypatch):
    # the value 5 fills places 8 to 12, so the 10 leading vectors are not unique: any
    # orthonormal basis of the first 7 directions plus 3 of the repeated ones is optimal
    rng = np.random.default_rng(33)
    n, k = 160, 10
    values = np.concatenate([np.linspace(12.0, 6.0, 7), np.full(5, 5.0),
                             np.linspace(4.0, 0.0, n - 12)])
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    s = (q * values) @ q.T
    s = 0.5 * (s + s.T)
    pairs = chebyshev_pairs(monkeypatch, s, k)
    assert_top_pairs(pairs, s, k)
    u = pairs.vectors
    optimum = float(np.sum(np.sort(values)[::-1][k:] ** 2))
    assert abs(np.linalg.norm(s - u @ (u.T @ s)) ** 2 - optimum) <= 1e-12 * optimum


def test_chebyshev_calls_are_bitwise_equal(monkeypatch):
    rng = np.random.default_rng(34)
    m = sp.random_array((200, 200), density=0.03, rng=rng, format="csr")
    s = (m + m.T).tocsr()
    first, second = (chebyshev_pairs(monkeypatch, s, 8) for _ in range(2))
    assert first.values.tobytes() == second.values.tobytes()
    assert first.vectors.tobytes() == second.vectors.tobytes()
    assert first.eigensolve.products == second.eigensolve.products


def test_chebyshev_multiple_of_identity_needs_no_filter(monkeypatch):
    # every vector is an eigenvector, and the filter's interval would be one point: the
    # Rayleigh-Ritz step on the random block converges at once
    pairs = chebyshev_pairs(monkeypatch, sp.csr_array(2.5 * sp.eye_array(50)), 4)
    assert np.allclose(pairs.values, 2.5, rtol=0.0, atol=1e-14)
    assert (pairs.eigensolve.products, pairs.eigensolve.steps) == (1, 1)


def test_chebyshev_refuses_after_its_outer_cap(monkeypatch):
    rng = np.random.default_rng(35)
    m = sp.random_array((200, 200), density=0.03, rng=rng, format="csr")
    monkeypatch.setattr(numerics, "CHEB_MAX_STEPS", 1)
    with pytest.raises(NoConvergenceError, match=r"converged for \d+ of 8 pairs"):
        chebyshev_pairs(monkeypatch, (m + m.T).tocsr(), 8)


# ---------------------------------------------------------------------------
# factorize_spd
# ---------------------------------------------------------------------------


def test_factorize_scaled_identity():
    fact = numerics.factorize_spd(sp.csr_array(2.0 * np.eye(4)))
    x = fact.solve(np.ones(4))
    assert np.allclose(x, 0.5 * np.ones(4), atol=1e-14)


def test_factorize_fem_stiffness_matches_elimination_oracle():
    from lram import fem

    mesh = fem.structured_mesh(0.25)
    system = fem.assemble(mesh, [], lambda x, y: 1.0)
    fact = numerics.factorize_spd(system.base)
    x = fact.solve(system.load)
    x_ref = gauss_solve(system.base.toarray(), system.load)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * max(np.linalg.norm(x_ref), 1e-30)
    resid = system.base @ x - system.load
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(system.load)


def test_factorize_rejects_zero_pivot():
    with pytest.raises(NotPositiveDefiniteError):
        numerics.factorize_spd(np.diag([1.0, 0.0, 2.0]))


def test_factorize_rejects_indefinite_sparse_path():
    n = 250  # forces the sparse branch
    d = np.ones(n)
    d[100] = -1.0
    with pytest.raises(NotPositiveDefiniteError):
        numerics.factorize_spd(sp.diags_array(d).tocsr())


def test_factorize_rejects_zero_diagonal_indefinite_sparse_path():
    # [[0, 1], [1, 0]] is indefinite; SuperLU pivots off the zero diagonal and
    # reaches positive pivots, so the pivot signs alone would pass it
    n = 250
    a = sp.lil_array(sp.eye_array(n))
    a[0, 0] = 0.0
    a[1, 1] = 0.0
    a[0, 1] = a[1, 0] = 1.0
    with pytest.raises(NotPositiveDefiniteError):
        numerics.factorize_spd(a.tocsr())


def test_factorize_sparse_path_roundtrip():
    n = 250
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    a = sp.diags_array([off, main, off], offsets=[-1, 0, 1]).tocsr()
    fact = numerics.factorize_spd(a)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(n)
    x = fact.solve(b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_factorize_rejects_nonsymmetric():
    with pytest.raises(NonSymmetricError):
        numerics.factorize_spd(np.array([[2.0, 1.0], [0.0, 2.0]]))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 30), st.integers(0, 10_000))
def test_factorize_random_spd_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    a = rand_spd(rng, n, shift=1.0)
    fact = numerics.factorize_spd(a)
    b = rng.standard_normal(n)
    x = fact.solve(b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_factorize_solve_matrix_rhs():
    fact = numerics.factorize_spd(np.diag([1.0, 2.0, 4.0]))
    x = fact.solve(np.eye(3))
    assert np.allclose(x, np.diag([1.0, 0.5, 0.25]), atol=1e-14)


# ---------------------------------------------------------------------------
# stacked band Cholesky
# ---------------------------------------------------------------------------


def band_blocks(rng, count, n=12, kd=3, indefinite=()):
    """``count`` random symmetric blocks of half-bandwidth ``kd``: SPD, or indefinite by index."""
    blocks = []
    for j in range(count):
        a = rng.standard_normal((n, n))
        a = np.triu(np.tril(a + a.T, kd), -kd)
        shift = np.abs(a).sum(axis=1).max() + 1.0
        a += (-shift if j in indefinite else shift) * np.eye(n)
        blocks.append(sp.csr_array(a))
    return blocks


def stacked_band(blocks, kd):
    """The blocks' upper band in LAPACK's layout, block j in columns j n to (j + 1) n."""
    n = blocks[0].shape[0]
    band = np.zeros((kd + 1, n * len(blocks)), order="F")
    for j, a in enumerate(blocks):
        coo = a.tocoo()
        upper = coo.row <= coo.col
        band[kd + coo.row[upper] - coo.col[upper], coo.col[upper] + j * n] = coo.data[upper]
    return band


@pytest.mark.parametrize("count", [3, 5])
def test_band_cholesky_stack_matches_spsolve(count):
    rng = np.random.default_rng(count)
    n, kd = 12, 3
    blocks = band_blocks(rng, count, n, kd)
    factor = stacked_band(blocks, kd)
    assert numerics.band_cholesky(factor, n) == []
    rhs = rng.standard_normal((n, count))
    stacked = numerics.band_cholesky_solve(factor, np.asfortranarray(rhs).reshape(-1, order="F"))
    stacked = stacked.reshape((n, count), order="F")
    for j, a in enumerate(blocks):
        expected = spla.spsolve(a.tocsc(), rhs[:, j])
        assert np.linalg.norm(stacked[:, j] - expected) <= 1e-12 * np.linalg.norm(expected)
        # one block alone, on its slice of the band, two right-hand sides at once
        alone = numerics.band_cholesky_solve(factor, np.asfortranarray(rhs[:, [j, j]]), j * n)
        for column in alone.T:
            assert np.linalg.norm(column - stacked[:, j]) <= 1e-14 * np.linalg.norm(expected)


def test_band_cholesky_reports_an_indefinite_block_and_factors_the_others():
    rng = np.random.default_rng(9)
    n, kd = 12, 3
    blocks = band_blocks(rng, 3, n, kd, indefinite={1})
    factor = stacked_band(blocks, kd)
    assert numerics.band_cholesky(factor, n) == [1]
    # the block is reset to the identity, so a stacked solve passes it through
    rhs = rng.standard_normal(3 * n)
    x = numerics.band_cholesky_solve(factor, rhs.copy())
    assert np.array_equal(x[n:2 * n], rhs[n:2 * n])
    for j in (0, 2):
        expected = spla.spsolve(blocks[j].tocsc(), rhs[j * n:(j + 1) * n])
        assert np.linalg.norm(x[j * n:(j + 1) * n] - expected) <= 1e-12 * np.linalg.norm(expected)


def test_band_cholesky_refuses_a_band_it_cannot_factor_in_place():
    # LAPACK overwrites only a Fortran-ordered band, and a band of no rows has kd = -1
    for band in (np.zeros((2, 4)), np.zeros((0, 4), order="F")):
        with pytest.raises(ValueError, match="Fortran-ordered"):
            numerics.band_cholesky(band, 2)


# ---------------------------------------------------------------------------
# dense_solve
# ---------------------------------------------------------------------------


def test_dense_solve_identity():
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(oracles.dense_solve(np.eye(2), b), b)


def test_dense_solve_diagonal():
    x = oracles.dense_solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.eye(2))
    assert np.allclose(x, np.diag([0.5, 0.25]), atol=1e-14)


def test_dense_solve_residual_random():
    rng = np.random.default_rng(5)
    a = rand_spd(rng, 6, shift=1.0)
    b = rng.standard_normal((6, 3))
    x = oracles.dense_solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_dense_solve_singular_reports_condition():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMatrixError) as err:
        oracles.dense_solve(a, np.ones(2))
    assert err.value.cond == float("inf") or err.value.cond > 1e12


# ---------------------------------------------------------------------------
# norms and condition numbers
# ---------------------------------------------------------------------------


def test_condition_identity():
    est = numerics.condition_estimate(sp.eye_array(5).tocsr())
    assert 0.1 <= est <= 10.0


def test_condition_diagonal():
    est = numerics.condition_estimate(np.diag([100.0, 1.0]))
    assert 10.0 <= est <= 1000.0


def test_condition_fem_matches_svd_oracle_order():
    from lram import fem

    mesh = fem.structured_mesh(0.1)
    system = fem.assemble(mesh, [], lambda x, y: 1.0)
    est = numerics.condition_estimate(system.base)
    exact = np.linalg.cond(system.base.toarray())
    assert exact / 10.0 <= est <= exact * 10.0


def test_condition_singular_is_inf():
    assert numerics.condition_estimate(np.zeros((3, 3))) == float("inf")
    assert numerics.condition_estimate(np.diag([1.0, 0.0])) == float("inf")


def test_frobenius_zeros_and_identity():
    assert numerics.frobenius_norm(np.zeros((4, 4))) == 0.0
    assert numerics.frobenius_norm(np.eye(3)) == pytest.approx(np.sqrt(3.0))
    assert numerics.spectral_norm_estimate(np.eye(3)) == pytest.approx(1.0, rel=1e-6)
    assert numerics.spectral_norm_estimate(np.zeros((3, 3))) == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 10_000))
def test_rank_one_norms_agree(n, m, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    v = rng.standard_normal(m)
    a = np.outer(u, v)
    expected = np.linalg.norm(u) * np.linalg.norm(v)
    assert numerics.frobenius_norm(a) == pytest.approx(expected, rel=1e-12)
    assert numerics.spectral_norm_estimate(a) == pytest.approx(expected, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10_000))
def test_spectral_never_exceeds_frobenius(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    assert numerics.spectral_norm_estimate(a) <= numerics.frobenius_norm(a) + 1e-12


# ---------------------------------------------------------------------------
# MatrixMarket round trip
# ---------------------------------------------------------------------------


def test_matrix_market_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    dense = rng.standard_normal((7, 7))
    dense[np.abs(dense) < 1.0] = 0.0
    a = sp.csr_array(dense)
    path = tmp_path / "matrix.mtx"
    numerics.save_matrix_market(path, a)
    back = numerics.load_matrix_market(path)
    assert back.shape == a.shape
    assert np.array_equal(back.toarray(), a.toarray())
    text = path.read_text().splitlines()
    assert text[0].startswith("%%MatrixMarket matrix coordinate")
