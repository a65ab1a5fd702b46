"""Dense and sparse matrix substrate used by every other module.

Dense matrices are plain ``numpy.ndarray``; sparse matrices are SciPy CSR/CSC
arrays.  The module provides the symmetric top-k eigensolver (dense LAPACK,
LAPACK's band solver for eigenvalues alone, or, for a few pairs of a large
matrix, a Chebyshev-filtered block subspace iteration whose work is block
products with the matrix), a reusable SPD factorization handle, the
Cholesky factorization of a block-diagonal stack of SPD bands and the
solves with it (``band_cholesky``, ``band_cholesky_solve``: one LAPACK call
each for the whole stack), norm and condition estimates, and MatrixMarket
import/export.  All tolerances are module constants and can be overridden
per call.  Matrices are treated as immutable after construction;
factorization handles are read-only and safe to share across threads.  The
band eigensolver, which ``spde`` runs on a worker thread beside its solves,
calls LAPACK through ``ctypes`` and releases the GIL (``_band_eigenvalues``);
every other call goes through SciPy, whose wrappers hold it, the band
Cholesky's among them.  ``set_blas_threads`` sets the thread count of the
OpenBLAS builds that the SciPy and NumPy wheels bundle, which are loaded on
first use (``_bundled_openblas``), not at import.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.io as sio
import scipy.linalg as sla
import scipy.linalg.cython_lapack as cython_lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    DimensionMismatchError,
    InputFileError,
    NoConvergenceError,
    NonSymmetricError,
    NotPositiveDefiniteError,
)

#: Max asymmetry tolerated, relative to the Frobenius norm.
SYM_TOL = 1e-10
#: Relative accuracy target of the power-iteration spectral norm.
SPECTRAL_NORM_TOL = 1e-6
#: Dense symmetric eigendecomposition up to this dimension; above it, see ``dense_eig``.
DENSE_EIG_MAX_DIM = 2000
#: Eigenvalues of a sparse matrix on the dense route come from its band when its
#: reverse Cuthill-McKee bandwidth is at most this fraction of n, else from the
#: dense matrix.  The band solver needs O(n bw) memory against O(n^2), and its
#: time grows with bw.  Measured on a 2-core VM with 2 BLAS threads, values
#: only, with ``dsbevd`` on the band: FEM Gram supports of 1521 rows (bandwidth
#: 78, fraction 0.051) took 0.25-0.36 s on the band against 0.24-0.42 s dense,
#: and of 6241 rows (158, 0.025) 9.6-11.4 s against 12.1-17.1 s; a wide-band
#: random ``a @ a.T`` took 316 ms on the band against 49 ms dense at n = 800,
#: and 2.04 s against 0.25 s at n = 1500.  With one BLAS thread and
#: ``dsbevd_2stage`` (5 runs, min-max): the 1521 rows took 138-146 ms on the
#: band against 309-323 ms dense, and the random full band 62-64 against
#: 40-41 ms at n = 800 and 517-549 against 290-293 ms at n = 1500.  The band
#: route also releases the GIL (``_band_eigenvalues``), where the dense one
#: holds it.
BAND_EIG_MAX_FRACTION = 0.1
#: Chebyshev-filtered subspace iteration (``_chebyshev_topk``): the degree of the
#: filter applied in each outer step, the fewest guard columns the block holds
#: beyond the k wanted (it holds ``max(k // 2, CHEB_MIN_GUARD)``), the residual
#: tolerance relative to the largest Gershgorin bound, and the most outer steps.
#: The degree was tuned on the ``compress-lowrank`` Gram supports of seeds
#: 2001-2006 (2401 rows, k = 131, from the floor 0 and the first cut trace / n):
#: 24 took 3 outer steps (75 block products) on all six, degrees 16-21 took 4
#: (68-88 products) and 25-28 took 3 (78-87).  An outer step's QR and
#: Rayleigh-Ritz cost about 18 block products (70 against 3.5 ms; one BLAS
#: thread, 2-core VM), so 24 costs least.
CHEB_DEGREE = 24
CHEB_MIN_GUARD = 20
CHEB_TOL = 1e-10
CHEB_MAX_STEPS = 100

_TINY = 1e-300


def to_dense(a) -> np.ndarray:
    """Return ``a`` as a float ndarray, densifying sparse input."""
    if sp.issparse(a):
        return np.asarray(a.toarray(), dtype=float)
    return np.asarray(a, dtype=float)


def to_csr(a):
    """Return ``a`` as a CSR array with summed duplicates."""
    if sp.issparse(a):
        out = sp.csr_array(a)
        out.sum_duplicates()
        return out
    return sp.csr_array(np.asarray(a, dtype=float))


def frobenius_norm(a) -> float:
    """Frobenius norm, exact to round-off."""
    if sp.issparse(a):
        return float(spla.norm(a, "fro"))
    return float(np.linalg.norm(np.asarray(a, dtype=float), "fro"))


def spectral_norm_estimate(a, rel_tol=SPECTRAL_NORM_TOL, max_iters=10_000, seed=0) -> float:
    """Largest singular value via power iteration on ``A^T A``.

    The returned estimate never exceeds the true spectral norm, so the
    inequality ``||A||_2 <= ||A||_F`` is preserved for every input.
    """
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(cols)
    v /= np.linalg.norm(v)
    # built once: a LinearOperator builds a new transposed operator on every ``.T``
    at = a.T
    est = 0.0
    for _ in range(max_iters):
        w = a @ v
        est_new = float(np.linalg.norm(w))
        if est_new == 0.0:
            return 0.0
        z = at @ w
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            return est_new
        v = z / nz
        if abs(est_new - est) <= 0.1 * rel_tol * max(est_new, _TINY):
            return est_new
        est = est_new
    return est


def _asymmetry(a) -> float:
    if sp.issparse(a):
        return float(spla.norm((a - a.T).tocsr(), "fro"))
    ad = np.asarray(a, dtype=float)
    return float(np.linalg.norm(ad - ad.T, "fro"))


def _require_square(a):
    rows, cols = a.shape
    if rows != cols:
        raise DimensionMismatchError(f"expected a square matrix, got {rows}x{cols}")
    return rows


@dataclass(frozen=True)
class EigenSolve:
    """How an eigensolve ran: its route, ``"dense"``, ``"band"`` or ``"chebyshev"``
    (``sym_eig_topk``), or ``"none"`` with nothing to decompose; on the band
    route the band's width and the LAPACK routine that ran (``_band_eigenvalues``);
    and on the Chebyshev route its block products with the matrix and outer (QR
    and Rayleigh-Ritz) steps."""

    route: str
    bandwidth: int | None = None
    kernel: str | None = None
    products: int | None = None
    steps: int | None = None


@dataclass(frozen=True, eq=False)
class EigenPairs:
    """Top-k eigenvalues in descending order with paired orthonormal vectors."""

    values: np.ndarray   # (k,), non-increasing
    vectors: np.ndarray | None  # (n, k), column j pairs with values[j]; None if not asked
    eigensolve: EigenSolve = EigenSolve("dense")


def _fix_column_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns in place so each one's first entry above 1e-12 of its largest is positive.

    Makes eigenvector output deterministic so downstream factorizations and
    golden files are stable.  Works through 64 columns at a time, so its
    temporaries stay small beside ``vectors``.  Returns ``vectors``.
    """
    for start in range(0, vectors.shape[1], 64):
        block = vectors[:, start:start + 64]
        magnitude = np.abs(block)
        scale = np.maximum(magnitude.max(axis=0), _TINY)
        lead = np.argmax(magnitude > 1e-12 * scale, axis=0)
        block *= np.where(block[lead, np.arange(block.shape[1])] < 0, -1.0, 1.0)
    return vectors


def dense_eig(n: int, k: int) -> bool:
    """Whether ``sym_eig_topk`` takes the dense route for ``k`` of ``n`` pairs.

    Dense cost does not grow with ``k``; the Chebyshev iteration's grows with
    ``k`` and, on a sparse matrix, with its entries rather than n^2.
    Measured on a FEM Gram matrix at n = 2601 (11.6 entries per row, support
    2401, both routes on the support with the floor 0; one BLAS thread,
    2-core VM, medians of 3-4 alternating repetitions): dense 2.6-2.9 s,
    Chebyshev 0.72 s at k/n = 0.1 (3 outer steps), 0.82 s at 0.15, 1.29 s at
    0.2 and 1.91 s at 0.25 (2 steps each), 3.86 s at 0.3 and 5.23 s at 0.35
    (3 steps each).  The crossover lies between 0.25 and 0.3, so the rule
    splits at 0.25.
    """
    return n <= DENSE_EIG_MAX_DIM or 4 * k > n


def _lower_band(s) -> np.ndarray | None:
    """The lower band of symmetric CSR ``s`` in reverse Cuthill-McKee order, or None.

    Row d, column j of the result holds entry (j + d, j) of the reordered
    matrix, the layout ``scipy.linalg.eig_banded(lower=True)`` reads.  None
    when the bandwidth exceeds ``BAND_EIG_MAX_FRACTION`` of n.
    """
    n = s.shape[0]
    position = np.empty(n, dtype=np.intp)
    position[rcm_order(s)] = np.arange(n)
    coo = s.tocoo()
    rows, cols = position[coo.row], position[coo.col]
    lower = rows >= cols
    offsets, cols = rows[lower] - cols[lower], cols[lower]
    bandwidth = int(offsets.max(initial=0))
    if bandwidth > BAND_EIG_MAX_FRACTION * n:
        return None
    band = np.zeros((bandwidth + 1, n), order="F")
    band[offsets, cols] = coo.data[lower]
    return band


def rcm_order(s) -> np.ndarray:
    """A reverse Cuthill-McKee ordering of sparse ``s``, whose pattern is symmetric.

    ``s[order][:, order]`` is the reordered matrix, whose entries lie in a
    narrow band around the diagonal.
    """
    # imported here: scipy.sparse.csgraph adds about 1 MB and 5 ms to every start of
    # lram, and only the band routes read it
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    return reverse_cuthill_mckee(sp.csr_array(s), symmetric_mode=True)


def _cython_lapack(name: str, *argtypes):
    """LAPACK routine ``name`` of SciPy's Cython LAPACK as a ctypes C function.

    A ctypes C function releases the GIL for the call, where SciPy's f2py
    wrappers hold it.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    pointer_of = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *argtypes)(pointer_of(capsule, name_of(capsule)))


#: The OpenBLAS builds bundled with the SciPy and NumPy wheels, as a glob in the
#: directory the packages are installed in; NumPy's is the 64-bit-integer build,
#: whose symbols end in ``64_``.
_BUNDLED_OPENBLAS = {"scipy": "scipy.libs/libscipy_openblas-*.so",
                     "numpy": "numpy.libs/libscipy_openblas64_*.so"}


@functools.cache
def _bundled_openblas() -> dict:
    """Each of ``_BUNDLED_OPENBLAS``'s libraries as a ``ctypes.CDLL``, or None where not found.

    Loaded on the first call, not at import.  SciPy's and NumPy's extension
    modules have loaded these libraries already, so this finds the copies
    they call, not new ones.
    """
    site = Path(sla.__file__).resolve().parent.parent.parent
    found = {}
    for package, pattern in _BUNDLED_OPENBLAS.items():
        paths = sorted(site.glob(pattern))
        found[package] = ctypes.CDLL(str(paths[0])) if paths else None
    return found


def _openblas_function(package: str, name: str, *argtypes):
    """Function ``name`` of ``package``'s bundled OpenBLAS as a ctypes C function, or None.

    None where the library or the symbol is missing.  The call releases the GIL.
    """
    library = _bundled_openblas()[package]
    if library is None or not hasattr(library, name):
        return None
    return ctypes.CFUNCTYPE(None, *argtypes)((name, library))


#: Each bundled OpenBLAS library and its thread-count setter.
_THREAD_SETTERS = {"scipy": "scipy_openblas_set_num_threads",
                   "numpy": "scipy_openblas_set_num_threads64_"}


def set_blas_threads(count: int) -> list[str]:
    """Set the thread count of SciPy's and NumPy's bundled OpenBLAS to ``count``.

    Returns the setters that were not found, empty where both ran; a library
    whose setter is missing keeps its count (its default, or what the
    environment set).
    """
    missing = []
    for package, name in _THREAD_SETTERS.items():
        setter = _openblas_function(package, name, ctypes.c_int)
        if setter is None:
            missing.append(name)
        else:
            setter(count)
    return missing


_INT, _ARRAY = ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
#: The arguments of LAPACK ``dsbevd(jobz, uplo, n, kd, ab, ldab, w, z, ldz, work,
#: lwork, iwork, liwork, info)`` and of ``dsbevd_2stage``, which takes the same.
_DSBEVD_ARGS = (ctypes.c_char_p, ctypes.c_char_p, _INT, _INT, _ARRAY, _INT, _ARRAY, _ARRAY,
                _INT, _ARRAY, _INT, _ARRAY, _INT, _INT)


def _ref(value: int):
    """A C int argument passed by reference, as LAPACK reads every integer."""
    return ctypes.byref(ctypes.c_int(value))


#: LAPACK ``dsbevd`` from SciPy's Cython LAPACK, the band eigensolver that
#: ``scipy.linalg.eig_banded`` runs; ``_band_eigenvalues`` calls it where the
#: bundled OpenBLAS has no ``dsbevd_2stage``.
_DSBEVD = _cython_lapack("dsbevd", *_DSBEVD_ARGS)


@functools.cache
def _dsbevd_2stage():
    """LAPACK ``dsbevd_2stage`` of SciPy's bundled OpenBLAS, or None where it is missing.

    SciPy's Cython LAPACK does not export it.  Bound on first use, from the
    library SciPy has loaded already (``_bundled_openblas``).
    """
    return _openblas_function("scipy", "scipy_dsbevd_2stage_", *_DSBEVD_ARGS,
                              ctypes.c_size_t, ctypes.c_size_t)


def _band_eigenvalues(band: np.ndarray) -> tuple[np.ndarray, str]:
    """Eigenvalues, ascending, of the symmetric matrix whose lower band is ``band``.

    ``band`` has ``_lower_band``'s layout and is overwritten.  LAPACK's
    two-stage band reduction ``dsbevd_2stage`` (Haidar, Ltaief & Dongarra,
    SC'11) computes the values with the workspace it asks for; where the
    bundled OpenBLAS has none, ``dsbevd`` does, with the workspace that
    ``scipy.linalg.eig_banded(band, lower=True, eigvals_only=True)`` gives it,
    so the values are bitwise that function's.  Either runs without the GIL.
    On a FEM Gram support of 1521 rows, bandwidth 78 (one BLAS thread,
    2-core VM), the two-stage routine took 0.14-0.16 s against 0.20-0.22 s
    for ``dsbevd``, and its values differed from ``dsbevd``'s by at most
    8.4e-15 of the largest.  Returns the values and the routine that ran.  Raises
    ``NoConvergenceError`` if the solver does not converge.
    """
    band = np.asfortranarray(band, dtype=float)
    rows, n = band.shape
    values, unused_vectors, info = np.empty(n), np.empty(1), ctypes.c_int()
    two_stage = _dsbevd_2stage()
    # the Fortran entry takes its two one-letter strings' lengths last
    routine, kernel, lengths = ((_DSBEVD, "dsbevd", ()) if two_stage is None
                                else (two_stage, "dsbevd_2stage", (1, 1)))

    def call(work, iwork, lwork, liwork):
        routine(b"N", b"L", _ref(n), _ref(rows - 1), band.ctypes.data, _ref(rows),
                values.ctypes.data, unused_vectors.ctypes.data, _ref(1), work.ctypes.data,
                _ref(lwork), iwork.ctypes.data, _ref(liwork), ctypes.byref(info), *lengths)

    work, iwork = np.empty(2 * n), np.empty(1, dtype=np.intc)
    if two_stage is not None:
        call(work, iwork, -1, -1)  # the query: the sizes come back in work[0] and iwork[0]
        work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), dtype=np.intc)
    if info.value == 0:
        call(work, iwork, work.size, iwork.size)
    if info.value < 0:
        raise ValueError(f"{kernel}: argument {-info.value} has an illegal value")
    if info.value > 0:
        raise NoConvergenceError(f"band eigensolver: {info.value} off-diagonal "
                                 "entries did not converge")
    return values, kernel


def band_cholesky(band: np.ndarray, block: int) -> list[int]:
    """Factor, in place, a block-diagonal stack of symmetric band blocks of ``block`` rows each.

    ``band`` is the stack's upper band in LAPACK's layout (row kd + i - j,
    column j holds entry (i, j) for j - kd <= i <= j), with no entry
    coupling two blocks, and Fortran-ordered, so that SciPy's LAPACK
    ``dpbtrf`` overwrites it rather than a copy.  One ``dpbtrf`` call factors
    the stack: the Cholesky factor of a block-diagonal matrix is
    block-diagonal, so each block's factor is its own.  ``dpbtrf`` stops at
    a block that is not positive definite; that block is reset to the
    identity, so that solves with the stack pass through it, and the call
    resumes at the next block.  Returns the indices of those blocks, ascending.
    """
    rows, n = band.shape
    if not (rows and band.flags.f_contiguous and band.dtype == float and n % block == 0):
        raise ValueError("band must be a Fortran-ordered float array of whole blocks")
    failed, start = [], 0
    while start < n:
        # SciPy takes n, kd and ldab from the band's shape, checked above: none is illegal
        info = sla.lapack.dpbtrf(band[:, start:], overwrite_ab=1)[1]
        if info == 0:
            break
        j = (start + info - 1) // block
        failed.append(j)
        band[:, j * block:(j + 1) * block] = 0.0
        band[-1, j * block:(j + 1) * block] = 1.0
        start = (j + 1) * block
    return failed


def band_cholesky_solve(factor: np.ndarray, rhs: np.ndarray, start: int = 0) -> np.ndarray:
    """Solve with rows and columns ``start`` on of a ``band_cholesky`` factor.

    The system is the one of those rows whose count is ``rhs.shape[0]``,
    which must begin and end on block boundaries; ``rhs`` is a vector or
    matrix of right-hand sides.  One call of SciPy's LAPACK ``dpbtrs``, which
    overwrites a Fortran-ordered float ``rhs`` and solves a copy of any other.
    Returns the solution.
    """
    n = rhs.shape[0]
    if start + n > factor.shape[1]:
        raise ValueError("rhs reaches past the factor")
    return sla.lapack.dpbtrs(factor[:, start:start + n], rhs, overwrite_b=1)[0]


def _gershgorin(a) -> tuple[float, float]:
    """Lower and upper Gershgorin bounds of the spectrum of symmetric ``a``.

    Every eigenvalue lies in some disc ``|lambda - a_ii| <= sum_{j != i}
    |a_ij|``, so none lies outside the returned interval.
    """
    diagonal = a.diagonal()
    row_sums = (np.asarray(abs(a).sum(axis=1)).ravel() if sp.issparse(a)
                else np.abs(a).sum(axis=1))
    radius = row_sums - np.abs(diagonal)
    return float(np.min(diagonal - radius)), float(np.max(diagonal + radius))


def _shifted(a, shift: float, scale: float):
    """``(a - shift I) * scale`` as a new matrix, CSR if ``a`` is sparse."""
    n = a.shape[0]
    if sp.issparse(a):
        out = a - shift * sp.eye_array(n, format="csr")
        out.data *= scale
        return out
    out = a * scale
    out.flat[::n + 1] -= shift * scale
    return out


def _orthonormal(block: np.ndarray) -> np.ndarray:
    """An orthonormal basis of ``block``'s columns by Householder QR, C-contiguous.

    Householder QR (LAPACK ``geqrf``) stays orthonormal to round-off when the
    block has lower rank than columns; a Cholesky QR breaks down there.
    """
    q = sla.qr(block, mode="economic", overwrite_a=True, check_finite=False)[0]
    return np.ascontiguousarray(q)


def _chebyshev_filter(a, block: np.ndarray, lower: float, cut: float, upper: float,
                      scale: float) -> np.ndarray:
    """``block`` times the degree-``CHEB_DEGREE`` Chebyshev polynomial of ``a`` for [lower, cut].

    The polynomial stays within [-1, 1] on [lower, cut], grows above it, and
    is scaled to 1 at ``upper`` so the block does not grow (``scale`` bounds
    the spectrum's magnitude and keeps a vanishing interval's width above
    rounding).  ``a`` is shifted once.  Each degree rescales that copy's
    entries by the recurrence's factor, a pass over nnz(a) numbers, in place
    of one over the n x b block, and costs one block product with it.
    ``block`` is overwritten; each temporary block goes as soon as it is read.
    """
    # the Ritz values lie within [lower, upper]; rounding can put the cut below lower
    half = max(0.5 * (cut - lower), np.finfo(float).eps * scale)
    centre = 0.5 * (cut + lower)
    sigma = half / (upper - centre)
    ratio = 2.0 / sigma
    # (a - centre I) * factor / half, its entries rescaled from one degree to the next
    shifted, factor = _shifted(a, centre, sigma / half), sigma
    entries = shifted.data if sp.issparse(shifted) else shifted
    previous, current = block, shifted @ block
    for _ in range(CHEB_DEGREE - 1):
        sigma_next = 1.0 / (ratio - sigma)
        entries *= 2.0 * sigma_next / factor
        factor = 2.0 * sigma_next
        following = shifted @ current
        previous *= sigma * sigma_next
        following -= previous
        previous, current, sigma = current, following, sigma_next
    return current


def _chebyshev_topk(a, k: int, floor: float | None = None
                    ) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The ``k`` largest eigenpairs of symmetric ``a`` by Chebyshev-filtered subspace iteration.

    After Zhou, Saad, Tiago & Chelikowsky (J. Comput. Phys. 219(1), 2006).
    The block holds b = min(n, k + max(k // 2, ``CHEB_MIN_GUARD``)) columns,
    drawn from ``default_rng(0)``, so the output is deterministic.  Each
    outer step filters the block (``_chebyshev_filter``), damping the
    interval from lb to a cut and amplifying what lies above it,
    orthonormalizes it (``_orthonormal``) and projects ``a`` on it
    (Rayleigh-Ritz, LAPACK ``eigh`` on the b x b matrix).  It stops once each
    of the k largest Ritz pairs has residual ``||a u - theta u||`` at most
    ``CHEB_TOL`` times the largest Gershgorin bound in magnitude; otherwise
    the block's smallest Ritz value is the next step's cut.  The first cut
    is the mean eigenvalue trace / n, so the random block gets no
    Rayleigh-Ritz step of its own.  lb is the Gershgorin lower bound, below
    which no eigenvalue lies (one there would be amplified with the wanted
    ones), or ``floor`` where the caller knows a higher one: 0 for a Gram
    matrix, whose Gershgorin bound can lie far below 0 and leave half the
    damped interval empty, so the wanted values grow more slowly.  Returns
    the values (descending), their vectors (n x k, unsigned), the number of
    block products with ``a`` and the number of outer steps.  Raises
    ``NoConvergenceError`` after ``CHEB_MAX_STEPS`` outer steps.
    """
    n = a.shape[0]
    b = min(n, k + max(k // 2, CHEB_MIN_GUARD))
    lower, upper = _gershgorin(a)
    scale = max(abs(lower), abs(upper))
    if floor is not None:
        lower = max(lower, floor)
    q = np.random.default_rng(0).standard_normal((n, b))
    cut = float(np.mean(a.diagonal()))
    products = 0
    for step in range(1, CHEB_MAX_STEPS + 1):
        # a spectrum of one point (a multiple of I) needs no filter: every block is exact
        if upper > lower:
            q = _chebyshev_filter(a, q, lower, cut, upper, scale)
            products += CHEB_DEGREE
        q = _orthonormal(q)
        aq = a @ q
        products += 1
        theta, w = sla.eigh(q.T @ aq, overwrite_a=True, check_finite=False, driver="evd")
        wanted = w[:, b - k:]
        vectors, residual = q @ wanted, aq @ wanted
        del aq
        residual -= vectors * theta[b - k:]
        converged = int(np.count_nonzero(np.linalg.norm(residual, axis=0)
                                         <= CHEB_TOL * scale))
        if converged == k:
            return theta[::-1][:k].copy(), vectors[:, ::-1], products, step
        del vectors, residual
        cut = theta[0]
    raise NoConvergenceError(f"Chebyshev subspace iteration converged for {converged} of "
                             f"{k} pairs in {CHEB_MAX_STEPS} steps")


def sym_eig_topk(s, k, sym_tol=SYM_TOL, vectors: bool = True,
                 floor: float | None = None) -> EigenPairs:
    """Return the ``k`` largest eigenvalues and eigenvectors of a symmetric matrix.

    Uses a dense LAPACK decomposition where ``dense_eig`` says so and a
    Chebyshev-filtered subspace iteration (``_chebyshev_topk``) otherwise,
    which applies ``s`` as given and never densifies a sparse one.
    ``floor`` is a lower bound of the spectrum that the caller knows, such as
    0 for a Gram matrix; the iteration filters from it where it lies above
    the Gershgorin lower bound, and the dense route needs none.  With
    ``vectors=False`` only the eigenvalues are computed and
    ``EigenPairs.vectors`` is None.  On the Chebyshev route they are the
    paired ones, from the same computation; on the dense route LAPACK takes a
    different route, so they can differ from the paired ones in the last
    bits, and a sparse ``s`` whose reverse Cuthill-McKee bandwidth is at
    most ``BAND_EIG_MAX_FRACTION`` of n is then decomposed as a band, never
    densified: on a FEM Gram support of 1521 rows that holds 0.9 MB where the
    dense matrix holds 18.5 MB, and the solver releases the GIL
    (``_band_eigenvalues``).  The dense route symmetrizes as
    ``0.5 * (S + S^T)``, a sparse ``s`` before it densifies once, and LAPACK
    overwrites that one copy.  Raises ``NonSymmetricError`` if the asymmetry
    exceeds ``sym_tol * ||S||_F``, ``ValueError`` if an entry is not finite
    and ``NoConvergenceError`` if the iteration does not converge.
    """
    n = _require_square(s)
    if not 1 <= k <= n:
        raise DimensionMismatchError(f"k={k} outside [1, {n}]")
    fro = frobenius_norm(s)
    if not np.isfinite(fro):
        raise ValueError("matrix must not contain infs or NaNs")
    if _asymmetry(s) > sym_tol * max(fro, _TINY):
        raise NonSymmetricError(f"asymmetry exceeds {sym_tol:g} * ||S||_F")

    if not dense_eig(n, k):
        a = to_csr(s) if sp.issparse(s) else np.asarray(s, dtype=float)
        w, v, products, steps = _chebyshev_topk(a, k, floor)
        return EigenPairs(values=w, eigensolve=EigenSolve("chebyshev", products=products,
                                                          steps=steps),
                          vectors=_fix_column_signs(np.ascontiguousarray(v)) if vectors else None)
    if sp.issparse(s):
        sym = to_csr((s + s.T) * 0.5)
        band = None if vectors else _lower_band(sym)
        if band is not None:
            w, kernel = _band_eigenvalues(band)
            return EigenPairs(values=w[::-1][:k].copy(), vectors=None,
                              eigensolve=EigenSolve("band", bandwidth=band.shape[0] - 1,
                                                    kernel=kernel))
        sd = sym.toarray(order="F")
        del sym
    else:
        sd = np.asarray(s, dtype=float)
        sd = 0.5 * (sd + sd.T)
    if not vectors:
        w = sla.eigh(sd, eigvals_only=True, overwrite_a=True, check_finite=False)
        return EigenPairs(values=w[::-1][:k].copy(), vectors=None)
    w, v = sla.eigh(sd, overwrite_a=True, check_finite=False)
    del sd
    return EigenPairs(values=w[::-1][:k].copy(),
                      vectors=_fix_column_signs(np.ascontiguousarray(v[:, ::-1][:, :k])))


class SpdFactorization:
    """Reusable sparse LU of a symmetric positive definite matrix A (``factorize_spd``).

    ``order`` is its fill-reducing ordering, ``A[order][:, order]`` being the
    matrix it factored, ``position`` the inverse of ``order``, and ``entries``
    the entry count of its L + U.  The handle is read-only after
    construction: concurrent ``solve`` calls against one handle are safe.
    """

    def __init__(self, lu: spla.SuperLU):
        self._solver = lu.solve
        self.dim = lu.shape[0]
        self.position = lu.perm_c
        self.order = np.argsort(lu.perm_c)
        self.entries = lu.L.nnz + lu.U.nnz

    def solve(self, rhs):
        """Solve ``A x = rhs`` for a vector or a stack of columns."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"rhs has leading dimension {rhs.shape[0]}, expected {self.dim}"
            )
        return self._solver(rhs)


def factorize_spd(a, sym_tol=SYM_TOL) -> SpdFactorization:
    """Factor an SPD matrix once for repeated solves.

    A sparse LU in symmetric mode with a fill-reducing ordering and diagonal
    pivoting, whose pivots certify positive definiteness if all are positive
    and on the diagonal (SuperLU pivots off a zero diagonal entry, so rows
    permuted unlike columns are refused).
    """
    _require_square(a)
    fro = frobenius_norm(a)
    if _asymmetry(a) > sym_tol * max(fro, _TINY):
        raise NonSymmetricError(f"asymmetry exceeds {sym_tol:g} * ||A||_F")

    acsc = to_csr(a).tocsc()
    try:
        lu = spla.splu(
            acsc,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True, "Equil": False},
        )
    except RuntimeError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NotPositiveDefiniteError("off-diagonal pivot encountered")
    if not np.all(lu.U.diagonal() > 0):
        raise NotPositiveDefiniteError("nonpositive pivot encountered")
    return SpdFactorization(lu)


def condition_estimate(a, iters=100, seed=0, solve=None) -> float:
    """Estimate the 2-norm condition number within a factor of 10.

    ``spectral_norm_estimate`` on ``A`` gives the largest singular value and,
    capped at ``iters`` iterations, on the factorized inverse the reciprocal
    of the smallest.  ``solve``, an existing solve with a symmetric ``A``
    (``SpdFactorization.solve``), replaces the LU made here.  Returns ``inf``
    for singular input or a non-finite solve.
    """
    n = _require_square(a)
    sigma_max = spectral_norm_estimate(a, seed=seed)
    if sigma_max == 0.0:
        return float("inf")
    if solve is None:
        try:
            lu = spla.splu(to_csr(a).tocsc())
        except RuntimeError:
            return float("inf")
        inverse = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float,
                                      rmatvec=lambda w: lu.solve(w, trans="T"))
    else:
        inverse = spla.LinearOperator((n, n), matvec=solve, rmatvec=solve, dtype=float)
    inverse_norm = spectral_norm_estimate(inverse, max_iters=iters, seed=seed + 1)
    if not (np.isfinite(inverse_norm) and inverse_norm > 0.0):
        return float("inf")
    return float(sigma_max * inverse_norm)


def save_matrix_market(path, a) -> None:
    """Write a sparse matrix in MatrixMarket coordinate format (ASCII, 1-based)."""
    sio.mmwrite(str(path), to_csr(a), precision=17)


def load_matrix_market(path):
    """Read a MatrixMarket file, returning a CSR array; ``InputFileError`` if unreadable."""
    try:
        return to_csr(sio.mmread(str(path)))
    except (OSError, ValueError) as exc:
        raise InputFileError(f"cannot read MatrixMarket file {str(path)!r}: {exc}") from exc
