"""Shared-basis low-rank compression of matrix ensembles.

Given samples A_1..A_M of one N-by-N perturbation matrix, find a single
orthonormal basis (N-by-k) and per-sample coefficient matrices (k-by-N) so
that A_m is approximated by ``basis @ coeffs[m]`` with minimal summed squared
Frobenius error.  The optimal basis consists of the leading eigenvectors of
the accumulated Gram matrix ``sum_m A_m A_m^T``, and the optimal coefficients
are ``basis^T A_m``.  One eigendecomposition of that Gram matrix, held as a
``GramSpectrum``, feeds the factors, their reconstruction error, the energy
curve and the ensemble's numerical rank k* (``numerical_rank``).  The Gram
matrix stays sparse for sparse members, and the complete eigendecomposition
runs on its support only.  Its eigenvalues alone serve the energy curve, k*
and the reconstruction error; its eigenvectors serve the factors of ``lram
compress`` and the Woodbury forms SMW reads, which hold no factors.  The
compression ratio is included, plus binary and MatrixMarket serialization of
the factors.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import itertools
import math
import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import numerics
from .errors import ConfigRangeError, DimensionMismatchError, EmptyEnsembleError

_FACTORS_MAGIC = b"LRFB"
_FACTORS_VERSION = 1
_FACTORS_HEADER_BYTES = 32  # magic, version, N, k, M

#: Energy left out at the numerical rank k*, relative to the total.
CRITICAL_ENERGY_TOL = 1e-12


class Projections(Sequence):
    """Read-only sequence of ``basis^T A_m`` over ``members``, each built on access.

    No k-by-N matrix is held; every access projects the member again.
    """

    def __init__(self, basis: np.ndarray, members):
        self.basis = basis
        self.members = members

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, m: int) -> np.ndarray:
        return _sample_coeffs(self.basis, self.members[m])


@dataclass(frozen=True, eq=False)
class LowRankFactors:
    """Shared orthonormal basis plus per-sample coefficient matrices, for ``lram compress``.

    ``basis`` is N-by-k with orthonormal columns; ``coeffs[m]`` is k-by-N and
    the reconstruction of sample m is ``basis @ coeffs[m]``.  ``compress``
    gives ``coeffs`` as ``Projections`` of the compressed members; loaded and
    hand-built factors hold plain coefficient lists.  Plain data for
    ``save_factors`` and the MatrixMarket export: no solve reads factors, and
    every ``perturbed`` solve reads the eigenvectors its ``WoodburyForm``
    carries.
    """

    basis: np.ndarray
    coeffs: Sequence[np.ndarray]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def num_samples(self) -> int:
        return len(self.coeffs)

    @property
    def stored_scalars(self) -> int:
        """Scalars of the basis plus M coefficient matrices of k-by-N."""
        return int(self.basis.size) + self.num_samples * self.rank * self.dim


def _check_ensemble(ensemble) -> int:
    if len(ensemble) == 0:
        raise EmptyEnsembleError("ensemble has no members")
    first = ensemble[0]
    rows, cols = first.shape
    if rows != cols:
        raise DimensionMismatchError(f"ensemble members must be square, got {rows}x{cols}")
    for a in ensemble:
        if a.shape != (rows, cols):
            raise DimensionMismatchError("ensemble members differ in shape")
    return rows


def rank_from_ratio(ratio: float, dim: int) -> int:
    """Rank k = ceil(ratio * dim), clamped to [1, dim].

    A small slack keeps ratio = k/dim round-tripping to k despite floating
    point.
    """
    if not 0.0 < ratio <= 1.0:
        raise ConfigRangeError(f"reduction ratio must lie in (0, 1], got {ratio}")
    return min(dim, max(1, math.ceil(ratio * dim - 1e-9)))


def ensemble_gram(ensemble):
    """Accumulated Gram matrix ``sum_m A_m A_m^T``, CSR when every member is sparse.

    A sparse member couples few rows, so its Gram term does too: on FEM
    ensembles the Gram matrix holds about a dozen entries per row.  The sum
    goes member by member, so only one member's term is held beside it.  One
    product of the stacked members ``H @ H.T`` (``H = [A_1 ... A_M]``) holds
    ``H`` and the product's work arrays at once: at N = 1681, M = 100 (``lram
    spde --h 0.025``) it built the Gram matrix in 0.051 s against 0.064 s, but
    raised the run's peak resident size from 86 to 106 MB.
    """
    n = _check_ensemble(ensemble)
    if all(sp.issparse(a) for a in ensemble):
        gram = sp.csr_array((n, n))
        for a in ensemble:
            gram = gram + a @ a.T
        return gram
    gram = np.zeros((n, n))
    for a in ensemble:
        ad = numerics.to_dense(a)
        gram += ad @ ad.T
    return gram


def numerical_rank(curve) -> int:
    """k*: the smallest rank whose energy ratio on ``curve`` reaches 1 - ``CRITICAL_ENERGY_TOL``.

    Factors at or above it reconstruct the ensemble up to that energy; the
    Gram directions past it carry none of it.
    """
    for k, e_k in curve:
        if e_k >= 1.0 - CRITICAL_ENERGY_TOL:
            return k
    return len(curve)


@dataclass(frozen=True, eq=False)
class GramSpectrum:
    """Eigenpairs of one ensemble's Gram matrix ``sum_m A_m A_m^T``, descending.

    Complete when it holds all N values (dense eigensolver route), else the
    leading ones (Chebyshev route).  ``trace`` is ``sum_m ||A_m||_F^2``.
    ``vectors`` is None for a values-only spectrum, which serves the energy
    curve and the reconstruction error but no factors.  ``support`` is the
    size |S| of the ensemble's support, the rows where some member is nonzero.
    Off it a complete spectrum holds the value 0 with unit vectors, so at most
    |S| values are nonzero and the numerical rank k* is at most |S|.
    ``eigensolve`` is how the eigensolve ran (``numerics.EigenSolve``); an
    all-zero ensemble needs none, and its route is ``"none"``.
    """

    values: np.ndarray   # (p,), non-increasing
    vectors: np.ndarray | None  # (N, p), orthonormal columns
    trace: float
    num_samples: int
    dim: int
    support: int
    eigensolve: numerics.EigenSolve

    @property
    def complete(self) -> bool:
        return self.values.shape[0] == self.dim

    def check_rank(self, rank: int) -> None:
        if not 1 <= rank <= self.values.shape[0]:
            raise DimensionMismatchError(f"rank={rank} outside [1, {self.values.shape[0]}]")

    def basis(self, rank: int) -> np.ndarray:
        """The leading ``rank`` eigenvectors, copied C-contiguous."""
        self.check_rank(rank)
        return np.ascontiguousarray(self.vectors[:, :rank])

    def complement(self, rank: int) -> np.ndarray:
        """The trailing N - ``rank`` eigenvectors of a complete spectrum, copied C-contiguous."""
        self.check_rank(rank)
        if not self.complete:
            raise DimensionMismatchError("the complement needs the complete spectrum")
        return np.ascontiguousarray(self.vectors[:, rank:])

    def energy_curve(self) -> list[tuple[int, float]]:
        """Energy curve e(k) from plain partial sums of a complete spectrum.

        e(k) is non-decreasing and e(N) equals 1 exactly, since both partial
        and total sums come from the same accumulation.  An all-zero ensemble
        has no energy to share out: its curve is empty, and ``numerical_rank``
        reads k* = 0 from it.
        """
        if not self.complete:
            raise DimensionMismatchError("the energy curve needs the complete spectrum")
        partial = np.cumsum(np.maximum(self.values, 0.0))
        total = partial[-1]
        if total == 0.0:
            return []
        return [(k + 1, float(partial[k] / total)) for k in range(partial.shape[0])]


def gram_support(gram) -> np.ndarray:
    """The support S of a Gram matrix: the rows of its nonzero diagonal entries, ascending."""
    return np.flatnonzero(gram.diagonal())


def gram_spectrum(ensemble, rank: int | None = None, vectors: bool = True,
                  gram=None) -> GramSpectrum:
    """One eigensolve of the Gram matrix, holding at least the leading ``rank`` pairs.

    ``rank=None`` asks for all pairs.  ``gram`` is the ensemble's
    ``ensemble_gram`` if the caller built it already; otherwise it is built
    here and not kept.  The eigensolve runs on the Gram matrix's support S
    (``gram_support``), as built (sparse for sparse members).  Where
    ``numerics.dense_eig`` declines N and ``rank``, only the leading
    ``rank`` pairs of S are computed and kept, their vectors padded with
    zero rows off S; ``numerics.sym_eig_topk`` picks the route for the |S|
    rows (Chebyshev where ``dense_eig`` declines |S| too), and where
    ``rank`` exceeds |S| all pairs are computed instead.  Otherwise the
    dense route computes all pairs anyway, so they are all kept, padded with
    the value 0 and unit vectors off S (where S is every row, the pairs are
    kept as computed).  An all-zero ensemble has an empty S and needs no
    eigensolve: its spectrum is the value 0 with unit vectors, ``rank``
    pairs of them where only the leading pairs were asked for, else N.  With
    ``vectors=False`` only the eigenvalues are computed, and a sparse Gram
    matrix is never densified where its support is a narrow band
    (``numerics.sym_eig_topk``): on a FEM support of 1521 rows, bandwidth
    78, the values took 0.27 s and 1.9 MB more resident memory, against
    0.81 s and 64 MB with the vectors (2-core VM, 2 BLAS threads, ``dsbevd``
    on the band).  With one BLAS thread and ``dsbevd_2stage``, the values
    took 0.14 s and the vectors 0.82 s, the call's Python allocations
    peaking at 3.5 MB against 39.7 MB.
    """
    n = _check_ensemble(ensemble)
    if gram is None:
        gram = ensemble_gram(ensemble)
    diagonal = gram.diagonal()
    trace = float(np.sum(diagonal))
    support = gram_support(gram)
    s = support.shape[0]

    def spectrum(values, basis, eigensolve=numerics.EigenSolve("none")):
        return GramSpectrum(values=values, vectors=basis, trace=trace,
                            num_samples=len(ensemble), dim=n, support=s, eigensolve=eigensolve)

    if not s:
        # nothing to decompose: the value 0 with unit vectors, as many pairs as the route holds
        pairs = n if rank is None or numerics.dense_eig(n, rank) else rank
        return spectrum(np.zeros(pairs), np.eye(n, pairs) if vectors else None)
    sub = gram[np.ix_(support, support)]
    if rank is not None and rank <= s and not numerics.dense_eig(n, rank):
        # a Gram matrix has no eigenvalue below 0: the iteration filters from there
        pairs = numerics.sym_eig_topk(sub, rank, vectors=vectors, floor=0.0)
        basis = pairs.vectors
        if vectors and s < n:
            basis = np.zeros((n, rank))
            basis[support] = pairs.vectors
        return spectrum(pairs.values, basis, pairs.eigensolve)
    pairs = numerics.sym_eig_topk(sub, s, vectors=vectors)
    if s == n:
        return spectrum(pairs.values, pairs.vectors, pairs.eigensolve)
    values = np.concatenate([pairs.values, np.zeros(n - s)])
    # rounding can leave support values below the exact zeros off the support
    order = np.argsort(-values, kind="stable")
    basis = None
    if vectors:
        # each column is written once, at its sorted position: no reordered copy
        position = np.argsort(order)
        basis = np.zeros((n, n))
        basis[support[:, None], position[:s]] = pairs.vectors
        basis[np.setdiff1d(np.arange(n), support), position[s:]] = 1.0
    return spectrum(values[order], basis, pairs.eigensolve)


def _sample_coeffs(basis: np.ndarray, a) -> np.ndarray:
    if sp.issparse(a):
        return np.asarray((a.T @ basis).T)
    return basis.T @ np.asarray(a, dtype=float)


def compress(ensemble, ratio: float, spectrum: GramSpectrum | None = None) -> LowRankFactors:
    """Optimal shared-basis factorization at reduction ratio ``ratio``.

    The rank is ``ceil(ratio * N)``, so ratio k / N gives rank k.  Among all
    rank-k factorizations with a shared orthonormal left factor, the result
    minimizes ``sum_m ||A_m - basis @ coeffs[m]||_F^2``.  Reads ``spectrum``
    if given, else computes the ensemble's ``GramSpectrum`` (the leading
    pairs only where ``numerics.dense_eig`` declines the dense route).
    """
    rank = rank_from_ratio(ratio, _check_ensemble(ensemble))
    if spectrum is None:
        spectrum = gram_spectrum(ensemble, rank)
    basis = spectrum.basis(rank)
    return LowRankFactors(basis=basis, coeffs=Projections(basis, ensemble))


def rmsre(ensemble, spectrum: GramSpectrum, rank: int) -> float:
    """Root mean square reconstruction error of the optimal rank-``rank`` factors.

    sqrt((1/M) sum_m ||A_m - U U^T A_m||_F^2) for the leading eigenvectors U.
    A complete spectrum with vectors gives the tail projection sqrt((1/M)
    sum_m ||V_tail^T A_m||_F^2), exact to round-off of the members.  A
    complete values-only one gives the eigenvalue tail sqrt(sum_{i>k}
    max(lambda_i, 0) / M): exactly 0 at k >= |S|, where the tail holds only
    the zeros off the support, and about sqrt(eps) of the scale where the
    error vanishes below |S|.  A partial spectrum gives sqrt(max(trace -
    sum_{i<=k} lambda_i, 0) / M), which cancels to about sqrt(eps) of the
    scale where the error vanishes.
    """
    spectrum.check_rank(rank)
    if not spectrum.complete:
        total = max(spectrum.trace - float(np.sum(spectrum.values[:rank])), 0.0)
    elif spectrum.vectors is None:
        total = float(np.sum(np.maximum(spectrum.values[rank:], 0.0)))
    else:
        tail = Projections(spectrum.complement(rank), ensemble)
        total = sum(float(np.sum(c ** 2)) for c in tail)
    return math.sqrt(total / spectrum.num_samples)


def compression_ratio(dim: int, rank: int, num_samples: int) -> float:
    """Stored-scalar fraction (N*k + M*N*k) / (M*N*N) = (k/N) * (1 + 1/M)."""
    if dim < 1 or rank < 1 or num_samples < 1:
        raise ConfigRangeError("dim, rank and num_samples must be positive")
    if rank > dim:
        raise ConfigRangeError(f"rank={rank} exceeds dim={dim}")
    return (dim * rank + num_samples * dim * rank) / (num_samples * dim * dim)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_factors(path, factors: LowRankFactors) -> str:
    """Write factors to a binary container; return the SHA-256 hex digest of its bytes.

    Layout: magic ``LRFB``, little-endian uint32 version, three little-endian
    uint64 fields (dim N, rank k, samples M), then the basis (N*k doubles,
    row-major) followed by each coefficient matrix (k*N doubles, row-major);
    all floats are little-endian 64-bit.  Each matrix is written from the
    buffer of its row-major copy (none where it is row-major already), not
    from a second copy as bytes.  The digest is taken as the file is written,
    so no one reads it back for it: one worker thread hashes each matrix
    while the next is projected and written (``hashlib`` releases the GIL on
    large buffers), and at most two matrices are held at a time.  At N =
    2601, k = 131, M = 50 (139 MB) the hash takes about 0.12 s of one core,
    reading the file back a further 0.02 s.
    """
    digest = hashlib.sha256()
    header = (_FACTORS_MAGIC + struct.pack("<I", _FACTORS_VERSION)
              + struct.pack("<QQQ", factors.dim, factors.rank, factors.num_samples))
    digest.update(header)
    with open(path, "wb") as fh, concurrent.futures.ThreadPoolExecutor(1) as hasher:
        fh.write(header)
        hashed = None
        for matrix in itertools.chain([factors.basis], factors.coeffs):
            data = np.ascontiguousarray(matrix, dtype="<f8").data
            fh.write(data)
            if hashed is not None:
                hashed.result()
            hashed = hasher.submit(digest.update, data)
        hashed.result()
    return digest.hexdigest()


def load_factors(path) -> LowRankFactors:
    """Read a ``save_factors`` container; ``ValueError`` if it is malformed.

    The file must hold exactly the 32 header bytes plus the N*k + M*k*N
    doubles its header announces.
    """
    with open(path, "rb") as fh:
        header = fh.read(_FACTORS_HEADER_BYTES)
        if header[:4] != _FACTORS_MAGIC:
            raise ValueError(f"not a factor container: bad magic {header[:4]!r}")
        if len(header) < _FACTORS_HEADER_BYTES:
            raise ValueError(f"factor container header is truncated: {len(header)} of "
                             f"{_FACTORS_HEADER_BYTES} bytes")
        (version,) = struct.unpack("<I", header[4:8])
        if version != _FACTORS_VERSION:
            raise ValueError(f"unsupported container version {version}")
        dim, rank, num_samples = struct.unpack("<QQQ", header[8:])
        expected = _FACTORS_HEADER_BYTES + 8 * (dim * rank + num_samples * rank * dim)
        actual = os.fstat(fh.fileno()).st_size
        if actual != expected:
            raise ValueError(f"factor container {path} holds {actual} bytes; its header "
                             f"(N={dim}, k={rank}, M={num_samples}) needs {expected}")
        basis = np.frombuffer(fh.read(8 * dim * rank), dtype="<f8").reshape(dim, rank)
        coeffs = []
        for _ in range(num_samples):
            c = np.frombuffer(fh.read(8 * rank * dim), dtype="<f8").reshape(rank, dim)
            coeffs.append(np.array(c))
    return LowRankFactors(basis=np.array(basis), coeffs=coeffs)


def factors_to_matrix_market(directory, factors: LowRankFactors) -> list[str]:
    """Export the basis and each coefficient matrix as MatrixMarket files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    basis_path = directory / "basis.mtx"
    numerics.save_matrix_market(basis_path, sp.csr_array(factors.basis))
    written.append(str(basis_path))
    for m, c in enumerate(factors.coeffs):
        p = directory / f"coeffs_{m:04d}.mtx"
        numerics.save_matrix_market(p, sp.csr_array(c))
        written.append(str(p))
    return written
