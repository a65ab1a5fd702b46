"""Solvers for ensembles of perturbed linear systems sharing one base matrix.

Each sample solves ``(base + P_m) u_m = rhs`` in a ``WoodburyForm``.  SMW
replaces P_m by its part in the span of Gram eigenvectors (``lowrank``) and
inverts the result through the Woodbury identity ``(F + X G)^-1 = F^-1 -
F^-1 X (I + G F^-1 X)^-1 G F^-1`` in one of three forms; the per-sample
direct solve is the update at rank 0.  ``plan_smw`` is the one router: it
picks the form at each rank from one Gram spectrum, and each form carries
the eigenvectors V its update reads.  ``WoodburySolvers`` builds one
``WoodburySolver`` per sample from the ensemble and the form alone, with
coefficients C_m = V^T P_m; ``solve_ensemble``, the one per-sample loop,
runs them on the ensemble's right-hand side, and ``socp`` solves its states
with them.

Every form stops at the ensemble's numerical rank k* (``lowrank``): Gram
directions past k* hold no energy, so their coefficients vanish and they
only add work.

* Basis form, rank min(k, k*), V = eigenvectors 1..min(k, k*): F = base,
  X = V, G = C_m, so the sample matrix is ``base + V V^T P_m``.  Once per
  ensemble: one factorization of the base and a solve for ``base^-1 V``.
  Per sample: the capacitance ``I + C_m base^-1 V`` (2 r^2 N flops for rank
  r), its LU (2/3 r^3) and O(rN) vector work per solve.  Cheaper than a
  per-sample sparse LU only while the rank is small.
* Complement form, rank k* - k for k < k*, V = eigenvectors k+1..k*: with
  U the leading k, ``base + U U^T P_m = (base + P_m) - V V^T P_m`` up to the
  energy past k*, so F = base + P_m, X = -V, G = C_m.  Per sample: one
  sparse LU of ``base + P_m``, a solve for F^-1 V, the capacitance and its
  LU.  It includes a per-sample sparse LU, so SMW in this form costs at
  least the direct route.
* Direct form, rank 0 at k >= k* (``DIRECT`` at any k): no V and no
  capacitance, each sample factored once and solved (``DirectSolvers``).

Every sample LU (``_sample_lu``) takes the fill-reducing ordering of the
base's factor (``PerturbedEnsemble.base_factor``): the samples share the
base's pattern, so one ordering, made once, serves them all, and no sample
is special.

The direct form holds its samples' factors in ``DirectSolvers``: sample
matrices stacked block-diagonally in one band, in one reverse Cuthill-McKee
ordering shared by the ensemble (``PerturbedEnsemble.band_ordering``),
factored by one band Cholesky and solved together in one call each way; a
sample's LU only where its block is not positive definite or where the band
is wide, and the base's factor for a sample with no perturbation.  ``socp``
solves each sample hundreds of times, so it holds every sample's factor at
once.  ``solve_ensemble`` (``spde``'s direct method and reference, the
direct form of SMW) and ``sample_conditions`` (``diagnose``) solve each
sample once, so they factor and solve the samples in stacks of
``DIRECT_STACK_SAMPLES`` and drop each stack before the next.

The form (``woodbury_form``, priced by ``woodbury_costs``) needs only N, k,
k* and the fill of the base's factor, which every sample LU shares, so
``plan_smw`` picks it before any eigenvector exists, computes none where the
direct form wins at every rank, and makes no sample LU.

``solve_cg`` compresses nothing and factors only the base: one block CG over
every sample on the uncompressed ``base + P_m``, preconditioned by
``base_factor``, whose iteration count grows with the perturbation's size,
not with 1/h (Powell & Elman, IMA J. Numer. Anal. 29(2), 2009).  The
quantity of interest is the sample mean, reduced in fixed order.

One failure policy serves every route that factors or solves a sample: a
sample m whose ``base + P_m`` does not factor, or whose solution is not
finite, raises ``SingularSampleError(m)``; no sample switches form.  Block CG
factors no sample: it raises ``NoConvergenceError`` naming the sample.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import lowrank, numerics
from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    NoConvergenceError,
    SingularCapacitanceError,
    SingularSampleError,
)

#: Residual level beyond which a capacitance solve is declared singular.
CAPACITANCE_RESIDUAL_TOL = 1e-8
#: Right-hand-side columns per solve with a sample LU.  Narrow blocks keep the
#: dense kernels inside SuperLU small: on a 2-core VM with 2 OpenBLAS threads,
#: 53 to 202 columns in one call solved 2 to 4 times slower than in blocks of 16.
#: With one thread, the CLI's setting, the blocks neither win nor lose: 202
#: columns at N = 1681 took 9.0-10.6 ms in one call and 9.3-13.7 ms in blocks.
SOLVE_BLOCK_COLUMNS = 16
#: Dense-flop weights of the sparse work in ``woodbury_costs``: one flop of a
#: solve with a sample LU, one sample LU per entry of its L and U factors, and
#: one sample LU whatever its size.  Measured on a 2-core VM with 2 OpenBLAS
#: threads: capacitance kernels at 50-80 GF/s at N = 1681, so about 60 dense
#: flops per ns; solves in blocks of 16 columns at 1.1-1.9 GF/s; and a sample
#: LU in the shared ordering (matrix sum, permutation and call overhead
#: included) at a median 359 us for 1044 entries of L + U at N = 121 and
#: 2358 us for 38850 at N = 1681 (5 runs of 8 x 100 LUs each), which is 53 ns
#: per entry plus 300 us per LU.  At smaller N the dense kernels run slower
#: than the weights assume, so a near tie keeps the basis form.  With one
#: OpenBLAS thread, the CLI's setting, the capacitance kernels ran at 45-71 GF/s
#: (k = 100-800, N = 1681) and a sample LU took a median 240 us at N = 121 and
#: 1679 us at N = 1681 (5 runs of 100 LUs), about 38 ns per entry plus 200 us.
SPARSE_SOLVE_WEIGHT = 50
SAMPLE_LU_WEIGHT = 3200
SAMPLE_LU_OVERHEAD = 1.8e7
#: SuperLU supernode settings of every sample LU: no relaxed supernodes and
#: panels of one column.  FEM sample matrices have small supernodes, so the
#: defaults only add padded work.  Per sample LU in the shared ordering at
#: N = 1681 (2-core VM, 2 OpenBLAS threads): 2.2 ms at relax 1, panel 1;
#: 2.8 ms at 2/2 or 4/4, 3.0 ms at 8/8 and 3.6 ms at the defaults.  With one
#: thread: 1.5 ms at 1/1, 1.7 ms at 4/4 and 1.9 ms at the defaults.
SAMPLE_LU_SUPERNODES = {"relax": 1, "panel_size": 1}
#: Widest half-bandwidth kd, in the shared reverse Cuthill-McKee ordering, at
#: which ``DirectSolvers`` holds the samples as one band Cholesky; wider, each
#: keeps its sparse LU.  Band work grows like N kd^2 (factor) and N kd (solve), a
#: sample LU's more slowly.  Measured on FEM ensembles (uniform field, epsilon
#: 0.2; 2-core VM, one BLAS thread, 2-5 processes per rung), the build of the
#: band against the LUs of samples 1..M-1, and one pass of M forward and M
#: adjoint solves:
#:
#: ====  =====  ==  ===================  ==================
#: kd    N      M   build, band / LU ms  pass, band / LU ms
#: ====  =====  ==  ===================  ==================
#: 19    441    50  10-15 / 25-27        1.0-1.1 / 2.1-2.2
#: 39    1681   50  56-67 / 89-231       5.7-5.8 / 7.6-12.7
#: 49    2601   20  36-64 / 53-63        4.0-4.4 / 4.7-6.1
#: 59    3721   20  54-93 / 79-164       7.1-10.9 / 7.4-13.4
#: 69    5041   10  55-81 / 52-75        5.3-7.0 / 4.8-8.5
#: 79    6561   10  83-106 / 66-100      8.0-11.5 / 6.5-9.0
#: ====  =====  ==  ===================  ==================
#:
#: The band wins through kd = 59, ties at 69 and loses at 79.  For callers
#: that solve each sample once, ``solve_ensemble(ensemble, DIRECT)`` in
#: stacks at M = 20, against each sample's LU made, solved once and dropped
#: (same ensembles, one thread, 5 runs, min-median-max), took
#:
#: ====  =====  ===============  ===============
#: kd    N      stacks ms        LUs ms
#: ====  =====  ===============  ===============
#: 39    1681   17-17-21         31-32-35
#: 49    2601   31-32-33         45-47-47
#: 59    3721   50-51-55         63-63-86
#: 69    5041   97-109-179       87-93-102
#: 79    6561   146-155-159      115-116-129
#: ====  =====  ===============  ===============
#:
#: the band winning through kd = 59 and losing from 69: one limit serves both.
SAMPLE_BAND_MAX_BANDWIDTH = 60
#: Samples per ``DirectSolvers`` stack when each sample is solved once
#: (``solve_ensemble``, ``sample_conditions``): a stack is factored, solved
#: and dropped before the next is built, so one stack's band is held at a
#: time.  At h = 0.025, M = 100 (``lram spde --tau 0.95``, 3 runs each) the
#: process peaked at 85.7-86.0 MB with stacks of 5, 88.1-88.7 MB with 10 and
#: 93.9-94.2 MB with 20, against 83.4-84.7 MB with the samples' LUs streamed
#: one at a time; the whole ensemble's band would hold 54 MB.
DIRECT_STACK_SAMPLES = 5
#: ``solve_cg`` stops sample m once |rhs - (base + P_m) u_m| <= CG_RTOL |rhs|.
CG_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class BandOrdering:
    """The reverse Cuthill-McKee ordering of an ensemble's base, which its sample matrices share.

    ``base[order][:, order]`` is the reordered base, ``position`` is the
    inverse of ``order``, and ``bandwidth`` the largest half-bandwidth of a
    sample matrix ``base + P_m`` in it.
    """

    order: np.ndarray
    position: np.ndarray
    bandwidth: int


@dataclass(frozen=True, eq=False)
class PerturbedEnsemble:
    """Shared SPD base matrix, per-sample perturbations, and one right-hand side.

    ``base_factor`` is made on first use.  It serves every solve with the
    base, its fill prices the forms (``woodbury_form``), and its ordering
    serves every sample LU (``_sample_lu``), so an ensemble makes one
    ordering.  ``band_ordering``, also made on first use, is the one band
    ordering of every ``DirectSolvers`` of the ensemble.  Where two threads
    share an ensemble, neither may build one of these while the other reads
    it: ``spde.run_spde`` makes ``base_factor`` before its worker thread
    prices the forms, and the worker reads no ``band_ordering``.
    """

    base: sp.csr_array
    perturbations: list
    rhs: np.ndarray

    def __post_init__(self):
        n = self.base.shape[0]
        if self.base.shape[1] != n:
            raise DimensionMismatchError("base matrix must be square")
        if self.rhs.shape[0] != n:
            raise DimensionMismatchError("rhs length does not match the base matrix")
        for p in self.perturbations:
            if p.shape != (n, n):
                raise DimensionMismatchError("perturbation shape differs from base")

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    @property
    def num_samples(self) -> int:
        return len(self.perturbations)

    @cached_property
    def base_factor(self) -> numerics.SpdFactorization:
        return numerics.factorize_spd(self.base)

    @cached_property
    def band_ordering(self) -> BandOrdering | None:
        """The base's reverse Cuthill-McKee ordering, for ``DirectSolvers``' band.

        None where the base or a perturbation is not exactly symmetric:
        Cholesky reads one triangle, so only exactly symmetric sample matrices
        are banded.  Each matrix is checked once per ensemble.
        """
        order = numerics.rcm_order(self.base)
        position = np.argsort(order)
        bandwidth = 0
        for a in [self.base, *self.perturbations]:
            a = numerics.to_csr(a)
            if not _exactly_symmetric(a):
                return None
            rows, cols, _ = _ordered_entries(a, position)
            bandwidth = max(bandwidth, int(np.abs(rows - cols).max(initial=0)))
        return BandOrdering(order, position, bandwidth)


def _ordered_entries(a, position) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of canonical CSR ``a``'s entries, renumbered by ``position``."""
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    return position[rows], position[a.indices], a.data


@dataclass(frozen=True)
class FactorRoute:
    """How the direct form factored its samples (``DirectSolvers``).

    ``route`` is ``"band"`` or ``"lu"``, ``bandwidth`` the samples' shared
    half-bandwidth (None where they are not exactly symmetric), and
    ``lu_samples`` the samples factored by their own sparse LU.
    """

    route: str
    bandwidth: int | None
    lu_samples: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class EnsembleSolution:
    """Per-sample solutions with their mean as the quantity of interest."""

    unperturbed: np.ndarray
    samples: list[np.ndarray]
    qoi: np.ndarray
    # the form the solve ran in (module docstring); "none" for block CG, which has no update
    woodbury_form: str
    update_rank: int
    # block CG only: its iteration count, and per sample the final relative residual
    iterations: int | None = None
    residuals: tuple[float, ...] | None = None
    # the direct form only: how its samples were factored
    factor_route: FactorRoute | None = None


def qoi_mean(samples) -> np.ndarray:
    """Elementwise arithmetic mean over samples, fixed summation order."""
    if len(samples) == 0:
        raise EmptyInputError("cannot average an empty sample list")
    n = samples[0].shape[0]
    for s in samples:
        if s.shape[0] != n:
            raise DimensionMismatchError("samples differ in length")
    return np.mean(np.stack(samples, axis=0), axis=0)


@dataclass(frozen=True, eq=False)
class SampleLU:
    """Sparse LU ``lu`` of ``A_m[order][:, order]``, A_m = ``base + P_m`` being sample m's matrix."""

    lu: spla.SuperLU
    order: np.ndarray

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """A_m^-1 rhs (A_m^-T rhs with ``trans="T"``) for a vector or the columns of a matrix."""
        out = np.empty(rhs.shape)
        out[self.order] = self.lu.solve(rhs[self.order], trans=trans)
        return out


def _sample_lu(ensemble: PerturbedEnsemble, m: int) -> SampleLU:
    """Sparse LU of sample m's matrix ``base + P_m``.

    Every sample takes the fill-reducing ordering of ``ensemble.base_factor``:
    it factors its matrix symmetrically permuted by it, in natural order,
    with partial pivoting.  Sample matrices of one ensemble usually share the
    base's pattern, so one ordering serves them all; any ordering factors
    exactly, one made for another pattern only costs fill.  Raises
    ``SingularSampleError(m)`` if the matrix is exactly singular.
    """
    matrix = ensemble.base + ensemble.perturbations[m]
    factor = ensemble.base_factor
    # matrix[order][:, order] as CSC: gather the rows, rename the columns,
    # then the transposing copy that CSC needs anyway
    rows = sp.csr_array(matrix)[factor.order]
    matrix = sp.csr_array((rows.data, factor.position[rows.indices], rows.indptr),
                          shape=matrix.shape).tocsc()
    try:
        return SampleLU(spla.splu(matrix, permc_spec="NATURAL", **SAMPLE_LU_SUPERNODES),
                        factor.order)
    except RuntimeError:
        raise SingularSampleError(m) from None


def _exactly_symmetric(a) -> bool:
    """Whether canonical CSR ``a`` equals its transpose bit for bit, as its CSC arrays tell."""
    t = a.tocsc()
    return (np.array_equal(t.indptr, a.indptr) and np.array_equal(t.indices, a.indices)
            and np.array_equal(t.data, a.data))


def _finite(u: np.ndarray, m: int) -> np.ndarray:
    """Sample m's solution ``u``; ``SingularSampleError(m)`` if an entry is not finite."""
    if not np.all(np.isfinite(u)):
        raise SingularSampleError(m)
    return u


def woodbury_costs(n: int, basis_rank: int, complement_rank: int,
                   factor_entries: int) -> tuple[float, float]:
    """Modelled per-sample cost of the basis and the complement form, in dense flops.

    Basis form, rank r = ``basis_rank``: the r-by-r capacitance and its LU,
    2 r^2 N + 2/3 r^3.  Complement form, rank r = ``complement_rank``: the
    same dense terms plus the sparse work weighted as measured: r + 1 solves
    with the sample LU (2 flops per entry of L + U each) and the LU itself, a
    fixed cost plus one per entry, ``factor_entries`` being the entry count of
    L + U.  At r = 0 that is the direct route.  Projections of the member
    cost about as much in either form and are left out.
    """
    def dense(r):
        return 2.0 * r * r * n + 2.0 / 3.0 * r ** 3

    r = complement_rank
    complement = (dense(r) + SPARSE_SOLVE_WEIGHT * 2.0 * (r + 1) * factor_entries
                  + SAMPLE_LU_WEIGHT * factor_entries + SAMPLE_LU_OVERHEAD)
    return dense(basis_rank), complement


def _solve_columns(solve, rhs):
    """``solve`` on a vector, or on a matrix in blocks of ``SOLVE_BLOCK_COLUMNS`` columns."""
    if rhs.ndim == 1 or rhs.shape[1] <= SOLVE_BLOCK_COLUMNS:
        return solve(rhs)
    rhs = np.asfortranarray(rhs)
    return np.concatenate([solve(rhs[:, j:j + SOLVE_BLOCK_COLUMNS])
                           for j in range(0, rhs.shape[1], SOLVE_BLOCK_COLUMNS)], axis=1)


class WoodburySolver:
    """Solves with one sample matrix ``F + X G`` through the Woodbury identity.

    ``solve_f`` and ``solve_ft`` solve with F and F^T, ``x_solved`` is F^-1 X
    (N-by-r) and ``update`` is G (r-by-N).  The capacitance I + G F^-1 X is
    LU-factored at construction; at r = 0 there is none and the solver is
    F's.  A zero or non-finite pivot, or a solve with it whose residual
    exceeds ``CAPACITANCE_RESIDUAL_TOL`` times its right-hand side, raises
    ``SingularCapacitanceError`` with a condition estimate.
    """

    def __init__(self, sample, solve_f, solve_ft, x_solved, update):
        self.sample = sample
        self.rank = update.shape[0]
        self._solve_f = solve_f
        self._solve_ft = solve_ft
        self._x_solved = x_solved
        self._update = update
        if not self.rank:
            return
        self._capacitance = np.eye(self.rank) + update @ x_solved
        with warnings.catch_warnings():
            # an exactly zero pivot is refused below
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            self._cap_lu = sla.lu_factor(self._capacitance, check_finite=False)
        if not np.all(np.isfinite(self._cap_lu[0])) or np.any(np.diag(self._cap_lu[0]) == 0.0):
            raise self._singular()

    def _singular(self):
        cap = self._capacitance
        cond = float(np.linalg.cond(cap)) if np.all(np.isfinite(cap)) else float("inf")
        return SingularCapacitanceError(self.sample, cond=cond)

    def _capacitance_solve(self, rhs, trans):
        y = sla.lu_solve(self._cap_lu, rhs, trans=trans, check_finite=False)
        capacitance = self._capacitance.T if trans else self._capacitance
        resid = np.linalg.norm(capacitance @ y - rhs)
        if not resid <= CAPACITANCE_RESIDUAL_TOL * max(np.linalg.norm(rhs), 1e-300):
            raise self._singular()
        return y

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(F + X G)^-1 rhs for a vector or the columns of a matrix."""
        s = _solve_columns(self._solve_f, rhs)
        if not self.rank:
            return s
        return s - self._x_solved @ self._capacitance_solve(self._update @ s, 0)

    def solve_t(self, rhs: np.ndarray) -> np.ndarray:
        """(F + X G)^-T rhs for a vector or the columns of a matrix."""
        if self.rank:
            rhs = rhs - self._update.T @ self._capacitance_solve(self._x_solved.T @ rhs, 1)
        return _solve_columns(self._solve_ft, rhs)


@dataclass(frozen=True, eq=False)
class WoodburyForm:
    """The form an SMW solve runs in (module docstring), its update rank and eigenvectors.

    ``vectors`` are the N-by-``update_rank`` Gram eigenvectors the update
    reads: the leading min(k, k*) in the basis form, k+1..k* in the
    complement form, and None in the direct form.
    """

    name: str   # "basis", "complement" or "direct"
    update_rank: int
    vectors: np.ndarray | None = None

    @property
    def reads_vectors(self) -> bool:
        """Whether the form reads Gram eigenvectors: all but the direct form do."""
        return self.name != "direct"


#: The per-sample direct solve: the direct form.
DIRECT = WoodburyForm("direct", 0)


def woodbury_form(ensemble: PerturbedEnsemble, basis_rank: int, complement_rank: int
                  ) -> WoodburyForm:
    """The cheaper of the basis form and the complement form at the given ranks.

    Needs no eigenvectors: only N, the two ranks and the fill of the base's
    factor.  The basis form runs unless the complement rank is below the
    basis rank and ``woodbury_costs`` prices the complement form cheaper,
    each sample LU holding as many entries as ``ensemble.base_factor``: it
    takes that factor's ordering (``_sample_lu``), and a sample matrix of
    the base's pattern that pivots on its diagonal fills it alike.  No
    sample is factored.  The complement form at rank 0 is the direct form.
    The form returned holds no vectors.
    """
    if complement_rank >= basis_rank:
        return WoodburyForm("basis", basis_rank)
    basis, sampled = woodbury_costs(ensemble.dim, basis_rank, complement_rank,
                                    ensemble.base_factor.entries)
    if sampled < basis:
        return WoodburyForm("complement" if complement_rank else "direct", complement_rank)
    return WoodburyForm("basis", basis_rank)


def plan_smw(ensemble: PerturbedEnsemble, ranks, gram=None):
    """The Gram spectrum SMW needs at each of ``ranks``, and the form each runs in.

    The one router of SMW solves.  One Gram build, none where ``gram`` is
    the ensemble's ``lowrank.ensemble_gram`` already.  Eigenvectors are
    computed only if a form reads them.
    The numerical rank k* is at most the support size |S| (``GramSpectrum``),
    so where every rank is at least |S| each form is the basis form at rank
    k* or the direct form.  If the direct form is priced cheaper against the
    basis form at rank |S|, the eigensolve computes eigenvalues only; the
    forms are then priced at the true k*, and if the basis form wins there
    (k* well below |S|) the eigenvectors are computed after all, from the
    same Gram matrix.  Otherwise one eigensolve computes the pairs.  The
    spectrum is complete (``GramSpectrum``), and each form holds the
    eigenvectors it reads as a view of it.  Pricing makes no LU: it reads the
    ensemble's ``base_factor``.  Returns (spectrum, forms).
    """
    members = ensemble.perturbations
    if gram is None:
        gram = lowrank.ensemble_gram(members)
    support = lowrank.gram_support(gram).shape[0]
    vectors = min(ranks) < support or woodbury_form(ensemble, support, 0).reads_vectors
    spectrum = lowrank.gram_spectrum(members, vectors=vectors, gram=gram)
    forms = _price_forms(ensemble, ranks, spectrum)
    if not vectors and any(form.reads_vectors for form in forms):
        spectrum = lowrank.gram_spectrum(members, gram=gram)
        forms = _price_forms(ensemble, ranks, spectrum)
    return spectrum, forms


def _price_forms(ensemble, ranks, spectrum) -> list[WoodburyForm]:
    """``woodbury_form`` at each rank k: basis rank min(k, k*), complement rank max(k* - k, 0).

    Once ``spectrum`` holds eigenvectors, each form that reads them gets its
    columns: the first min(k, k*) in the basis form, k+1..k* in the complement form.
    """
    k_star = lowrank.numerical_rank(spectrum.energy_curve())
    forms = []
    for k in ranks:
        form = woodbury_form(ensemble, min(k, k_star), max(k_star - k, 0))
        if form.reads_vectors and spectrum.vectors is not None:
            start = k if form.name == "complement" else 0
            form = replace(form, vectors=spectrum.vectors[:, start:start + form.update_rank])
        forms.append(form)
    return forms


class WoodburySolvers(Sequence):
    """One ``WoodburySolver`` per sample of ``ensemble`` in ``form``, built on access.

    Both update forms read the form's eigenvectors V one way: C_m = V^T P_m
    (``lowrank.Projections``).  The basis form solves with the ensemble's
    ``base_factor`` and ``base^-1 V``, computed on first need; the complement
    form solves with sample m's LU and ``-(base + P_m)^-1 V``, and so, with
    no V, does the direct form, whose solves ``solve_ensemble`` and ``socp``
    make through ``DirectSolvers`` instead.  Sample m's LU is made on access
    (``_sample_lu``); one that fails raises ``SingularSampleError``.  Vectors
    not of shape (N, ``update_rank``) raise ``DimensionMismatchError``.
    """

    def __init__(self, ensemble: PerturbedEnsemble, form: WoodburyForm):
        shape = (ensemble.dim, form.update_rank)
        vectors = np.zeros((ensemble.dim, 0)) if form.vectors is None else form.vectors
        if vectors.shape != shape:
            raise DimensionMismatchError(f"form vectors of shape {vectors.shape}, but rank "
                                         f"{form.update_rank} reads {shape}")
        self._vectors = np.ascontiguousarray(vectors)
        self._ensemble = ensemble
        self.form, self.update_rank = form.name, form.update_rank
        self._basis_solved = None
        self._projections = lowrank.Projections(self._vectors, ensemble.perturbations)

    def __len__(self) -> int:
        return self._ensemble.num_samples

    def __getitem__(self, m: int) -> WoodburySolver:
        if not 0 <= m < len(self):
            raise IndexError(m)
        if self.form == "basis":
            solve_f = solve_ft = self._ensemble.base_factor.solve
            if self._basis_solved is None:
                self._basis_solved = _solve_columns(solve_f, self._vectors)
            x_solved = self._basis_solved
        else:
            lu = _sample_lu(self._ensemble, m)
            solve_f, solve_ft = lu.solve, partial(lu.solve, trans="T")
            x_solved = -_solve_columns(solve_f, self._vectors)
        return WoodburySolver(m, solve_f, solve_ft, x_solved, self._projections[m])


def _rank_zero(m: int, solve, solve_t, n: int) -> WoodburySolver:
    """Sample m's ``WoodburySolver`` at rank 0: ``solve`` and ``solve_t`` alone."""
    empty = np.zeros((n, 0))
    return WoodburySolver(m, solve, solve_t, empty, empty.T)


def _lu_solver(ensemble: PerturbedEnsemble, m: int) -> WoodburySolver:
    """Sample m's solver at rank 0 on its sparse LU (``_sample_lu``)."""
    lu = _sample_lu(ensemble, m)
    return _rank_zero(m, lu.solve, partial(lu.solve, trans="T"), ensemble.dim)


def _unperturbed(a) -> bool:
    """Whether the perturbation ``a`` has no nonzero entry."""
    return not (a.count_nonzero() if sp.issparse(a) else np.count_nonzero(a))


class DirectSolvers(Sequence):
    """The direct form's solver of each of ``samples`` (all by default), each factored once.

    The shared ordering is ``ensemble.band_ordering``.  Where it exists
    (every sample matrix exactly symmetric) and its bandwidth is at most
    ``SAMPLE_BAND_MAX_BANDWIDTH``, the samples are held as one
    block-diagonal upper band in that ordering, block j holding
    ``samples[j]``, and one band Cholesky factors them all
    (``numerics.band_cholesky``): ``route`` is ``"band"``.  A block that is
    not positive definite passes stacked solves through, and its sample is
    factored by its sparse LU (``_lu_solver``), as on the per-sample route
    ``"lu"``, where every sample is; one that fails raises
    ``SingularSampleError`` naming the sample.  ``lu_samples`` lists those
    samples.  A sample with no perturbation is the base, and the base's
    factor solves it on either route.  ``solve_all`` solves every sample in
    one band call each way, and item j is a ``WoodburySolver`` at rank 0
    for ``samples[j]`` alone, whose solve holds the band but not this
    object: dropping it frees the band at once.
    """

    def __init__(self, ensemble: PerturbedEnsemble, samples: range | None = None):
        self.samples = range(ensemble.num_samples) if samples is None else samples
        n = ensemble.dim
        self._dim, self._count = n, len(self.samples)
        ordering = ensemble.band_ordering
        self.bandwidth = None if ordering is None else ordering.bandwidth
        self.route = ("band" if ordering is not None
                      and ordering.bandwidth <= SAMPLE_BAND_MAX_BANDWIDTH else "lu")
        unperturbed = {m for m in self.samples if _unperturbed(ensemble.perturbations[m])}
        if self.route == "band":
            self._order, self._position = ordering.order, ordering.position
            self._factor = self._stack(ensemble)
            failed = [self.samples[j] for j in numerics.band_cholesky(self._factor, n)]
        else:
            failed = self.samples
        self.lu_samples = tuple(m for m in failed if m not in unperturbed)
        base = ensemble.base_factor.solve
        self._solvers = [
            _rank_zero(m, base, base, n) if m in unperturbed else
            _lu_solver(ensemble, m) if m in self.lu_samples else
            _band_block_solver(m, j, self._factor, self._order, self._position)
            for j, m in enumerate(self.samples)]
        # the samples whose columns the band does not solve
        self._apart = [j for j, m in enumerate(self.samples)
                       if self.route == "lu" or m in unperturbed or m in self.lu_samples]

    @property
    def factor_route(self) -> FactorRoute:
        return FactorRoute(self.route, self.bandwidth, self.lu_samples)

    def _stack(self, ensemble: PerturbedEnsemble) -> np.ndarray:
        """The upper band of each sample's ``base + P_m``, block j holding ``samples[j]``.

        Block j lies in columns j n to (j + 1) n.  Each entry is base's plus
        P_m's, summed as the sparse sum ``base + P_m`` sums it, so the band
        holds that matrix's bits.
        """
        kd, n = self.bandwidth, self._dim
        band = np.zeros((kd + 1, n * self._count), order="F")

        def upper(a):  # entry (i, j) of a block, i <= j, lies at kd + i + kd j in it
            rows, cols, values = _ordered_entries(numerics.to_csr(a), self._position)
            keep = rows <= cols
            return kd + rows[keep] + kd * cols[keep], values[keep]

        base_index, base_values = upper(ensemble.base)
        for j, m in enumerate(self.samples):
            block = band[:, j * n:(j + 1) * n].reshape(-1, order="F")  # a view
            block[base_index] = base_values
            index, values = upper(ensemble.perturbations[m])
            block[index] += values
        return band

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, j: int) -> WoodburySolver:
        return self._solvers[j]

    def solve_all(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """N x J, J = len(samples): column j solves ``samples[j]`` with ``rhs``.

        ``rhs`` is a vector, or N x J, column j being ``samples[j]``'s.  On the
        band route one band solve serves every sample; each sample the band
        does not serve (``lu_samples``, and a sample with no perturbation) is
        then solved by its own solver (with its transpose where
        ``transpose``).  On the per-sample route every sample is.
        """
        if self.route == "band":
            x = np.empty((self._dim, self._count), order="F")
            x[:] = rhs[self._order] if rhs.ndim == 2 else rhs[self._order, None]
            x = numerics.band_cholesky_solve(self._factor, x.reshape(-1, order="F"))
            out = x.reshape((self._dim, self._count), order="F")[self._position]
        else:
            out = np.empty((self._dim, self._count))
        for j in self._apart:
            solver = self._solvers[j]
            out[:, j] = (solver.solve_t if transpose else solver.solve)(
                rhs[:, j] if rhs.ndim == 2 else rhs)
        return out


def _band_block_solver(m, block, factor, order, position) -> WoodburySolver:
    """Sample m's solver at rank 0 on block ``block`` of ``band_cholesky`` factor ``factor``.

    ``order`` is the band's ordering and ``position`` its inverse.  The solve
    holds these alone, not the ``DirectSolvers`` that made it.
    """
    n = order.shape[0]

    def solve(rhs):
        x = np.asfortranarray(rhs[order], dtype=float)
        return numerics.band_cholesky_solve(factor, x, block * n)[position]

    return _rank_zero(m, solve, solve, n)


def _direct_stacks(ensemble: PerturbedEnsemble, visit) -> FactorRoute:
    """Call ``visit`` on the ``DirectSolvers`` of each run of ``DIRECT_STACK_SAMPLES`` samples.

    In sample order; each stack is dropped before the next is built, so one
    stack's band is held at a time.  Returns how the samples were factored,
    None where there are none.
    """
    count, lu_samples, route = ensemble.num_samples, [], None
    for start in range(0, count, DIRECT_STACK_SAMPLES):
        stack = DirectSolvers(ensemble, range(start, min(start + DIRECT_STACK_SAMPLES, count)))
        visit(stack)
        lu_samples += stack.lu_samples
        route = stack.factor_route
        del stack
    return route and replace(route, lu_samples=tuple(lu_samples))


def solve_ensemble(ensemble: PerturbedEnsemble, form: WoodburyForm) -> EnsembleSolution:
    """Solve every sample in ``form``: the one per-sample loop.

    In the direct form (``DIRECT``, or ``plan_smw``'s at rank 0) the samples
    are solved directly, in ``DirectSolvers`` stacks of
    ``DIRECT_STACK_SAMPLES`` (``factor_route`` says how they were factored);
    in an update form each by its ``WoodburySolver``.  A singular
    capacitance raises ``SingularCapacitanceError`` with the sample index
    and a condition estimate; a sample matrix that does not factor, or a
    solution that is not finite, raises ``SingularSampleError``.
    """
    solvers = WoodburySolvers(ensemble, form)  # refuses vectors the form does not read
    u0 = ensemble.base_factor.solve(ensemble.rhs)
    factor_route = None
    if solvers.form == "direct":
        samples = []

        def solve(stack):
            solved = np.array(stack.solve_all(ensemble.rhs).T)  # row j: samples[j]'s solution
            samples.extend(_finite(u, m) for m, u in zip(stack.samples, solved))

        factor_route = _direct_stacks(ensemble, solve)
    else:
        samples = [_finite(solver.solve(ensemble.rhs), m) for m, solver in enumerate(solvers)]
    return EnsembleSolution(
        unperturbed=u0,
        samples=samples,
        qoi=qoi_mean(samples),
        woodbury_form=form.name,
        update_rank=form.update_rank,
        factor_route=factor_route,
    )


def sample_conditions(ensemble: PerturbedEnsemble) -> tuple[tuple[float, ...], FactorRoute]:
    """The condition estimate of every sample matrix ``base + P_m``, each with its direct solver.

    The samples are factored in ``DirectSolvers`` stacks, as
    ``solve_ensemble`` factors them in the direct form, and
    ``numerics.condition_estimate`` applies each sum ``base + P_m``, formed
    once here, and solves with that sample's solver.  A sample matrix that
    does not factor raises ``SingularSampleError``.  Returns the estimates
    and how the samples were factored.  ``lram diagnose
    --sample-conditions`` reports them.
    """
    conditions = []

    def estimate(stack):
        conditions.extend(numerics.condition_estimate(ensemble.base + ensemble.perturbations[m],
                                                      solve=solver.solve)
                          for m, solver in zip(stack.samples, stack))

    factor_route = _direct_stacks(ensemble, estimate)
    return tuple(conditions), factor_route


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # refused below, by sample
def solve_cg(ensemble: PerturbedEnsemble) -> EnsembleSolution:
    """Solve every sample by one block CG on ``base + P_m``, preconditioned by ``base_factor``.

    Each column starts from u0 = base^-1 rhs (residual -P_m u0), takes its own
    steps, and takes none once its residual is at most ``CG_RTOL`` |rhs|.
    ``NoConvergenceError`` names the sample on a curvature ``p^T (base + P_m)
    p <= 0``, a non-finite iterate, or N iterations without convergence.
    ``residuals`` are the samples' |rhs - (base + P_m) u_m| / |rhs|.
    """
    members, rhs = ensemble.perturbations, ensemble.rhs

    def apply(x, columns):  # (base + P_m) x_m for the sample m of each column
        return ensemble.base @ x + np.column_stack([members[m] @ x[:, j]
                                                    for j, m in enumerate(columns)])

    def check(ok, columns, problem):
        if not np.all(ok):
            raise NoConvergenceError(f"block CG {problem} for sample {columns[np.argmin(ok)]}")

    u0 = ensemble.base_factor.solve(rhs)
    x = np.repeat(u0[:, None], len(members), axis=1)
    r = np.column_stack([-(member @ u0) for member in members])
    # the first direction is the preconditioned residual: beta = 0 on p = 0
    p, rz = np.zeros_like(r), np.full(len(members), np.inf)
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    active, norms, iterations = np.arange(len(members)), np.linalg.norm(r, axis=0), 0
    while True:
        check(np.isfinite(norms) & np.all(np.isfinite(x[:, active]), axis=0), active,
              "met a non-finite iterate")
        active = active[norms > CG_RTOL * scale]
        if not active.size:
            break
        check(iterations < ensemble.dim, active, f"reached {iterations} iterations unconverged")
        z = _solve_columns(ensemble.base_factor.solve, r[:, active])
        rz_new = np.einsum("ij,ij->j", r[:, active], z)
        p[:, active] = direction = z + (rz_new / rz[active]) * p[:, active]
        rz[active] = rz_new
        q = apply(direction, active)
        curvature = np.einsum("ij,ij->j", direction, q)
        check(curvature > 0.0, active, "met nonpositive curvature")
        x[:, active] += rz_new / curvature * direction
        r[:, active] -= rz_new / curvature * q
        norms, iterations = np.linalg.norm(r[:, active], axis=0), iterations + 1

    samples = list(np.array(x.T))
    residuals = np.linalg.norm(rhs[:, None] - apply(x, range(len(members))), axis=0) / scale
    return EnsembleSolution(unperturbed=u0, samples=samples, qoi=qoi_mean(samples),
                            woodbury_form="none", update_rank=0, iterations=iterations,
                            residuals=tuple(residuals.tolist()))
