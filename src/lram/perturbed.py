"""Solvers for ensembles of perturbed linear systems sharing one base matrix.

Each sample solves ``(base + perturbation_m) u_m = rhs``.  With shared-basis
factors ``perturbation_m ~ basis @ coeffs[m]`` (U = basis, C_m = coeffs[m],
u0 = base^-1 rhs) ``solve_smw`` applies the Woodbury identity in one of two
forms:

* Basis form, rank k:
  ``u_m = u0 - (base^-1 U) (I_k + C_m base^-1 U)^-1 C_m u0``.  Once per
  ensemble: one factorization of the base and k solves for ``base^-1 U``.
  Per sample: the k-by-k capacitance ``C_m base^-1 U`` (2 k^2 N flops), its
  LU (2/3 k^3) and O(kN) vector work.  Cheaper than a per-sample sparse LU
  only while k is small.
* Complement form, rank N - k, possible when the factors carry the
  complement W (the trailing Gram eigenvectors, so ``[U W]`` is orthogonal
  and C_m = U^T P_m).  Then ``base + U C_m = (base + P_m) - W D_m`` with
  D_m = W^T P_m, and the correction ``delta_m = u0 - u_m`` solves
  ``(base + P_m - W D_m) delta_m = U U^T P_m u0`` by Woodbury on one sparse LU
  of ``base + P_m``.  Per sample: that LU, N - k + 1 solves with it, the
  (N-k)-by-(N-k) capacitance (2 (N-k)^2 N flops) and its LU.  It includes a
  per-sample sparse LU, so SMW in this form costs at least the direct route.
  A sample whose ``base + P_m`` does not factor takes the basis form.

Above half rank ``solve_smw`` picks the form that ``woodbury_costs`` models
cheaper, reading the size of the first sample LU; below it the basis form
always runs.

A truncated alternating series and a per-sample direct factorization are
provided as alternative routes; the quantity of interest is the sample mean,
reduced in fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import lowrank, numerics
from .errors import (
    DimensionMismatchError,
    DivergenceRiskError,
    EmptyInputError,
    SingularCapacitanceError,
    SingularSampleError,
)

#: Residual level beyond which a k-by-k update solve is declared singular.
CAPACITANCE_RESIDUAL_TOL = 1e-8
#: Power-iteration count for the series contraction check.
CONTRACTION_ITERS = 20
#: Right-hand-side columns per solve with a sample LU.  Narrow blocks keep the
#: dense kernels inside SuperLU small: on a 2-core VM with 2 OpenBLAS threads,
#: 53 to 202 columns in one call solved 2 to 4 times slower than in blocks of 16.
SOLVE_BLOCK_COLUMNS = 16
#: Dense-flop weights of the sparse work in ``woodbury_costs``: one flop of a
#: solve with a sample LU, and one sample LU per entry of its L and U factors.
#: Measured on a 2-core VM with 2 OpenBLAS threads at N = 1681: capacitance
#: kernels at 50-80 GF/s, solves in blocks of 16 columns at 1.1-1.9 GF/s, and
#: 100 ns per entry of L + U for a sample LU (ordering and call overhead
#: included).  At smaller N the dense kernels run slower and the weights
#: overstate the sparse work, so a near tie keeps the basis form.
SPARSE_SOLVE_WEIGHT = 50
SAMPLE_LU_WEIGHT = 6000


@dataclass(frozen=True, eq=False)
class PerturbedEnsemble:
    """Shared SPD base matrix, per-sample perturbations, and one right-hand side."""

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


@dataclass(frozen=True, eq=False)
class EnsembleSolution:
    """Per-sample solutions with their mean as the quantity of interest."""

    unperturbed: np.ndarray
    samples: list[np.ndarray]
    qoi: np.ndarray
    method: str
    fallback_samples: tuple[int, ...] = ()
    truncation_residuals: tuple[float, ...] | None = None
    # SMW only: "basis" (rank k) or "complement" (rank N - k), and that rank
    woodbury_form: str | None = None
    update_rank: int | None = None
    # complement-form runs: samples whose base + P_m did not factor (basis form)
    basis_form_samples: tuple[int, ...] = ()


def qoi_mean(samples) -> np.ndarray:
    """Elementwise arithmetic mean over samples, fixed summation order."""
    if len(samples) == 0:
        raise EmptyInputError("cannot average an empty sample list")
    n = samples[0].shape[0]
    for s in samples:
        if s.shape[0] != n:
            raise DimensionMismatchError("samples differ in length")
    return np.mean(np.stack(samples, axis=0), axis=0)


def _check_factors(ensemble, factors):
    if factors.basis.shape[0] != ensemble.dim:
        raise DimensionMismatchError("factor basis dimension differs from ensemble")
    if factors.num_samples != ensemble.num_samples:
        raise DimensionMismatchError("factor sample count differs from ensemble")


def _sample_lu(matrix):
    """Sparse LU of one sample matrix: ordering on A + A^T, partial pivoting kept.

    Raises ``RuntimeError`` if the matrix is exactly singular.
    """
    return spla.splu(sp.csc_array(matrix), permc_spec="MMD_AT_PLUS_A")


def _sample_lu_or_none(matrix):
    try:
        return _sample_lu(matrix)
    except RuntimeError:
        return None


def _direct_sample(ensemble, m) -> np.ndarray:
    try:
        lu = _sample_lu(ensemble.base + ensemble.perturbations[m])
    except RuntimeError as exc:
        raise SingularSampleError(m, str(exc)) from exc
    u = lu.solve(ensemble.rhs)
    if not np.all(np.isfinite(u)):
        raise SingularSampleError(m)
    return u


def _capacitance_solve(m, update, rhs, residual_tol) -> np.ndarray:
    """Solve one sample's small Woodbury system; ``SingularCapacitanceError`` if it fails.

    A solve whose residual exceeds ``residual_tol * ||rhs||`` counts as singular
    and carries a condition estimate.
    """
    try:
        y = np.linalg.solve(update, rhs)
    except np.linalg.LinAlgError:
        raise SingularCapacitanceError(m) from None
    resid = np.linalg.norm(update @ y - rhs)
    if resid > residual_tol * max(np.linalg.norm(rhs), 1e-300):
        raise SingularCapacitanceError(m, cond=float(np.linalg.cond(update)))
    return y


def woodbury_costs(n: int, k: int, factor_entries: int) -> tuple[float, float]:
    """Modelled per-sample cost of the basis and the complement form, in dense flops.

    Basis form: the k-by-k capacitance and its LU, 2 k^2 N + 2/3 k^3.
    Complement form, r = N - k: the r-by-r capacitance and its LU,
    2 r^2 N + 2/3 r^3, plus the sparse work weighted as measured: r + 1
    solves with the sample LU (2 flops per entry of L + U each) and the LU
    itself, ``factor_entries`` being the entry count of L + U.  Projections
    of the member cost about as much in either form and are left out.
    """
    r = n - k
    basis = 2.0 * k * k * n + 2.0 / 3.0 * k ** 3
    complement = (2.0 * r * r * n + 2.0 / 3.0 * r ** 3
                  + SPARSE_SOLVE_WEIGHT * 2.0 * (r + 1) * factor_entries
                  + SAMPLE_LU_WEIGHT * factor_entries)
    return basis, complement


def _woodbury_plan(ensemble, factors):
    """The form to run, with the first sample LU it was read from as ``(m, lu)``.

    The complement form is a candidate only above half rank, with the
    complement set and the coefficients ``Projections`` of the members; it
    runs if ``woodbury_costs`` models it cheaper for the first sample whose
    ``base + P_m`` factors.  That LU is handed on, so no sample is factored
    twice; the samples before it did not factor.
    """
    n, k = ensemble.dim, factors.rank
    if (factors.complement is None or n - k >= k
            or not isinstance(factors.coeffs, lowrank.Projections)):
        return "basis", None
    for m, member in enumerate(factors.coeffs.members):
        lu = _sample_lu_or_none(ensemble.base + member)
        if lu is not None:
            basis, complement = woodbury_costs(n, k, lu.L.nnz + lu.U.nnz)
            return ("complement" if complement < basis else "basis"), (m, lu)
    return "basis", None


def _complement_sample(m, lu, member, complement, projected, u0, residual_tol):
    """u_m by the rank-(N-k) form on ``lu`` of ``base + member``, or None if not finite.

    ``projected`` is D_m = W^T P_m.  With B = base + P_m the correction is
    delta = s + Z y, where [s Z] = B^-1 [r W], r = U U^T P_m u0 = P_m u0 - W D_m u0
    and (I - D_m Z) y = D_m s.  Zero perturbations give delta = 0 exactly.
    """
    reduced_rhs = member @ u0 - complement @ (projected @ u0)
    block = np.asfortranarray(np.column_stack([reduced_rhs, complement]))
    solved = np.concatenate([lu.solve(block[:, j:j + SOLVE_BLOCK_COLUMNS])
                             for j in range(0, block.shape[1], SOLVE_BLOCK_COLUMNS)], axis=1)
    if not np.all(np.isfinite(solved)):
        return None
    s, z = solved[:, 0], solved[:, 1:]
    update = np.eye(complement.shape[1]) - projected @ z
    y = _capacitance_solve(m, update, projected @ s, residual_tol)
    return u0 - (s + z @ y)


def solve_smw(ensemble: PerturbedEnsemble, factors, fallback_direct: bool = False,
              residual_tol: float = CAPACITANCE_RESIDUAL_TOL) -> EnsembleSolution:
    """Solve every sample through the Woodbury identity in the cheaper form.

    The base matrix is factorized once.  The complement form (see the module
    docstring) runs when ``_woodbury_plan`` picks it; it solves the samples
    the factors were compressed from.  Otherwise, and for any sample whose
    ``base + P_m`` does not factor, the basis form runs with
    ``base^-1 basis`` solved once on first need.  A singular small update
    system raises ``SingularCapacitanceError`` with the sample index and a
    condition estimate unless ``fallback_direct`` is set, in which case that
    sample is solved directly and recorded.
    """
    _check_factors(ensemble, factors)
    fact = numerics.factorize_spd(ensemble.base)
    u0 = fact.solve(ensemble.rhs)

    n, k = ensemble.dim, factors.rank
    form, first = _woodbury_plan(ensemble, factors)
    if form == "complement":
        members = factors.coeffs.members
        projections = lowrank.Projections(factors.complement, members)
    basis_solved = None  # N x k, solved on first need and reused
    samples = []
    fallbacks = []
    basis_form = []
    for m in range(ensemble.num_samples):
        try:
            u = None
            if form == "complement":
                # samples before the first LU did not factor
                lu = None
                if m == first[0]:
                    lu = first[1]
                elif m > first[0]:
                    lu = _sample_lu_or_none(ensemble.base + members[m])
                if lu is not None:
                    u = _complement_sample(m, lu, members[m], factors.complement,
                                           projections[m], u0, residual_tol)
                if u is None:
                    basis_form.append(m)
            if u is None:
                if basis_solved is None:
                    basis_solved = fact.solve(factors.basis)
                coeffs = factors.coeffs[m]
                update = np.eye(k) + coeffs @ basis_solved
                y = _capacitance_solve(m, update, coeffs @ u0, residual_tol)
                u = u0 - basis_solved @ y
        except SingularCapacitanceError:
            if not fallback_direct:
                raise
            u = _direct_sample(ensemble, m)
            fallbacks.append(m)
        samples.append(u)

    return EnsembleSolution(
        unperturbed=u0,
        samples=samples,
        qoi=qoi_mean(samples),
        method="SMW",
        fallback_samples=tuple(fallbacks),
        woodbury_form=form,
        update_rank=n - k if form == "complement" else k,
        basis_form_samples=tuple(basis_form),
    )


def _contraction_estimate(basis_solved, coeffs, iters=CONTRACTION_ITERS, seed=0) -> float:
    """Spectral-norm estimate of x -> (base^-1 basis) (coeffs x) by power iteration."""
    n = basis_solved.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = basis_solved @ (coeffs @ v)
        z = coeffs.T @ (basis_solved.T @ w)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        est = float(np.linalg.norm(w))
        v = z / nz
    return est


def solve_neumann(ensemble: PerturbedEnsemble, factors, order: int,
                  force: bool = False) -> EnsembleSolution:
    """Solve every sample by a truncated alternating series of ``order`` terms.

    Evaluates ``sum_{j=0..order} (-(base^-1 basis) coeffs[m])^j u0`` by
    repeated application, never forming an N-by-N product.  Refuses samples
    whose contraction-norm estimate reaches 1 unless ``force`` is set, and
    reports the norm of the first omitted term as a truncation residual.
    """
    _check_factors(ensemble, factors)
    if order < 0:
        raise DimensionMismatchError("series order must be >= 0")
    fact = numerics.factorize_spd(ensemble.base)
    u0 = fact.solve(ensemble.rhs)
    basis_solved = fact.solve(factors.basis)

    samples = []
    residuals = []
    for m, coeffs in enumerate(factors.coeffs):
        norm_est = _contraction_estimate(basis_solved, coeffs)
        if norm_est >= 1.0 and not force:
            raise DivergenceRiskError(m, norm_est)
        term = u0.copy()
        total = u0.copy()
        for _ in range(order):
            term = -(basis_solved @ (coeffs @ term))
            total += term
        omitted = basis_solved @ (coeffs @ term)
        residuals.append(float(np.linalg.norm(omitted)))
        samples.append(total)

    return EnsembleSolution(
        unperturbed=u0,
        samples=samples,
        qoi=qoi_mean(samples),
        method=f"Neumann(K={order})",
        truncation_residuals=tuple(residuals),
    )


def solve_direct(ensemble: PerturbedEnsemble) -> EnsembleSolution:
    """Factorize and solve each perturbed system separately (reference path)."""
    fact = numerics.factorize_spd(ensemble.base)
    u0 = fact.solve(ensemble.rhs)
    samples = [_direct_sample(ensemble, m) for m in range(ensemble.num_samples)]
    return EnsembleSolution(
        unperturbed=u0,
        samples=samples,
        qoi=qoi_mean(samples),
        method="Direct",
    )


def solution_to_csv(solution: EnsembleSolution, path, include_samples: bool = False) -> None:
    """Write one row per node: index, unperturbed value, mean, optional samples."""
    header = ["node", "unperturbed", "qoi"]
    if include_samples:
        header += [f"sample_{m:04d}" for m in range(len(solution.samples))]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(solution.qoi.shape[0]):
            row = [str(i), repr(float(solution.unperturbed[i])), repr(float(solution.qoi[i]))]
            if include_samples:
                row += [repr(float(s[i])) for s in solution.samples]
            fh.write(",".join(row) + "\n")
