"""Solvers for ensembles of perturbed linear systems sharing one base matrix.

Each sample solves ``(base + perturbation_m) u_m = rhs``.  With shared-basis
factors ``perturbation_m ~ basis @ coeffs[m]`` the rank-k update identity
turns every sample into one cached base solve plus a k-by-k dense inversion:

    u_m = u0 - (base^-1 basis) @ (I_k + coeffs[m] base^-1 basis)^-1 @ coeffs[m] @ u0

where ``u0 = base^-1 rhs``.  ``base^-1 basis`` is materialized once per
ensemble and reused for all samples.  A truncated alternating series and a
per-sample direct factorization are provided as alternative routes; the
quantity of interest is the sample mean, reduced in fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import numerics
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


def _direct_sample(ensemble, m) -> np.ndarray:
    matrix = (ensemble.base + ensemble.perturbations[m]).tocsc()
    try:
        lu = spla.splu(matrix)
    except RuntimeError as exc:
        raise SingularSampleError(m, str(exc)) from exc
    u = lu.solve(ensemble.rhs)
    if not np.all(np.isfinite(u)):
        raise SingularSampleError(m)
    return u


def solve_smw(ensemble: PerturbedEnsemble, factors, fallback_direct: bool = False,
              residual_tol: float = CAPACITANCE_RESIDUAL_TOL) -> EnsembleSolution:
    """Solve every sample through the rank-k update identity.

    The base matrix is factorized once; ``base^-1 basis`` is solved once and
    cached, so each sample costs one k-by-k dense solve plus matrix-vector
    work.  A singular k-by-k update raises ``SingularCapacitanceError`` with
    the sample index and a condition estimate unless ``fallback_direct`` is
    set, in which case that sample is solved directly and recorded.
    """
    _check_factors(ensemble, factors)
    fact = numerics.factorize_spd(ensemble.base)
    u0 = fact.solve(ensemble.rhs)
    basis_solved = fact.solve(factors.basis)  # N x k, reused for all samples

    k = factors.rank
    eye_k = np.eye(k)
    samples = []
    fallbacks = []
    for m, coeffs in enumerate(factors.coeffs):
        update = eye_k + coeffs @ basis_solved
        reduced_rhs = coeffs @ u0
        failure = None
        try:
            y = np.linalg.solve(update, reduced_rhs)
        except np.linalg.LinAlgError:
            failure = SingularCapacitanceError(m)
        else:
            resid = np.linalg.norm(update @ y - reduced_rhs)
            if resid > residual_tol * max(np.linalg.norm(reduced_rhs), 1e-300):
                failure = SingularCapacitanceError(m, cond=float(np.linalg.cond(update)))
        if failure is not None:
            if not fallback_direct:
                raise failure
            samples.append(_direct_sample(ensemble, m))
            fallbacks.append(m)
            continue
        samples.append(u0 - basis_solved @ y)

    return EnsembleSolution(
        unperturbed=u0,
        samples=samples,
        qoi=qoi_mean(samples),
        method="SMW",
        fallback_samples=tuple(fallbacks),
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
