"""End-to-end Monte-Carlo driver for the random-diffusion Poisson problem.

Takes the sampled stiffness ensemble of ``fem.sampled_system``, compresses
it, solves all samples through the chosen route, and averages into the
mean-field estimate.  When a reference is requested the direct per-sample
solve consumes the identical sampled fields, so the reported gap isolates
the compression error; a solve that already factored every sample (the
direct method, or SMW at update rank 0) is its own reference.  Also hosts
the critical reduction-ratio diagnostics (an all-zero ensemble has k* = 0)
and a Monte-Carlo convergence study.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import fem, lowrank, numerics, perturbed
from .errors import ConfigRangeError

METHODS = ("smw", "neumann", "direct")


@dataclass(frozen=True)
class SpdeRunConfig:
    """Inputs of one mean-field estimation run (all defaults overridable)."""

    h: float = 0.1
    num_samples: int = 100
    ratio: float = 0.88
    epsilon: float = 0.2
    distribution: str = "normal"
    master_seed: int = 1234
    method: str = "smw"
    neumann_order: int = 4
    compute_reference: bool = True
    sample_conditions: bool = False
    force_neumann: bool = False

    def __post_init__(self):
        if not 0.0 < self.ratio <= 1.0:
            raise ConfigRangeError(f"ratio must lie in (0, 1], got {self.ratio}")
        if self.num_samples < 1:
            raise ConfigRangeError(f"num_samples must be >= 1, got {self.num_samples}")
        if self.method not in METHODS:
            raise ConfigRangeError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.neumann_order < 0:
            raise ConfigRangeError("neumann_order must be >= 0")


@dataclass(frozen=True, eq=False)
class SpdeReport:
    """Outputs and diagnostics of one run."""

    qoi: np.ndarray
    qoi_reference: np.ndarray | None
    # the reference is the solution itself: every sample was already solved by its own LU
    reference_reused: bool
    err_l2: float | None
    rmsre: float | None
    energy_curve: list[tuple[int, float]]
    rank: int | None
    k_star: int
    tau_star: float
    cond_base: float
    sample_conditions: tuple[float, ...] | None
    solution: perturbed.EnsembleSolution
    timings: dict[str, float]
    min_coefficient: np.ndarray  # per sample: min over elements of the diffusion field


def critical_tau(curve) -> tuple[int, float]:
    """The critical rank k* of ``curve`` (``lowrank.numerical_rank``) and its ratio k*/N.

    Compressing at or above it reconstructs the ensemble exactly.  An all-zero
    ensemble has the empty curve, and k* = 0 with ratio 0.
    """
    k_star = lowrank.numerical_rank(curve)
    return k_star, (k_star / len(curve) if curve else 0.0)


def _solve(cfg: SpdeRunConfig, ensemble, factors):
    if cfg.method == "smw":
        return perturbed.solve_smw(ensemble, factors)
    if cfg.method == "neumann":
        return perturbed.solve_neumann(ensemble, factors, cfg.neumann_order,
                                       force=cfg.force_neumann)
    return perturbed.solve_direct(ensemble)


def run_spde(cfg: SpdeRunConfig) -> SpdeReport:
    """Execute the full pipeline and return the mean-field report.

    Two runs with identical configs produce bitwise-identical vectors: the
    sampling is keyed per (seed, sample) and every reduction uses a fixed
    order.
    """
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    system = fem.sampled_system(cfg.h, cfg.num_samples, cfg.epsilon, cfg.distribution,
                                cfg.master_seed)
    timings["assemble"] = time.perf_counter() - t0

    ensemble = perturbed.PerturbedEnsemble(
        base=system.base, perturbations=system.perturbations, rhs=system.load
    )

    t0 = time.perf_counter()
    # the direct route reads only the energy curve and k*: eigenvalues suffice
    spectrum = lowrank.gram_spectrum(system.perturbations, vectors=cfg.method != "direct")
    factors = None
    rmsre_value = None
    if cfg.method != "direct":
        factors = lowrank.compress(system.perturbations, cfg.ratio, spectrum)
        rmsre_value = lowrank.rmsre(system.perturbations, spectrum, factors.rank)
    timings["compress"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    solution = _solve(cfg, ensemble, factors)
    timings["solve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    reference = None
    err = None
    # the direct method, and SMW at update rank 0 with every sample factored,
    # already made the reference's per-sample LUs
    reused = cfg.compute_reference and (
        cfg.method == "direct"
        or (solution.woodbury_form == "direct" and not solution.basis_form_samples))
    if cfg.compute_reference:
        reference = solution if reused else perturbed.solve_direct(ensemble)
        err = float(np.linalg.norm(reference.qoi - solution.qoi))
    timings["reference"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    energy_curve = spectrum.energy_curve()
    k_star, tau_star = critical_tau(energy_curve)
    cond_base = numerics.condition_estimate(system.base)
    sample_conds = None
    if cfg.sample_conditions:
        sample_conds = tuple(
            numerics.condition_estimate(system.base + p) for p in system.perturbations
        )
    timings["diagnostics"] = time.perf_counter() - t0

    return SpdeReport(
        qoi=solution.qoi,
        qoi_reference=None if reference is None else reference.qoi,
        reference_reused=reused,
        err_l2=err,
        rmsre=rmsre_value,
        energy_curve=energy_curve,
        rank=None if factors is None else factors.rank,
        k_star=k_star,
        tau_star=tau_star,
        cond_base=cond_base,
        sample_conditions=sample_conds,
        solution=solution,
        timings=timings,
        min_coefficient=system.min_coefficient,
    )


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Error-versus-ratio scan sharing one sampled ensemble and one reference."""

    rows: list[tuple[float, int, float, float]]  # (ratio, rank, err_l2, rmsre)
    energy_curve: list[tuple[int, float]]
    k_star: int
    tau_star: float
    min_coefficient: np.ndarray  # per sample: min over elements of the diffusion field


def scan(cfg: SpdeRunConfig, ratios) -> ScanResult:
    """Solve at several reduction ratios against one shared direct reference and spectrum.

    Rank k is reached with the ratio k / N, which maps back to exactly k.
    """
    system = fem.sampled_system(cfg.h, cfg.num_samples, cfg.epsilon, cfg.distribution,
                                cfg.master_seed)
    ensemble = perturbed.PerturbedEnsemble(
        base=system.base, perturbations=system.perturbations, rhs=system.load
    )
    reference = perturbed.solve_direct(ensemble)
    spectrum = lowrank.gram_spectrum(system.perturbations)
    energy_curve = spectrum.energy_curve()
    k_star, tau_star = critical_tau(energy_curve)

    rows = []
    for ratio in ratios:
        factors = lowrank.compress(system.perturbations, ratio, spectrum)
        solution = _solve(cfg, ensemble, factors)
        err = float(np.linalg.norm(reference.qoi - solution.qoi))
        rows.append((factors.ratio, factors.rank, err,
                     lowrank.rmsre(system.perturbations, spectrum, factors.rank)))
    return ScanResult(rows=rows, energy_curve=energy_curve, k_star=k_star,
                      tau_star=tau_star, min_coefficient=system.min_coefficient)


@dataclass(frozen=True, eq=False)
class McStudy:
    """Monte-Carlo error decay against a same-stream high-sample reference."""

    points: list[tuple[int, float]]   # (num_samples, mean error over repetitions)
    slope: float                      # fitted log-log slope
    errors: np.ndarray                # (repetitions, len(m_list)) raw errors


def mc_convergence_study(cfg: SpdeRunConfig, m_list, repetitions: int = 10,
                         reference_factor: int = 4) -> McStudy:
    """Errors of the sample mean at increasing sample counts.

    For each repetition, one stream of per-sample solutions is generated and
    the mean over the first M entries is compared (in the mass-weighted norm)
    with the mean over the full stream of ``reference_factor * max(m_list)``
    entries.  Requesting M equal to the reference count therefore gives an
    exact zero.  The slope is fitted on the repetition-averaged errors.
    """
    m_list = [int(m) for m in m_list]
    if sorted(m_list) != m_list:
        raise ConfigRangeError("m_list must be ascending")
    m_ref = reference_factor * max(m_list)

    errors = np.zeros((repetitions, len(m_list)))
    for rep in range(repetitions):
        system = fem.sampled_system(cfg.h, m_ref, cfg.epsilon, cfg.distribution,
                                    cfg.master_seed + 7919 * rep)
        ensemble = perturbed.PerturbedEnsemble(
            base=system.base, perturbations=system.perturbations, rhs=system.load
        )
        solution = perturbed.solve_direct(ensemble)
        stacked = np.stack(solution.samples, axis=0)
        reference = stacked.mean(axis=0)
        for j, m in enumerate(m_list):
            mean_m = stacked[:m].mean(axis=0)
            errors[rep, j] = fem.mass_norm(system.mass, mean_m - reference)

    mean_errors = errors.mean(axis=0)
    slope = float(np.polyfit(np.log(m_list), np.log(np.maximum(mean_errors, 1e-300)), 1)[0])
    points = [(m, float(e)) for m, e in zip(m_list, mean_errors)]
    return McStudy(points=points, slope=slope, errors=errors)
