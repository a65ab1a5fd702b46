"""End-to-end Monte-Carlo driver for the random-diffusion Poisson problem.

Takes the sampled stiffness ensemble of ``fem.sampled_system``, decomposes
its Gram matrix once, solves all samples through the chosen route at one or
more reduction ratios, and averages into the mean-field estimate.  A ratio
scan is the same run over several ratios: one sampled ensemble, one Gram
spectrum and one reference serve them all, and each distinct solve is made
once (SMW caps its update at the numerical rank k*, so its solves at every
k >= k* are one solve).  SMW takes its form at each ratio, with the
eigenvectors that form reads, from ``perturbed.plan_smw`` and compresses
nothing: in the direct form, which full-domain fields take at k >= k* from
h = 0.05 down, the spectrum holds eigenvalues only.  Only the series route
compresses (``lowrank.compress``).  When a reference is requested the
direct per-sample solve consumes the identical sampled fields, so the
reported gap isolates the compression error; a solve that already factored
every sample (the direct method, or SMW in the direct form) is the
reference itself, and its sample LUs also serve the sample condition
estimates.  Also hosts the critical reduction-ratio diagnostics (an
all-zero ensemble has k* = 0) and a Monte-Carlo convergence study.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import fem, lowrank, numerics, perturbed
from .errors import ConfigRangeError, check_range

METHODS = ("smw", "neumann", "direct")


@dataclass(frozen=True)
class SpdeRunConfig(fem.CompressedSampling):
    """Inputs of one mean-field estimation run: the sampling, the ratio ``tau``, the route.

    ``reference`` asks for the direct per-sample reference, and
    ``sample_conditions`` for a condition estimate of every sample matrix.
    """

    method: str = "smw"
    neumann_order: int = 4
    reference: bool = True
    sample_conditions: bool = False
    force_neumann: bool = False

    def __post_init__(self):
        super().__post_init__()
        check_range(self.method in METHODS, f"method must be one of {METHODS}", self.method)
        check_range(self.neumann_order >= 0, "neumann_order must be >= 0", self.neumann_order)


@dataclass(frozen=True, eq=False)
class SpdeReport:
    """Outputs and diagnostics of one run; all but ``rows`` describe its last ratio."""

    # per ratio: (ratio, rank, err_l2, rmsre); rank and rmsre are None for the direct
    # method, err_l2 is None without a reference
    rows: list[tuple]
    qoi: np.ndarray
    qoi_reference: np.ndarray | None
    # the reference is a solution of the run: every sample was already solved by its own LU
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


def critical_tau(curve) -> tuple[int, float]:
    """The critical rank k* of ``curve`` (``lowrank.numerical_rank``) and its ratio k*/N.

    Compressing at or above it reconstructs the ensemble exactly.  An all-zero
    ensemble has the empty curve, and k* = 0 with ratio 0.
    """
    k_star = lowrank.numerical_rank(curve)
    return k_star, (k_star / len(curve) if curve else 0.0)


def _solve(cfg: SpdeRunConfig, ensemble, factors, form):
    if cfg.method == "neumann":
        return perturbed.solve_neumann(ensemble, factors, cfg.neumann_order,
                                       force=cfg.force_neumann)
    if form is None or form.name == "direct":
        # the direct method, or SMW in the direct form: one LU per sample
        return perturbed.solve_direct(ensemble, form, conditions=cfg.sample_conditions)
    return perturbed.solve_smw(ensemble, form)


def run_spde(cfg: SpdeRunConfig, ratios=None, system=None) -> SpdeReport:
    """Execute the full pipeline at each of ``ratios`` in turn and return the report.

    ``ratios`` defaults to ``(cfg.tau,)``; rank k is reached with the
    ratio k / N, which maps back to exactly k.  The direct method compresses
    nothing, so it takes no ``ratios`` (``ConfigRangeError``).  ``system`` is
    ``fem.sampled_system(cfg)`` if the caller built it already.  SMW prices
    its form at every rank before any eigenvector exists
    (``perturbed.plan_smw``), so a run whose every form is direct computes
    eigenvalues only; SMW compresses nothing, and the series route
    compresses once per ratio.  Solves are keyed by the update
    rank they run at, min(k, k*) for SMW and k for the series, and each is
    made once.  Two runs with identical configs produce bitwise-identical
    vectors: the sampling is keyed per (seed, sample) and every reduction
    uses a fixed order.
    """
    if ratios is not None and cfg.method == "direct":
        raise ConfigRangeError("the direct method has no reduction ratio to scan")
    ratios = (cfg.tau,) if ratios is None else tuple(ratios)
    timings = {"compress": 0.0, "solve": 0.0}

    if system is None:
        t0 = time.perf_counter()
        system = fem.sampled_system(cfg)
        timings["assemble"] = time.perf_counter() - t0
    members = system.perturbations
    ensemble = perturbed.PerturbedEnsemble(base=system.base, perturbations=members,
                                           rhs=system.load)

    t0 = time.perf_counter()
    ranks, forms = [None] * len(ratios), [None] * len(ratios)
    if cfg.method == "direct":
        # the direct route reads only the energy curve and k*: eigenvalues suffice
        spectrum = lowrank.gram_spectrum(members, vectors=False)
    else:
        ranks = [lowrank.rank_from_ratio(ratio, ensemble.dim) for ratio in ratios]
        if cfg.method == "smw":
            spectrum, forms = perturbed.plan_smw(ensemble, ranks)
        else:
            spectrum = lowrank.gram_spectrum(members)
    energy_curve = spectrum.energy_curve()
    k_star, tau_star = critical_tau(energy_curve)
    timings["compress"] += time.perf_counter() - t0

    solutions = {}  # update rank -> solution
    runs = []       # per ratio: (ratio, rank, rmsre, solution)
    for ratio, rank, form in zip(ratios, ranks, forms):
        t0 = time.perf_counter()
        factors, rmsre_value = None, None
        if rank is not None:
            if cfg.method == "neumann":
                factors = lowrank.compress(members, ratio, spectrum)
            rmsre_value = lowrank.rmsre(members, spectrum, rank)
        timings["compress"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        key = min(rank, k_star) if cfg.method == "smw" else rank
        if key not in solutions:
            solutions[key] = _solve(cfg, ensemble, factors, form)
        runs.append((ratio, rank, rmsre_value, solutions[key]))
        timings["solve"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    reference, reused = None, False
    if cfg.reference:
        # the direct method and the direct form already made the reference's sample LUs
        reference = next((s for s in solutions.values()
                          if cfg.method == "direct" or s.woodbury_form == "direct"), None)
        reused = reference is not None
        if not reused:
            reference = perturbed.solve_direct(ensemble, conditions=cfg.sample_conditions)
    rows = [(float(ratio), rank,
             None if reference is None else float(np.linalg.norm(reference.qoi - sol.qoi)),
             rmsre_value) for ratio, rank, rmsre_value, sol in runs]
    timings["reference"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cond_base = numerics.condition_estimate(system.base, solve=ensemble.base_factor.solve)
    sample_conds = None
    if cfg.sample_conditions:
        # a solve that factored every sample estimated with those LUs
        sample_conds = next((s.sample_conditions for s in (*solutions.values(), reference)
                             if s is not None and s.sample_conditions is not None), None)
        if sample_conds is None:
            sample_conds = tuple(
                numerics.condition_estimate(system.base + p) for p in members
            )
    timings["diagnostics"] = time.perf_counter() - t0

    _, rank, err, rmsre_value = rows[-1]
    solution = runs[-1][3]
    return SpdeReport(
        rows=rows,
        qoi=solution.qoi,
        qoi_reference=None if reference is None else reference.qoi,
        reference_reused=reused,
        err_l2=err,
        rmsre=rmsre_value,
        energy_curve=energy_curve,
        rank=rank,
        k_star=k_star,
        tau_star=tau_star,
        cond_base=cond_base,
        sample_conditions=sample_conds,
        solution=solution,
        timings=timings,
    )


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
        system = fem.sampled_system(replace(cfg, samples=m_ref, seed=cfg.seed + 7919 * rep))
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
