"""End-to-end Monte-Carlo driver for the random-diffusion Poisson problem.

Takes the sampled stiffness ensemble of ``fem.sampled_system``, decomposes
its Gram matrix once, solves all samples and averages into the mean-field
estimate.  SMW solves at one or more reduction ratios, each in the
``perturbed.WoodburyForm`` of ``perturbed.plan_smw`` (in the direct form,
which full-domain fields take at k >= k* from h = 0.05 down, the spectrum
holds eigenvalues only).  The direct method (``perturbed.DIRECT``) and
``cg`` (``perturbed.solve_cg``, block CG on the one factorization of the
base) read eigenvalues only and take no ratio.  Nothing is compressed.  A
ratio scan is the same run over several ratios: one sampled ensemble, one
Gram spectrum and one reference serve them all, and solves are keyed by
form and update rank, so each is made once (every k >= k* is one solve).
The reference is the direct-form solve of that same key: the one the run
already made (the direct method, or SMW in the direct form), so the reported
gap isolates the compression error.

Thread layout: every run builds the base's factor and the Gram matrix on the
calling thread, then computes the Gram spectrum on one worker thread while
the calling thread runs the solves that read no spectrum (the reference, the
direct method and cg) and the base's condition estimate.  The worker's long
call, the eigensolve, releases the GIL on the band route (``numerics``; a
dense eigensolve with vectors holds it); the Gram build holds it, so it runs
before the worker starts rather than on it.  The direct-form solves' band
Cholesky holds the GIL too (SciPy's wrappers), but only the worker's short
steps around its eigensolve wait for it.  The CLI runs one BLAS thread
(``numerics.set_blas_threads``), so the two threads take the two cores.
Per-sample condition estimates are ``lram diagnose``'s
(``perturbed.sample_conditions``).  Also hosts the critical reduction-ratio
diagnostics (an all-zero ensemble has k* = 0).
"""

from __future__ import annotations

import concurrent.futures
import time
from dataclasses import dataclass

import numpy as np

from . import fem, lowrank, numerics, perturbed
from .errors import ConfigRangeError, check_range

METHODS = ("smw", "cg", "direct")


@dataclass(frozen=True)
class SpdeRunConfig(fem.CompressedSampling):
    """Inputs of one mean-field estimation run: the sampling, the ratio ``tau``, the route.

    ``reference`` asks for the direct per-sample reference.
    """

    method: str = "smw"
    reference: bool = True

    def __post_init__(self):
        super().__post_init__()
        check_range(self.method in METHODS, f"method must be one of {METHODS}", self.method)


@dataclass(frozen=True, eq=False)
class SpdeReport:
    """Outputs and diagnostics of one run; all but ``rows`` describe its last ratio."""

    # per ratio: (ratio, rank, err_l2, rmsre); rank and rmsre are None for the direct
    # and cg methods, err_l2 is None without a reference
    rows: list[tuple]
    qoi: np.ndarray
    qoi_reference: np.ndarray | None
    # the reference is a solution of the run: one of its own solves ran in the direct form
    reference_reused: bool
    err_l2: float | None
    # the unperturbed solution u0 against the reference: the error of compressing to rank 0
    err_l2_u0: float | None
    rmsre: float | None
    energy_curve: list[tuple[int, float]]
    rank: int | None
    k_star: int
    tau_star: float
    cond_base: float
    solution: perturbed.EnsembleSolution
    timings: dict[str, float]
    eigensolve: numerics.EigenSolve
    # the size |S| of the ensemble's support, an upper bound of k* (``lowrank.GramSpectrum``)
    support: int
    # per ratio: the Woodbury form its solve ran in
    forms: list[str]
    # how the direct-form solve, where one ran, factored its samples
    factor_route: perturbed.FactorRoute | None


def critical_tau(curve) -> tuple[int, float]:
    """The critical rank k* of ``curve`` (``lowrank.numerical_rank``) and its ratio k*/N.

    Compressing at or above it reconstructs the ensemble exactly.  An all-zero
    ensemble has the empty curve, and k* = 0 with ratio 0.
    """
    k_star = lowrank.numerical_rank(curve)
    return k_star, (k_star / len(curve) if curve else 0.0)


def run_spde(cfg: SpdeRunConfig, ratios=None, system=None) -> SpdeReport:
    """Execute the full pipeline at each of ``ratios`` in turn and return the report.

    ``ratios`` defaults to ``(cfg.tau,)``; rank k is reached with the
    ratio k / N, which maps back to exactly k.  Only SMW takes ``ratios``
    (``ConfigRangeError``).  ``system`` is ``fem.sampled_system(cfg)`` if the
    caller built it already.  SMW prices its form at every rank before any
    eigenvector exists (``perturbed.plan_smw``), so a run whose every form
    is direct computes eigenvalues only.  Solves are keyed by (form, update
    rank), and each is made once; the reference is the direct form's.  The
    Gram matrix is built here; one worker thread then computes its spectrum
    while the calling thread runs the solves that read none (the reference,
    the direct method, cg) and the base's condition estimate; the SMW solves
    follow on the calling thread.  The worker has ended when this returns or
    raises.  Two runs with identical configs produce bitwise-identical
    vectors: the sampling is keyed per (seed, sample) and every reduction
    uses a fixed order.
    """
    if ratios is not None and cfg.method != "smw":
        raise ConfigRangeError(f"the {cfg.method} method has no reduction ratio to scan")
    ratios = (cfg.tau,) if ratios is None else tuple(ratios)
    timings = {}

    if system is None:
        t0 = time.perf_counter()
        system = fem.sampled_system(cfg)
        timings["assemble"] = time.perf_counter() - t0
    members = system.perturbations
    ensemble = perturbed.PerturbedEnsemble(base=system.base, perturbations=members,
                                           rhs=system.load)

    ranks = [lowrank.rank_from_ratio(ratio, ensemble.dim) if cfg.method == "smw" else None
             for ratio in ratios]

    def compress(gram):
        """The spectrum of the Gram matrix ``gram``, what reads it, and the seconds they took."""
        t0 = time.perf_counter()
        if cfg.method == "smw":
            spectrum, forms = perturbed.plan_smw(ensemble, ranks, gram)
        else:
            # the energy curve and k* are all these methods read: eigenvalues suffice
            spectrum = lowrank.gram_spectrum(members, vectors=False, gram=gram)
            forms = [perturbed.DIRECT]
        rmsres = [None if k is None else lowrank.rmsre(members, spectrum, k) for k in ranks]
        return spectrum, forms, rmsres, time.perf_counter() - t0

    solutions = {}  # (form, update rank) -> solution

    def solve(form):
        key = (form.name, form.update_rank)
        if key not in solutions:
            solutions[key] = perturbed.solve_ensemble(ensemble, form)
        return solutions[key]

    # made here, so that it is not built on both threads: SMW pricing on the worker
    # reads its fill, and every solve here its ordering
    ensemble.base_factor
    # built here too: the Gram build holds the GIL, so on the worker it would wait
    # for the solves here and they for it; the worker's eigensolve releases it
    t0 = time.perf_counter()
    gram = lowrank.ensemble_gram(members)
    built = time.perf_counter() - t0
    runs = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        spectral = pool.submit(compress, gram)
        del gram
        t0 = time.perf_counter()
        if cfg.reference or cfg.method == "direct":
            solve(perturbed.DIRECT)
        if cfg.method == "cg":
            runs.append(perturbed.solve_cg(ensemble))
        timings["solve"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        cond_base = numerics.condition_estimate(system.base, solve=ensemble.base_factor.solve)
        timings["diagnostics"] = time.perf_counter() - t0
        spectrum, forms, rmsres, spectral_s = spectral.result()
    timings["compress"] = built + spectral_s  # the Gram build and its spectrum
    energy_curve = spectrum.energy_curve()
    k_star, tau_star = critical_tau(energy_curve)

    t0 = time.perf_counter()
    if cfg.method != "cg":
        runs = [solve(form) for form in forms]
    timings["solve"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    reference = solve(perturbed.DIRECT) if cfg.reference else None
    reused = cfg.reference and any(run.woodbury_form == "direct" for run in runs)
    rows = [(float(ratio), rank,
             None if reference is None else float(np.linalg.norm(reference.qoi - sol.qoi)),
             rmsre_value) for ratio, rank, rmsre_value, sol in zip(ratios, ranks, rmsres, runs)]
    timings["reference"] = time.perf_counter() - t0

    _, rank, err, rmsre_value = rows[-1]
    solution = runs[-1]
    return SpdeReport(
        rows=rows,
        qoi=solution.qoi,
        qoi_reference=None if reference is None else reference.qoi,
        reference_reused=reused,
        err_l2=err,
        err_l2_u0=(None if reference is None
                   else float(np.linalg.norm(reference.qoi - solution.unperturbed))),
        rmsre=rmsre_value,
        energy_curve=energy_curve,
        rank=rank,
        k_star=k_star,
        tau_star=tau_star,
        cond_base=cond_base,
        solution=solution,
        timings=timings,
        eigensolve=spectrum.eigensolve,
        support=spectrum.support,
        forms=[run.woodbury_form for run in runs],
        factor_route=(solutions[("direct", 0)].factor_route if ("direct", 0) in solutions
                      else None),
    )
