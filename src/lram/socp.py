"""Discretize-then-optimize solver for the tracking control problem.

The state equation is eliminated through per-sample state matrices built
from the compressed ensemble, leaving an unconstrained quadratic in the
control:

    J(f) = (1/M) sum_m 1/2 (S_m f - target)' Phi (S_m f - target)
           + beta/2 f' Phi f

with S_m f = K_m^-1 Phi f and K_m = base + U U^T P_m for the leading k Gram
eigenvectors U.  K_m is solved by the per-sample Woodbury solvers of
``perturbed`` in the form its cost model picks: rank min(k, k*) on the one
base factorization or rank max(k* - k, 0) on a sparse LU of base + P_m,
which at k >= k* is a direct solve.  An optimizer solves each sample
hundreds of times, so the direct form holds every sample's factor
(``perturbed.DirectSolvers``): one band Cholesky of all samples stacked
block-diagonally where their shared band is narrow and they are positive
definite, a sparse LU per sample where not.  ``spde`` solves each sample
once and streams its LUs instead (``perturbed.solve_ensemble``).  No S_m
object exists: one pass over the listed samples I forms Phi f once, makes
|I| forward solves with it, weights every state residual by Phi in one
product, and applies Phi once to the sum of the |I| adjoint solves, so a
pass makes at most 3 mass products whatever M is.  Over held direct solvers
a pass over all samples makes its forward solves in one stacked band solve
and its adjoint solves in a second.  Gradient and Hessian-vector products
are exact; no N-by-N array is formed.  Five interchangeable minimizers:
steepest descent, single-sample stochastic gradient, Newton, BFGS and a
trust region.  Steepest descent, Newton and BFGS share a weak-Wolfe line
search that reads the exact quadratic along each ray from one
Hessian-vector product.  Newton and the trust region take their steps from
one truncated-CG kernel (Steihaug-Toint) on that product.
``build_control_problem`` takes the Woodbury form of the sampled system of
``fem.sampled_system``, the one every sampled run solves, from
``perturbed.plan_smw``; the form carries the eigenvectors it reads, so
nothing is compressed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import fem, lowrank, numerics, perturbed
from .errors import (
    ConfigRangeError,
    DimensionMismatchError,
    EmptyInputError,
    LineSearchError,
    check_finite,
    check_range,
)

METHODS = ("sdm", "sgd", "newton", "bfgs", "trm")
DESIRED_STATES = ("sin-pi", "sin-2pi", "sin-2pi-sq")
DESIRED_MODES = ("interpolant", "projection")

#: Relative residual at which the truncated-CG step is solved.
CG_RTOL = 1e-12
#: Truncated-CG iterations allowed per control unknown.
CG_ITERS_PER_DIM = 2
#: Trust-region radius growth after a step that reaches the boundary.
TR_EXPAND = 2.0
#: sgd evaluates the full gradient at every iterate, for its history, but stops where
#: its norm meets ``grad_tol`` only at a multiple of this many iterations or the last:
#: on socp-methods' problem (seed 131) at 10, J 0.14% above Newton's, not at 5, 7.5%.
SGD_CHECK_EVERY = 10


def desired_state_function(name: str, amplitude: float = 1.0):
    """Named desired-state presets evaluated as callables of (x, y)."""
    if name == "sin-pi":
        return lambda x, y: amplitude * np.sin(np.pi * x) * np.sin(np.pi * y)
    if name == "sin-2pi":
        return lambda x, y: amplitude * np.sin(2.0 * np.pi * x) * np.sin(2.0 * np.pi * y)
    if name == "sin-2pi-sq":
        return lambda x, y: amplitude * np.sin(2.0 * np.pi * x) ** 2
    raise ConfigRangeError(f"desired state must be one of {DESIRED_STATES}, got {name!r}")


@dataclass(eq=False)
class ReducedControlProblem:
    """Reduced objective data: mass matrix, sample solvers, targets, penalty.

    ``solvers[m]`` solves with sample m's state matrix K_m (``solve`` and
    ``solve_t``), as a ``perturbed.WoodburySolver`` does; the control enters
    the state equation through ``mass``.  Where ``solvers`` is a
    ``perturbed.DirectSolvers``, a pass over all samples solves them all at
    once (``solve_all``).
    """

    mass: object
    solvers: list
    desired_nodal: np.ndarray
    desired_proj: np.ndarray
    beta: float
    desired_mode: str = "interpolant"
    # Woodbury form of the sample solvers, as in ``perturbed.EnsembleSolution``
    woodbury_form: str | None = None
    update_rank: int | None = None
    # how the Gram eigensolve the form came from ran (``lowrank.GramSpectrum``)
    eigensolve: numerics.EigenSolve | None = None
    # samples evaluated so far, each by one forward and at most one adjoint solve
    _sample_evals: int = field(default=0, repr=False)

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ConfigRangeError(f"penalty beta must be > 0, got {self.beta}")
        if self.desired_mode not in DESIRED_MODES:
            raise ConfigRangeError(
                f"desired_mode must be one of {DESIRED_MODES}, got {self.desired_mode!r}"
            )

    @property
    def dim(self) -> int:
        return self.desired_nodal.shape[0]

    @property
    def num_samples(self) -> int:
        return len(self.solvers)

    @property
    def target(self) -> np.ndarray:
        if self.desired_mode == "interpolant":
            return self.desired_nodal
        return self.desired_proj


def build_reduced_problem(assembled: fem.AssembledSystem, ensemble: perturbed.PerturbedEnsemble,
                          form: perturbed.WoodburyForm, desired_state, beta: float,
                          desired_mode: str = "interpolant") -> ReducedControlProblem:
    """Assemble the reduced problem from one FEM system and a Woodbury form of its ensemble.

    ``ensemble`` is the system's base, perturbations and load, the one
    ``form`` was priced on, so the base is factored once (its
    ``base_factor``).  ``desired_state`` is a callable of (x, y).  Its nodal
    interpolant enters the state mismatch by default; the mass-weighted
    projection of that interpolant is kept alongside for the gradient pairing
    and for the alternative ``projection`` mismatch convention.  The sample solvers are
    the ``perturbed.WoodburySolvers`` of ``form``, each made once and held;
    in the direct form they are ``perturbed.DirectSolvers``, all factored at
    once.  A singular capacitance raises ``SingularCapacitanceError`` and a
    sample matrix that does not factor ``SingularSampleError``.
    """
    solvers = perturbed.WoodburySolvers(ensemble, form)
    held = perturbed.DirectSolvers(ensemble) if solvers.form == "direct" else list(solvers)

    coords = assembled.node_coords
    desired_nodal = np.array([float(desired_state(x, y)) for x, y in coords])
    desired_proj = assembled.mass @ desired_nodal
    return ReducedControlProblem(
        mass=assembled.mass,
        solvers=held,
        desired_nodal=desired_nodal,
        desired_proj=desired_proj,
        beta=float(beta),
        desired_mode=desired_mode,
        woodbury_form=solvers.form,
        update_rank=solvers.update_rank,
    )


def _evaluate(problem: ReducedControlProblem, control, indices=None, target=None,
              with_grad: bool = True):
    """Mean misfit over ``indices`` plus the penalty, its gradient and the mean state.

    The one batched pass behind every evaluation.  The forcing Phi f is
    formed once and is also the penalty's; each listed sample (all by
    default, repeats allowed) makes one forward solve with it and, with
    ``with_grad``, one adjoint solve; the residuals are weighted by Phi in
    one product and the adjoint solves summed before one last product with
    Phi.  Over ``perturbed.DirectSolvers`` a pass over all samples (no
    ``indices``) makes each way's solves in one ``solve_all`` call; a listed
    sample is solved on its own.  ``target`` defaults to the problem's.  An
    empty ``indices`` raises ``EmptyInputError`` and an index outside
    [0, M) ``ConfigRangeError``.
    Returns (value, gradient or None, mean state).
    """
    control = np.asarray(control, dtype=float)
    if control.shape[0] != problem.dim:
        raise DimensionMismatchError("control length does not match the problem")
    solvers = problem.solvers
    # a full pass over held direct solvers is one stacked solve each way
    stacked = indices is None and isinstance(solvers, perturbed.DirectSolvers)
    if indices is None:
        indices = range(len(solvers))
    elif len(indices) == 0:
        raise EmptyInputError("no sample indices to evaluate")
    elif not all(0 <= m < len(solvers) for m in indices):
        raise ConfigRangeError(f"sample indices must lie in [0, {len(solvers)}), "
                               f"got {list(indices)!r}")
    if target is None:
        target = problem.target
    mass = problem.mass
    count = len(indices)
    problem._sample_evals += count
    forcing = mass @ control
    states = (solvers.solve_all(forcing) if stacked
              else np.column_stack([solvers[m].solve(forcing) for m in indices]))
    diff = states - target[:, None]
    weighted = mass @ diff
    misfit = 0.5 * float(np.vdot(diff, weighted))
    value = misfit / count + 0.5 * problem.beta * float(control @ forcing)
    grad = None
    if with_grad:
        adjoint = (solvers.solve_all(weighted, transpose=True).sum(axis=1) if stacked
                   else sum(solvers[m].solve_t(weighted[:, j]) for j, m in enumerate(indices)))
        grad = (mass @ adjoint) / count + problem.beta * forcing
    return value, grad, states.mean(axis=1)


def objective(problem: ReducedControlProblem, control: np.ndarray) -> float:
    """Mean tracking misfit plus the mass-weighted control penalty."""
    return _evaluate(problem, control, with_grad=False)[0]


def gradient(problem: ReducedControlProblem, control: np.ndarray) -> np.ndarray:
    """Exact gradient from one adjoint solve per sample."""
    return _evaluate(problem, control)[1]


def sample_gradient(problem: ReducedControlProblem, control: np.ndarray,
                    indices) -> np.ndarray:
    """Gradient restricted to a batch of sample indices (full penalty term)."""
    return _evaluate(problem, control, indices)[1]


def sample_objective(problem: ReducedControlProblem, control: np.ndarray,
                     indices) -> float:
    return _evaluate(problem, control, indices, with_grad=False)[0]


def hessian_vector(problem: ReducedControlProblem, direction: np.ndarray) -> np.ndarray:
    """Hessian times ``direction``: one forward and one adjoint solve per sample.

    The objective is quadratic, so this is its gradient at ``direction`` with
    a zero target.
    """
    return _evaluate(problem, direction, target=np.zeros(problem.dim))[1]


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerSpec:
    """Method choice and stopping/step-control parameters; every float must be finite."""

    method: str = "newton"
    grad_tol: float = 1e-3
    max_iters: int = 5000
    wolfe_c1: float = 1e-4
    wolfe_c2: float = 0.9
    ls_max_trials: int = 50
    sgd_batch: int = 1
    sgd_decay: float = 20.0
    tr_radius0: float = 1.0
    tr_radius_max: float = 1e6
    seed: int = 0

    def __post_init__(self):
        check_finite(self)
        check_range(self.method in METHODS, f"method must be one of {METHODS}", self.method)
        check_range(0.0 < self.wolfe_c1 < self.wolfe_c2 < 1.0,
                    "need 0 < wolfe_c1 < wolfe_c2 < 1", (self.wolfe_c1, self.wolfe_c2))
        check_range(self.grad_tol > 0.0, "grad_tol must be > 0", self.grad_tol)
        check_range(self.max_iters >= 1, "max_iters must be >= 1", self.max_iters)
        check_range(self.ls_max_trials >= 1, "ls_max_trials must be >= 1", self.ls_max_trials)
        check_range(self.sgd_batch >= 1, "sgd_batch must be >= 1", self.sgd_batch)
        check_range(self.sgd_decay > 0.0, "sgd_decay must be > 0", self.sgd_decay)
        check_range(self.tr_radius0 > 0.0, "tr_radius0 must be > 0", self.tr_radius0)
        check_range(self.tr_radius_max > 0.0, "tr_radius_max must be > 0", self.tr_radius_max)
        check_range(self.seed >= 0, "seed must be >= 0", self.seed)


@dataclass(frozen=True, eq=False)
class SocpResult:
    """Optimizer outcome with a full per-iteration trace.

    ``operator_passes`` counts every evaluation, Hessian-vector products
    included, in units of one pass over all samples, each sample solved
    once forward and at most once adjoint (a batch of b samples counts
    b/M).  ``line_search_trials`` counts the step sizes tried.
    """

    control: np.ndarray
    state_mean: np.ndarray
    objective_initial: float
    objective_final: float
    grad_norm_initial: float
    grad_norm_final: float
    iterations: int
    history: list[tuple[float, float, float]]  # (objective, grad norm, step size)
    converged: bool
    status: str
    method: str
    line_search_trials: int = 0
    operator_passes: float = 0.0  # set by ``optimize``


def wolfe_line_search(phi, value0, slope, c1=1e-4, c2=0.9, max_trials=50):
    """Weak-Wolfe step along a ray by expansion and bisection.

    ``phi(t)`` returns the value and the directional derivative at step ``t``;
    ``value0`` and ``slope`` are both taken at ``t = 0``.  Returns
    (step, trials) or raises ``LineSearchError`` for a non-descent direction
    or once the trial budget is spent.
    """
    if slope >= 0.0:
        raise LineSearchError("search direction is not a descent direction")
    lo, hi = 0.0, math.inf
    t = 1.0
    for trial in range(1, max_trials + 1):
        value, derivative = phi(t)
        if value > value0 + c1 * t * slope:
            hi = t
        elif derivative < c2 * slope:
            lo = t
        else:
            return t, trial
        t = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
    raise LineSearchError(f"no acceptable step within {max_trials} trials")


def _result(problem, method, control, start, history, iterations, converged, status,
            trials=0, final=None):
    """The outcome at ``control``; ``start`` is (objective, gradient) at the initial control.

    ``final`` is (objective, gradient, mean state) at ``control`` where the
    caller holds them from a pass; otherwise one pass computes them.
    """
    value, grad, mean = _evaluate(problem, control) if final is None else final
    return SocpResult(
        control=control,
        state_mean=mean,
        objective_initial=start[0],
        objective_final=value,
        grad_norm_initial=float(np.linalg.norm(start[1])),
        grad_norm_final=float(np.linalg.norm(grad)),
        iterations=iterations,
        history=history,
        converged=converged,
        status=status,
        method=method,
        line_search_trials=trials,
    )


def _ray_model(value0, slope, curvature):
    """Exact value and directional derivative of the quadratic J along a ray."""
    def phi(t):
        return value0 + t * slope + 0.5 * t * t * curvature, slope + t * curvature
    return phi


def _line_search_descent(problem, spec, control0, direction_state):
    """Shared loop for the Wolfe-based methods.

    J is quadratic, so J(x + t d) = f + t g'd + t^2/2 d'Hd and its gradient is
    g + t Hd: one Hessian-vector product per iteration answers every
    line-search trial exactly, and no trial solves a sample.
    ``direction_state`` supplies the descent direction, with its Hessian
    product when it has one (Newton) and None otherwise, and may carry state
    between iterations (BFGS memory).
    """
    x = np.array(control0, dtype=float)
    fx, gx, _ = _evaluate(problem, x)
    start = (fx, gx)
    if not np.isfinite(fx):
        raise ConfigRangeError("objective is not finite at the initial control")
    history: list[tuple[float, float, float]] = []
    trials = 0
    best = (fx, x.copy())
    for it in range(spec.max_iters):
        gnorm = float(np.linalg.norm(gx))
        if gnorm <= spec.grad_tol:
            return _result(problem, spec.method, x, start, history, it, True, "converged",
                           trials)
        direction, hd = direction_state.direction(gx)
        if hd is None:
            hd = hessian_vector(problem, direction)
        curvature = float(direction @ hd)
        if curvature <= 0.0:
            raise LineSearchError("objective has no positive curvature along the direction")
        slope = float(gx @ direction)
        phi = _ray_model(fx, slope, curvature)
        step, used = wolfe_line_search(
            phi, fx, slope,
            c1=spec.wolfe_c1, c2=spec.wolfe_c2, max_trials=spec.ls_max_trials,
        )
        trials += used
        direction_state.update(step * direction, step * hd)
        x = x + step * direction
        fx = phi(step)[0]
        gx = gx + step * hd
        history.append((fx, float(np.linalg.norm(gx)), step))
        if fx < best[0]:
            best = (fx, x.copy())
    if float(np.linalg.norm(gx)) <= spec.grad_tol:
        return _result(problem, spec.method, x, start, history, spec.max_iters, True,
                       "converged", trials)
    return _result(problem, spec.method, best[1], start, history, spec.max_iters, False,
                   "max-iterations", trials)


class _SteepestDirection:
    def direction(self, grad):
        return -grad, None

    def update(self, step_vec, grad_diff):
        pass


class _NewtonDirection:
    def __init__(self, problem):
        self._problem = problem

    def direction(self, grad):
        return _cg_step(self._problem, grad)

    def update(self, step_vec, grad_diff):
        pass


class _BfgsDirection:
    def __init__(self, dim):
        self._inv = np.eye(dim)
        self._first = True

    def direction(self, grad):
        return -self._inv @ grad, None

    def update(self, s, y):
        sy = float(s @ y)
        if sy <= 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            return
        if self._first:
            self._inv *= sy / float(y @ y)
            self._first = False
        rho = 1.0 / sy
        v = self._inv @ y
        self._inv -= rho * (np.outer(s, v) + np.outer(v, s))
        self._inv += rho * rho * (float(y @ v) + sy) * np.outer(s, s)


def _cg_step(problem, grad, radius=math.inf):
    """Steihaug-Toint truncated CG on H s = -grad from s = 0; returns (s, H s).

    Stops at a residual of ``CG_RTOL`` |grad|, after ``CG_ITERS_PER_DIM``
    iterations per unknown, or on the sphere of ``radius`` when a step would
    leave it or a direction has nonpositive curvature (at an infinite radius,
    ``LineSearchError``).  H s is summed from the products: no further pass.
    """
    step, h_step = np.zeros(problem.dim), np.zeros(problem.dim)
    residual = direction = -grad
    rr = float(residual @ residual)
    stop = CG_RTOL * CG_RTOL * rr
    for _ in range(CG_ITERS_PER_DIM * problem.dim):
        if rr <= stop:
            break
        hd = hessian_vector(problem, direction)
        curvature = float(direction @ hd)
        if curvature <= 0.0 and math.isinf(radius):
            raise LineSearchError("objective has no positive curvature along the direction")
        alpha = rr / curvature if curvature > 0.0 else math.inf
        if curvature <= 0.0 or np.linalg.norm(step + alpha * direction) >= radius:
            # the root tau >= 0 of |step + tau direction| = radius
            sd, dd = float(step @ direction), float(direction @ direction)
            tau = (math.sqrt(max(sd * sd + dd * (radius * radius - float(step @ step)), 0.0))
                   - sd) / dd
            return step + tau * direction, h_step + tau * hd
        step, h_step = step + alpha * direction, h_step + alpha * hd
        residual = residual - alpha * hd
        rr, rr_old = float(residual @ residual), rr
        direction = residual + (rr / rr_old) * direction
    return step, h_step


def _optimize_trm(problem, spec, control0):
    x = np.array(control0, dtype=float)
    fx, gx, _ = _evaluate(problem, x)
    start = (fx, gx)
    radius = spec.tr_radius0
    history: list[tuple[float, float, float]] = []
    for it in range(spec.max_iters):
        if float(np.linalg.norm(gx)) <= spec.grad_tol:
            return _result(problem, "trm", x, start, history, it, True, "converged")
        step_vec, h_step = _cg_step(problem, gx, radius)
        # J is quadratic, so the model is J itself: every step decreases J as
        # predicted (ratio 1) and is accepted
        predicted = -(float(gx @ step_vec) + 0.5 * float(step_vec @ h_step))
        x, fx, gx = x + step_vec, fx - predicted, gx + h_step
        step_norm = float(np.linalg.norm(step_vec))
        if step_norm >= radius * (1.0 - 1e-12):
            radius = min(TR_EXPAND * radius, spec.tr_radius_max)
        history.append((fx, float(np.linalg.norm(gx)), step_norm))
    converged = float(np.linalg.norm(gx)) <= spec.grad_tol
    return _result(problem, "trm", x, start, history, spec.max_iters, converged,
                   "converged" if converged else "max-iterations")


def _sgd_initial_step(problem, spec, x, indices):
    """Largest power-of-two step whose batch move satisfies the Armijo test.

    Doubling from 1.0 matters here: mass-weighted objectives have tiny
    curvature, so useful steps can be orders of magnitude above 1.
    """
    jb, gb, _ = _evaluate(problem, x, indices)
    slope = -float(gb @ gb)
    trials = 0

    def armijo(t):
        nonlocal trials
        trials += 1
        return sample_objective(problem, x - t * gb, indices) <= jb + spec.wolfe_c1 * t * slope

    t = 1.0
    if armijo(t):
        for _ in range(spec.ls_max_trials):
            if not armijo(2.0 * t):
                break
            t *= 2.0
        return t, trials
    for _ in range(spec.ls_max_trials):
        t *= 0.5
        if armijo(t):
            return t, trials
    raise LineSearchError("no Armijo step for the first stochastic batch")


def _optimize_sgd(problem, spec, control0):
    rng = np.random.default_rng(spec.seed)
    x = np.array(control0, dtype=float)
    # (objective, gradient, mean state) of each full pass, kept so that the outcome
    # at the last or the best iterate needs no further pass
    evaluated = _evaluate(problem, x)
    start = evaluated[:2]
    history: list[tuple[float, float, float]] = []
    m = problem.num_samples

    first_batch = rng.integers(0, m, size=spec.sgd_batch)
    step0, trials = _sgd_initial_step(problem, spec, x, first_batch)
    best_x, best = x, evaluated
    for iterations in range(1, spec.max_iters + 1):
        step = step0 / (1.0 + (iterations - 1) / spec.sgd_decay)
        batch = rng.integers(0, m, size=spec.sgd_batch)
        x = x - step * sample_gradient(problem, x, batch)
        evaluated = _evaluate(problem, x)
        gnorm = float(np.linalg.norm(evaluated[1]))
        history.append((evaluated[0], gnorm, step))
        if evaluated[0] < best[0]:
            best_x, best = x, evaluated
        if gnorm <= spec.grad_tol and (iterations % SGD_CHECK_EVERY == 0
                                       or iterations == spec.max_iters):
            return _result(problem, "sgd", x, start, history, iterations, True, "converged",
                           trials, evaluated)
    return _result(problem, "sgd", best_x, start, history, iterations, False,
                   "max-iterations", trials, best)


def optimize(problem: ReducedControlProblem, spec: OptimizerSpec,
             control0) -> SocpResult:
    """Minimize the reduced objective with the method selected in ``spec``."""
    control0 = np.asarray(control0, dtype=float)
    if control0.shape[0] != problem.dim:
        raise DimensionMismatchError("initial control length does not match the problem")
    evals0 = problem._sample_evals
    if spec.method == "sdm":
        res = _line_search_descent(problem, spec, control0, _SteepestDirection())
    elif spec.method == "newton":
        res = _line_search_descent(problem, spec, control0, _NewtonDirection(problem))
    elif spec.method == "bfgs":
        res = _line_search_descent(problem, spec, control0, _BfgsDirection(problem.dim))
    elif spec.method == "trm":
        res = _optimize_trm(problem, spec, control0)
    else:
        res = _optimize_sgd(problem, spec, control0)
    passes = (problem._sample_evals - evals0) / problem.num_samples
    return dataclasses.replace(res, operator_passes=passes)


# ---------------------------------------------------------------------------
# end-to-end driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SocpRunConfig(fem.CompressedSampling):
    """Inputs of one control-problem build: the sampling, the ratio ``tau``, targets, penalty.

    ``control_init`` is the constant value of the optimizers' initial control.
    """

    samples: int = 50
    distribution: str = "uniform"
    beta: float = 1e-4
    desired: str = "sin-pi"
    desired_amplitude: float = 10.0
    desired_mode: str = "interpolant"
    control_init: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        check_range(self.beta > 0.0, "beta must be > 0", self.beta)
        check_range(self.desired in DESIRED_STATES,
                    f"desired must be one of {DESIRED_STATES}", self.desired)
        check_range(self.desired_mode in DESIRED_MODES,
                    f"desired_mode must be one of {DESIRED_MODES}", self.desired_mode)


def build_control_problem(cfg: SocpRunConfig, system: fem.AssembledSystem | None = None):
    """The sampled system (``fem.sampled_system``) and its reduced problem.

    ``system`` is ``fem.sampled_system(cfg)`` if the caller built it already.
    On the dense eigensolver route (``numerics.dense_eig``) the form is
    ``perturbed.plan_smw``'s.  On the Chebyshev route the spectrum holds the
    leading pairs only and no k*, so the form is the basis form at rank k.
    Nothing is compressed.
    """
    if system is None:
        system = fem.sampled_system(cfg)
    ensemble = perturbed.PerturbedEnsemble(system.base, system.perturbations, system.load)
    rank = lowrank.rank_from_ratio(cfg.tau, ensemble.dim)
    if numerics.dense_eig(ensemble.dim, rank):
        spectrum, (form,) = perturbed.plan_smw(ensemble, [rank])
    else:
        spectrum = lowrank.gram_spectrum(system.perturbations, rank)
        form = perturbed.WoodburyForm("basis", rank, vectors=spectrum.vectors[:, :rank])
    target = desired_state_function(cfg.desired, cfg.desired_amplitude)
    problem = build_reduced_problem(system, ensemble, form, target, cfg.beta,
                                    desired_mode=cfg.desired_mode)
    problem.eigensolve = spectrum.eigensolve
    return system, problem
