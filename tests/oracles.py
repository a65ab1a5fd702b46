"""Independent reference implementations used only as test oracles.

These deliberately avoid the library's own numerical paths (and LAPACK where
the library relies on it) so that cross-checks stay meaningful.
"""

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from lram.errors import LramError


class SingularMatrixError(LramError):
    """Matrix is singular or too ill-conditioned to solve reliably (``dense_solve``)."""

    def __init__(self, message, cond=float("inf")):
        super().__init__(message)
        self.cond = cond


def jacobi_eigh(a, tol=1e-13, max_sweeps=200):
    """Full symmetric eigendecomposition by cyclic Jacobi rotations.

    Returns (values, vectors) with values sorted descending and vectors as
    matching columns.  O(n^4) per sweep; intended for n <= ~15.
    """
    a = np.array(a, dtype=float, copy=True)
    n = a.shape[0]
    v = np.eye(n)
    scale = max(np.linalg.norm(a), 1e-300)
    for _ in range(max_sweeps):
        off = np.sqrt(2.0 * np.sum(np.tril(a, -1) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    w = np.diag(a).copy()
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def band_eigenvalues(band):
    """Ascending eigenvalues of the symmetric matrix whose lower band is ``band``.

    SciPy's f2py ``eig_banded``: the same LAPACK ``dsbevd``, called with the GIL
    held.
    """
    return sla.eig_banded(band, lower=True, eigvals_only=True, check_finite=False)


def fix_column_signs(vectors):
    """Column by column: negate a column whose first entry above 1e-12 of its largest is < 0."""
    out = np.array(vectors, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        scale = max(float(np.max(np.abs(col))), 1e-300)
        idx = int(np.argmax(np.abs(col) > 1e-12 * scale))
        if col[idx] < 0:
            out[:, j] = -col
    return out


def gauss_solve(a, b):
    """Dense Gaussian elimination with partial pivoting, plain loops."""
    a = np.array(a, dtype=float, copy=True)
    x = np.array(b, dtype=float, copy=True)
    if x.ndim == 1:
        x = x[:, None]
        squeeze = True
    else:
        squeeze = False
    n = a.shape[0]
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[piv, col]) < 1e-300:
            raise ZeroDivisionError("singular matrix in oracle")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            x[[col, piv]] = x[[piv, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            x[row] -= factor * x[col]
    for col in range(n - 1, -1, -1):
        x[col] -= a[col, col + 1:] @ x[col + 1:]
        x[col] /= a[col, col]
    return x[:, 0] if squeeze else x


def dense_solve(a, b, rel_tol=1e-10):
    """Solve the dense system ``A X = B`` by LAPACK and verify the residual.

    Raises ``SingularMatrixError`` (carrying the condition number) when the
    matrix is singular or the residual exceeds ``rel_tol * ||B||``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    try:
        x = sla.solve(a, b)
    except sla.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    resid = float(np.linalg.norm(a @ x - b))
    if resid > rel_tol * max(float(np.linalg.norm(b)), 1e-300):
        raise SingularMatrixError(f"residual {resid:.3e} exceeds {rel_tol:g} * ||B||",
                                  cond=float(np.linalg.cond(a)))
    return x


class DenseSolver:
    """Solves with K and K^T from K^-1 given explicitly, for constructed control problems."""

    def __init__(self, inverse):
        self.inverse = np.asarray(inverse, dtype=float)

    def solve(self, rhs):
        return self.inverse @ rhs

    def solve_t(self, rhs):
        return self.inverse.T @ rhs


def hessian(problem):
    """Dense Hessian of a reduced control problem, one sample solver at a time.

    (1/M) sum_m S_m' Phi S_m + beta Phi, symmetrized; each ``S_m`` is densified
    as ``solver.solve(Phi @ I)``.
    """
    eye = np.eye(problem.dim)
    acc = np.zeros((problem.dim, problem.dim))
    for solver in problem.solvers:
        dense_op = solver.solve(problem.mass @ eye)
        acc += dense_op.T @ (problem.mass @ dense_op)
    acc /= problem.num_samples
    acc += problem.beta * _dense(problem.mass)
    return 0.5 * (acc + acc.T)


def evaluate_per_sample(problem, control, indices=None, target=None):
    """Mean misfit plus penalty, its gradient and the mean state, one sample at a time.

    Applies S_m f = K_m^-1 Phi f and S_m' w = Phi K_m^-T w per listed sample
    (all by default), with Phi applied inside each; the reference for the
    library's batched pass.  Returns (value, gradient, mean state).
    """
    if indices is None:
        indices = range(problem.num_samples)
    if target is None:
        target = problem.target
    mass = problem.mass
    total = 0.0
    grad = np.zeros(problem.dim)
    state_sum = np.zeros(problem.dim)
    for m in indices:
        solver = problem.solvers[m]
        state = solver.solve(mass @ control)
        state_sum += state
        diff = state - target
        weighted = mass @ diff
        total += 0.5 * float(diff @ weighted)
        grad += mass @ solver.solve_t(weighted)
    count = len(indices)
    penalty = mass @ control
    value = total / count + 0.5 * problem.beta * float(control @ penalty)
    return value, grad / count + problem.beta * penalty, state_sum / count


def rand_orthonormal(rng, n, k):
    """Random n-by-k matrix with orthonormal columns."""
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q[:, :k]


def rand_spd(rng, n, shift=None):
    """Random well-conditioned SPD matrix M^T M + shift*I."""
    m = rng.standard_normal((n, n))
    if shift is None:
        shift = float(n)
    return m.T @ m + shift * np.eye(n)


def _triangle_area(coords):
    x, y = coords[:, 0], coords[:, 1]
    area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))
    if area <= 0.0:
        raise ValueError(f"triangle area {area} is not positive")
    return area


def triangle_stiffness(coords):
    """P1 stiffness matrix of one triangle with unit coefficient, one element at a time."""
    coords = np.asarray(coords, dtype=float)
    x, y = coords[:, 0], coords[:, 1]
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    return (np.outer(b, b) + np.outer(c, c)) / (4.0 * _triangle_area(coords))


def triangle_mass(coords):
    """Exact P1 mass matrix of one triangle: area/12 * [[2,1,1],[1,2,1],[1,1,2]]."""
    coords = np.asarray(coords, dtype=float)
    return _triangle_area(coords) / 12.0 * np.array(
        [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])


def _dense(a):
    return a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float)


def rmsre(ensemble, factors):
    """Root mean square reconstruction error by explicit rebuild of every member.

    sqrt((1/M) * sum_m ||A_m - basis @ coeffs[m]||_F^2); valid for any
    factors, optimal or not.
    """
    total = sum(np.linalg.norm(_dense(a) - factors.basis @ c, "fro") ** 2
                for a, c in zip(ensemble, factors.coeffs))
    return math.sqrt(total / len(ensemble))


def glram_rmsre(ensemble, factors):
    """Reconstruction error of a two-sided factorization, by explicit rebuild."""
    total = sum(np.linalg.norm(_dense(a) - factors.left @ core @ factors.right.T, "fro") ** 2
                for a, core in zip(ensemble, factors.cores))
    return math.sqrt(total / len(ensemble))


def exact_wolfe_line_search(value_and_grad, x, direction, fx, gx, c1=1e-4, c2=0.9,
                            max_trials=50):
    """Weak-Wolfe step by expansion and bisection, evaluating J exactly at every trial.

    Returns (step, value, gradient) at the accepted point.
    """
    slope = float(gx @ direction)
    if slope >= 0.0:
        raise ValueError("search direction is not a descent direction")
    lo, hi = 0.0, math.inf
    t = 1.0
    for _ in range(max_trials):
        fx_t, gx_t = value_and_grad(x + t * direction)
        if fx_t > fx + c1 * t * slope:
            hi = t
        elif float(gx_t @ direction) < c2 * slope:
            lo = t
        else:
            return t, fx_t, gx_t
        t = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
    raise ValueError(f"no acceptable step within {max_trials} trials")


def exact_line_search_descent(value_and_grad, x0, direction_state, spec):
    """Line-search descent loop with exact per-trial evaluations.

    ``direction_state`` supplies ``direction(grad)`` (a pair whose first entry
    is the direction) and ``update(s, y)``;
    ``spec`` carries the stopping and Wolfe parameters.  Returns
    (iterations, converged, history) with history rows (objective, grad
    norm, step).
    """
    x = np.array(x0, dtype=float)
    fx, gx = value_and_grad(x)
    history = []
    for it in range(spec.max_iters):
        if float(np.linalg.norm(gx)) <= spec.grad_tol:
            return it, True, history
        direction = direction_state.direction(gx)[0]
        step, fx_new, gx_new = exact_wolfe_line_search(
            value_and_grad, x, direction, fx, gx,
            c1=spec.wolfe_c1, c2=spec.wolfe_c2, max_trials=spec.ls_max_trials,
        )
        x_new = x + step * direction
        direction_state.update(x_new - x, gx_new - gx)
        x, fx, gx = x_new, fx_new, gx_new
        history.append((fx, float(np.linalg.norm(gx)), step))
    return spec.max_iters, float(np.linalg.norm(gx)) <= spec.grad_tol, history
