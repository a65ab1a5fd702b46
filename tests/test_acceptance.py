"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines with their measured values and runtimes.
"""

import hashlib
import math
import time

import numpy as np
import scipy.sparse as sp

from lram import cli, fem, lowrank, numerics, perturbed, socp, spde

import oracles
from oracles import rand_orthonormal, rand_spd


def verdict(number, ok, detail, elapsed):
    label = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {label}: {detail} [{elapsed:.1f}s]")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_smw_exactness():
    """Rank-exact ensembles: update-identity route matches per-sample direct solves."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 51))
        k = int(rng.integers(1, max(2, n // 2 + 1)))
        m = int(rng.integers(1, 11))
        base = sp.csr_array(rand_spd(rng, n))
        basis = rand_orthonormal(rng, n, k)
        coeffs = [0.1 * rng.standard_normal((k, n)) for _ in range(m)]
        ensemble = perturbed.PerturbedEnsemble(
            base=base,
            perturbations=[sp.csr_array(basis @ c) for c in coeffs],
            rhs=rng.standard_normal(n),
        )
        fast = perturbed.solve_ensemble(ensemble,
                                        perturbed.WoodburyForm("basis", k, vectors=basis))
        direct = perturbed.solve_ensemble(ensemble, perturbed.DIRECT)
        for u, v in zip(fast.samples, direct.samples):
            worst = max(worst, np.linalg.norm(u - v) / np.linalg.norm(v))
    elapsed = time.perf_counter() - t0
    verdict(1, worst <= 1e-9 and elapsed < 10.0,
            f"max relative error {worst:.3e} over 50 instances", elapsed)


def test_criterion_02_critical_ratio_gap():
    """Error collapses by >= 6 orders at the critical rank, located by the energy curve."""
    t0 = time.perf_counter()
    cfg = spde.SpdeRunConfig(h=0.1, samples=100, epsilon=0.2,
                             distribution="normal", seed=1234)
    mesh = fem.structured_mesh(cfg.h)
    k_star = spde.run_spde(cfg).k_star  # from the same spectrum path
    interior = mesh.num_nodes - mesh.boundary_nodes.shape[0]
    ranks = list(range(k_star - 5, min(k_star + 3, mesh.num_nodes) + 1))
    scan = spde.run_spde(cfg, [k / mesh.num_nodes for k in ranks])
    errs = {rank: err for _, rank, err, _ in scan.rows}

    gap = errs[k_star - 5] / max(errs[k_star], 1e-300)
    threshold = math.sqrt(max(errs.values()) * min(errs.values()))
    transition = min(rank for rank, err in errs.items() if err <= threshold)
    elapsed = time.perf_counter() - t0
    ok = (gap >= 1e6 and transition == k_star and k_star <= interior
          and elapsed < 300.0)
    verdict(2, ok,
            f"err(k*-5)={errs[k_star - 5]:.3e} err(k*)={errs[k_star]:.3e} "
            f"gap={gap:.1e} k*={k_star} transition={transition}", elapsed)


def test_criterion_03_lowrank_optimality():
    """Compression error equals the spectral tail and beats random bases."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    ok = True
    detail = []
    for trial in range(4):
        n = int(rng.integers(5, 13))
        m = int(rng.integers(1, 6))
        ensemble = [rng.standard_normal((n, n)) for _ in range(m)]
        gram = lowrank.ensemble_gram(ensemble)
        lam = np.sort(np.maximum(np.linalg.eigvalsh(gram), 0.0))[::-1]
        k = int(rng.integers(1, n))
        spectrum = lowrank.gram_spectrum(ensemble)
        factors = lowrank.compress(ensemble, k / n, spectrum)
        expected = math.sqrt(np.sum(lam[k:]) / m)
        for err in (oracles.rmsre(ensemble, factors), lowrank.rmsre(ensemble, spectrum, k)):
            if abs(err - expected) > 1e-8:
                ok = False
                detail.append(f"tail mismatch {abs(err - expected):.2e}")

        def objective(basis):
            return sum(
                np.linalg.norm(a - basis @ (basis.T @ a), "fro") ** 2 for a in ensemble
            )

        best = objective(factors.basis)
        for _ in range(100):
            if best > objective(rand_orthonormal(rng, n, k)) + 1e-9:
                ok = False
                detail.append("random basis beat the eigenbasis")
                break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    verdict(3, ok, "; ".join(detail) or "tail identity and 100-competitor sweeps hold",
            elapsed)


def test_criterion_04_compression_ratio_accounting():
    """Stored scalar counts and the ratio formula agree exactly."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 25))
        k = int(rng.integers(1, n + 1))
        m = int(rng.integers(1, 9))
        ensemble = [rng.standard_normal((n, n)) for _ in range(m)]
        factors = lowrank.compress(ensemble, k / n)
        if factors.stored_scalars != n * k + m * n * k:
            ok = False
        r = lowrank.compression_ratio(n, k, m)
        if abs(r - (k / n) * (1 + 1 / m)) > 1e-12:
            ok = False
    elapsed = time.perf_counter() - t0
    verdict(4, ok, "20 (N, k, M) triples verified", elapsed)


def test_criterion_05_fem_convergence_rate():
    """Manufactured-solution L2 errors shrink at second order."""
    t0 = time.perf_counter()
    results = fem.manufactured_check([1 / 8, 1 / 16, 1 / 32])
    rates = [math.log2(results[i][1] / results[i + 1][1]) for i in range(2)]
    elapsed = time.perf_counter() - t0
    ok = all(rate >= 1.8 for rate in rates) and elapsed < 30.0
    verdict(5, ok, f"observed rates {rates[0]:.3f}, {rates[1]:.3f}", elapsed)


def test_criterion_06_monte_carlo_rate():
    """Sample-mean error decays like a power law with slope near -1/2."""
    t0 = time.perf_counter()
    cfg = spde.SpdeRunConfig(h=0.25, samples=25, epsilon=0.2,
                             distribution="normal", seed=1234)
    study = spde.mc_convergence_study(cfg, [25, 100, 400], repetitions=10)
    elapsed = time.perf_counter() - t0
    ok = -0.8 <= study.slope <= -0.2 and elapsed < 300.0
    verdict(6, ok, f"fitted slope {study.slope:.3f} over M=25,100,400 x10 reps", elapsed)


#: Rounding of one objective evaluation, in units of eps * |J| (at most 2.5 measured).
ROUNDING_UNITS = 16.0


def derivative_deviations(problem, seed, grad, directions=10, step=1e-6):
    """Worst deviations of ``grad`` at a random control from the exact quadratic J.

    J is quadratic, so along a unit direction d J(f + t d) = J(f) + t g'd +
    t^2/2 d'Hd with no remainder.  At t = 1 the odd part of J(f + d) - J(f -
    d) gives g'd and the even part d'Hd (``hessian_vector``), each up to the
    rounding of three evaluations.  A central difference at ``step`` is
    exact too, so its deviation from g'd is that rounding divided by the
    step.  Returns (largest relative gradient deviation, largest quadratic
    residual over the rounding bound, largest central-difference deviation
    over the rounding bound).
    """
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(problem.dim)
    g = grad(problem, f)
    j = socp.objective(problem, f)
    eps = np.finfo(float).eps
    relative = quadratic = difference = 0.0
    for _ in range(directions):
        d = rng.standard_normal(problem.dim)
        d /= np.linalg.norm(d)
        slope = float(g @ d)
        up, down = socp.objective(problem, f + d), socp.objective(problem, f - d)
        curvature = float(d @ socp.hessian_vector(problem, d))
        odd = 0.5 * (up - down) - slope
        even = 0.5 * (up + down) - j - 0.5 * curvature
        rounding = ROUNDING_UNITS * eps * max(abs(up), abs(down), abs(j))
        relative = max(relative, abs(odd) / abs(slope))
        quadratic = max(quadratic, abs(odd) / rounding, abs(even) / rounding)
        up, down = socp.objective(problem, f + step * d), socp.objective(problem, f - step * d)
        rounding = ROUNDING_UNITS * eps * max(abs(up), abs(down))
        difference = max(difference, abs(0.5 * (up - down) - step * slope) / rounding)
    return relative, quadratic, difference


def test_criterion_07_gradient_and_hessian():
    """Analytic derivatives match the exact quadratic to rounding; the Hessian is SPD."""
    t0 = time.perf_counter()
    cfg = socp.SocpRunConfig(h=0.1, samples=20, seed=1234)
    _, problem = socp.build_control_problem(cfg)
    worst, quadratic, difference = derivative_deviations(problem, 707, socp.gradient)
    hess = oracles.hessian(problem)
    np.linalg.cholesky(hess)
    rng = np.random.default_rng(707)
    f = rng.standard_normal(problem.dim)
    j0 = socp.objective(problem, np.zeros(problem.dim))
    g0 = socp.gradient(problem, np.zeros(problem.dim))
    expansion = j0 + g0 @ f + 0.5 * f @ (hess @ f)
    actual = socp.objective(problem, f)
    quad_gap = abs(actual - expansion) / max(1.0, abs(actual))
    elapsed = time.perf_counter() - t0
    ok = (worst <= 1e-5 and quadratic <= 1.0 and difference <= 1.0
          and quad_gap <= 1e-10 and elapsed < 60.0)
    verdict(7, ok, f"max gradient deviation {worst:.2e}, quadratic residual "
                   f"{quadratic:.2f} and central difference {difference:.2f} of the "
                   f"rounding bound, expansion gap {quad_gap:.2e}, Cholesky succeeded",
            elapsed)


def test_criterion_08_optimizer_suite():
    """All five methods converge; the Hessian route wins the iteration count."""
    t0 = time.perf_counter()
    cfg = socp.SocpRunConfig(h=0.1, samples=50, tau=0.88, epsilon=0.2,
                             distribution="uniform", seed=1234, beta=1e-4)
    _, problem = socp.build_control_problem(cfg)
    f0 = np.zeros(problem.dim)
    results = {}
    for method in socp.METHODS:
        spec = socp.OptimizerSpec(method=method, grad_tol=1e-3)
        results[method] = socp.optimize(problem, spec, f0)
    all_converged = all(r.converged for r in results.values())
    newton = results["newton"].iterations
    ordering = all(newton < results[m].iterations for m in ("sdm", "bfgs", "trm"))
    ratio = results["newton"].objective_final / results["newton"].objective_initial
    counts = {m: r.iterations for m, r in results.items()}
    elapsed = time.perf_counter() - t0
    ok = (all_converged and newton <= 15 and ordering and ratio <= 0.25
          and elapsed < 300.0)
    verdict(8, ok, f"iterations {counts}, objective ratio {ratio:.4f}", elapsed)


def test_criterion_09_glram_monotonicity():
    """Alternating two-sided factorization never increases its recorded error."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(20):
        n = int(rng.integers(4, 10))
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, n + 1))
        ensemble = [rng.standard_normal((n, n)) for _ in range(m)]
        hist = lowrank.glram_compress(ensemble, k, max_iters=25,
                                      rel_tol=1e-14).rmsre_history
        if any(hist[i] < hist[i + 1] - 1e-12 for i in range(len(hist) - 1)):
            ok = False
    # exactly representable ensembles are reconstructed to round-off
    for _ in range(5):
        n, k, m = 8, 3, 4
        left = rand_orthonormal(rng, n, k)
        right = rand_orthonormal(rng, n, k)
        ensemble = [left @ rng.standard_normal((k, k)) @ right.T for _ in range(m)]
        final = lowrank.glram_compress(ensemble, k, max_iters=25).rmsre_history[-1]
        if final > 1e-8:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    verdict(9, ok, "20 monotone histories, 5 exact-rank reconstructions", elapsed)


def test_criterion_10_determinism(tmp_path):
    """Identical manifests produce byte-identical CSV outputs."""
    t0 = time.perf_counter()

    def digests(out_dir):
        out = {}
        for path in sorted(out_dir.glob("*.csv")):
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return out

    ok = True
    for args in (
        ["spde", "--h", "0.25", "--samples", "4", "--seed", "7"],
        ["socp", "--h", "0.25", "--samples", "3", "--method", "sgd", "--seed", "7"],
        ["diagnose", "--h", "0.25", "--samples", "4", "--seed", "7"],
    ):
        out1 = tmp_path / (args[0] + "_a")
        out2 = tmp_path / (args[0] + "_b")
        ok = ok and cli.main(args + ["--out-dir", str(out1)]) == 0
        ok = ok and cli.main(args + ["--out-dir", str(out2)]) == 0
        d1, d2 = digests(out1), digests(out2)
        ok = ok and d1 and d1 == d2
    elapsed = time.perf_counter() - t0
    verdict(10, ok, "spde, socp, diagnose reruns byte-identical", elapsed)
