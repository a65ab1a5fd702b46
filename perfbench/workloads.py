"""The benchmark's workloads: inputs made from the seed, CLI arguments, and output oracles.

Each workload is one ``lram`` CLI invocation.  ``prepare`` makes its inputs
(untimed), ``cli_args`` names the invocation, and ``check`` verifies the
outputs against references computed here, outside the timed window.  Every
oracle is independent of the code path it checks: the SMW mean against
per-sample sparse direct solves, the compressed factors against a dense
eigendecomposition, the optimizers against each other.

Why these three (seed-state figures, 2 cores):

* ``spde-ensemble``: the paper's full pipeline at h = 0.025 (N = 1681).  SMW
  capacitance formation and compression plus reconstruction error dominate;
  tau = 0.95 gives k = 1597 >= k* = 1521, so SMW is compared with direct at
  equal accuracy.  Dense eigensolver (k/N = 0.95).
* ``compress-lowrank``: the spectral layer the other way round, k/N = 0.05 at
  N = 2601 (Lanczos branch), plus MatrixMarket load and the factor file write.
  Bypasses ``perturbed`` and ``socp``.
* ``socp-methods``: the optimizer layer, all five methods at N = 441:
  thousands of one-column factorized solves and one dense Hessian; light
  ``lowrank`` work and no ``perturbed`` solves.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

#: Energy level treated as "everything captured" when locating k*.
CRITICAL_ENERGY_TOL = 1e-12
SPDE_QOI_RTOL = 1e-10
ORTHONORMAL_TOL = 1e-10
COEFF_RTOL = 1e-10
RMSRE_RTOL = 1e-8
SOCP_OBJECTIVE_RTOL = 1e-8
SOCP_METHODS = ("sdm", "sgd", "newton", "bfgs", "trm")


@dataclass
class Check:
    """Outcome of checking one invocation's outputs."""

    attempted: int
    failures: dict[str, str] = field(default_factory=dict)  # operation -> why it failed
    info: dict = field(default_factory=dict)

    def fail(self, operation: str, why: str) -> None:
        self.failures.setdefault(operation, why)


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def rank_for(tau: float, n: int) -> int:
    """The rank a reduction ratio asks for: ceil(tau * N), clamped to [1, N]."""
    return min(n, max(1, math.ceil(tau * n - 1e-9)))


def numerical_rank(eigenvalues) -> int:
    """Smallest k whose leading eigenvalues hold all but CRITICAL_ENERGY_TOL of the energy."""
    values = np.sort(np.maximum(eigenvalues, 0.0))[::-1]
    partial = np.cumsum(values)
    return int(np.argmax(partial >= (1.0 - CRITICAL_ENERGY_TOL) * partial[-1]) + 1)


def gram_eigenvalues(ensemble) -> np.ndarray:
    """Eigenvalues of sum_m P_m P_m^T, ascending, by dense LAPACK."""
    gram = sum(p @ p.T for p in ensemble)
    return np.linalg.eigvalsh(gram.toarray())


def assembled(h: float, samples: int, epsilon: float, distribution: str, seed: int):
    """The FEM system ``lram`` builds for these settings (unit source), via ``lram.fem``."""
    from lram import fem

    mesh = fem.structured_mesh(h)
    fields = fem.sample_fields(mesh, samples, epsilon, distribution, seed)
    return fem.assemble(mesh, fields, lambda x, y: 1.0)


def _relative(diff: float, scale: float) -> float:
    return diff / max(scale, 1e-300)


@dataclass(frozen=True)
class SpdeEnsemble:
    """``lram spde`` with SMW and the direct reference on (the default)."""

    name = "spde-ensemble"
    operations_per_invocation = 1
    blas_threads = None  # all CPUs: dense GEMM and eigh scale with them
    samples = 100
    tau = 0.95
    epsilon = 0.2
    h: float = 0.025

    def prepare(self, workdir: Path, seed: int) -> dict:
        return {"seed": seed}

    def cli_args(self, context: dict, out_dir: Path) -> list[str]:
        return ["spde", "--h", repr(self.h), "--samples", str(self.samples),
                "--tau", repr(self.tau), "--epsilon", repr(self.epsilon),
                "--distribution", "normal", "--method", "smw",
                "--seed", str(context["seed"]), "--out-dir", str(out_dir)]

    def reference_mean(self, context: dict) -> np.ndarray:
        """Mean of per-sample sparse direct solves over the same FEM assembly."""
        if "reference" not in context:
            system = assembled(self.h, self.samples, self.epsilon, "normal", context["seed"])
            solutions = [spla.spsolve((system.base + p).tocsc(), system.load)
                         for p in system.perturbations]
            context["reference"] = np.mean(solutions, axis=0)
        return context["reference"]

    def check(self, context: dict, out_dir: Path) -> Check:
        check = Check(attempted=1)
        report = read_csv(out_dir / "report.csv")[0]
        rank, k_star = int(report["rank"]), int(report["k_star"])
        check.info.update(rank=rank, k_star=k_star, rank_source="program",
                          k_star_source="program")
        if rank < k_star:
            check.fail("spde", f"rank {rank} below k* {k_star}")
        qoi = np.array([float(row["qoi"]) for row in read_csv(out_dir / "qoi.csv")])
        ref = self.reference_mean(context)
        if qoi.shape != ref.shape:
            check.fail("spde", f"qoi has {qoi.shape[0]} nodes, expected {ref.shape[0]}")
        else:
            err = _relative(float(np.linalg.norm(qoi - ref)), float(np.linalg.norm(ref)))
            check.info["qoi_rel_err"] = err
            if not err <= SPDE_QOI_RTOL:
                check.fail("spde", f"qoi differs from direct mean by {err:.3e} relative")
        return check


def read_factors(path):
    """Parse ``factors.bin`` from its documented layout: (dim, rank, basis, coeffs)."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"LRFB":
        raise ValueError("bad magic")
    version = int(np.frombuffer(raw, dtype="<u4", count=1, offset=4)[0])
    if version != 1:
        raise ValueError(f"unsupported version {version}")
    dim, rank, samples = (int(v) for v in np.frombuffer(raw, dtype="<u8", count=3, offset=8))
    expected = 32 + 8 * (dim * rank + samples * rank * dim)
    if len(raw) != expected:
        raise ValueError(f"file holds {len(raw)} bytes, layout needs {expected}")
    floats = np.frombuffer(raw, dtype="<f8", offset=32)
    basis = floats[:dim * rank].reshape(dim, rank)
    coeffs = floats[dim * rank:].reshape(samples, rank, dim)
    return dim, rank, basis, coeffs


@dataclass(frozen=True)
class CompressLowrank:
    """``lram compress`` of a MatrixMarket ensemble written from the seed."""

    name = "compress-lowrank"
    operations_per_invocation = 1
    # Lanczos on the dense Gram matrix is bound by matrix-vector products; on
    # 2 cores one BLAS thread ran this invocation in about 8 s, two in about 12 s.
    blas_threads = 1
    tau = 0.05
    epsilon = 0.2
    h: float = 0.02
    samples: int = 50

    def prepare(self, workdir: Path, seed: int) -> dict:
        from lram import numerics

        ensemble = assembled(self.h, self.samples, self.epsilon, "normal", seed).perturbations
        input_dir = workdir / "input"
        input_dir.mkdir(parents=True)
        for m, mat in enumerate(ensemble):
            numerics.save_matrix_market(input_dir / f"p_{m:04d}.mtx", mat)
        return {"ensemble": ensemble, "input": input_dir / "*.mtx"}

    def cli_args(self, context: dict, out_dir: Path) -> list[str]:
        return ["compress", "--input", str(context["input"]), "--tau", repr(self.tau),
                "--out-dir", str(out_dir)]

    def check(self, context: dict, out_dir: Path) -> Check:
        check = Check(attempted=1)
        ensemble = context["ensemble"]
        n, m_count = ensemble[0].shape[0], len(ensemble)
        if "eigenvalues" not in context:
            context["eigenvalues"] = gram_eigenvalues(ensemble)
        eigenvalues = context["eigenvalues"]
        k = rank_for(self.tau, n)
        optimum = math.sqrt(max(float(np.sum(eigenvalues[:n - k])), 0.0) / m_count)
        # The program writes no k*; this one is the benchmark's own.
        check.info.update(k_star=numerical_rank(eigenvalues), k_star_source="benchmark")

        try:
            dim, rank, basis, coeffs = read_factors(out_dir / "factors.bin")
        except ValueError as exc:
            check.fail("compress", f"factors.bin: {exc}")
            return check
        check.info.update(rank=rank, rank_source="program")
        if (dim, rank, coeffs.shape[0]) != (n, k, m_count):
            check.fail("compress", f"factors.bin holds N={dim} k={rank} M={coeffs.shape[0]},"
                                  f" expected N={n} k={k} M={m_count}")
            return check
        ortho = float(np.max(np.abs(basis.T @ basis - np.eye(rank))))
        if not ortho <= ORTHONORMAL_TOL:
            check.fail("compress", f"basis departs from orthonormal by {ortho:.3e}")
        residual_sq = 0.0
        for p, c in zip(ensemble, coeffs):
            expected = (p.T @ basis).T
            scale = float(np.linalg.norm(expected))
            if not _relative(float(np.linalg.norm(c - expected)), scale) <= COEFF_RTOL:
                check.fail("compress", "coefficients differ from basis^T P_m")
                break
            residual_sq += float(spla.norm(p, "fro")) ** 2 - float(np.sum(c * c))
        stored = math.sqrt(max(residual_sq, 0.0) / m_count)
        reported = float(read_csv(out_dir / "factors.csv")[0]["rmsre"])
        for label, value in (("reported rmsre", reported), ("rmsre of factors.bin", stored)):
            err = _relative(abs(value - optimum), optimum)
            if not err <= RMSRE_RTOL:
                check.fail("compress", f"{label} {value!r} differs from optimum {optimum!r}"
                                      f" by {err:.3e} relative")
        return check


@dataclass(frozen=True)
class SocpMethods:
    """``lram socp --compare-methods``: all five optimizers on one reduced problem."""

    name = "socp-methods"
    operations_per_invocation = len(SOCP_METHODS)
    # Work here is small dense products and one-column sparse solves.  On 2
    # cores a second BLAS thread did not shorten it and made it less steady:
    # back-to-back runs of one seed took 28-35 s with two threads, 31-32 s with one.
    blas_threads = 1
    tau = 0.88
    epsilon = 0.2
    h: float = 0.05
    samples: int = 50

    def prepare(self, workdir: Path, seed: int) -> dict:
        return {"seed": seed}

    def cli_args(self, context: dict, out_dir: Path) -> list[str]:
        return ["socp", "--compare-methods", "--h", repr(self.h),
                "--samples", str(self.samples), "--tau", repr(self.tau),
                "--epsilon", repr(self.epsilon), "--distribution", "uniform",
                "--seed", str(context["seed"]), "--out-dir", str(out_dir)]

    def k_star(self, context: dict) -> tuple[int, int]:
        """(rank, k*) of the ensemble the socp build compresses, as the benchmark computes them.

        ``lram socp`` writes neither, so both are the benchmark's own figures.
        """
        if "k_star" not in context:
            system = assembled(self.h, self.samples, self.epsilon, "uniform", context["seed"])
            n = system.base.shape[0]
            context["k_star"] = (rank_for(self.tau, n),
                                 numerical_rank(gram_eigenvalues(system.perturbations)))
        return context["k_star"]

    def check(self, context: dict, out_dir: Path) -> Check:
        check = Check(attempted=len(SOCP_METHODS))
        rank, k_star = self.k_star(context)
        check.info.update(rank=rank, k_star=k_star, rank_source="benchmark",
                          k_star_source="benchmark")
        rows = {row["method"]: row for row in read_csv(out_dir / "methods.csv")}
        for method in SOCP_METHODS:
            row = rows.get(method)
            if row is None or row["converged"] != "true":
                check.fail(method, "did not report converged")
        if not {"newton", "trm"} <= rows.keys():
            return check
        j_newton = float(rows["newton"]["objective_final"])
        j_trm = float(rows["trm"]["objective_final"])
        err = _relative(abs(j_newton - j_trm), abs(j_newton))
        if not err <= SOCP_OBJECTIVE_RTOL:
            for method in ("newton", "trm"):
                check.fail(method, f"newton and trm objectives differ by {err:.3e} relative")
        for method, row in rows.items():
            # Recorded, not gated: how far each "converged" method stops from Newton's J.
            check.info[f"socp.gap.{method}"] = float(row["objective_final"]) / j_newton - 1.0
            check.info[f"socp.iterations.{method}"] = int(row["iterations"])
        return check


WORKLOADS = {w.name: w for w in (SpdeEnsemble(), CompressLowrank(), SocpMethods())}
