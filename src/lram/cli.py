"""Command-line front end: config parsing, subcommand dispatch, CSV emission.

Subcommands: ``spde`` (mean-field estimation), ``socp`` (tracking control),
``compress`` (factorize an ensemble), ``diagnose`` (spectral diagnostics and
the per-sample condition estimates).
A subcommand's keys are the fields of its configs (``CONFIGS``): the library
config that consumes a setting declares its default and its range check
(``fem.Sampling``, ``spde.SpdeRunConfig``, ``socp.SocpRunConfig``,
``socp.OptimizerSpec``), and the ``*Command`` subclasses here add the keys
only a command reads.  A key's text parses after the type of its default.
Configuration is a flat key-value text file, one ``key = value`` per line;
command-line flags override file values, which override the defaults, and
the configs check the resolved values.  ``build_parser`` makes every key a
flag: ``--key-with-dashes VALUE``, or for a boolean key the presence flag
``--key`` (true), ``--no-key`` (false) when its default is true.  ``--set
key=value`` reaches any key too.
Every emitted CSV has a header row, a fixed column order, and full-precision
(round-trip safe) numbers, so identical manifests produce byte-identical
CSVs.  Wall-clock timings and output digests live in ``manifest.txt``, which
is the only non-deterministic artifact.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical failure
(a partial manifest with the error annotation is still written).
"""

from __future__ import annotations

import argparse
import glob as globmod
import hashlib
import resource
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, fem, lowrank, numerics, perturbed, socp, spde
from .errors import (
    ConfigError,
    ConfigParseError,
    ConfigRangeError,
    InputFileError,
    LramError,
    UnknownKeyError,
    check_range,
)

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    return tuple(float(t) for t in items)


def _parser(default):
    """The parser of a key's text, after the type of its default."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        return _parse_float_list
    return type(default)


@dataclass(frozen=True)
class SpdeCommand(spde.SpdeRunConfig):
    """``lram spde``: the run's config and the keys only the command reads."""

    out_dir: str = "out"
    export_samples: bool = False
    tau_scan: tuple[float, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        check_range(all(0.0 < tau <= 1.0 for tau in self.tau_scan),
                    "tau_scan ratios must lie in (0, 1]", self.tau_scan)
        check_range(not (self.tau_scan and self.method != "smw"),
                    f"the {self.method} method has no reduction ratio to scan", self.tau_scan)


@dataclass(frozen=True)
class SocpCommand(socp.SocpRunConfig):
    """``lram socp``: the problem's config and the keys only the command reads."""

    out_dir: str = "out"
    compare_methods: bool = False


@dataclass(frozen=True)
class CompressCommand(fem.CompressedSampling):
    """``lram compress``: the sampling (read without ``input``), the ratio, the outputs."""

    samples: int = 20
    input: str = ""
    export_mm: bool = False
    out_dir: str = "out"


@dataclass(frozen=True)
class DiagnoseCommand(fem.Sampling):
    """``lram diagnose``: the sampling (read without ``input``) and the outputs."""

    samples: int = 20
    input: str = ""
    sample_conditions: bool = False
    out_dir: str = "out"


#: Per subcommand, the configs its keys are the fields of, in the order its command takes them.
CONFIGS = {
    "spde": (SpdeCommand,),
    "socp": (SocpCommand, socp.OptimizerSpec),
    "compress": (CompressCommand,),
    "diagnose": (DiagnoseCommand,),
}


def schema(name: str) -> dict:
    """Each key of subcommand ``name`` with its default; a key of two configs takes the first's."""
    keys: dict = {}
    for config in CONFIGS[name]:
        for f in fields(config):
            keys.setdefault(f.name, f.default)
    return keys


def parse_config(name: str, path=None, overrides=None) -> tuple:
    """Subcommand ``name``'s configs from the defaults, then file values, then overrides.

    The configs check the resolved values (``ConfigRangeError``).
    """
    keys = schema(name)
    resolved = dict(keys)

    def apply(key: str, text: str, line=None):
        if key not in keys:
            raise UnknownKeyError(f"unknown key {key!r}")
        try:
            resolved[key] = _parser(keys[key])(text.strip())
        except ValueError as exc:
            raise ConfigParseError(f"bad value for {key!r}: {exc}", line=line) from exc

    if path is not None:
        text = Path(path).read_text()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigParseError("expected 'key = value'", line=lineno)
            key, _, value = stripped.partition("=")
            apply(key.strip(), value, line=lineno)

    for key, text in (overrides or {}).items():
        apply(key, text)
    return tuple(config(**{f.name: resolved[f.name] for f in fields(config)})
                 for config in CONFIGS[name])


# ---------------------------------------------------------------------------
# deterministic CSV and manifest emission
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    # floats first: they fill the CSVs, and no float is a bool or an int
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _sha256(path) -> str:
    """Digest of a file read in 1 MiB chunks, so a large output is never held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, subcommand: str, resolved: dict,
                   timings: dict, outputs: list, error: str | None = None,
                   record: dict | None = None, digests: dict | None = None) -> None:
    """``manifest.txt``: config, timings, peak memory, what the run did (``record``), digests.

    ``peak_rss_mb`` is the process's own peak resident size (``ru_maxrss``)
    when the manifest is written.  ``digests`` maps an output to the SHA-256
    its writer took as it wrote it (``lowrank.save_factors``); every other
    output is read back and hashed here.
    """
    lines = [
        f"tool_version = {__version__}",
        f"subcommand = {subcommand}",
    ]
    for key in sorted(resolved):
        value = resolved[key]
        if isinstance(value, tuple):
            value = ",".join(_fmt(v) for v in value)
        lines.append(f"{key} = {_fmt(value)}")
    for phase in sorted(timings):
        lines.append(f"timing.{phase} = {timings[phase]:.6f}")
    lines.append(f"peak_rss_mb = {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.3f}")
    for key, value in (record or {}).items():
        lines.append(f"{key} = {_fmt(value)}")
    digests = digests or {}
    for name in outputs:
        lines.append(f"sha256.{name} = {digests.get(name) or _sha256(out_dir / name)}")
    if error is not None:
        lines.append(f"error = {error}")
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _record_woodbury(record: dict, run) -> None:
    """The Woodbury form a solve or a control problem ran, and its rank."""
    record["woodbury.form"] = run.woodbury_form
    record["woodbury.update_rank"] = run.update_rank


def _record_spectrum(record: dict, eigensolve: numerics.EigenSolve) -> None:
    """Each field of the Gram eigensolve's record that is set, as ``spectrum.<field>``."""
    for f in fields(eigensolve):
        value = getattr(eigensolve, f.name)
        if value is not None:
            record[f"spectrum.{f.name}"] = value


def _record_factor_route(record: dict, prefix: str, route: perturbed.FactorRoute | None) -> None:
    """How the direct form factored its samples (``perturbed.FactorRoute``).

    Written as ``<prefix>.route``, ``.bandwidth`` (where set) and ``.lu_samples``,
    the count of samples on their own LU; nothing where no direct form ran.
    """
    if route is None:
        return
    record[f"{prefix}.route"] = route.route
    if route.bandwidth is not None:
        record[f"{prefix}.bandwidth"] = route.bandwidth
    record[f"{prefix}.lu_samples"] = len(route.lu_samples)


def _record_support(record: dict, support: int, k_star: int) -> list[str]:
    """Record the Gram support size |S|; a warning if k* leaves the ensemble no low rank.

    k* is at most |S|, so at k* >= |S| - 1 no compression holds less than the support.
    """
    record["spectrum.support"] = support
    if support and k_star >= support - 1:
        return [f"no low rank: k* = {k_star} of a support of {support} rows"]
    return []


def _direct_form_warning(ranks, forms) -> list[str]:
    """A warning naming each SMW rank whose solve ran in the direct form, where any did."""
    direct = [str(rank) for rank, form in zip(ranks, forms) if form == "direct"]
    if not direct:
        return []
    return [f"smw at rank {', '.join(direct)} ran in the direct form: no low-rank update "
            f"was solved"]


def _record_field(record: dict, min_coefficient) -> list[str]:
    """Record the sampled field's least coefficient; a warning if any sample's is nonpositive."""
    least, nonpositive = float(np.min(min_coefficient)), int(np.sum(min_coefficient <= 0.0))
    record["field.min_coefficient"] = least
    record["field.nonpositive_samples"] = nonpositive
    return [f"{nonpositive} of {len(min_coefficient)} samples have a nonpositive diffusion "
            f"coefficient (least {least:.4g})"] if nonpositive else []


def _warn(problems: list[str]) -> None:
    if problems:
        print(f"lram: warning: {'; '.join(problems)}", file=sys.stderr)


def _record_ranks(record: dict, ranks, k_star: int) -> list[str]:
    """Record whether any compressed rank is below k*; a warning naming those that are."""
    below = [rank for rank in ranks if rank < k_star]
    record["rank_below_k_star"] = bool(below)
    if not below:
        return []
    listed = ", ".join(str(rank) for rank in below)
    return [f"rank {listed} {'is' if len(below) == 1 else 'are'} below the critical rank "
            f"k* = {k_star}"]


def _nan_if_none(value):
    return float("nan") if value is None else value


def cmd_spde(out_dir: Path, record: dict, cfg: SpdeCommand) -> tuple[list, dict, dict]:
    """One ``run_spde`` call: at ``tau``, or at each ratio of ``tau_scan``."""
    outputs = []
    scan = bool(cfg.tau_scan)
    t0 = time.perf_counter()
    system = fem.sampled_system(cfg)
    assemble_s = time.perf_counter() - t0
    # recorded before any solve: a run that fails with exit 2 still reports its field
    _warn(_record_field(record, system.min_coefficient))
    report = spde.run_spde(cfg, cfg.tau_scan if scan else None, system)
    _record_spectrum(record, report.eigensolve)
    _warn(_record_support(record, report.support, report.k_star))
    _record_factor_route(record, "factor", report.factor_route)
    if cfg.reference:
        record["reference.reused"] = report.reference_reused
    # ``run_spde`` runs these phases on two threads, so their timings can sum past the wall time
    record["timing.concurrent"] = "compress,solve,diagnostics"
    ranks = [row[1] for row in report.rows if row[1] is not None]
    _warn(_record_ranks(record, ranks, report.k_star))
    _warn(_direct_form_warning(ranks, report.forms))
    if scan:
        record["k_star"] = report.k_star
        write_csv(out_dir / "errors_vs_tau.csv", ["tau", "rank", "err_l2", "err_l2_u0", "rmsre"],
                  [(tau, rank, _nan_if_none(err), _nan_if_none(report.err_l2_u0), rmsre)
                   for tau, rank, err, rmsre in report.rows])
        outputs.append("errors_vs_tau.csv")
    else:
        _record_woodbury(record, report.solution)
        if report.solution.iterations is not None:
            record["cg.iterations"] = report.solution.iterations
            record["cg.residual_max"] = max(report.solution.residuals)
        write_csv(
            out_dir / "report.csv",
            ["nodes", "samples", "rank", "tau", "epsilon", "method",
             "err_l2", "err_l2_u0", "rmsre", "k_star", "tau_star", "cond_base",
             "form", "update_rank"],
            [[
                report.qoi.shape[0], cfg.samples,
                -1 if report.rank is None else report.rank,
                cfg.tau, cfg.epsilon, cfg.method,
                _nan_if_none(report.err_l2), _nan_if_none(report.err_l2_u0),
                _nan_if_none(report.rmsre),
                report.k_star, report.tau_star, report.cond_base,
                report.solution.woodbury_form, report.solution.update_rank,
            ]],
        )
        outputs.append("report.csv")
        solution = report.solution
        header, columns = ["node", "unperturbed", "qoi"], [solution.unperturbed, solution.qoi]
        if cfg.export_samples:
            header += [f"sample_{m:04d}" for m in range(len(solution.samples))]
            columns += solution.samples
        write_csv(out_dir / "qoi.csv", header, zip(range(len(solution.qoi)), *columns))
        outputs.append("qoi.csv")
    write_csv(out_dir / "energy.csv", ["rank", "energy"], report.energy_curve)
    outputs.append("energy.csv")
    return outputs, {"assemble": assemble_s, **report.timings}, {}


def cmd_socp(out_dir: Path, record: dict, cfg: SocpCommand,
             spec: socp.OptimizerSpec) -> tuple[list, dict, dict]:
    """The control problem minimized by ``spec``'s method, or by each method to compare them."""
    outputs = []
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    system = fem.sampled_system(cfg)
    # recorded before any solve: a build that fails with exit 2 still reports its field
    _warn(_record_field(record, system.min_coefficient))
    _, problem = socp.build_control_problem(cfg, system)
    timings["build"] = time.perf_counter() - t0
    _record_woodbury(record, problem)
    _warn(_direct_form_warning([lowrank.rank_from_ratio(cfg.tau, problem.dim)],
                               [problem.woodbury_form]))
    _record_spectrum(record, problem.eigensolve)
    if isinstance(problem.solvers, perturbed.DirectSolvers):
        # how the direct form holds its sample factors
        _record_factor_route(record, "socp.factor", problem.solvers.factor_route)
    control0 = np.full(problem.dim, cfg.control_init)

    methods = list(socp.METHODS) if cfg.compare_methods else [spec.method]
    results = {}
    for method in methods:
        t0 = time.perf_counter()
        results[method] = socp.optimize(problem, replace(spec, method=method), control0)
        timings[f"optimize.{method}"] = time.perf_counter() - t0
        record[f"socp.operator_passes.{method}"] = results[method].operator_passes
        record[f"socp.line_search_trials.{method}"] = results[method].line_search_trials

    if cfg.compare_methods:
        rows = []
        for method in methods:
            res = results[method]
            err = fem.mass_norm(problem.mass, res.state_mean - problem.desired_nodal)
            rows.append([
                method, res.iterations, res.converged, res.objective_initial,
                res.objective_final, res.objective_final / res.objective_initial,
                err, res.grad_norm_final, res.grad_norm_initial,
            ])
        write_csv(out_dir / "methods.csv",
                  ["method", "iterations", "converged", "objective_initial",
                   "objective_final", "ratio", "error", "grad_norm_final",
                   "grad_norm_initial"], rows)
        outputs.append("methods.csv")

    primary = results[spec.method]
    write_csv(out_dir / "socp_history.csv",
              ["iteration", "objective", "grad_norm", "step"],
              [[i + 1, *row] for i, row in enumerate(primary.history)])
    outputs.append("socp_history.csv")
    write_csv(out_dir / "control.csv", ["node", "value"],
              list(enumerate(primary.control)))
    outputs.append("control.csv")
    write_csv(out_dir / "state_mean.csv", ["node", "value"],
              list(enumerate(primary.state_mean)))
    outputs.append("state_mean.csv")
    return outputs, timings, {}


def _load_ensemble(cfg: CompressCommand | DiagnoseCommand):
    """Ensemble from MatrixMarket files when ``input`` is set, else from the FEM pipeline.

    Returns the members and, from the FEM pipeline, its
    ``perturbed.PerturbedEnsemble`` (base, members and load).  The files
    carry no base, so there it is None.  Their matrices must be square and of
    one shape; ``InputFileError`` names the first file that is not.
    """
    if cfg.input:
        paths = sorted(globmod.glob(cfg.input))
        if not paths:
            raise ConfigRangeError(f"input pattern {cfg.input!r} matches no files")
        ensemble = [numerics.load_matrix_market(p) for p in paths]
        n = ensemble[0].shape[0]
        for path, member in zip(paths, ensemble):
            if member.shape != (n, n):
                raise InputFileError(f"MatrixMarket file {path!r} holds a {member.shape[0]}x"
                                     f"{member.shape[1]} matrix; the ensemble needs {n}x{n}")
        return ensemble, None
    system = fem.sampled_system(cfg)
    return system.perturbations, perturbed.PerturbedEnsemble(system.base, system.perturbations,
                                                             system.load)


def cmd_compress(out_dir: Path, record: dict, cfg: CompressCommand) -> tuple[list, dict, dict]:
    outputs = []
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    ensemble, _ = _load_ensemble(cfg)
    timings["load"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rank = lowrank.rank_from_ratio(cfg.tau, ensemble[0].shape[0])
    spectrum = lowrank.gram_spectrum(ensemble, rank)
    _record_spectrum(record, spectrum.eigensolve)
    factors = lowrank.compress(ensemble, cfg.tau, spectrum)
    err = lowrank.rmsre(ensemble, spectrum, factors.rank)
    timings["compress"] = time.perf_counter() - t0

    digests = {"factors.bin": lowrank.save_factors(out_dir / "factors.bin", factors)}
    outputs.append("factors.bin")
    nnz = sum(int(p.nnz) for p in ensemble)
    stored_over_input = factors.stored_scalars / nnz if nnz else float("inf")
    write_csv(out_dir / "factors.csv",
              ["dim", "rank", "samples", "tau", "rmsre", "compression_ratio",
               "stored_scalars", "ensemble_nnz", "stored_over_input"],
              [[factors.dim, factors.rank, factors.num_samples, cfg.tau, err,
                lowrank.compression_ratio(factors.dim, factors.rank, factors.num_samples),
                factors.stored_scalars, nnz, stored_over_input]])
    outputs.append("factors.csv")
    if stored_over_input > 1.0:
        _warn([f"no compression: the factors hold {stored_over_input:.4g} times the "
               f"ensemble's {nnz} stored entries"])
    if cfg.export_mm:
        written = lowrank.factors_to_matrix_market(out_dir / "factors_mm", factors)
        for p in written:
            outputs.append(str(Path(p).relative_to(out_dir)))
    return outputs, timings, digests


def cmd_diagnose(out_dir: Path, record: dict, cfg: DiagnoseCommand) -> tuple[list, dict, dict]:
    outputs = []
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    ensemble, sampled = _load_ensemble(cfg)
    # the energy curve, k* and the listed eigenvalues need no eigenvectors
    spectrum = lowrank.gram_spectrum(ensemble, vectors=False)
    _record_spectrum(record, spectrum.eigensolve)
    curve = spectrum.energy_curve()
    k_star, tau_star = spde.critical_tau(curve)
    _warn(_record_support(record, spectrum.support, k_star))
    timings["diagnose"] = time.perf_counter() - t0

    write_csv(out_dir / "energy.csv", ["rank", "energy"], curve)
    outputs.append("energy.csv")
    write_csv(out_dir / "eigenvalues.csv", ["index", "eigenvalue"],
              list(enumerate(spectrum.values[:20], start=1)))
    outputs.append("eigenvalues.csv")
    # with the base's SPD factorization, as ``spde`` estimates it
    cond_base = (float("nan") if sampled is None
                 else numerics.condition_estimate(sampled.base, solve=sampled.base_factor.solve))
    write_csv(out_dir / "diagnose.csv",
              ["dim", "samples", "k_star", "tau_star", "cond_base"],
              [[ensemble[0].shape[0], len(ensemble), k_star, tau_star, cond_base]])
    outputs.append("diagnose.csv")
    if cfg.sample_conditions:
        # of A + P_m with its direct-form solver; MatrixMarket input carries no base,
        # so of P_m alone there
        if sampled is not None:
            conds, route = perturbed.sample_conditions(sampled)
            _record_factor_route(record, "factor", route)
        else:
            conds = [numerics.condition_estimate(a) for a in ensemble]
        write_csv(out_dir / "sample_conditions.csv", ["sample", "cond"], list(enumerate(conds)))
        outputs.append("sample_conditions.csv")
    return outputs, timings, {}


COMMANDS = {
    "spde": cmd_spde,
    "socp": cmd_socp,
    "compress": cmd_compress,
    "diagnose": cmd_diagnose,
}


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_schema_flags(parser, keys: dict) -> None:
    """One flag per key, the key with dashes for underscores.

    A value key takes ``--key VALUE``.  A boolean key is a presence flag:
    ``--key`` sets true, or ``--no-key`` sets false when the default is true.
    """
    for key, default in keys.items():
        flag = key.replace("_", "-")
        if not isinstance(default, bool):
            parser.add_argument(f"--{flag}", dest=key)
        elif default:
            parser.add_argument(f"--no-{flag}", dest=key, action="store_const", const="false")
        else:
            parser.add_argument(f"--{flag}", dest=key, action="store_const", const="true")


_HELP = {
    "spde": "estimate the mean field of the random-diffusion problem",
    "socp": "solve the tracking control problem",
    "compress": "factorize an ensemble into shared-basis form",
    "diagnose": "spectral diagnostics of an ensemble",
}


def build_parser() -> argparse.ArgumentParser:
    """Subcommand parsers with ``--config``, ``--set`` and one flag per key."""
    parser = _Parser(prog="lram", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in CONFIGS:
        command = sub.add_parser(name, help=_HELP[name])
        command.add_argument("--config", help="flat key=value configuration file")
        command.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                             help="override any config key (repeatable)")
        _add_schema_flags(command, schema(name))
    return parser


def _collect_overrides(args, keys) -> dict:
    overrides = {}
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigParseError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value
    for key in keys:
        value = getattr(args, key)
        if value is not None:
            overrides[key] = str(value)
    return overrides


#: OpenBLAS threads of every run (``numerics.set_blas_threads``), whatever the
#: environment asks for.  ``spde`` runs its eigensolve on a worker thread beside
#: the solves, so a second BLAS thread only contends for the cores; and LAPACK's
#: band Cholesky, which ``socp`` and the direct form run, slows down several
#: times on two (README, "BLAS threads").
BLAS_THREADS = 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        overrides = _collect_overrides(args, schema(args.subcommand))
        configs = parse_config(args.subcommand, path=args.config, overrides=overrides)
    except ConfigError as exc:
        print(f"lram: configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"lram: cannot read config: {exc}", file=sys.stderr)
        return 1

    resolved = {}
    for config in configs:
        resolved |= asdict(config)
    out_dir = Path(configs[0].out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"lram: cannot create output directory: {exc}", file=sys.stderr)
        return 1
    record: dict = {}  # what the run did, filled in as it goes; kept on failure
    missing = numerics.set_blas_threads(BLAS_THREADS)
    record["blas.threads"] = (f"not set: no {', '.join(missing)}" if missing
                              else BLAS_THREADS)
    try:
        outputs, timings, digests = COMMANDS[args.subcommand](out_dir, record, *configs)
    except ConfigError as exc:
        print(f"lram: configuration error: {exc}", file=sys.stderr)
        return 1
    except LramError as exc:
        write_manifest(out_dir, args.subcommand, resolved, {}, [],
                       error=f"{type(exc).__name__}: {exc}", record=record)
        print(f"lram: numerical failure: {exc}", file=sys.stderr)
        return 2
    write_manifest(out_dir, args.subcommand, resolved, timings, outputs, record=record,
                   digests=digests)
    return 0


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
