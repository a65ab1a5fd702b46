"""Outside-in tracing of the lram layers, used only by the traced benchmark run.

``Recorder.install`` wraps every public function and every public method of
the public classes defined in the lram modules listed in ``LAYERS``, plus
``scipy.sparse.linalg.splu`` (recorded as ``numerics.splu``, since the sparse
LU is the numerics substrate every layer reaches).  Each call of a wrapped
callable records one span: name, start, end and the enclosing span.  Spans
and counters live in memory and are written once, at the end, by ``dump``.

Names bound elsewhere (``from x import f``, module-level dispatch tables such
as ``cli.COMMANDS``) are rebound too, so a call is recorded however it is
reached.  The program under test is not modified on disk.

``Trace`` loads a dumped trace and ``layer_metrics`` turns it into per-layer
figures.  A span's self time is its duration minus the durations of its direct
child spans.  No lram public
function calls itself, so inclusive totals per name never double count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time

import numpy as np

from workloads import SOCP_METHODS

LAYERS = ("fem", "numerics", "lowrank", "perturbed", "spde", "socp", "cli")

SPLU_SPAN = "numerics.splu"


def _argument(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _eig_attrs(rec, idx, args, kwargs):
    matrix = _argument(args, kwargs, 0, "s")
    rec.attrs[idx] = {"k": int(_argument(args, kwargs, 1, "k")), "n": int(matrix.shape[0])}


def _smw_attrs(rec, idx, args, kwargs):
    factors = _argument(args, kwargs, 1, "factors")
    rec.attrs[idx] = {"m": int(factors.num_samples), "k": int(factors.rank),
                      "n": int(factors.dim)}


def _direct_attrs(rec, idx, args, kwargs):
    ensemble = _argument(args, kwargs, 0, "ensemble")
    rec.attrs[idx] = {"m": int(ensemble.num_samples)}


def _optimize_attrs(rec, idx, args, kwargs):
    rec.attrs[idx] = {"method": _argument(args, kwargs, 1, "spec").method}


def _fact_solve_count(rec, idx, args, kwargs):
    rhs = np.asarray(_argument(args, kwargs, 1, "rhs"))
    rec.counters["numerics.fact_solve.columns"] += 1 if rhs.ndim == 1 else rhs.shape[1]


# Span name -> hook recording the problem shape a derived metric needs.
HOOKS = {
    "numerics.sym_eig_topk": _eig_attrs,
    "perturbed.solve_smw": _smw_attrs,
    "perturbed.solve_direct": _direct_attrs,
    "socp.optimize": _optimize_attrs,
    "numerics.SpdFactorization.solve": _fact_solve_count,
}


class Recorder:
    """In-memory span and counter store for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.attrs: dict[int, dict] = {}
        self.counters = {"numerics.fact_solve.columns": 0}
        self.extra: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        hook = HOOKS.get(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.start)
            rec.name_id.append(name_id)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.start.append(math.nan)
            rec.end.append(math.nan)
            if hook is not None:
                hook(rec, idx, args, kwargs)
            rec._stack.append(idx)
            rec.start[idx] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[idx] = time.perf_counter()
                rec._stack.pop()

        return traced

    def install(self):
        """Wrap the layer boundaries of ``lram`` in this process."""
        modules = {layer: importlib.import_module(f"lram.{layer}") for layer in LAYERS}
        originals = {}  # id(original) -> wrapper
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapper = self.wrap(f"{layer}.{attr}", obj)
                    originals[id(obj)] = wrapper
                    setattr(module, attr, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        setattr(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))

        import scipy.sparse.linalg as spla
        splu = spla.splu
        spla.splu = self.wrap(SPLU_SPAN, splu)
        originals[id(splu)] = spla.splu

        # Rebind references held under other names or in module-level tables.
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals:
                    setattr(module, attr, originals[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in originals:
                            obj[key] = originals[id(value)]

    def span_attrs(self, name) -> list[dict]:
        """Attributes the hooks recorded on spans named ``name``."""
        name_id = self._name_ids.get(name)
        return [a for i, a in self.attrs.items() if self.name_id[i] == name_id]

    def dump(self, path):
        """Write spans, attributes and counters to ``path`` (numpy ``.npz``)."""
        meta = {"names": self.names, "attrs": {str(k): v for k, v in self.attrs.items()},
                "counters": self.counters, "extra": self.extra}
        np.savez(path,
                 name_id=np.asarray(self.name_id, dtype=np.int32),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 start=np.asarray(self.start, dtype=float),
                 end=np.asarray(self.end, dtype=float),
                 meta=np.asarray(json.dumps(meta)))


class Trace:
    """A dumped trace loaded back, with per-span durations and self times."""

    def __init__(self, path):
        with np.load(path, allow_pickle=False) as data:
            self.name_id = data["name_id"]
            self.parent = data["parent"]
            start, end = data["start"], data["end"]
            meta = json.loads(str(data["meta"]))
        self.names = meta["names"]
        self.attrs = {int(k): v for k, v in meta["attrs"].items()}
        self.counters = meta["counters"]
        self.extra = meta["extra"]
        self.duration = end - start
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                                 minlength=self.duration.shape[0])
        self.self_time = self.duration - child_time
        self.layer = np.array([n.split(".")[0] for n in self.names] or [""])[self.name_id]

    def mask(self, name):
        if name not in self.names:
            return np.zeros(self.name_id.shape[0], dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name) -> int:
        return int(self.mask(name).sum())

    def total_s(self, name) -> float:
        return float(self.duration[self.mask(name)].sum())

    def self_s(self, name) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def durations(self, name) -> np.ndarray:
        return self.duration[self.mask(name)]

    def span_attrs(self, name) -> list[dict]:
        return [self.attrs[int(i)] for i in np.flatnonzero(self.mask(name))]

    def layer_self_s(self, layer) -> float:
        return float(self.self_time[self.layer == layer].sum())

    def enclosing(self, name) -> np.ndarray:
        """Index of each span's innermost enclosing ``name`` span (itself included), or -1."""
        target = self.names.index(name) if name in self.names else -2
        out = np.full(self.name_id.shape[0], -1, dtype=np.int64)
        for i, (nid, par) in enumerate(zip(self.name_id.tolist(), self.parent.tolist())):
            out[i] = i if nid == target else (out[par] if par >= 0 else -1)
        return out


def smw_sample_flops(k: int, n: int) -> float:
    """Flops of one sample of ``solve_smw``'s own loop body (computed, not counted).

    The k x N by N x k capacitance product (2k^2 N), the reduced right-hand
    side (2kN), the k x k LU solve (2/3 k^3 + 2k^2), the residual check
    (2k^2) and the solution update (2Nk).  The factorized solves are child
    spans and are not counted here.
    """
    return 2.0 * k * k * n + 4.0 * k * n + 2.0 / 3.0 * k ** 3 + 4.0 * k * k


def _pct_ms(values, q) -> float:
    return float(np.percentile(values, q) * 1e3) if values.size else 0.0


def layer_metrics(trace: Trace) -> dict:
    """Per-layer figures of one traced CLI run (seconds, counts, computed flops).

    ``socp.optimize`` spans are reported per method; ``socp.evals.<method>``
    counts the objective evaluations (full and sampled) inside them.

    Keys ending in ``_s`` are inclusive seconds of every span of that name,
    ``.self_s`` excludes child spans, ``.calls`` counts spans.
    """
    t = trace
    out = {}
    for name in ("lowrank.ensemble_gram", "lowrank.energy_ratio", "numerics.sym_eig_topk",
                 "numerics.factorize_spd", "socp.hessian", "fem.assemble",
                 "numerics.load_matrix_market"):
        out[f"{name}.calls"] = t.calls(name)
    for name in ("lowrank.ensemble_gram", "lowrank.compress", "lowrank.rmsre",
                 "lowrank.energy_ratio", "spde.critical_tau", "numerics.sym_eig_topk",
                 "perturbed.solve_smw", "perturbed.solve_direct", "numerics.factorize_spd",
                 "numerics.condition_estimate", "socp.build_reduced_problem", "socp.hessian",
                 "fem.assemble", "numerics.load_matrix_market", "lowrank.save_factors"):
        out[f"{name}_s"] = t.total_s(name)
    out["lowrank.compress.self_s"] = t.self_s("lowrank.compress")
    out["perturbed.solve_smw.self_s"] = t.self_s("perturbed.solve_smw")

    eig = t.span_attrs("numerics.sym_eig_topk")
    out["numerics.sym_eig_topk.pairs"] = sum(a["k"] for a in eig)
    out["numerics.sym_eig_topk.max_k_over_n"] = max((a["k"] / a["n"] for a in eig), default=0.0)

    smw = t.span_attrs("perturbed.solve_smw")
    # computed, not counted: one k x N times N x k product per sample
    out["perturbed.smw.capacitance_flops"] = float(
        sum(2.0 * a["m"] * a["k"] ** 2 * a["n"] for a in smw))
    # All the work in solve_smw's self time, so the rate below is that of the whole loop,
    # and gemm_frac sets it against the same per-sample mix timed alone at this shape.
    flops = float(sum(a["m"] * smw_sample_flops(a["k"], a["n"]) for a in smw))
    out["perturbed.smw.flops"] = flops
    smw_self = out["perturbed.solve_smw.self_s"]
    gflops = flops / smw_self / 1e9 if smw_self > 0 else 0.0
    out["perturbed.smw.gflops"] = gflops
    mix = t.extra.get("smw_mix_gflops", 0.0)
    out["perturbed.smw.gemm_frac"] = gflops / mix if mix > 0 else 0.0

    direct_samples = sum(a["m"] for a in t.span_attrs("perturbed.solve_direct"))
    direct_s = out["perturbed.solve_direct_s"]
    out["perturbed.direct.ms_per_sample"] = (
        direct_s / direct_samples * 1e3 if direct_samples else 0.0)
    out["perturbed.smw_over_direct"] = (
        (out["lowrank.compress_s"] + out["perturbed.solve_smw_s"]) / direct_s
        if direct_s > 0 and smw else 0.0)
    out["numerics.splu.calls"] = t.calls(SPLU_SPAN)

    out["numerics.fact_solve.calls"] = t.calls("numerics.SpdFactorization.solve")
    out["numerics.fact_solve.columns"] = int(t.counters["numerics.fact_solve.columns"])
    out["numerics.fact_solve_s"] = t.total_s("numerics.SpdFactorization.solve")

    optimize_idx = np.flatnonzero(t.mask("socp.optimize"))
    enclosing = t.enclosing("socp.optimize")
    is_eval = t.mask("socp.objective") | t.mask("socp.sample_objective")
    for method in SOCP_METHODS:
        spans = [i for i in optimize_idx if t.attrs[int(i)]["method"] == method]
        out[f"socp.optimize_s.{method}"] = float(t.duration[spans].sum())
        out[f"socp.evals.{method}"] = int(np.isin(enclosing[is_eval], spans).sum())
    out["socp.apply.calls"] = t.calls("socp.SampleStateOperator.apply")
    objective = t.durations("socp.objective")
    out["socp.objective.p50_ms"] = _pct_ms(objective, 50)
    out["socp.objective.p90_ms"] = _pct_ms(objective, 90)

    out["cli.write_s"] = t.total_s("cli.write_csv") + t.total_s("cli.write_manifest")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = t.layer_self_s(layer)
    return out
