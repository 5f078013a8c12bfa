"""In-memory span tracer that wraps archpursuit's public functions from outside.

The package imports its functions by name (``from .x import y``) and keeps
some in dicts (``experiments.GENERATORS``), so a function is found by object
identity in every ``archpursuit.*`` module namespace and in the dicts held
there, and each reference is replaced by one wrapper.  Nothing under ``src/``
is edited.

A span records name, start, end, parent, op id and thread.  Spans opened in a
trial thread whose own stack is empty take as parent the innermost open span
of the thread that started the op, so one op forms one tree.

Self time follows the open-leaf rule: every instant of an op is split
equally among the open spans that have no open child.  In one thread that is
the usual "span time minus the time its children cover"; with trial threads
overlapping it splits the shared interval, so the self times of an op add up
to its wall time.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _draws_functionals(a, result):
    return {"draws": a["count"] * a["p"]}


def _draws_rows(a, result):
    return {"draws": a["n_rows"] * a["row_len"]}


def _file_bytes(a, result):
    return {"bytes": os.path.getsize(a["path"])}


def _score_work(a, result):
    n, p = a["rows"].shape
    m = a["G"].shape[1]
    return {"flops": 2 * n * p * m, "bytes": 8 * (n * p + p * m + n * m)}


def _indices(a, result):
    return {"indices": len(result.indices)}


def _pass_accounting(a, result):
    trace = a.get("trace")
    if trace is None:
        return {}
    return {"passes": trace.passes, "bytes_sent": sum(trace.bytes_sent.values())}


def _nnls(a, result):
    return {
        "iterations": result.iterations,
        "kkt": result.kkt,
        "converged": int(result.converged),
    }


def _path_shape(a, result):
    prob = a["prob"]
    return {"candidates": prob.H.shape[0], "lambdas": prob.lambda_grid.size}


def _selected(a, result):
    return {"select_k": a["k"], "candidates": a["path"].group_norms.shape[1]}


def _angle_work(a, result):
    n, p = a["X"].shape
    samples = a["samples"]
    return {"samples": samples, "flops": 2 * samples * p * n}


# "module.function" -> counter taking the bound arguments and the result, or
# None.  These are the layer boundaries the per-layer metrics are made from.
TARGETS = {
    "_rng.functionals": _draws_functionals,
    "_rng.gaussian_rows": _draws_rows,
    "matrix_io.load_csv": _file_bytes,
    "matrix_io.save_csv": _file_bytes,
    "matrix_io.gen_uniform_separable": None,
    "matrix_io.gen_noisy_pairs": None,
    "extreme_points.pursue": _indices,
    "extreme_points._tally_block": None,
    "extreme_points.linear_scores": _score_work,
    "distributed.run_distributed": _indices,
    "distributed.distributed_weights": _pass_accounting,
    "nnls.nnls_fit": _nnls,
    "glasso.solve_path": _path_shape,
    "glasso.select_by_persistence": _selected,
    "geometry.estimate_solid_angles": _angle_work,
    "geometry.simplicial_constant": None,
    "experiments.run_sweep": None,
    "experiments.recovery_fraction": None,
    "experiments.run_noise": None,
    "experiments.glasso_noise_cell": None,
    "experiments.factorize": None,
}

ROOT = "cli.main"


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    op: int
    thread: int
    end: float = 0.0
    cpu: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def module(self) -> str:
        """Layer name: the module, without the leading underscore of _rng."""
        return self.name.split(".", 1)[0].lstrip("_")


class Tracer:
    """Wraps the TARGETS while installed and keeps every span in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = iter(range(1, sys.maxsize))
        self._op: int | None = None
        self._op_stack: list[Span] = []
        self._patched: list[tuple[object, object, object]] = []

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "archpursuit" or name.startswith("archpursuit."))
        ]
        for target, counter in TARGETS.items():
            mod_name, fn_name = target.split(".")
            try:
                fn = getattr(importlib.import_module(f"archpursuit.{mod_name}"), fn_name)
            except (ImportError, AttributeError):
                continue  # gone after a refactor: its metrics report as missing
            wrapper = self._wrap(target, fn, counter)
            for mod in modules:
                ns = vars(mod)
                for key, value in list(ns.items()):
                    if value is fn:
                        self._patched.append((ns, key, fn))
                        ns[key] = wrapper
                    elif isinstance(value, dict):
                        for k2, v2 in list(value.items()):
                            if v2 is fn:
                                self._patched.append((value, k2, fn))
                                value[k2] = wrapper

    def uninstall(self) -> None:
        for container, key, fn in reversed(self._patched):
            container[key] = fn
        self._patched.clear()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._op_stack:
            parent = self._op_stack[-1].id
        else:
            parent = None
        span = Span(
            next(self._ids), name, time.perf_counter(), parent, self._op,
            threading.get_ident(),
        )
        span.cpu = -time.process_time()
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu += time.process_time()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn) if counter is not None else None

        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, op: int, call):
        """Run call() as op ``op`` under a root span named cli.main."""
        self._op = op
        root = self._open(ROOT)
        self._op_stack = self._stack()
        try:
            return call()
        finally:
            self._close(root)
            self._op = None
            self._op_stack = []

    # -- analysis -----------------------------------------------------------

    def ops(self) -> dict[int, list[Span]]:
        by_op = defaultdict(list)
        for s in self.spans:
            by_op[s.op].append(s)
        return dict(by_op)

    def to_json(self) -> list[dict]:
        t0 = min((s.start for s in self.spans), default=0.0)
        return [
            {
                "id": s.id,
                "name": s.name,
                "start": s.start - t0,
                "end": s.end - t0,
                "parent": s.parent,
                "op": s.op,
                "thread": s.thread,
                "counts": s.counts,
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]


def leaf_shares(spans: list[Span]) -> dict[int, float]:
    """Wall time of one op split among open leaf spans, by span id.

    The shares add up to the duration of the op's root span.
    """
    events = sorted(
        [(s.start, 1, s) for s in spans] + [(s.end, 0, s) for s in spans],
        key=lambda e: (e[0], e[1]),
    )
    open_children: dict[int, int] = {}
    open_spans: dict[int, Span] = {}
    share = defaultdict(float)
    last = events[0][0] if events else 0.0
    for t, is_start, s in events:
        if t > last:
            leaves = [i for i in open_spans if open_children[i] == 0]
            for i in leaves:
                share[i] += (t - last) / len(leaves)
            last = t
        if is_start:
            open_spans[s.id] = s
            open_children[s.id] = 0
            if s.parent in open_children:
                open_children[s.parent] += 1
        else:
            open_spans.pop(s.id, None)
            open_children.pop(s.id, None)
            if s.parent in open_children:
                open_children[s.parent] -= 1
    return dict(share)


def own_time(spans: list[Span]) -> dict[int, float]:
    """Per span, its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s.id, ())):
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start) - covered
    return out


# Per-layer metrics and their units, named after the layer's module ("rng" for
# _rng, since a metric name starts with a letter).  Function times ("_s" after
# a function name) are inclusive span times summed over threads;
# "<module>.self_s" is the module's open-leaf share of the op, and those
# shares add up to the op time.
MODULES = (
    "rng", "matrix_io", "extreme_points", "distributed", "nnls", "glasso",
    "geometry", "experiments", "cli",
)
PER_LAYER = {
    **{f"{m}.self_s": "s" for m in MODULES},
    "rng.functionals_s": "s",
    "rng.draws": "count",
    "rng.draws_per_s": "1/s",
    "rng.gaussian_rows_s": "s",
    "matrix_io.gen_s": "s",
    "matrix_io.load_csv_s": "s",
    "matrix_io.save_csv_s": "s",
    "matrix_io.csv_mb_per_s": "MB/s",
    "extreme_points.pursue_s": "s",
    "extreme_points.linear_scores_s": "s",
    "extreme_points.tally_s": "s",
    "extreme_points.score_flops": "flop",
    "extreme_points.score_gflop_per_s": "GFLOP/s",
    "extreme_points.score_flop_per_byte": "flop/B",
    "extreme_points.indices_found": "count",
    "distributed.run_distributed_s": "s",
    "distributed.partition_overhead_s": "s",
    "distributed.distributed_weights_s": "s",
    "distributed.passes": "count",
    "distributed.bytes_sent": "B",
    "nnls.nnls_fit_s": "s",
    "nnls.iterations": "count",
    "nnls.kkt": "1",
    "nnls.converged_ratio": "ratio",
    "glasso.solve_path_s": "s",
    "glasso.candidates": "count",
    "glasso.lambdas": "count",
    "glasso.selected_ratio": "ratio",
    "geometry.estimate_solid_angles_s": "s",
    "geometry.simplicial_constant_s": "s",
    "geometry.samples_per_s": "1/s",
    "geometry.score_flops": "flop",
    "experiments.cpu_per_wall": "ratio",
    "trace.overhead_ratio": "ratio",
}

_GENERATORS = ("matrix_io.gen_uniform_separable", "matrix_io.gen_noisy_pairs")


def op_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced op.  A layer without spans is absent."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(*names):
        found = [s for n in names for s in by_name.get(n, ())]
        return sum(s.end - s.start for s in found) if found else None

    def counts(name, key):
        return [s.counts[key] for s in by_name.get(name, ()) if key in s.counts]

    out = {}

    def put(metric, value):
        if value is not None:
            out[metric] = value

    share = leaf_shares(spans)
    modules = {s.module for s in spans}
    for m in MODULES:
        if m in modules:
            out[f"{m}.self_s"] = sum(share.get(s.id, 0.0) for s in spans if s.module == m)

    put("rng.functionals_s", total("_rng.functionals"))
    draws = counts("_rng.functionals", "draws")
    if draws:
        out["rng.draws"] = sum(draws)
        out["rng.draws_per_s"] = sum(draws) / out["rng.functionals_s"]
    put("rng.gaussian_rows_s", total("_rng.gaussian_rows"))

    put("matrix_io.gen_s", total(*_GENERATORS))
    put("matrix_io.load_csv_s", total("matrix_io.load_csv"))
    put("matrix_io.save_csv_s", total("matrix_io.save_csv"))
    csv_bytes = counts("matrix_io.load_csv", "bytes") + counts("matrix_io.save_csv", "bytes")
    if csv_bytes:
        out["matrix_io.csv_mb_per_s"] = sum(csv_bytes) / 1e6 / total(
            "matrix_io.load_csv", "matrix_io.save_csv"
        )

    put("extreme_points.pursue_s", total("extreme_points.pursue"))
    put("extreme_points.linear_scores_s", total("extreme_points.linear_scores"))
    tally = by_name.get("extreme_points._tally_block")
    if tally:
        own = own_time(spans)
        out["extreme_points.tally_s"] = sum(own[s.id] for s in tally)
    flops = counts("extreme_points.linear_scores", "flops")
    if flops:
        out["extreme_points.score_flops"] = sum(flops)
        out["extreme_points.score_gflop_per_s"] = (
            sum(flops) / 1e9 / out["extreme_points.linear_scores_s"]
        )
        out["extreme_points.score_flop_per_byte"] = sum(flops) / sum(
            counts("extreme_points.linear_scores", "bytes")
        )
    found = counts("extreme_points.pursue", "indices") + counts(
        "distributed.run_distributed", "indices"
    )
    if found:
        out["extreme_points.indices_found"] = sum(found) / len(found)

    put("distributed.run_distributed_s", total("distributed.run_distributed"))
    put("distributed.distributed_weights_s", total("distributed.distributed_weights"))
    passes = counts("distributed.distributed_weights", "passes")
    if passes:
        out["distributed.passes"] = max(passes)
        out["distributed.bytes_sent"] = max(counts("distributed.distributed_weights", "bytes_sent"))

    put("nnls.nnls_fit_s", total("nnls.nnls_fit"))
    iters = counts("nnls.nnls_fit", "iterations")
    if iters:
        out["nnls.iterations"] = sum(iters) / len(iters)
        out["nnls.kkt"] = max(counts("nnls.nnls_fit", "kkt"))
        conv = counts("nnls.nnls_fit", "converged")
        out["nnls.converged_ratio"] = sum(conv) / len(conv)

    put("glasso.solve_path_s", total("glasso.solve_path"))
    cands = counts("glasso.solve_path", "candidates")
    if cands:
        out["glasso.candidates"] = sum(cands) / len(cands)
        lams = counts("glasso.solve_path", "lambdas")
        out["glasso.lambdas"] = sum(lams) / len(lams)
    ratios = [
        s.counts["select_k"] / s.counts["candidates"]
        for s in by_name.get("glasso.select_by_persistence", ())
        if s.counts
    ]
    if ratios:
        out["glasso.selected_ratio"] = sum(ratios) / len(ratios)

    put("geometry.estimate_solid_angles_s", total("geometry.estimate_solid_angles"))
    put("geometry.simplicial_constant_s", total("geometry.simplicial_constant"))
    samples = counts("geometry.estimate_solid_angles", "samples")
    if samples:
        out["geometry.samples_per_s"] = sum(samples) / out["geometry.estimate_solid_angles_s"]
        out["geometry.score_flops"] = sum(counts("geometry.estimate_solid_angles", "flops"))

    by_id = {s.id: s for s in spans}
    top = [
        s for s in spans
        if s.module == "experiments"
        and getattr(by_id.get(s.parent), "module", None) != "experiments"
    ]
    if top:
        out["experiments.cpu_per_wall"] = sum(s.cpu for s in top) / sum(
            s.end - s.start for s in top
        )
    return out
