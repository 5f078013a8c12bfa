"""Workloads, output checks and the measurement loop of the archpursuit benchmark.

Every op is one in-process ``archpursuit.cli.main(argv)`` call, issued by a
single closed-loop client: the next op starts when the previous one has
returned and its outputs have been checked.  Inputs come from the workload
seed alone; op ``i`` passes ``--seed`` ``seed * OP_SEEDS + i % OP_SEEDS``, so a
run cycles through a fixed set of CLI seeds and every one of them repeats.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from archpursuit import cli
from archpursuit.distributed import Partition, run_distributed
from archpursuit.extreme_points import PursuitConfig
from archpursuit.matrix_io import gen_uniform_separable, save_csv

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

OP_SEEDS = 4
SETUP_REPEATS = 5
# Traced ops of a home workload that measure the layers the named one does not run.
FILL_OPS = 3
DEFAULT_SEED = 0
# Fewer samples beyond a percentile than this make it no tail estimate.
TAIL_BEYOND = 10

END_TO_END = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Sizes are chosen so that one run of --seconds 25 holds at least some 25 ops
# even when the machine is slow, which keeps the tail above the median;
# "tiny" is for the self-test.
PARAMS = {
    "full": {
        "sweep-cell": dict(n=500, p=1000, k=20, multiplier=5, trials=20),
        "factorize-tall": dict(n=1000, p=100, k=20, m=180, workers=4),
        "glasso-noise-cell": dict(
            p=1000, k=20, multiplier=3, eps=0.01, trials=2, grid_points=20, select_k=20
        ),
        "diagnose": dict(n=500, p=500, k=20, samples=10_000),
    },
    "tiny": {
        "sweep-cell": dict(n=60, p=80, k=5, multiplier=5, trials=2),
        "factorize-tall": dict(n=200, p=30, k=5, m=40, workers=4),
        "glasso-noise-cell": dict(
            p=60, k=5, multiplier=3, eps=0.01, trials=2, grid_points=8, select_k=5
        ),
        "diagnose": dict(n=60, p=80, k=5, samples=2000),
    },
}


def m_for(k: int, multiplier: float) -> int:
    """The CLI's functional count m = ceil(c * k * ln k)."""
    return math.ceil(multiplier * k * math.log(k))


def read_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.reader(fh))


class Workload:
    """One seeded input set.  Subclasses define the op, its work units and checks."""

    name = ""
    unit = ""
    # Per-layer metrics this workload's ops produce.  A traced run of another
    # workload that does not run one of these layers measures it here; a
    # metric without spans is reported as missing.
    layers: tuple[str, ...] = ()

    def __init__(self, params: dict, seed: int, work: Path, reference):
        self.p = params
        self.seed = seed
        self.work = work
        self.reference = reference
        self.seen: dict[int, object] = {}

    def op_seed(self, op: int) -> int:
        return self.seed * OP_SEEDS + op % OP_SEEDS

    def prepare(self) -> None:
        """Write the input files; called once per set-up repeat."""

    def argv(self, op: int) -> list[str]:
        raise NotImplementedError

    def units(self) -> int:
        raise NotImplementedError

    def check(self, op: int) -> list[str]:
        raise NotImplementedError

    def extra_layers(self) -> dict[str, float]:
        """Per-layer metrics measured outside the traced ops."""
        return {}


_COMMON = ("cli.self_s", "trace.overhead_ratio")
_PURSUIT = (
    "rng.self_s", "rng.functionals_s", "rng.draws", "rng.draws_per_s",
    "rng.gaussian_rows_s", "extreme_points.self_s", "extreme_points.linear_scores_s",
    "extreme_points.score_flops", "extreme_points.score_gflop_per_s",
    "extreme_points.score_flop_per_byte", "extreme_points.indices_found",
)


class SweepCell(Workload):
    name = "sweep-cell"
    unit = "trials"
    layers = _COMMON + _PURSUIT + (
        "matrix_io.self_s", "matrix_io.gen_s", "extreme_points.pursue_s",
        "extreme_points.tally_s", "experiments.self_s", "experiments.cpu_per_wall",
    )

    def argv(self, op):
        p = self.p
        return [
            "sweep", "--generator", "uniform", "--n", str(p["n"]), "--p", str(p["p"]),
            "--k-list", str(p["k"]), "--multipliers", str(p["multiplier"]),
            "--trials", str(p["trials"]), "--seed", str(self.op_seed(op)),
            "--out", str(self.work / "grid.csv"),
        ]

    def units(self):
        return self.p["trials"]

    def result(self, op):
        header, row = read_rows(self.work / "grid.csv")
        return int(row[2]), float(row[4])

    def check(self, op):
        m, recovery = self.result(op)
        # Reference: stored for the default seed; otherwise full recovery,
        # which fails with probability below k * (1 - 2 * omega_min)^m,
        # about 1e-12 at these sizes.
        want = self.reference[op % OP_SEEDS] if self.reference else 1.0
        problems = []
        if m != m_for(self.p["k"], self.p["multiplier"]):
            problems.append(f"m={m}")
        if recovery != want:
            problems.append(f"recovery {recovery} != reference {want}")
        return problems


class FactorizeTall(Workload):
    name = "factorize-tall"
    unit = "rows"
    layers = _COMMON + _PURSUIT + (
        "matrix_io.self_s", "matrix_io.load_csv_s", "matrix_io.save_csv_s",
        "matrix_io.csv_mb_per_s", "distributed.self_s", "distributed.run_distributed_s",
        "distributed.partition_overhead_s", "distributed.distributed_weights_s",
        "distributed.passes", "distributed.bytes_sent", "nnls.self_s", "nnls.nnls_fit_s",
        "nnls.iterations", "nnls.kkt", "nnls.converged_ratio", "experiments.self_s",
        "experiments.cpu_per_wall",
    )

    def prepare(self):
        # One instance per CLI seed: the NNLS iteration count varies by about
        # 10% between instances, and a mix of four evens that out across runs.
        p = self.p
        self.X = []
        for j in range(OP_SEEDS):
            X = gen_uniform_separable(p["n"], p["p"], p["k"], self.seed * OP_SEEDS + j).X
            save_csv(X, self.work / f"X{j}.csv")
            self.X.append(X)

    def argv(self, op):
        p = self.p
        return [
            "factorize", "--input", str(self.work / f"X{op % OP_SEEDS}.csv"), "--m", str(p["m"]),
            "--select", "vote", "--k", str(p["k"]), "--workers", str(p["workers"]),
            "--seed", str(self.op_seed(op)), "--out-dir", str(self.work / "out"),
        ]

    def units(self):
        return self.p["n"]

    def check(self, op):
        p, out = self.p, self.work / "out"
        k, X = p["k"], self.X[op % OP_SEEDS]
        problems = []
        idx = [int(r[0]) for r in read_rows(out / "indices.csv")[1:]]
        if idx != list(range(k)):
            problems.append(f"indices {idx} != 0..{k - 1}")
        W = np.loadtxt(out / "W.csv", delimiter=",", ndmin=2)
        if W.shape != (X.shape[0], len(idx)):
            return problems + [f"W shape {W.shape}"]
        if not (W >= 0).all():
            problems.append(f"W has {int((W < 0).sum())} negative entries")
        H = X[idx]
        # KKT certificate max |min(W, (W H - X) H^T)|, computed here rather
        # than by the package so that a change to its solver cannot hide.
        kkt = float(np.abs(np.minimum(W, (W @ H - X) @ H.T)).max())
        if not kkt <= 1e-8:
            problems.append(f"kkt {kkt:.3g} > 1e-8")
        _, summary = read_rows(out / "summary.csv")
        if not float(summary[0]) <= 1e-6:
            problems.append(f"relative residual {summary[0]} > 1e-6")
        if int(summary[1]) != 2:
            problems.append(f"passes {summary[1]} != 2")
        sent = [int(r[2]) for r in read_rows(out / "trace.csv")[1:]]
        if sent != [p["m"] * 32] * p["workers"]:
            problems.append(f"bytes_sent {sent} != {p['m'] * 32} per worker")
        return problems

    def extra_layers(self):
        # Partition overhead: the same pursuit on `workers` partitions minus
        # one partition, median of alternating pairs.
        X, cfg = self.X[0], PursuitConfig(m=self.p["m"], seed=self.op_seed(0))
        diffs = []
        for _ in range(3):
            t = []
            for d in (1, self.p["workers"]):
                t0 = time.perf_counter()
                run_distributed(X, Partition.contiguous(X.shape[0], d), cfg)
                t.append(time.perf_counter() - t0)
            diffs.append(t[1] - t[0])
        return {"distributed.partition_overhead_s": statistics.median(diffs)}


class GlassoNoiseCell(Workload):
    name = "glasso-noise-cell"
    unit = "trials"
    layers = _COMMON + _PURSUIT + (
        "matrix_io.self_s", "matrix_io.gen_s", "extreme_points.pursue_s",
        "extreme_points.tally_s", "nnls.self_s", "nnls.nnls_fit_s", "nnls.iterations",
        "nnls.kkt", "nnls.converged_ratio", "glasso.self_s", "glasso.solve_path_s",
        "glasso.candidates", "glasso.lambdas", "glasso.selected_ratio",
        "experiments.self_s", "experiments.cpu_per_wall",
    )

    def argv(self, op):
        p = self.p
        return [
            "glasso-noise", "--k", str(p["k"]), "--p", str(p["p"]),
            "--multipliers", str(p["multiplier"]), "--eps-min", str(p["eps"]),
            "--eps-max", str(p["eps"]), "--eps-count", "1", "--trials", str(p["trials"]),
            "--grid-points", str(p["grid_points"]), "--select-k", str(p["select_k"]),
            "--seed", str(self.op_seed(op)),
            "--out", str(self.work / "noise.csv"),
        ]

    def units(self):
        return self.p["trials"]

    def result(self, op):
        header, row = read_rows(self.work / "noise.csv")
        return int(row[1]), float(row[3])

    def check(self, op):
        m, residual = self.result(op)
        problems = []
        if m != m_for(self.p["k"], self.p["multiplier"]):
            problems.append(f"m={m}")
        if not (math.isfinite(residual) and residual > 0):
            return problems + [f"residual {residual}"]
        # Stored reference at the default seed; otherwise the first result of
        # the same CLI seed in this run, which the contract makes repeat.
        if self.reference:
            want = self.reference[op % OP_SEEDS]
        else:
            want = self.seen.setdefault(self.op_seed(op), residual)
        if abs(residual - want) > 1e-9 * abs(want):
            problems.append(f"residual {residual!r} != reference {want!r}")
        return problems


class Diagnose(Workload):
    name = "diagnose"
    unit = "samples"
    layers = _COMMON + (
        "rng.self_s", "rng.gaussian_rows_s", "matrix_io.self_s", "matrix_io.load_csv_s",
        "matrix_io.csv_mb_per_s", "geometry.self_s", "geometry.estimate_solid_angles_s",
        "geometry.simplicial_constant_s", "geometry.samples_per_s", "geometry.score_flops",
    )

    base = None

    def prepare(self):
        p = self.p
        self.X = gen_uniform_separable(p["n"], p["p"], p["k"], self.seed).X
        save_csv(self.X, self.work / "X.csv")

    def argv(self, op):
        return [
            "diagnose", "--input", str(self.work / "X.csv"),
            "--archetypes", ",".join(str(i) for i in range(self.p["k"])),
            "--samples", str(self.p["samples"]), "--seed", str(self.op_seed(op)),
            "--out-prefix", str(self.work / "diag"),
        ]

    def units(self):
        return self.p["samples"]

    def result(self, op):
        rows = np.array(read_rows(self.work / "diag_points.csv")[1:], dtype=float)
        return rows[:, 0].astype(int), rows[:, 1], rows[:, 2], rows[:, 3]

    def check(self, op):
        rows, omega, se, alpha = self.result(op)
        problems = []
        if rows.tolist() != list(range(self.p["k"])):
            return [f"rows {rows.tolist()}"]
        if not ((omega >= 0) & (omega <= 0.5)).all():
            problems.append(f"omega outside [0, 0.5]: {omega.tolist()}")
        if not (alpha > 0).all():
            problems.append(f"alpha_hat not positive: {alpha.tolist()}")
        # Against the stored long-run estimate at the default seed, else
        # against this run's first op.  Five combined standard errors keep a
        # legitimate change of sampling stream from failing; the same CLI seed
        # must repeat exactly.
        seed = self.op_seed(op)
        if seed in self.seen and not np.array_equal(self.seen[seed], omega):
            problems.append(f"omega for seed {seed} does not repeat")
        self.seen.setdefault(seed, omega)
        if self.reference:
            ref, ref_se = np.array(self.reference["omega"]), np.array(self.reference["se"])
        else:
            if self.base is None:
                self.base = (omega, se)
            ref, ref_se = self.base
        bad = np.abs(omega - ref) > 5 * np.sqrt(se**2 + ref_se**2)
        if bad.any():
            problems.append(f"omega of rows {np.flatnonzero(bad).tolist()} off the reference")
        return problems


WORKLOADS = {w.name: w for w in (SweepCell, FactorizeTall, GlassoNoiseCell, Diagnose)}


def load_reference(name: str, seed: int, size: str):
    if seed != DEFAULT_SEED or size != "full":
        return None
    with open(REFERENCE, encoding="ascii") as fh:
        return json.load(fh).get(name)


# ---------------------------------------------------------------------------
# Measurement


def execute(wl: Workload, op: int, trace: tracer.Tracer | None = None):
    """Run and check one op.  Returns (seconds, problems)."""
    argv = wl.argv(op)
    t0 = time.perf_counter()
    try:
        if trace is None:
            rc = cli.main(argv)
        else:
            rc = trace.run_op(op, lambda: cli.main(argv))
    except Exception:  # an op that raises is a failed op, not a dead run
        traceback.print_exc()
        rc = "exception"
    seconds = time.perf_counter() - t0
    if rc != 0:
        return seconds, [f"exit status {rc}"]
    try:
        return seconds, wl.check(op)
    except (OSError, ValueError, IndexError) as exc:
        return seconds, [f"unreadable output: {exc}"]


class Run:
    """Op accounting of one benchmark process."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.next_op = 0
        self.attempted = 0
        self.failed = 0

    def op(self, trace=None):
        op = self.next_op
        self.next_op += 1
        seconds, problems = execute(self.wl, op, trace)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"op {op} failed: {'; '.join(problems)}", file=sys.stderr)
            return None
        return seconds

    def phase(self, seconds: float, trace=None, min_ops: int = 1) -> list[float]:
        """Closed loop for `seconds` and at least `min_ops` ops.

        Returns the times of the ops that passed their checks.
        """
        times = []
        end = time.perf_counter() + seconds
        done = 0
        while True:
            t = self.op(trace)
            done += 1
            if t is not None:
                times.append(t)
            if done >= min_ops and time.perf_counter() >= end:
                return times


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that, the maximum and 100.
    """
    s = sorted(times)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment(threads: dict[str, str]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        src.update(f.relative_to(ROOT).as_posix().encode())
        src.update(f.read_bytes())
    return {
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": threads,
        "cpu": _cpu_model(),
        "cpus": os.cpu_count(),
        "caches": _caches(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            out[f"L{level}-{kind}"] = (d / "size").read_text().strip()
        except OSError:
            continue
    return out


def run(name: str, seed: int, seconds: float, trace: bool, t_start: float,
        threads: dict[str, str], size: str = "full") -> dict:
    """One benchmark run of one workload.  Returns the result record."""
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-seed{seed}-", dir=base))
    try:
        wl = WORKLOADS[name](PARAMS[size][name], seed, work, load_reference(name, seed, size))
        r = Run(wl)
        import_s = time.perf_counter() - t_start
        # Set-up: inputs written and one warm-up op, repeated; the median
        # repeat plus the one-off import time is setup_s.
        repeats = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.prepare()
            r.op()
            repeats.append(time.perf_counter() - t0)
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "size": size, "environment": environment(threads), "work_unit": wl.unit,
        }
        if trace:
            metrics = _per_layer(r, seconds, record, size)
            units = tracer.PER_LAYER
        else:
            metrics = _end_to_end(r, seconds, record)
            metrics["setup_s"] = import_s + statistics.median(repeats)
            units = END_TO_END
        record.update(
            attempted=r.attempted,
            failed=r.failed,
            error_ratio=r.failed / r.attempted,
            missing=[m for m in units if m not in metrics] if trace else [],
            metrics={m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        )
        with open(base / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w",
                  encoding="ascii") as fh:
            json.dump(record, fh, indent=1)
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _end_to_end(r: Run, seconds: float, record: dict) -> dict[str, float]:
    times = r.phase(seconds)
    ok = times or [math.nan]
    value, pct = tail(ok)
    record["tail"] = {"percentile": pct, "samples": len(times), "beyond": TAIL_BEYOND}
    record["op_times_s"] = times
    return {
        "op_p50_s": statistics.median(ok),
        "op_tail_s": value,
        "throughput_per_s": r.wl.units() * len(times) / sum(ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _traced(r: Run, seconds: float, min_ops: int = 1) -> tuple[tracer.Tracer, list[float]]:
    tr = tracer.Tracer()
    tr.install()
    try:
        times = r.phase(seconds, tr, min_ops)
    finally:
        tr.uninstall()
    return tr, times


def _layer_medians(tr: tracer.Tracer) -> tuple[dict[str, float], list[float]]:
    """Per-layer metrics as medians over the traced ops, and per op the module
    self times over the op time, which is 1 when they account for all of it."""
    per_op, ratios = [], []
    for spans in tr.ops().values():
        layer = tracer.op_layer_metrics(spans)
        per_op.append(layer)
        root = next(s for s in spans if s.name == tracer.ROOT)
        own = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        ratios.append(own / (root.end - root.start))
    metrics = {}
    for m in tracer.PER_LAYER:
        values = [d[m] for d in per_op if m in d]
        if values:
            metrics[m] = statistics.median(values)
    return metrics, ratios


def home_workloads(name: str) -> dict[str, list[str]]:
    """Per-layer metrics that workload `name` does not run, by home workload:
    the first other workload, in WORKLOADS order, that runs the layer."""
    homes: dict[str, list[str]] = {}
    for m in tracer.PER_LAYER:
        if m not in WORKLOADS[name].layers:
            home = next(w for w, cls in WORKLOADS.items() if w != name and m in cls.layers)
            homes.setdefault(home, []).append(m)
    return homes


def _per_layer(r: Run, seconds: float, record: dict, size: str) -> dict[str, float]:
    """Untraced ops for half the time, traced ops for the other half.

    Every per-layer metric is reported: the layers this workload does not run
    are then measured on FILL_OPS traced ops of their home workload, with the
    same seed and thread settings.
    """
    untraced = r.phase(seconds / 2) or [math.nan]
    tr, traced = _traced(r, seconds / 2)
    metrics, ratios = _layer_medians(tr)
    metrics.update(r.wl.extra_layers())
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced or [math.nan]) / statistics.median(untraced) - 1
    )
    filled_spans, record["filled_from"] = {}, {}
    for home, names in home_workloads(r.wl.name).items():
        work = r.wl.work / f"fill-{home}"
        work.mkdir()
        seed = r.wl.seed
        wl = WORKLOADS[home](PARAMS[size][home], seed, work, load_reference(home, seed, size))
        fill = Run(wl)
        wl.prepare()
        fill.op()  # warm-up
        ftr, _ = _traced(fill, 0.0, FILL_OPS)
        found, more = _layer_medians(ftr)
        found.update(wl.extra_layers())
        ratios += more
        filled_spans[home] = ftr.to_json()
        for m in names:
            if m in found:
                metrics[m] = found[m]
                record["filled_from"][m] = home
        r.attempted += fill.attempted
        r.failed += fill.failed
    record["accounting"] = {
        "ops": len(ratios),
        "min_ratio": min(ratios, default=math.nan),
        "max_ratio": max(ratios, default=math.nan),
    }
    trace_file = ROOT / ".perfbench" / f"trace-{r.wl.name}-seed{r.wl.seed}.json"
    with open(trace_file, "w", encoding="ascii") as fh:
        json.dump({"workload": r.wl.name, "seed": r.wl.seed, "spans": tr.to_json(),
                   "filled": filled_spans}, fh)
    record["trace_file"] = str(trace_file.relative_to(ROOT))
    return metrics
