"""Simulation harnesses behind the CLI subcommands.

Everything here is deterministic given the run seed: each trial derives its
own instance and pursuit seeds from (seed, trial index), so results do not
depend on execution order or thread count.  The ARCHPURSUIT_THREADS
environment variable caps trial-level parallelism.

Trial threads run instance generation and pursuit in parallel: both spend
their time in large numpy calls that release the GIL.  The selection and
NNLS solvers of a noise trial are Python loops of small numpy calls, and two
of them in parallel pass the GIL back and forth on every call, so a noise cell
runs that phase one trial at a time under a lock (see ``noise_cell``).  The
lock has no other job: selection runs a selector only when it has more found
rows than it keeps, so nothing here warns or touches the warnings filters.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import _rng
from .distributed import ExecutionTrace, Partition, distributed_weights, run_distributed
from .extreme_points import PursuitConfig, pursue, select_top_voted
from .glasso import (
    GroupLassoProblem,
    default_lambda_grid,
    lambda_max,
    select_by_persistence,
    solve_path,
)
from .matrix_io import _checked_indices, _scale_exponent, gen_hilbert_separable
from .matrix_io import gen_noisy_pairs, gen_uniform_separable, require_matrix
from .nnls import nnls_fit

GENERATORS = {
    "uniform": gen_uniform_separable,
    "hilbert": gen_hilbert_separable,
}


def max_threads() -> int:
    """Trial-level parallelism: 2 threads, capped by ARCHPURSUIT_THREADS.

    The threads run each trial's instance generation and pursuit in
    parallel; a noise trial's selection and NNLS fit run one at a time.  On a
    2-core machine with one BLAS thread, pursuit of 8 noisy-pairs instances
    (p=1000, k=20) took 0.035-0.055 s on 2 threads against 0.072-0.076 s
    serially, while their glasso paths took 1.27-1.38 s on 2 threads (1.8-1.9
    s of CPU) against 0.81-0.86 s serially.
    """
    cap = os.environ.get("ARCHPURSUIT_THREADS")
    limit = os.cpu_count() or 1
    if cap is not None:
        try:
            limit = max(1, int(cap))
        except ValueError:
            raise ValueError(f"ARCHPURSUIT_THREADS must be an integer, got {cap!r}")
    return max(1, min(2, limit))


def _run_trials(fn, n_trials: int, threads: int):
    """Run fn(trial_index) for each trial, results ordered by index."""
    if threads <= 1 or n_trials <= 1:
        return [fn(t) for t in range(n_trials)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n_trials)))


def _trial_seeds(seed: int, trial: int) -> tuple[int, int]:
    """Instance and pursuit seeds of a trial: children 2t and 2t+1 of seed in
    DOMAIN_TRIALS.  Seeded results depend on this rule."""
    return tuple(_rng.child_seed(seed, _rng.DOMAIN_TRIALS, 2 * trial + j) for j in (0, 1))


# solve_path's (tol, max_iter_per_lambda); tol bounds each penalty's relative
# duality gap.  1e-2 lost true rows at epsilon 0.1 and changed factorize picks.
_NOISE_PATH = (3e-3, 1000)
_FACTORIZE_PATH = (1e-4, 5000)


def _select(X, es, k, selector, grid_points, tol, max_iter_per_lambda, keep_path):
    """The k rows that ``selector`` keeps of pursuit's finds, sorted, and the
    glasso path (grid_points penalties) or None.

    With no more than k found rows every one is kept and no selector runs;
    the path is then solved only if keep_path asks for it.  It is solved on
    X * 2^-e, e = ``_scale_exponent(X)``, and its lambdas and objectives are
    scaled back by 4^e, so X * 2^s gives the same bits times 4^s there.
    """
    found = list(es.indices)
    path = None
    if selector == "glasso" and (keep_path or len(found) > k):
        e = _scale_exponent(X)
        X = np.ldexp(X, -e) if e else X
        lam_hi = lambda_max(X, X[found])
        # lam_hi is 0 only when every found row is zero, and then there is no
        # path to solve; with no more found rows than k none is needed.
        if lam_hi > 0 or len(found) > k:
            prob = GroupLassoProblem(X, X[found], default_lambda_grid(lam_hi, grid_points))
            path = solve_path(prob, tol, max_iter_per_lambda)
            scaled = ("lambdas", "objectives", "fit_objectives")
            path = replace(path, **{f: np.ldexp(getattr(path, f), 2 * e) for f in scaled})
    if len(found) > k:
        if selector == "vote":
            found = select_top_voted(es, k)
        else:
            found = [found[g] for g in select_by_persistence(path, k)]
    return sorted(found), path


# ---------------------------------------------------------------------------
# Exact-recovery sweep


@dataclass(frozen=True)
class SweepSpec:
    """Grid of (k, multiplier) cells; m = ceil(c * k * ln k) per multiplier c."""

    k_values: tuple[int, ...]
    multipliers: tuple[float, ...]
    trials: int = 100
    n: int = 500
    p: int = 1000
    generator: str = "uniform"
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if any(k < 2 for k in self.k_values):
            raise ValueError("all k values must be >= 2")
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")


@dataclass(frozen=True)
class SweepResult:
    # rows: (k, multiplier, m, trials, recovery_fraction)
    grid: list[tuple[int, float, int, int, float]]
    # rows: (k, log_k_reference, smallest multiplier reaching >= 0.95 or nan)
    isoclines: list[tuple[int, float, float]]


def recovery_fraction(
    generator: str, n: int, p: int, k: int, m: int, trials: int, seed: int
) -> float:
    """Fraction of trials in which pursuit returns exactly the true extreme rows."""
    gen = GENERATORS[generator]
    truth = frozenset(range(k))

    def one(trial: int) -> bool:
        inst_seed, run_seed = _trial_seeds(seed, trial)
        inst = gen(n, p, k, inst_seed)
        es = pursue(inst.X, PursuitConfig(m=m, seed=run_seed))
        return frozenset(es.indices) == truth

    hits = _run_trials(one, trials, max_threads())
    return sum(hits) / trials


def run_sweep(spec: SweepSpec) -> SweepResult:
    grid = []
    isoclines = []
    for ki, k in enumerate(spec.k_values):
        best_c = math.nan
        for ci, c in enumerate(spec.multipliers):
            m = math.ceil(c * k * math.log(k))
            cell_seed = _rng.child_seed(
                spec.seed, _rng.DOMAIN_TRIALS, ki * len(spec.multipliers) + ci
            )
            frac = recovery_fraction(
                spec.generator, spec.n, spec.p, k, m, spec.trials, cell_seed
            )
            grid.append((k, float(c), m, spec.trials, frac))
            if math.isnan(best_c) and frac >= 0.95:
                best_c = float(c)
        isoclines.append((k, math.log(k), best_c))
    return SweepResult(grid=grid, isoclines=isoclines)


# ---------------------------------------------------------------------------
# Noise experiments


def _fit_residual_per_row(X: np.ndarray, rows: list[int]) -> float:
    """||X - W X[rows]||_F / n after an NNLS fit against the selected rows."""
    return nnls_fit(X, X[rows]).residual / X.shape[0]


def noise_cell(
    k: int,
    p: int,
    m: int,
    epsilon: float,
    trials: int,
    seed: int,
    select_k: int,
    selector: str = "vote",
    grid_points: int = 30,
) -> float:
    """Mean pursuit+selection+NNLS residual over fresh noisy-pairs instances.

    ``selector`` "vote" keeps the select_k most-voted rows; "glasso" ranks
    the found rows by persistence on a group-lasso path of ``grid_points``
    penalties.
    """
    if selector not in ("vote", "glasso"):
        raise ValueError(f"unknown selector {selector!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # Selection and the fit run one trial at a time (see the module docstring).
    solver = threading.Lock()

    def one(trial: int) -> float:
        inst_seed, run_seed = _trial_seeds(seed, trial)
        X = gen_noisy_pairs(p, k, epsilon, inst_seed)
        es = pursue(X, PursuitConfig(m=m, seed=run_seed))
        with solver:
            e = _scale_exponent(X)  # the trial owns X: scaled in place, nothing below copies it
            np.ldexp(X, -e, out=X)
            rows, _ = _select(X, es, select_k, selector, grid_points, *_NOISE_PATH, keep_path=False)
            return math.ldexp(_fit_residual_per_row(X, rows), e)

    vals = _run_trials(one, trials, max_threads())
    return float(np.mean(vals))


@dataclass(frozen=True)
class NoiseSpec:
    k: int = 20
    p: int = 1000
    multipliers: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 20.0)
    eps_grid: tuple[float, ...] = field(
        default_factory=lambda: tuple(np.geomspace(1e-4, 1e-1, 10))
    )
    trials: int = 50
    select_k: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def run_noise(spec: NoiseSpec, selector: str = "vote", grid_points: int = 30):
    """Residual grid rows (multiplier, m, epsilon, mean_residual, log10)."""
    rows = []
    cell = 0
    for c in spec.multipliers:
        m = math.ceil(c * spec.k * math.log(spec.k))
        for eps in spec.eps_grid:
            cell_seed = _rng.child_seed(spec.seed, _rng.DOMAIN_TRIALS, cell)
            cell += 1
            r = noise_cell(
                spec.k, spec.p, m, eps, spec.trials, cell_seed, spec.select_k,
                selector, grid_points,
            )
            rows.append((float(c), m, float(eps), r, math.log10(r) if r > 0 else -math.inf))
    return rows


# ---------------------------------------------------------------------------
# Vote scree


def run_scree(X, m: int, repeats: int, seed: int) -> np.ndarray:
    """Sorted vote fractions per repeat: row r = votes of run r, sorted
    descending and normalized by that run's maximum."""
    X = require_matrix(X, "X")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    n = X.shape[0]
    out = np.zeros((repeats, n))
    for r in range(repeats):
        run_seed = _rng.child_seed(seed, _rng.DOMAIN_TRIALS, r)
        es = pursue(X, PursuitConfig(m=m, seed=run_seed))
        votes = np.zeros(n)
        for i, v in es.votes.items():
            votes[i] = v
        votes[::-1].sort()
        out[r] = votes / votes[0]
    return out


# ---------------------------------------------------------------------------
# Nearest-archetype classification


def classify_rows(X, archetype_indices) -> np.ndarray:
    """Label each row with the nearest archetype row (squared l2 distance).

    Ties go to the lowest archetype row index.  X is first scaled exactly by
    2^-e, e = ``_scale_exponent(X)``, and each ||x_i - a_j||^2 is
    summed from the differences, one archetype at a time, so neither a common
    offset nor values near overflow or underflow change a label.
    """
    X = require_matrix(X, "X")
    arch = np.asarray(sorted(_checked_indices(archetype_indices, X.shape[0])), dtype=np.int64)
    if arch.size == 0:
        raise ValueError("archetype_indices must be nonempty")
    X = np.ldexp(X, -_scale_exponent(X))
    best = np.full(X.shape[0], np.inf)
    labels = np.empty(X.shape[0], dtype=np.int64)
    for j in arch:  # ascending, and only a strictly nearer archetype relabels
        D = X - X[j]
        d2 = np.einsum("ij,ij->i", D, D)
        nearer = d2 < best
        best[nearer], labels[nearer] = d2[nearer], j
    return labels


# ---------------------------------------------------------------------------
# End-to-end pipeline


@dataclass(frozen=True)
class FactorizeResult:
    indices: list[int]
    W: np.ndarray
    relative_residual: float
    passes: int
    elapsed_seconds: float
    m_used: int
    trace: ExecutionTrace
    # Populated only for glasso selection: the solved path and the global row
    # index of each candidate group.
    lasso_path: object = None
    candidates: tuple[int, ...] = ()


def factorize(
    X,
    m: int,
    seed: int = 0,
    adaptive: bool = False,
    select: str = "vote",
    k: int | None = None,
    workers: int = 1,
    normalize: bool = False,
) -> FactorizeResult:
    """pursuit -> selection -> NNLS weights, with pass accounting.

    Pursuit runs across `workers` simulated workers.  With adaptive=False it
    uses exactly m functionals; with adaptive=True it runs rounds of m until
    a round finds nothing new, and ``m_used`` is the total over all rounds.
    Each pursuit round and the weight fit are one pass over the data each.
    Selection is by vote count (k=None keeps every found index) or by
    group-lasso persistence (k required).
    """
    if select not in ("vote", "glasso"):
        raise ValueError(f"unknown selector {select!r}")
    if select == "glasso" and k is None:
        raise ValueError("glasso selection requires k")
    X = require_matrix(X, "X")
    t0 = time.perf_counter()
    trace = ExecutionTrace()
    part = Partition.contiguous(X.shape[0], workers)
    cfg = PursuitConfig(m=m, seed=seed, patience=1 if adaptive else None, normalize_rows=normalize)
    es = run_distributed(X, part, cfg, trace)
    kept = len(es.indices) if k is None else k
    chosen, path = _select(X, es, kept, select, 50, *_FACTORIZE_PATH, keep_path=True)
    fit = distributed_weights(X, part, chosen, trace=trace)
    return FactorizeResult(
        indices=chosen,
        W=fit.W,
        relative_residual=fit.relative_residual,
        passes=trace.passes,
        elapsed_seconds=time.perf_counter() - t0,
        m_used=sum(es.votes.values()) // 2,
        trace=trace,
        lasso_path=path,
        candidates=es.indices if select == "glasso" else (),
    )
