"""Simulated distributed pursuit: row-partitioned workers, shared-seed functionals.

Workers are simulated in-process with an explicit message layer so the
communication structure can be asserted in tests.  Each worker regenerates the
same functional columns from the shared seed (counter-based streams), scores
only its local rows with the certified-gemm kernel ``block_optima`` (one gemm
per block, then a per-row re-score of the few rows that could win), and
sends per-functional (max value, global index) and (min value, global index)
pairs.  The per-row re-score makes each value independent of how the rows
are partitioned.  The central merge takes the global max of the maxima and
min of the minima, breaking value ties toward the lowest global row index —
the same rule the serial path uses — so the distributed result equals the
serial result exactly, votes included.

The whole factorization touches the data twice: one pass for pursuit, one
pass for the NNLS weight fit (which decomposes over rows, so each worker
fits its local rows independently).  A worker whose fit stops short of the
KKT tolerance emits a RuntimeWarning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _rng
from .extreme_points import (
    _FUNCTIONAL_BLOCK,
    ExtremeSet,
    PursuitConfig,
    _extreme_set_from_counts,
    _prepared_rows,
    block_optima,
)
from .matrix_io import require_matrix
from .nnls import nnls_fit

# Per functional, a worker sends one (value, index) pair for the max and one
# for the min: 2 float64 + 2 int64.
BYTES_PER_FUNCTIONAL = 2 * 8 + 2 * 8


@dataclass(frozen=True)
class Partition:
    """Assignment of global row indices to D workers (disjoint cover of [0, n))."""

    n_rows: int
    assignment: tuple[np.ndarray, ...]

    def __post_init__(self):
        seen = np.zeros(self.n_rows, dtype=bool)
        blocks = []
        for rows in self.assignment:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.size and (rows.min() < 0 or rows.max() >= self.n_rows):
                raise ValueError("partition indices out of range")
            if seen[rows].any():
                raise ValueError("partition blocks overlap")
            seen[rows] = True
            # Sorted blocks make the worker-local argmax honor the global
            # lowest-index tie-break.
            blocks.append(np.sort(rows))
        if not seen.all():
            raise ValueError("partition does not cover all rows")
        object.__setattr__(self, "assignment", tuple(blocks))

    @property
    def n_workers(self) -> int:
        return len(self.assignment)

    @classmethod
    def contiguous(cls, n_rows: int, n_workers: int) -> "Partition":
        """Split [0, n) into n_workers contiguous blocks of near-equal size."""
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        bounds = np.linspace(0, n_rows, n_workers + 1).astype(np.int64)
        blocks = tuple(np.arange(bounds[d], bounds[d + 1]) for d in range(n_workers))
        return cls(n_rows=n_rows, assignment=blocks)


@dataclass(frozen=True)
class WorkerSummary:
    """Per-functional local optima of one worker, with global row indices.

    Empty workers report +-inf values and index -1; the merge ignores them.
    ``rescored_rows`` counts the local rows scored on the per-row path, summed
    over blocks; it stays local and is not part of the message.
    """

    worker: int
    max_values: np.ndarray
    max_indices: np.ndarray
    min_values: np.ndarray
    min_indices: np.ndarray
    rescored_rows: int = 0


@dataclass
class ExecutionTrace:
    """Pass and communication accounting for a distributed run.

    ``rescored_rows`` counts, per worker, the rows that pursuit re-scored on
    the per-row path, summed over functional blocks.
    """

    passes: int = 0
    rows_touched: dict[int, int] = field(default_factory=dict)
    bytes_sent: dict[int, int] = field(default_factory=dict)
    rescored_rows: dict[int, int] = field(default_factory=dict)

    def record_pass(self, part: Partition, bytes_per_worker: int) -> None:
        self.passes += 1
        for d, rows in enumerate(part.assignment):
            self.rows_touched[d] = self.rows_touched.get(d, 0) + int(rows.size)
            self.bytes_sent[d] = self.bytes_sent.get(d, 0) + bytes_per_worker


def count_passes(trace: ExecutionTrace) -> int:
    """Number of full sweeps over the locally stored data rows."""
    return trace.passes


def _worker_summary(
    d: int, X_local: np.ndarray, rows: np.ndarray, seed: int, m: int, p: int
) -> WorkerSummary:
    max_v = np.full(m, -np.inf)
    max_i = np.full(m, -1, dtype=np.int64)
    min_v = np.full(m, np.inf)
    min_i = np.full(m, -1, dtype=np.int64)
    if rows.size == 0:
        return WorkerSummary(d, max_v, max_i, min_v, min_i)
    rescored = 0
    done = 0
    while done < m:
        b = min(_FUNCTIONAL_BLOCK, m - done)
        best = block_optima(X_local, _rng.functionals(seed, done, b, p))
        max_v[done : done + b] = best.max_val
        max_i[done : done + b] = rows[best.max_idx]
        min_v[done : done + b] = best.min_val
        min_i[done : done + b] = rows[best.min_idx]
        rescored += best.rescored
        done += b
    return WorkerSummary(d, max_v, max_i, min_v, min_i, rescored)


def _merge_summaries(summaries: list[WorkerSummary], n: int, m: int) -> np.ndarray:
    """Reduce worker summaries into the global vote counts.

    Per functional: the winner is the highest max value (lowest global index
    on exact ties), and symmetrically the lowest min value.
    """
    V_max = np.stack([s.max_values for s in summaries])
    I_max = np.stack([s.max_indices for s in summaries])
    V_min = np.stack([s.min_values for s in summaries])
    I_min = np.stack([s.min_indices for s in summaries])

    counts = np.zeros(n, dtype=np.int64)
    best = V_max.max(axis=0)
    tied = V_max == best[None, :]
    idx = np.where(tied, I_max, np.iinfo(np.int64).max)
    np.add.at(counts, idx.min(axis=0), 1)

    worst = V_min.min(axis=0)
    tied = V_min == worst[None, :]
    idx = np.where(tied, I_min, np.iinfo(np.int64).max)
    np.add.at(counts, idx.min(axis=0), 1)
    return counts


def run_distributed(
    X, part: Partition, cfg: PursuitConfig, trace: ExecutionTrace | None = None
) -> ExtremeSet:
    """Distributed pursuit over a row partition; equals pursue(X, cfg) exactly.

    Each worker evaluates the same cfg.m functionals (regenerated from the
    shared seed) on its local rows only.  One pass over the data; the merge
    sees m * 32 bytes per worker regardless of local row counts.
    """
    X = _prepared_rows(X, cfg)
    if part.n_rows != X.shape[0]:
        raise ValueError(
            f"partition covers {part.n_rows} rows but X has {X.shape[0]}"
        )
    n, p = X.shape
    summaries = [
        _worker_summary(d, X[rows], rows, cfg.seed, cfg.m, p)
        for d, rows in enumerate(part.assignment)
    ]
    if trace is not None:
        trace.record_pass(part, cfg.m * BYTES_PER_FUNCTIONAL)
        for s in summaries:
            trace.rescored_rows[s.worker] = (
                trace.rescored_rows.get(s.worker, 0) + s.rescored_rows
            )
    counts = _merge_summaries(summaries, n, cfg.m)
    return _extreme_set_from_counts(counts)


def distributed_weights(
    X,
    part: Partition,
    H_rows,
    tol: float = 1e-8,
    max_iter: int = 5000,
    trace: ExecutionTrace | None = None,
) -> np.ndarray:
    """Fit the weights W for archetypes H = X[H_rows], one NNLS per worker.

    The NNLS objective is separable across the rows of W, so each worker
    solves its local rows against the shared k x p archetype block; the
    concatenated result matches the serial fit row for row.  Counts as the
    second pass over the data.  A worker whose fit ends above the KKT
    tolerance ``tol`` (it hit ``max_iter``) emits a RuntimeWarning naming the
    worker, its KKT residual and ``max_iter``; W is still returned.
    """
    X = require_matrix(X, "X")
    H_rows = np.asarray(H_rows, dtype=np.int64)
    if H_rows.size == 0:
        raise ValueError("H_rows must be nonempty")
    if part.n_rows != X.shape[0]:
        raise ValueError(
            f"partition covers {part.n_rows} rows but X has {X.shape[0]}"
        )
    H = X[H_rows]
    W = np.zeros((X.shape[0], H_rows.size))
    for d, rows in enumerate(part.assignment):
        if rows.size == 0:
            continue
        try:
            sol = nnls_fit(X[rows], H, tol=tol, max_iter=max_iter)
        except ValueError as exc:
            raise ValueError(f"worker {d}: {exc}") from exc
        if not sol.converged:
            warnings.warn(
                f"worker {d}: NNLS stopped at KKT {sol.kkt:.3g} > tol={tol:g} "
                f"after max_iter={max_iter} iterations",
                RuntimeWarning,
                stacklevel=2,
            )
        W[rows] = sol.W
    if trace is not None:
        trace.record_pass(part, 0)
    return W
