"""Simulated distributed pursuit: row-partitioned workers, shared-seed functionals.

Workers are simulated in-process with an explicit message layer so the
communication structure can be asserted in tests.  Each worker regenerates the
same functional columns from the shared seed (counter-based streams), scores
only its local rows and sends per-functional (max value, global index) and
(min value, global index) pairs; the central merge keeps the highest max and
the lowest min, breaking value ties toward the lowest global row index.
Pursuit runs on the one driver of ``extreme_points`` (``_pursue_shards``) with
one row shard per worker; serial pursuit is its one-shard case.  Every sent
value is a per-row score, independent of how the rows are partitioned, so the
distributed result equals the serial one exactly, votes included.  This
module adds partition validation and the pass, byte and re-score accounting
of ``ExecutionTrace``.

Pursuit takes one pass over the data per round: one for a fixed budget of
functionals, r for an adaptive run of r rounds.  The NNLS weight fit takes
one more; the simulation solves all its rows at once, so W depends on X
and H alone (see ``distributed_weights``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .extreme_points import (
    ExtremeSet,
    PursuitConfig,
    _prepared_rows,
    _pursue_shards,
)
from .matrix_io import _checked_indices, require_matrix
from .nnls import NnlsSolution, nnls_fit

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


def _local_rows(X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A worker's rows of X: a view when its sorted rows form one range (as in
    every ``Partition.contiguous``), else a copy."""
    if rows.size and rows[-1] - rows[0] == rows.size - 1:
        return X[rows[0] : rows[-1] + 1]
    return X[rows]


def run_distributed(
    X, part: Partition, cfg: PursuitConfig, trace: ExecutionTrace | None = None
) -> ExtremeSet:
    """Distributed pursuit over a row partition; equals pursue(X, cfg) exactly.

    Each worker evaluates the same functionals (regenerated from the shared
    seed) on its local rows only.  Each round of cfg.m functionals is one
    pass over the data, and the merge sees m * 32 bytes per worker per round
    regardless of local row counts.  The round count r is sum(votes) / (2m).
    """
    X = _prepared_rows(X, cfg)
    if part.n_rows != X.shape[0]:
        raise ValueError(
            f"partition covers {part.n_rows} rows but X has {X.shape[0]}"
        )
    rescored = [0] * part.n_workers
    es = _pursue_shards([(_local_rows(X, rows), rows) for rows in part.assignment], cfg, rescored)
    if trace is not None:
        for _ in range(sum(es.votes.values()) // (2 * cfg.m)):
            trace.record_pass(part, cfg.m * BYTES_PER_FUNCTIONAL)
        for d, r in enumerate(rescored):
            trace.rescored_rows[d] = trace.rescored_rows.get(d, 0) + r
    return es


def distributed_weights(
    X,
    part: Partition,
    H_rows,
    tol: float = 1e-8,
    max_iter: int = 5000,
    trace: ExecutionTrace | None = None,
) -> NnlsSolution:
    """Fit the weights W for archetypes H = X[H_rows]: the second pass.

    The simulation solves every row in one ``nnls_fit`` call, so W depends on
    X and H alone: the same bits on any partition.  Returns that call's
    ``NnlsSolution``, whose ``residual`` a caller reads instead of forming
    X - W H again.  The pass records 0 bytes sent, so ``bytes_sent`` stays
    pursuit's alone; the n * k * 8 bytes of X H^T are not counted yet.  A fit
    that ends above ``tol`` on ``nnls_fit``'s scaled problem (it hit
    ``max_iter``) emits one RuntimeWarning with its KKT residual in X's units
    squared and ``max_iter``; W is still returned.  An empty H_rows, or a
    negative, out-of-range or repeated index, raises ValueError.
    """
    X = require_matrix(X, "X")
    H_rows = _checked_indices(H_rows, X.shape[0])
    if not H_rows:
        raise ValueError("H_rows must be nonempty")
    if part.n_rows != X.shape[0]:
        raise ValueError(
            f"partition covers {part.n_rows} rows but X has {X.shape[0]}"
        )
    sol = nnls_fit(X, X[H_rows], tol=tol, max_iter=max_iter)
    if not sol.converged:
        warnings.warn(
            f"NNLS stopped at KKT {sol.kkt:.3g} (X's units squared), above tol={tol:g} on X "
            f"and H scaled to max|H| in [0.5, 1), after max_iter={max_iter} iterations",
            RuntimeWarning,
            stacklevel=2,
        )
    if trace is not None:
        trace.record_pass(part, 0)
    return sol
