"""Randomized extreme-point identification by random linear functionals.

Each standard-normal direction g is maximized and minimized over the rows of
X; both optima are extreme points of the convex hull of the rows.  Repeating
with m independent directions finds every extreme point with probability
at least 1 - k * (1 - 2*min_i omega_i)^m, where omega_i is the solid angle of
the normal cone at extreme point i.

Scoring a block of functionals is one gemm, ``X @ G``.  A gemm may round a
row's score differently depending on the block shape, so its winners are
certified: a per-column rounding-error bound keeps as candidates only the
rows that could still be the exact per-row winner, and those few rows are
re-scored with the partition-independent per-row path (``linear_scores``).
Winners and tie-breaks therefore equal those of per-row scoring of the whole
block bit for bit (see ``_merge_optima``).

One kernel, ``_merge_optima``, scores a block of directions on row tiles
and merges the tiles' optima, as a cluster merges its workers'.  Pursuit
(``_pursue_shards``: rounds of m functionals, one round for a fixed budget
or until ``patience`` rounds in a row find nothing new, each block tallied
by ``_tally_block``) and the Monte Carlo solid angles of ``geometry`` both
run on it.  ``pursue`` is the one-shard case and
``distributed.run_distributed`` gives one shard per worker, so they agree by
construction, votes included.

Blocks are sized by bytes, not by count: a round of m functionals is split
into the fewest blocks of equal width whose draws (p x width float64) fit
``_BLOCK_BYTES`` = 2 MiB, from 64 to 512 functionals wide (64 above
p = 4,096).  The rule depends on p and m alone, so every partition scores
the same blocks.  Each shard is cut once per run into row tiles whose scores
at that width fit ``_TILE_BYTES``, so working memory does not grow with n.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _rng
from .matrix_io import _scale_exponent, require_matrix

# The kernel's budgets: a block holds at most _BLOCK_BYTES of draws, but no
# fewer than _MIN_BLOCK and no more than _MAX_BLOCK directions, as narrower
# blocks cost 1.5-7x more per score in the column reductions (see
# ``_block_width``); a row tile holds at most _TILE_BYTES of scores at the
# block width, but at least one row (see ``_tiles``).
_BLOCK_BYTES = 2**21
_MIN_BLOCK = 64
_MAX_BLOCK = 512
_TILE_BYTES = 2**24

# Unit roundoff of float64, its smallest subnormal (one rounding in the
# subnormal range errs by at most half of it), and the score magnitude from
# which a block is scored on the per-row path alone.
_U = 2.0**-53
_TINY = 2.0**-1074
_SCORE_LIMIT = 2.0**1022

# Largest exponent of max|X| (``matrix_io._scale_exponent``) that pursuit
# scores unscaled; see ``_prepared_rows``.
_MAX_EXPONENT = 960


@dataclass(frozen=True)
class PursuitConfig:
    """Configuration for pursuit runs.

    m: number of random functionals per round.
    seed: stream seed; identical seeds give identical functionals everywhere.
    patience: None runs one round (the fixed-m algorithm).  An integer runs
        the adaptive algorithm: rounds of m functionals until ``patience``
        consecutive rounds add no index not already seen.
    normalize_rows: scale each row to unit l2 norm before pursuit.  Changes
        which rows are extreme; off by default.
    """

    m: int
    seed: int = 0
    patience: int | None = None
    normalize_rows: bool = False

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.patience is not None and self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")


@dataclass(frozen=True)
class ExtremeSet:
    """Indices found by pursuit with per-index vote counts.

    ``votes[i]`` counts the functionals at which row i attained the max or the
    min; the counts over all indices sum to exactly 2 * rounds * m.
    """

    indices: tuple[int, ...]
    votes: dict[int, int]

    def __post_init__(self):
        if tuple(sorted(set(self.indices))) != self.indices:
            raise ValueError("indices must be sorted and distinct")
        if set(self.votes) != set(self.indices):
            raise ValueError("votes keys must match indices")


def _extreme_set_from_counts(counts: np.ndarray) -> ExtremeSet:
    idx = np.flatnonzero(counts)
    return ExtremeSet(
        indices=tuple(int(i) for i in idx),
        votes={int(i): int(counts[i]) for i in idx},
    )


def linear_scores(rows: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Evaluate the functionals (columns of G) at each row: returns rows @ G.

    Computed as a stack of per-row products so every row's scores are bitwise
    identical no matter which other rows are passed with it; a plain gemm
    re-blocks by shape and may differ in the last ulp between a slice and the
    full matrix.  This is the exact reference that ``_merge_optima``
    reproduces and the path it re-scores its candidate rows on.
    """
    return np.matmul(rows[:, None, :], G)[:, 0, :]


def _row_bound(X: np.ndarray) -> float:
    """sqrt(max_i |x_i|^2 + 2p*eta), computed: the rho of ``_candidate_rows``."""
    return math.sqrt(float(np.einsum("ij,ij->i", X, X).max()) + X.shape[1] * _TINY)


def _candidate_rows(X: np.ndarray, G: np.ndarray, rho: float) -> np.ndarray | None:
    """Rows that may attain a column's per-row max or min, from one gemm.

    Returns None when the block must be scored on the per-row path alone.

    Why the test is sound.  Let u = 2^-53, eta = 2^-1075 (half the smallest
    subnormal, so not itself a float64) and
    gamma_n = n*u / (1 - n*u).  Any float64 inner product of length p, in
    any summation order and with or without FMA, obeys (Higham, Accuracy and
    Stability of Numerical Algorithms, 2.2 and 3.1, with the underflow model)

        |fl(x.g) - x.g| <= gamma_p * sum_k |x_k g_k| + 2p*eta
                        <= gamma_p * |x| |g| + 2p*eta,

    the eta term covering products that underflow (subnormal sums are exact).
    The gemm score S_ij and the per-row score R_ij both obey it, so
    |S_ij - R_ij| <= e_j = 2*gamma_p*rho*|g_j| + 4p*eta with rho = max_i |x_i|.
    If row w wins column j on the per-row path, then for every row i

        S_wj >= R_wj - e_j >= R_ij - e_j >= S_ij - 2*e_j,

    so w, and every row tied with it, has S_wj >= max_i S_ij - 2*e_j.  The
    min side is the mirror image.

    The margin is evaluated in floating point from computed squared norms
    q, which obey q >= (1 - gamma_p)|x|^2 - 2p*eta; hence sqrt(q + 2p*eta)
    bounds |x| to within a factor (1 - gamma_p)^(1/2).  Taking each square
    root on its own keeps both factors in the normal range even when X or G
    is tiny.  The margin is

        4 * gamma_{2p+16} * sqrt(q_X + 2p*eta) * sqrt(q_j + 2p*eta) + 16p*eta.

    Since gamma_{2p+16} >= 2*gamma_p + 16u, its excess over the 4*gamma_p
    of 2*e_j covers, for any p below 2^48, the factor 1/(1 - gamma_p), the
    relative error of the ten roundings made evaluating the margin, and the
    rounding of max - margin (at most u * (|max| + margin), below
    2u * rho * |g_j|).  The excess of 16p*eta over the 8p*eta of 2*e_j covers
    the absolute error, at most eta each, of those roundings in the
    subnormal range.

    Overflow.  If the computed rho*|g_j| is below 2^1022, every score on
    either path stays below 2^1023 in magnitude.  Otherwise, or if any gemm
    score is non-finite, the whole block is scored per row, which keeps the
    result unchanged near overflow.

    ``rho`` is ``_row_bound(X)``, sqrt(q_X + 2p*eta); it depends on X alone,
    so ``_tiles`` takes it once per row tile rather than once per block.
    """
    p = X.shape[1]
    S = X @ G
    top = S.max(axis=0)
    bottom = S.min(axis=0)
    if not (np.isfinite(top).all() and np.isfinite(bottom).all()):
        return None
    g_norms = np.sqrt(np.einsum("ij,ij->j", G, G) + p * _TINY)  # + 2p*eta
    if rho * g_norms.max() >= _SCORE_LIMIT:
        return None
    nu = (2 * p + 16) * _U
    gamma = nu / (1.0 - nu)
    margin = (4.0 * gamma * rho) * g_norms + 8.0 * p * _TINY  # + 16p*eta
    candidate = (S >= top - margin) | (S <= bottom + margin)
    return np.flatnonzero(candidate.any(axis=1))


def _tiles(shards, width: int) -> list:
    """One (d, rows of X, their sorted global indices, ``_row_bound`` of the
    rows) tuple per row tile of each shard d, an empty shard having none.

    ``shards`` holds one (local rows of X, their sorted global indices) pair
    per worker.  A tile holds the most rows whose scores at ``width`` fit
    _TILE_BYTES, and at least one.
    """
    step = max(1, _TILE_BYTES // (8 * width))
    return [
        (d, X[i : i + step], rows[i : i + step], _row_bound(X[i : i + step]))
        for d, (X, rows) in enumerate(shards)
        for i in range(0, rows.size, step)
    ]


def _merge_optima(tiles, G: np.ndarray, rescored) -> np.ndarray:
    """Global argmax (row 0) and argmin (row 1) of every column of G over the
    row tiles of ``_tiles``, equal to those of ``linear_scores`` on all rows.

    Each tile's optima come from one gemm plus a per-row re-score of its
    candidate rows (see ``_candidate_rows``).  The merge keeps per column the
    highest max and the lowest min, the lowest global row index on exact
    ties.  Every value is a per-row score, so the result does not depend on
    how the rows are cut into shards or tiles.  ``rescored[d]`` accumulates
    the rows that the tiles of shard d re-scored per row.
    """
    best = winners = None
    for d, X, rows, rho in tiles:
        cand = _candidate_rows(X, G, rho)
        if cand is None or cand.size == X.shape[0]:
            cand, R = np.arange(X.shape[0]), linear_scores(X, G)
        else:
            R = linear_scores(X[cand], G)
        rescored[d] += cand.size
        # Every row that could win a column is in ``cand``, and every score
        # in R is exact, so a plain argmax over R finds each column's winner:
        # rows kept only for other columns score no higher.  ``cand`` is
        # sorted, so the first one is the lowest index.  The min side is the
        # max of the negated scores; negation is exact.
        local = np.stack([R.argmax(axis=0), R.argmin(axis=0)])
        val = np.take_along_axis(R, local, axis=0)
        val[1] = -val[1]
        win = rows[cand[local]]
        if best is not None:
            keep = (best > val) | ((best == val) & (winners < win))
            val, win = np.where(keep, best, val), np.where(keep, winners, win)
        best, winners = val, win
    return winners


def _prepared_rows(X, cfg: PursuitConfig) -> np.ndarray:
    """X validated, scaled away from overflow, and row-normalized if asked.

    Scores cannot overflow once max|X| < 2^960: every finite functional
    entry has |g| <= -ndtri(2^-54) < 8.3, so for p < 2^48 any float64
    evaluation of x.g stays below (1 + gamma_p) * p * 2^960 * 8.3 < 2^1012.
    Larger X is scaled by the power of two that brings max|X| below 2^960;
    away from underflow that is exact and scales every score alike, so ties
    at +-inf give way to the true winners.  Smaller X is not touched, and
    its results stay bitwise unchanged.  On a cluster the scale needs one
    scalar max-reduce of max|X| over the workers at partition setup.
    """
    X = require_matrix(X, name="X")
    if min(X.shape) < 1:
        raise ValueError(f"X must have at least one {'column' if X.shape[0] else 'row'}")
    exponent = _scale_exponent(X)
    if exponent > _MAX_EXPONENT:
        X = np.ldexp(X, _MAX_EXPONENT - exponent)
    if cfg.normalize_rows:
        # A row whose squared norm over- or underflows is first scaled by a
        # power of two, which leaves its unit row as it is.
        sq = np.einsum("ij,ij->i", X, X)
        off = ~((sq >= np.finfo(np.float64).tiny) & (sq < np.inf))
        if off.any():
            X = np.ldexp(X, np.where(off, -_scale_exponent(X, axis=1), 0)[:, None])
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0  # zero rows stay put
        X = X / norms
    return X


def _tally_block(tiles, seed: int, first: int, count: int, counts: np.ndarray, rescored):
    """Score functionals [first, first+count) on the row tiles and add the votes."""
    G = _rng.functionals(seed, first, count, tiles[0][1].shape[1])
    np.add.at(counts, _merge_optima(tiles, G, rescored).ravel(), 1)


def _block_width(p: int, m: int) -> int:
    """Width of the blocks that a round of m functionals in R^p is split into.

    The fewest blocks of equal width (the last one may be shorter) whose
    draws fit _BLOCK_BYTES, or _MIN_BLOCK functionals when p > 4,096, and
    none wider than _MAX_BLOCK.
    """
    cap = max(_MIN_BLOCK, min(_MAX_BLOCK, _BLOCK_BYTES // (8 * p)))
    return -(-m // -(-m // cap))


def _pursue_shards(shards, cfg: PursuitConfig, rescored) -> ExtremeSet:
    """Rounds of cfg.m functionals over the row shards, as cfg.patience asks.

    ``shards`` holds one (local rows of X, their sorted global indices) pair
    per worker, cut once into row tiles (``_tiles``).  Round r scores
    functionals [r*m, (r+1)*m) with ``_tally_block``, in blocks of
    ``_block_width(p, m)``, which never depends on the partition.  Votes from
    every round, the stopping rounds included, are tallied, so a run of r
    rounds equals one round of r*m functionals and r is sum(votes) / (2m).
    """
    counts = np.zeros(sum(rows.size for _, rows in shards), dtype=np.int64)
    width = _block_width(shards[0][0].shape[1], cfg.m)
    tiles = _tiles(shards, width)
    first, idle = 0, 0
    while True:
        before = np.count_nonzero(counts)
        for start in range(first, first + cfg.m, width):
            count = min(width, first + cfg.m - start)
            _tally_block(tiles, cfg.seed, start, count, counts, rescored)
        first += cfg.m
        if cfg.patience is None:
            break
        idle = idle + 1 if np.count_nonzero(counts) == before else 0
        if idle == cfg.patience:
            break
    return _extreme_set_from_counts(counts)


def pursue(X, cfg: PursuitConfig) -> ExtremeSet:
    """Find extreme points of the row cloud with rounds of cfg.m random functionals.

    For each functional g_j, the rows attaining max_i x_i.g_j and
    min_i x_i.g_j are recorded (ties broken toward the lowest row index).
    Every returned index is an extreme point of the convex hull of the rows.
    Exact duplicates score bitwise alike, so a duplicate of an extreme row
    leaves its votes to its first copy.  With cfg.patience set, rounds
    continue until that many in a row find nothing new.  This is the
    one-worker case of ``run_distributed``.
    """
    X = _prepared_rows(X, cfg)
    return _pursue_shards([(X, np.arange(X.shape[0]))], cfg, [0])


def posterior_missed_mass(batch: int, alpha: float) -> float:
    """Upper confidence bound on the total solid angle of missed extreme points.

    After a stopping round of ``batch`` consecutive failures to find anything
    new, the total normal-cone mass of whatever was missed is at most
    log(1/alpha) / (2 * batch) with probability 1 - alpha.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return math.log(1.0 / alpha) / (2.0 * batch)


def select_top_voted(es: ExtremeSet, k: int) -> list[int]:
    """The k indices with the highest vote counts (ties toward lower index).

    If fewer than k indices were found, returns all of them and emits a
    RuntimeWarning.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranked = sorted(es.votes.items(), key=lambda kv: (-kv[1], kv[0]))
    if len(ranked) < k:
        warnings.warn(
            f"only {len(ranked)} indices available, fewer than requested k={k}",
            RuntimeWarning,
            stacklevel=2,
        )
    return [i for i, _ in ranked[:k]]
