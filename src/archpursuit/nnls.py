"""Non-negative least squares for the weights W given archetype rows H.

Solves min_{W >= 0} 0.5 * ||X - W H||_F^2 exactly by block principal
pivoting (Kim & Park 2011), an active-set method of the Lawson-Hanson family,
on the k x k Gram matrix H H^T.  The problem decomposes over the rows of X,
and the solver preserves that: each row carries its own passive set and
pivoting state, and rows that share a passive set are solved together.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .matrix_io import require_matrix


@dataclass(frozen=True)
class NnlsSolution:
    """W >= 0 entrywise; relative_residual = ||X - W H||_F / ||X||_F."""

    W: np.ndarray
    relative_residual: float
    iterations: int
    converged: bool
    kkt: float


def power_iteration(M: np.ndarray, iters: int = 50, tol: float = 1e-10) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    Deterministic start vector (fixed-seed Gaussian) so repeated solves are
    bit-reproducible.
    """
    k = M.shape[0]
    v = np.random.Generator(np.random.Philox(key=0x9E3779B97F4A7C15)).standard_normal(k)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = M @ v
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        new = float(v @ (M @ v))
        if abs(new - lam) <= tol * max(1.0, abs(new)):
            return new
        lam = new
    return lam


def kkt_residual(X, H, W) -> float:
    """Optimality certificate max |min(W, G)| with G = (W H - X) H^T.

    Zero iff W is optimal: the gradient is non-negative where W = 0 and
    vanishes where W > 0.
    """
    X = require_matrix(X, "X")
    H = require_matrix(H, "H")
    W = require_matrix(W, "W")
    if W.shape != (X.shape[0], H.shape[0]) or H.shape[1] != X.shape[1]:
        raise ValueError(
            f"inconsistent shapes: X {X.shape}, H {H.shape}, W {W.shape}"
        )
    G = (W @ H - X) @ H.T
    return float(np.abs(np.minimum(W, G)).max())


def _lawson_hanson(H, v, tol: float, rounds: int):
    """Lawson-Hanson for one row: min 0.5 * ||v - x H||^2 over x >= 0.

    Each round adds the index of the lowest gradient entry below -tol, then
    steps back toward the passive least-squares solution until it is
    positive.  The passive rows of H stay independent, so it cannot cycle
    when H H^T is singular.  Solves use H, not H H^T.  Returns x and the
    rounds used.
    """
    x, F, f = np.zeros(len(H)), np.zeros(len(H), dtype=bool), 0.5 * (v @ v)
    for r in range(rounds):
        y = np.where(F, 0.0, (x @ H - v) @ H.T)
        if y.min() >= -tol:
            return x, r
        F[np.argmin(y)] = True
        while F.any():
            z = np.zeros(len(H))
            z[F] = np.linalg.lstsq(H[F].T, v, rcond=None)[0]
            out = np.flatnonzero(F & (z <= 0.0))
            if out.size == 0:
                x = z
                break
            t = x[out] / (x[out] - z[out])
            x += t.min() * (z - x)
            F[out[np.argmin(t)]] = False
            F &= x > 0.0
            x[~F] = 0.0
        f, f_prev = 0.5 * np.sum((v - x @ H) ** 2), f
        if not f < f_prev:  # rounding hides any further descent
            return x, r + 1
    return x, rounds


def nnls_fit(X, H, tol: float = 1e-8, max_iter: int = 5000) -> NnlsSolution:
    """Fit W >= 0 minimizing 0.5*||X - W H||_F^2, to KKT sup-norm <= tol.

    Parameters
    ----------
    X : (n, p) data matrix.
    H : (k, p) archetype rows.  A zero row of H is permitted; its coefficient
        column stays at zero and a RuntimeWarning is emitted.
    tol : target for max |min(W, (W H - X) H^T)|.
    max_iter : cap on pivoting rounds; max_iter=0 returns W = 0.

    Notes
    -----
    Block principal pivoting on C = H H^T and D = X H^T.  Each row keeps a
    passive set F; x solves C_FF x_F = D_F (min-norm if C_FF is singular),
    x = 0 off F, and y = x C - D.  A round exchanges all infeasible indices
    (x < 0 on F, y < -tol off F) of each unfinished row while their count
    keeps falling and for three rounds after; rows that share F share one
    multi-right-hand-side solve.  A row whose exchanges stall then finishes
    by Lawson-Hanson, which, unlike Murty's single-exchange rule, cannot
    cycle when k > p.  A row stops once nothing is infeasible or the
    Gram-form KKT of max(x, 0) is <= tol, so rounding noise cannot keep it
    flipping.  W = max(x, 0); ``iterations`` counts rounds, Lawson-Hanson
    ones included; ``kkt`` is the residual-form :func:`kkt_residual`.
    """
    X = require_matrix(X, "X")
    H = require_matrix(H, "H")
    n, p = X.shape
    k = H.shape[0]
    if k < 1 or H.shape[1] != p:
        raise ValueError(f"H must be k x {p} with k >= 1, got {H.shape}")

    zero_rows = np.flatnonzero(np.linalg.norm(H, axis=1) == 0.0)
    if zero_rows.size:
        warnings.warn(
            f"H has zero rows {zero_rows.tolist()}; their coefficients are forced to 0",
            RuntimeWarning,
            stacklevel=2,
        )

    C = H @ H.T
    D = X @ H.T
    x = np.zeros((n, k))
    passive = np.zeros((n, k), dtype=bool)
    best = np.full(n, k + 1)  # fewest infeasible indices seen, per row
    chances = np.full(n, 3)  # full exchanges left without a new best
    todo = np.arange(n)
    iterations = finished_at = 0  # finished_at: last Lawson-Hanson round
    while True:
        xt, Dt = x[todo], D[todo]
        W = np.maximum(xt, 0.0)
        kkt_rows = np.abs(np.minimum(W, W @ C - Dt)).max(axis=1)
        bad = np.where(passive[todo], xt < 0.0, xt @ C - Dt < -tol)
        count = bad.sum(axis=1)
        keep = (count > 0) & (kkt_rows > tol)
        todo, bad, count = todo[keep], bad[keep], count[keep]
        if todo.size == 0 or iterations >= max_iter:
            break
        iterations += 1
        chances[todo[count < best[todo]]] = 4  # a new best restores three
        best[todo] = np.minimum(best[todo], count)
        chances[todo] -= 1
        full = chances[todo] >= 0
        for i in todo[~full]:
            x[i], r = _lawson_hanson(H, X[i], tol, max_iter - iterations + 1)
            finished_at = max(finished_at, iterations - 1 + r)
        todo, bad = todo[full], bad[full]
        if todo.size == 0:
            break
        passive[todo] ^= bad
        # Sorting the packed passive sets puts rows that share one side by side.
        packed = np.packbits(passive[todo], axis=1)
        order = np.lexsort(packed.T)
        cuts = np.flatnonzero((np.diff(packed[order], axis=0) != 0).any(axis=1)) + 1
        for rows in np.split(todo[order], cuts):
            f = np.flatnonzero(passive[rows[0]])
            xF = np.linalg.lstsq(C[f[:, None], f], D[rows[:, None], f].T, rcond=None)[0]
            x[rows] = 0.0
            x[rows[:, None], f] = xF.T

    W = np.maximum(x, 0.0)
    norm_x = float(np.linalg.norm(X))
    rel = float(np.linalg.norm(X - W @ H)) / (norm_x if norm_x > 0 else 1.0)
    kkt = kkt_residual(X, H, W)
    return NnlsSolution(W, rel, max(iterations, finished_at), bool(kkt <= tol), kkt)
