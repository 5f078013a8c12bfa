"""Non-negative least squares for the weights W given archetype rows H.

Solves min_{W >= 0} 0.5 * ||X - W H||_F^2 exactly by block principal
pivoting (Kim & Park 2011), an active-set method of the Lawson-Hanson family,
on the k x k Gram matrix H H^T.  The problem decomposes over the rows of X,
and the solver preserves that: each row carries its own passive set and
pivoting state, and rows that share a passive set are solved together.

Each passive-set system C_FF x_F = D_F is solved by LU when C = H H^T is
well conditioned, else by min-norm ``np.linalg.lstsq`` (k > p, duplicate or
zero rows of H).  LU needs cond(C) < 1 / (16 k eps) by the computed
eigenvalues, whose own rounding the 16 covers.  Cauchy interlacing gives
cond(C_FF) <= cond(C) < 1 / (k eps) for every principal submatrix, so
lstsq's cutoff, k_F eps times the top singular value of C_FF, truncates
nothing: lstsq would return the unique solution LU returns, up to rounding.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .matrix_io import _scale_exponent, require_matrix


@dataclass(frozen=True)
class NnlsSolution:
    """W >= 0 entrywise; residual = ||X - W H||_F and relative_residual =
    residual / ||X||_F (residual itself when X = 0); kkt in X's units squared,
    and converged iff kkt <= tol * 4^e (see ``nnls_fit``)."""

    W: np.ndarray
    residual: float
    relative_residual: float
    iterations: int
    converged: bool
    kkt: float


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
    """Fit W >= 0 minimizing 0.5*||X - W H||_F^2, to KKT sup-norm <= tol * 4^e.

    Parameters
    ----------
    X : (n, p) data matrix.
    H : (k, p) archetype rows.  A zero row of H is permitted; its coefficient
        column stays at zero and a RuntimeWarning is emitted.
    tol : target for max |min(W, (W H - X) H^T)| on X and H scaled by 2^-e,
        e = ``_scale_exponent(H)``: W is the same for X and H times any 2^s.
    max_iter : cap on pivoting rounds; max_iter=0 returns W = 0.

    Notes
    -----
    Block principal pivoting on C = H H^T and D = X H^T.  Each row keeps a
    passive set F; x solves C_FF x_F = D_F (by LU or min-norm, see the
    module docstring), x = 0 off F, and y = x C - D.  A round exchanges all
    infeasible indices (x < 0 on F, y < -tol off F) of each unfinished row
    while their count keeps falling and for three rounds after; rows that
    share F share one multi-right-hand-side solve.  A row whose exchanges
    stall then finishes by Lawson-Hanson, which, unlike Murty's
    single-exchange rule, cannot cycle when k > p.  A row stops once nothing
    is infeasible or the Gram-form KKT of max(x, 0) is <= tol, so rounding
    noise cannot keep it flipping.  W = max(x, 0); ``iterations`` counts
    rounds, Lawson-Hanson ones included; ``residual`` is ||X - W H||_F,
    formed once here so that callers need not form X - W H again, and
    ``NnlsSolution.kkt`` is the certificate max |min(W, (W H - X) H^T)| of
    the same product, zero iff W is optimal; both are scaled back exactly.
    A fit that ends above ``tol`` on the scaled problem (``converged`` is
    False) emits one RuntimeWarning with that KKT and ``max_iter``; W is
    still returned.
    """
    X = require_matrix(X, "X")
    H = require_matrix(H, "H")
    n, p = X.shape
    k = H.shape[0]
    if k < 1 or H.shape[1] != p:
        raise ValueError(f"H must be k x {p} with k >= 1, got {H.shape}")
    e = _scale_exponent(H)
    X, H = (np.ldexp(X, -e), np.ldexp(H, -e)) if e else (X, H)

    zero_rows = np.flatnonzero(np.linalg.norm(H, axis=1) == 0.0)
    if zero_rows.size:
        warnings.warn(
            f"H has zero rows {zero_rows.tolist()}; their coefficients are forced to 0",
            RuntimeWarning,
            stacklevel=2,
        )

    C = H @ H.T
    D = X @ H.T
    eig = np.linalg.eigvalsh(C)
    lu = eig[0] > 16.0 * k * np.finfo(np.float64).eps * eig[-1]
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
            A, B = C[f[:, None], f], D[rows[:, None], f].T
            xF = np.linalg.solve(A, B) if lu else np.linalg.lstsq(A, B, rcond=None)[0]
            x[rows] = 0.0
            x[rows[:, None], f] = xF.T

    W = np.maximum(x, 0.0)
    R = W @ H - X
    res, norm_x = float(np.linalg.norm(R)), float(np.linalg.norm(X))
    rel = res / (norm_x if norm_x > 0 else 1.0)
    kkt, its = float(np.abs(np.minimum(W, R @ H.T)).max()), max(iterations, finished_at)
    if kkt > tol:
        warnings.warn(
            f"NNLS stopped at KKT {math.ldexp(kkt, 2 * e):.3g} (X's units squared), above "
            f"tol={tol:g} on X and H scaled to max|H| in [0.5, 1), after max_iter={max_iter} "
            "iterations",
            RuntimeWarning,
            stacklevel=2,
        )
    return NnlsSolution(W, math.ldexp(res, e), rel, its, kkt <= tol, math.ldexp(kkt, 2 * e))
