"""Non-negative least squares for the weights W given archetype rows H.

Solves min_{W >= 0} 0.5 * ||X - W H||_F^2 exactly by block principal
pivoting (Kim & Park 2011), an active-set method of the Lawson-Hanson family,
on the k x k Gram matrix H H^T, row by row (see ``nnls_fit``).

Each passive-set system C_FF x_F = D_F is solved by LU when the computed
eigenvalues of C = H H^T give cond(C) < 1 / (16 k eps), the 16 covering
their own rounding, else by min-norm ``np.linalg.lstsq`` (k > p, duplicate
or zero rows of H).  Cauchy interlacing gives cond(C_FF) < 1 / (k eps), so
there lstsq's cutoff, k_F eps times the top singular value of C_FF, would
truncate nothing and return LU's unique solution, up to rounding.

The stop is derived from the rounding, not chosen.  On X and H scaled by
2^-e, a computed gradient at W, in the Gram form W C - D (C and D formed in
floating point) or the residual form (W H - X) H^T, errs by at most
tau_ij = gamma_{p+k+2} (sum_l w_il ||h_l|| + ||x_i||) ||h_j||, plus
(p + k + 2)(p + 1) 2^-1074 for products that underflow (Higham, Accuracy
and Stability of Numerical Algorithms, 3.1, with gamma_n = n u / (1 - n u),
u = 2^-53, and |c_lj| <= ||h_l|| ||h_j||).  An optimal W reads at most tau
in either form, so pivoting counts a gradient entry within tau as zero.  A
reading within tau in one form bounds the other form's by 3 tau, so W is
certified when |min(W, (W H - X) H^T)| <= 3 tau entrywise.
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
    residual / ||X||_F (residual itself when X = 0); kkt is the certificate
    max |min(W, (W H - X) H^T)| in X's units squared, and converged is true
    iff each of its entries is within 3 tau (see the module docstring)."""

    W: np.ndarray
    residual: float
    relative_residual: float
    iterations: int
    converged: bool
    kkt: float


def _stop_bound(W, x_norms, h_norms, p: int) -> np.ndarray:
    """tau of the module docstring for each entry of W (one row or a block)."""
    nu = (p + h_norms.size + 2) * 2.0**-53
    floor = (p + h_norms.size + 2) * (p + 1) * 2.0**-1074
    return (nu / (1.0 - nu)) * (W @ h_norms + x_norms)[..., None] * h_norms + floor


def _lawson_hanson(H, v, h_norms, rounds: int):
    """Lawson-Hanson for one row: min 0.5 * ||v - x H||^2 over x >= 0.

    Each round adds the index of the lowest residual-form gradient entry
    below -tau, then steps back toward the passive least-squares solution,
    solved with H, until it is positive.  The passive rows of H stay
    independent, so it cannot cycle when H H^T is singular.  Returns x and
    the rounds used.
    """
    x, F, f = np.zeros(len(H)), np.zeros(len(H), dtype=bool), 0.5 * (v @ v)
    v_norm = np.linalg.norm(v)
    for r in range(rounds):
        y = np.where(F, 0.0, (x @ H - v) @ H.T)
        if (y >= -_stop_bound(x, v_norm, h_norms, H.shape[1])).all():
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


def nnls_fit(X, H, max_iter: int = 5000) -> NnlsSolution:
    """Fit W >= 0 minimizing 0.5*||X - W H||_F^2, certified to rounding level.

    Parameters
    ----------
    X : (n, p) data matrix.
    H : (k, p) archetype rows.  A zero row of H is permitted; its coefficient
        column stays at zero and a RuntimeWarning is emitted.
    max_iter : cap on pivoting rounds; max_iter=0 returns W = 0.

    Notes
    -----
    X and H are first scaled by 2^-e, e = ``_scale_exponent(H)``, so W is
    the same for X and H times any 2^s.  Block principal pivoting on
    C = H H^T and D = X H^T: each row keeps a passive set F; x solves
    C_FF x_F = D_F, x = 0 off F, and y = x C - D.  A round exchanges all
    infeasible indices (x < 0 on F, y < -tau off F) of each unfinished row
    while their count keeps falling and for three rounds after; rows that
    share F share one solve.  A row stops once nothing is infeasible or its
    Gram-form KKT is within tau.  A row whose residual-form KKT then reads
    above tau (its exchanges stalled, or rounding left a passive solve
    short) is solved again by Lawson-Hanson, which, unlike Murty's
    single-exchange rule, cannot cycle when k > p.  W = max(x, 0);
    ``iterations`` counts rounds, Lawson-Hanson ones included; ``residual``
    and ``kkt`` come from one product W H - X and are scaled back exactly.
    A fit that is not certified (``converged`` False) emits one
    RuntimeWarning with its KKT and ``max_iter``; W is still returned.
    """
    X = require_matrix(X, "X")
    H = require_matrix(H, "H")
    (n, p), k = X.shape, H.shape[0]
    if k < 1 or H.shape[1] != p:
        raise ValueError(f"H must be k x {p} with k >= 1, got {H.shape}")
    e = _scale_exponent(H)
    X, H = (np.ldexp(X, -e), np.ldexp(H, -e)) if e else (X, H)

    h_norms, x_norms = np.linalg.norm(H, axis=1), np.linalg.norm(X, axis=1)
    if (h_norms == 0.0).any():
        zero = f"H has zero rows {np.flatnonzero(h_norms == 0.0).tolist()}"
        warnings.warn(f"{zero}; their coefficients are forced to 0", RuntimeWarning, stacklevel=2)

    C, D = H @ H.T, X @ H.T
    eig = np.linalg.eigvalsh(C)
    lu = eig[0] > 16.0 * k * np.finfo(np.float64).eps * eig[-1]
    x, passive = np.zeros((n, k)), np.zeros((n, k), dtype=bool)
    best = np.full(n, k + 1)  # fewest infeasible indices seen, per row
    chances = np.full(n, 3)  # full exchanges left without a new best
    todo, iterations = np.arange(n), 0
    while True:
        xt, Dt = x[todo], D[todo]
        W = np.maximum(xt, 0.0)
        tau = _stop_bound(W, x_norms[todo], h_norms, p)
        bad = np.where(passive[todo], xt < 0.0, xt @ C - Dt < -tau)
        count = bad.sum(axis=1)
        keep = (count > 0) & (np.abs(np.minimum(W, W @ C - Dt)) > tau).any(axis=1)
        todo, bad, count = todo[keep], bad[keep], count[keep]
        if todo.size == 0 or iterations >= max_iter:
            break
        iterations += 1
        chances[todo[count < best[todo]]] = 4  # a new best restores three
        best[todo] = np.minimum(best[todo], count)
        chances[todo] -= 1
        full = chances[todo] >= 0  # a stalled row is left to the finish below
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

    W, its = np.maximum(x, 0.0), iterations
    for finish in (True, False):  # rows above tau finish by Lawson-Hanson, once
        R = W @ H - X
        violation = np.abs(np.minimum(W, R @ H.T))
        tau = _stop_bound(W, x_norms, h_norms, p)
        short = np.flatnonzero((violation > tau).any(axis=1))
        if not (finish and short.size and iterations < max_iter):
            break
        for i in short:
            W[i], r = _lawson_hanson(H, X[i], h_norms, max_iter - iterations)
            its = max(its, iterations + r)
    res, norm_x = float(np.linalg.norm(R)), float(np.linalg.norm(X))
    rel = res / (norm_x if norm_x > 0 else 1.0)
    kkt, worst = float(violation.max()), float((violation / (3.0 * tau)).max())
    if worst > 1.0:
        msg = f"NNLS stopped at KKT {math.ldexp(kkt, 2 * e):.3g} (X's units squared), "
        msg += f"{worst:.3g} times its rounding bound at the worst entry, "
        msg += f"after {its} of max_iter={max_iter} rounds"
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return NnlsSolution(W, math.ldexp(res, e), rel, its, worst <= 1.0, math.ldexp(kkt, 2 * e))
