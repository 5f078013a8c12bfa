"""Non-negative group lasso over candidate archetypes.

The selection problem

    min_{W >= 0}  0.5 * ||X - W H||_F^2 + lambda * sum_i ||w_i||_2

(groups are the columns w_i of W, one per candidate archetype) is solved
down a descending penalty grid by FISTA on W (Beck & Teboulle 2009) with
warm starts.  The penalty plus the constraint W >= 0 has an exact prox —
clip at zero, then shrink each column's norm by lambda / L — so every
iteration is a gradient step on the fit, one clip and one column scaling.
Each penalty stops on its solution's relative duality gap, a certificate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .matrix_io import require_matrix

# ||w_i||_2 below this fraction of the largest group norm counts as inactive
# (absorbs first-order solver fuzz).
ACTIVITY_THRESHOLD = 1e-6


def _column_norms(V: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Euclidean norm of each column of V, without overflow or underflow.

    The plain sum of squares is accurate for norms in [2^-500, 2^500]; the
    columns outside that range are measured again on a copy scaled by the
    power of two of their largest entry.  A plain norm below 2^-500 means a
    true norm below 2^-499, so when ``floor`` >= 2^-499 (the caller only
    needs to know which norms lie under it) such columns are not measured
    again.  When no column needs it, the plain norms return at once.
    """
    norms = np.sqrt(np.einsum("ij,ij->j", V, V))
    low = 2.0**-500 if floor < 2.0**-499 else 0.0
    if norms.max(initial=0.0) <= 2.0**500 and (low == 0.0 or norms.min() >= low):
        return norms
    odd = ~((norms <= 2.0**500) & (norms >= low))
    sub = V[:, odd]
    e = np.frexp(np.abs(sub).max(axis=0, initial=0.0))[1]
    norms[odd] = np.ldexp(np.linalg.norm(np.ldexp(sub, -e), axis=0), e)
    return norms


def _group_prox(Z: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Prox of tau * sum_i ||w_i||_2 plus the constraint W >= 0, column by column.

    Clipping at zero and then shrinking each column v by
    max(0, 1 - tau / ||v||) is the exact minimizer of
    0.5 * ||W - Z||_F^2 + tau * sum_i ||w_i|| over W >= 0.  Z is overwritten
    with the minimizer; returns it and its column norms.
    """
    np.maximum(Z, 0.0, out=Z)
    norms = _column_norms(Z, floor=tau)
    shrunk = np.maximum(norms - tau, 0.0)
    Z *= np.divide(shrunk, norms, out=norms, where=norms > 0.0)
    return Z, shrunk


def lambda_max(X, H) -> float:
    """Smallest penalty at which W = 0 is optimal: max_i ||(X h_i^T)_+||_2.

    Because of the non-negativity constraint only the positive part of the
    zero-point gradient can pull a group away from zero.
    """
    X = require_matrix(X, "X")
    H = require_matrix(H, "H")
    if H.shape[1] != X.shape[1]:
        raise ValueError(f"inconsistent shapes: X {X.shape}, H {H.shape}")
    pos = np.maximum(X @ H.T, 0.0)
    return float(np.linalg.norm(pos, axis=0).max())


def default_lambda_grid(lam_max: float, num: int = 50, span: float = 1e-3) -> np.ndarray:
    """num log-spaced penalties descending from lam_max to span * lam_max."""
    if lam_max <= 0:
        raise ValueError(f"lam_max must be positive, got {lam_max}")
    return np.geomspace(lam_max, span * lam_max, num)


@dataclass(frozen=True)
class GroupLassoProblem:
    X: np.ndarray
    H: np.ndarray
    lambda_grid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", require_matrix(self.X, "X"))
        object.__setattr__(self, "H", require_matrix(self.H, "H"))
        grid = np.asarray(self.lambda_grid, dtype=np.float64)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("lambda_grid must be a nonempty vector")
        if (grid <= 0).any() or (np.diff(grid) >= 0).any():
            raise ValueError("lambda_grid must be strictly descending and positive")
        object.__setattr__(self, "lambda_grid", grid)
        if self.H.shape[1] != self.X.shape[1]:
            raise ValueError(
                f"inconsistent shapes: X {self.X.shape}, H {self.H.shape}"
            )


@dataclass(frozen=True)
class LassoPath:
    """Solutions along the descending penalty grid.

    weights[t] is the (n, k) solution at lambdas[t]; group_norms[t, i] is
    ||w_i||_2 there; active[t] lists the groups above the activity threshold;
    objectives[t] is the penalized objective
    0.5*||X - W H||_F^2 + lambdas[t] * sum_i ||w_i||_2.  fit_objectives[t] is
    the unpenalized half squared residual.  iterations[t] counts the FISTA
    iterations spent at lambdas[t].  gaps[t] is the relative
    duality gap (P(W) - D(theta)) / P(W) of weights[t], a certificate of how
    far it is from optimal (see ``_duality_gap``); ``solve_path`` stops each
    penalty on it, so it is at most the solve's tol wherever no cap was hit.
    """

    lambdas: np.ndarray
    weights: tuple[np.ndarray, ...]
    group_norms: np.ndarray
    active: tuple[tuple[int, ...], ...]
    objectives: np.ndarray
    fit_objectives: np.ndarray
    iterations: np.ndarray
    gaps: np.ndarray


def solve_path(
    prob: GroupLassoProblem,
    tol: float = 1e-6,
    max_iter_per_lambda: int = 5000,
) -> LassoPath:
    """FISTA down the penalty grid with warm starts.

    Per penalty value, iterations stop once the relative duality gap of the
    accepted iterate (``_duality_gap``, recorded in ``LassoPath.gaps``) is at
    most tol, checked every 5th iteration.  Each iteration takes a gradient
    step on the fit from the extrapolated point Y, folded into one product
    Y (I - H H^T / L) + X H^T / L of factors formed once, and applies the
    exact prox of the penalty and W >= 0 (``_group_prox``) in place, so W
    stays entrywise non-negative exactly; a step that raises the objective
    restarts the momentum from the last accepted iterate.  A penalty that
    uses up max_iter_per_lambda iterations first is named in a
    RuntimeWarning; its solution is the last accepted iterate.  Scaling X
    and H by 2^s and the grid by 2^(2s) leaves both factors alone and scales
    nothing but the objectives, and them exactly, while no entry overflows
    or underflows.
    """
    X, H = prob.X, prob.H
    k = H.shape[0]
    HHt = H @ H.T
    XHt = X @ H.T
    xx = float(np.vdot(X, X))
    L = 1.01 * float(np.linalg.eigvalsh(HHt)[-1])
    if L <= 0.0:
        raise ValueError("H has no energy; group lasso path is undefined")
    step = np.eye(k) - HHt / L
    shift = XHt / L

    def fit_value(W):
        WHHt = W @ HHt  # returned too: the gap check reuses it
        return 0.5 * xx - float(np.vdot(W, XHt)) + 0.5 * float(np.vdot(W, WHHt)), WHHt

    W = np.zeros_like(XHt)
    Y_next = np.empty_like(XHt)  # the extrapolated point; never aliases W
    norms, fit, WHHt = np.zeros(k), 0.5 * xx, np.zeros_like(XHt)
    weights = []
    norms_out = np.zeros((prob.lambda_grid.size, k))
    active_out = []
    objectives = np.zeros(prob.lambda_grid.size)
    fit_objectives = np.zeros(prob.lambda_grid.size)
    iterations = np.zeros(prob.lambda_grid.size, dtype=np.int64)
    gaps = np.zeros(prob.lambda_grid.size)
    capped = []

    # Rounding-aware slack for the monotone test (see nnls.py).
    slack = 32.0 * np.finfo(np.float64).eps * xx

    for gi, lam in enumerate(prob.lambda_grid):
        tau = lam / L
        Y, mom = W, 1.0
        F = fit + lam * float(norms.sum())
        used = 0
        for used in range(1, max_iter_per_lambda + 1):
            V = Y @ step
            V += shift
            V_norms = _group_prox(V, tau)[1]
            V_fit, VHHt = fit_value(V)
            F_new = V_fit + lam * float(V_norms.sum())
            if F_new > F + slack:
                # Momentum overshot: restart from the last accepted point.
                Y, mom = W, 1.0
            else:
                mom_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * mom * mom))
                Y = np.subtract(V, W, out=Y_next)
                Y *= (mom - 1.0) / mom_next
                Y += V
                W, norms, fit, WHHt, mom, F = V, V_norms, V_fit, VHHt, mom_next, F_new
            if used % 5 == 0 and _duality_gap(W, norms, lam, WHHt, XHt, fit) <= tol:
                break
        else:
            capped.append(gi)
        iterations[gi] = used
        gaps[gi] = _duality_gap(W, norms, lam, WHHt, XHt, fit)
        thresh = ACTIVITY_THRESHOLD * (norms.max() if norms.size else 0.0)
        weights.append(W.copy())
        norms_out[gi] = norms
        active_out.append(tuple(int(i) for i in np.flatnonzero(norms > thresh)))
        fit_objectives[gi] = fit
        objectives[gi] = F

    if capped:
        warnings.warn(
            f"solve_path reached max_iter_per_lambda={max_iter_per_lambda} "
            f"without a duality gap of at most tol={tol} at lambda indices {capped}",
            RuntimeWarning,
            stacklevel=2,
        )
    return LassoPath(
        lambdas=prob.lambda_grid.copy(),
        weights=tuple(weights),
        group_norms=norms_out,
        active=tuple(active_out),
        objectives=objectives,
        fit_objectives=fit_objectives,
        iterations=iterations,
        gaps=gaps,
    )


def _duality_gap(W, norms, lam, WHHt, XHt, fit) -> float:
    """Relative duality gap (P(W) - D(theta)) / P(W) at a feasible W >= 0.

    P(W) = 0.5*||R||^2 + lam * sum_i ||w_i|| with R = X - W H.  The dual of
    the penalized problem is D(theta) = <X, theta> - 0.5*||theta||^2 over the
    theta with ||(theta H^T)_+[:, i]|| <= lam for every group i.  The scaled
    residual theta = s R with s = min(1, lam / max_i ||G_+[:, i]||), where
    G = R H^T = X H^T - W H H^T, is dual feasible, so D(theta) <= P(W) and
    the gap bounds P(W) - P(W*).  Expanded, the gap is
        0.5*||R||^2 (1 - s)^2 + (lam * sum_i ||w_i|| - s <W, G>),
    two terms that are each non-negative in exact arithmetic, so no large
    objective values cancel.  Everything comes from W H H^T, X H^T and the
    half squared residual ``fit``; R is never formed.
    """
    G = XHt - WHHt
    wg = float(np.vdot(W, G))
    g_max = float(_column_norms(np.maximum(G, 0.0, out=G), floor=lam).max(initial=0.0))
    s = 1.0 if g_max <= lam else lam / g_max
    penalty = lam * float(norms.sum())
    gap = fit * (1.0 - s) ** 2 + penalty - s * wg
    primal = fit + penalty
    return gap / primal if primal > 0 else 0.0


def select_by_persistence(path: LassoPath, k: int) -> list[int]:
    """Rank groups by how much of the path (in log-lambda measure) they are active.

    Ties break toward the larger group norm at the smallest penalty, then
    toward the lower index.  Requesting more groups than exist returns all of
    them with a RuntimeWarning.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    lambdas = path.lambdas
    n_groups = path.group_norms.shape[1]
    log_l = np.log(lambdas)
    # Width of each grid point in log-lambda; the final point gets the last
    # segment's width.
    widths = np.empty_like(log_l)
    if log_l.size > 1:
        widths[:-1] = log_l[:-1] - log_l[1:]
        widths[-1] = widths[-2]
    else:
        widths[:] = 1.0
    persistence = np.zeros(n_groups)
    for ti, groups in enumerate(path.active):
        for g in groups:
            persistence[g] += widths[ti]
    final_norms = path.group_norms[-1]
    order = sorted(
        range(n_groups), key=lambda g: (-persistence[g], -final_norms[g], g)
    )
    if k > n_groups:
        warnings.warn(
            f"only {n_groups} candidate groups, fewer than requested k={k}",
            RuntimeWarning,
            stacklevel=2,
        )
    return order[:k]
