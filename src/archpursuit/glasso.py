"""Non-negative group lasso over candidate archetypes, solved as an SOCP.

The selection problem

    min_{W >= 0}  0.5 * ||X - W H||_F^2 + lambda * sum_i ||w_i||_2

(groups are the columns w_i of W, one per candidate archetype) is rewritten
with per-group epigraph scalars t_i >= ||w_i||_2, turning the nonsmooth
penalty into the linear term lambda * sum_i t_i subject to each (w_i, t_i)
lying in the second-order cone intersected with the non-negative orthant.
That feasible set has a cheap exact projection — clip the group coordinates
at zero, then apply the standard cone projection — so the whole path is
solvable by accelerated projected gradient with warm starts.
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


def project_cone_orthant(x) -> np.ndarray:
    """Project onto (second-order cone) ∩ (non-negative orthant).

    The last coordinate is the cone height t, the first q-1 are the group
    coefficients.  The single-group case of ``_project_groups``, on x scaled
    exactly by a power of two so that the group norm cannot overflow or underflow.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 2:
        raise ValueError(f"expected a vector of length >= 2, got shape {x.shape}")
    e = math.frexp(float(np.abs(x).max()))[1]
    w, t = _project_groups(np.ldexp(x[:-1, None], -e), np.ldexp(x[-1:], -e))
    return np.ldexp(np.append(w[:, 0], t), e)


def _project_groups(W: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch projection of each group column (W[:, i], t[i]) onto cone ∩ orthant.

    Computed as the composition P_cone(P_orthant(.)) where the orthant clip
    leaves the height t alone; the composition equals the exact projection
    onto the intersection.
    """
    V = np.maximum(W, 0.0)
    norms = np.linalg.norm(V, axis=0)
    inside = norms <= t
    zero = norms <= -t
    scale = np.empty_like(norms)
    t_out = np.empty_like(t)
    a = 0.5 * (norms + t)
    boundary = ~inside & ~zero
    safe = np.where(norms > 0, norms, 1.0)
    scale[inside] = 1.0
    t_out[inside] = t[inside]
    scale[zero] = 0.0
    t_out[zero] = 0.0
    scale[boundary] = (a / safe)[boundary]
    t_out[boundary] = a[boundary]
    return V * scale[None, :], t_out


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
    objectives[t] is the penalized objective 0.5*||X - W H||_F^2 + lambda*sum t_i.
    fit_objectives[t] is the unpenalized half squared residual.  iterations[t]
    counts the APG iterations spent at lambdas[t].  gaps[t] is the relative
    duality gap (P(W) - D(theta)) / P(W) of weights[t], a certificate of how
    far it is from optimal (see ``_duality_gap``); ``solve_path`` always
    fills it.
    """

    lambdas: np.ndarray
    weights: tuple[np.ndarray, ...]
    group_norms: np.ndarray
    active: tuple[tuple[int, ...], ...]
    objectives: np.ndarray
    fit_objectives: np.ndarray
    iterations: np.ndarray
    gaps: np.ndarray | None = None


def solve_path(
    prob: GroupLassoProblem,
    tol: float = 1e-9,
    max_iter_per_lambda: int = 5000,
) -> LassoPath:
    """Accelerated projected gradient down the penalty grid with warm starts.

    Per penalty value, iterations stop once the relative objective change
    over a 10-iteration window drops below tol.  Within an iteration the
    smooth part (quadratic fit + linear penalty) takes a gradient step and
    each group is projected back onto cone ∩ orthant, so W stays entrywise
    non-negative exactly.  A penalty that uses up max_iter_per_lambda
    iterations without meeting the stopping rule is named in a
    RuntimeWarning; its solution is the last accepted iterate.
    """
    X, H = prob.X, prob.H
    n = X.shape[0]
    k = H.shape[0]
    HHt = H @ H.T
    XHt = X @ H.T
    xx = float(np.einsum("ij,ij->", X, X))
    L = 1.01 * float(np.linalg.eigvalsh(HHt)[-1])
    if L <= 0.0:
        raise ValueError("H has no energy; group lasso path is undefined")

    def fit_value(W):
        return 0.5 * xx - float(np.einsum("ij,ij->", W, XHt)) + 0.5 * float(
            np.einsum("ij,ij->", W, W @ HHt)
        )

    W = np.zeros((n, k))
    t = np.zeros(k)
    weights = []
    norms_out = np.zeros((prob.lambda_grid.size, k))
    active_out = []
    objectives = np.zeros(prob.lambda_grid.size)
    fit_objectives = np.zeros(prob.lambda_grid.size)
    iterations = np.zeros(prob.lambda_grid.size, dtype=np.int64)
    gaps = np.zeros(prob.lambda_grid.size)
    capped = []

    # Rounding-aware slack for the monotone test (see nnls.py).
    slack = 32.0 * np.finfo(np.float64).eps * (xx + 1.0)

    for gi, lam in enumerate(prob.lambda_grid):
        Y_w, Y_t = W.copy(), t.copy()
        mom = 1.0
        F = fit_value(W) + lam * float(t.sum())
        window = []
        used = 0
        for used in range(1, max_iter_per_lambda + 1):
            grad_w = Y_w @ HHt - XHt
            V_w, V_t = _project_groups(Y_w - grad_w / L, Y_t - lam / L)
            F_new = fit_value(V_w) + lam * float(V_t.sum())
            if F_new > F + slack:
                # Momentum overshot: restart from the last accepted point.
                Y_w, Y_t, mom = W.copy(), t.copy(), 1.0
                window.append(abs(F_new - F) / max(abs(F), 1.0))
                if len(window) >= 10 and max(window[-10:]) < tol:
                    break
                continue
            mom_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * mom * mom))
            beta = (mom - 1.0) / mom_next
            Y_w = V_w + beta * (V_w - W)
            Y_t = V_t + beta * (V_t - t)
            W, t, mom = V_w, V_t, mom_next
            window.append(abs(F_new - F) / max(abs(F), 1.0))
            F = F_new
            if len(window) >= 10 and max(window[-10:]) < tol:
                break
        else:
            capped.append(gi)
        iterations[gi] = used
        norms = np.linalg.norm(W, axis=0)
        thresh = ACTIVITY_THRESHOLD * (norms.max() if norms.size else 0.0)
        weights.append(W.copy())
        norms_out[gi] = norms
        active_out.append(tuple(int(i) for i in np.flatnonzero(norms > thresh)))
        fit_objectives[gi] = fit_value(W)
        objectives[gi] = fit_objectives[gi] + lam * float(t.sum())
        gaps[gi] = _duality_gap(W, norms, lam, HHt, XHt, fit_objectives[gi])

    if capped:
        warnings.warn(
            f"solve_path reached max_iter_per_lambda={max_iter_per_lambda} "
            f"without converging at lambda indices {capped}",
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


def _duality_gap(W, norms, lam, HHt, XHt, fit) -> float:
    """Relative duality gap (P(W) - D(theta)) / P(W) at a feasible W >= 0.

    P(W) = 0.5*||R||^2 + lam * sum_i ||w_i|| with R = X - W H.  The dual of
    the penalized problem is D(theta) = <X, theta> - 0.5*||theta||^2 over the
    theta with ||(theta H^T)_+[:, i]|| <= lam for every group i.  The scaled
    residual theta = s R with s = min(1, lam / max_i ||G_+[:, i]||), where
    G = R H^T = X H^T - W H H^T, is dual feasible, so D(theta) <= P(W) and
    the gap bounds P(W) - P(W*).  Expanded, the gap is
        0.5*||R||^2 (1 - s)^2 + (lam * sum_i ||w_i|| - s <W, G>),
    two terms that are each non-negative in exact arithmetic, so no large
    objective values cancel.  Everything comes from H H^T, X H^T and the half
    squared residual ``fit``; R is never formed.
    """
    G = XHt - W @ HHt
    g_max = float(np.linalg.norm(np.maximum(G, 0.0), axis=0).max(initial=0.0))
    s = 1.0 if g_max <= lam else lam / g_max
    penalty = lam * float(norms.sum())
    gap = fit * (1.0 - s) ** 2 + penalty - s * float(np.einsum("ij,ij->", W, G))
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
