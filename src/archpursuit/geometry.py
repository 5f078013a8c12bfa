"""Condition-number machinery: solid angles, simplicial constants, sample bounds.

The solid angle omega_i of the normal cone at extreme point i is the
probability that a random Gaussian direction is maximized at that point, ties
going to the lowest row index as in pursuit; the omega_i over all rows sum to
one.  The number of random functionals needed to find everything scales like
kappa * log(k/delta) with kappa = 1 / log(1 / max_i(1 - 2*omega_i)).

The Monte Carlo estimate scores antithetic pairs (z, -z) with the pursuit
kernel and draws z in the row space of X: a score z.x_i sees only the part of
z inside that space, so a rank-r X needs draws in R^r (see
``estimate_solid_angles``).

The simplicial constant alpha_i, the distance from extreme point i to the
hull of the others, is found by Wolfe's minimum-norm-point algorithm, which
stops on its own optimality certificate at the rounding level and warns when
rounding stalls it short of that (see ``simplicial_constant``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _rng
from .extreme_points import _BLOCK_BYTES, _MIN_BLOCK, block_optima
from .matrix_io import _checked_indices, _scale_exponent, require_matrix

# Monte Carlo blocks share the pursuit kernel's budget (``_BLOCK_BYTES`` and
# ``_MIN_BLOCK`` of ``extreme_points``): a solid-angle block holds at most
# that many bytes of scores, but never fewer than _MIN_BLOCK pairs.


# ---------------------------------------------------------------------------
# Solid angles


def estimate_solid_angles(
    X, ext_indices, samples: int = 100_000, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo solid angles of the normal cones at the given rows.

    ceil(samples / 2) antithetic pairs (z, -z) of Gaussian directions (an
    odd ``samples`` draws one extra direction) are scored by the pursuit
    kernel ``block_optima``: the argmax row wins z and the argmin row wins
    -z, the lowest row index on ties.  So omega_hat_i = wins_i / (2 pairs)
    sums to exactly 1 over all rows, a duplicate leaves its angle to its
    first copy, and a one-point hull gets omega = 1.  The standard error is
    the per-pair one, sqrt((mean(y^2) - omega_i^2) / pairs) with
    y = (1[max = i] + 1[min = i]) / 2.  Returns (omega_hat, standard_errors)
    aligned with ext_indices; a row that is not extreme estimates to zero.
    A negative, out-of-range or repeated index raises ValueError.

    A block scores b = max(_MIN_BLOCK, _BLOCK_BYTES // 8n) pairs, rows
    [done, done + b) of the ``DOMAIN_ANGLES`` stream: at most 2 MiB of scores
    up to n = 4,096 rows and 512 bytes per row beyond, whatever ``samples``.

    X is first scaled by 2^-e, e = ``_scale_exponent(X)``.  The scaling is
    exact and leaves every angle alone; afterwards no score of a finite
    direction overflows to a false tie, and an X near underflow no longer
    loses its scores to zero.

    Directions are drawn in the row space of X.  The rank r counts the
    singular values above s_0 * max(n, p) * eps; the parts of the rows
    outside the top r right singular vectors V_r are then at most twice
    that, about the rounding error of the scoring gemm.  For z ~ N(0, I_p),
    z.x_i = (V_r z).(V_r x_i) and V_r z ~ N(0, I_r), so scoring
    r-dimensional draws against Y = X V_r^T is exact in distribution and
    costs r/p of the generation and the gemm (``_row_space`` finds V_r).

    Seeded results: for rank r = p (and for X = 0) the draws stay in R^p and
    omega_hat is bit-identical to sampling without the row-space step; for
    r < p the r-wide rows of the same ``DOMAIN_ANGLES`` stream are turned by
    V_r, so the seeded estimate depends on that basis while its distribution
    does not.
    """
    X = require_matrix(X, "X")
    n, p = X.shape
    if n < 1:
        raise ValueError("X must have at least one row")
    ext_indices = np.asarray(_checked_indices(ext_indices, n), dtype=np.int64)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    X = np.ldexp(X, -_scale_exponent(X))
    Vr = _row_space(X) if X.any() else None
    Y = X if Vr is None else X @ Vr.T
    r = Y.shape[1]
    pairs = -(-samples // 2)
    block = max(_MIN_BLOCK, _BLOCK_BYTES // (8 * n))
    wins = np.zeros(n, dtype=np.int64)
    both = np.zeros(n, dtype=np.int64)  # pairs won at both ends (all rows tie)
    for done in range(0, pairs, block):
        Z = _rng.gaussian_rows(seed, _rng.DOMAIN_ANGLES, done, min(block, pairs - done), r)
        best = block_optima(Y, Z.T)
        wins += np.bincount(best.max_idx, minlength=n) + np.bincount(best.min_idx, minlength=n)
        both += np.bincount(best.max_idx[best.max_idx == best.min_idx], minlength=n)
    wins, both = wins[ext_indices], both[ext_indices]
    # sum y = wins / 2 and sum y^2 = wins / 4 + both / 2, so 4 pairs^3 se^2 =
    # pairs (wins + 2 both) - wins^2, an exact integer and never negative.
    se = np.sqrt(pairs * (wins + 2 * both) - wins * wins) / (2.0 * pairs**1.5)
    return wins / (2 * pairs), se


def _row_space(X: np.ndarray) -> np.ndarray | None:
    """Orthonormal rows V_r spanning the row space of a nonzero X, or None
    when X has full column rank (r = p).

    A wide X (n < p) has r <= n < p, so its thin SVD always pays.  A tall or
    square X first takes the triangular factor R of X = QR, which has the
    singular values and right singular vectors of X.  If
    ||R||_F * ||R^-1||_F, an upper bound on the condition number, is below
    2^-10 / tol, tol = max(n, p) eps, every singular value clears the threshold
    by a factor 2^10, so r = p at the cost of one QR and one inverse.  Since
    ||R^-1||_F >= 1 / min|r_ii|, a small diagonal entry skips the inverse.
    Otherwise only R1 = R[:keep] enters the SVD: keep is the least count
    whose tail E = R[keep:] has ||E||_F <= max_i ||R_i|| tol (a reversed
    cumsum of row norms, R being triangular), so keep = p is the full SVD.
    r counts the singular values s'_j of R1 above s'_0 tol.  Bound: with
    ||E||_2 <= ||E||_F <= s_0 tol (max_i ||R_i|| <= s_0), s'_0 <= s_0 and
    P = V_r^T V_r, ||X - XP||_2 = ||R - RP||_2 <= ||R1 - R1 P||_2 + ||E||_2
    <= s'_0 tol + s_0 tol <= 2 s_0 tol.  Weyl: each s'_j is within ||E||_2
    of s_j, so r is the full-SVD rank unless an s_j is that near s_0 tol.
    """
    n, p = X.shape
    tol = max(n, p) * np.finfo(np.float64).eps
    if n < p:
        _, s, Vt = np.linalg.svd(X, full_matrices=False)
    else:
        R = np.linalg.qr(X, mode="r")
        bound = 2.0**-10 / (tol * np.linalg.norm(R))
        if np.abs(np.diag(R)).min() * bound > 1.0 and np.linalg.norm(np.linalg.inv(R)) < bound:
            return None
        sq = np.einsum("ij,ij->i", R, R)  # squared row norms; cumsum gives ||R[j:]||_F^2
        keep = int((np.cumsum(sq[::-1])[::-1] > sq.max() * tol * tol).sum())
        _, s, Vt = np.linalg.svd(R[:keep], full_matrices=False)
    r = int((s > s[0] * tol).sum())
    # LAPACK's singular vectors are unit only to a few eps, which for n = p = 2
    # is the whole bound above; normalized, they are unit to about an ulp.
    return Vt[:r] / np.linalg.norm(Vt[:r], axis=1, keepdims=True) if r < p else None


def condition_kappa(omega) -> tuple[float, float]:
    """(kappa, kappa_bar) from per-point solid angles in (0, 1].

    kappa = 1 / log(1 / max_i(1 - 2*omega_i)); kappa_bar = kappa / k.
    A largest omega of 1/2 or more gives kappa = 0: only a segment (both
    ends 1/2) or a single point (omega = 1) has a normal cone that wide, and
    any single functional finds all of its extreme points.
    """
    omega = np.asarray(omega, dtype=np.float64)
    if omega.size == 0:
        raise ValueError("omega must be nonempty")
    if not ((omega > 0.0) & (omega <= 1.0)).all():
        raise ValueError("omega entries must lie in (0, 1]")
    if omega.max() >= 0.5:
        return 0.0, 0.0
    worst = float((1.0 - 2.0 * omega).max())
    kappa = 1.0 / math.log(1.0 / worst)
    return kappa, kappa / omega.size


def required_m(omega, k: int, delta: float) -> int:
    """Functional count ceil(kappa * log(k/delta)) guaranteeing full recovery
    with probability at least 1 - delta (never less than 1; exactly 1 when
    max omega >= 1/2, see ``condition_kappa``)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    kappa, _ = condition_kappa(omega)
    return max(1, math.ceil(kappa * math.log(k / delta)))


# ---------------------------------------------------------------------------
# Simplicial constants


def _nearest_in_hull(h, A, what: str) -> tuple[float, np.ndarray]:
    """(alpha, s): distance from h to conv(rows of A) and the hull weights of
    the nearest point, by Wolfe's algorithm as in ``simplicial_constant``;
    a warning names ``what``."""
    e = _scale_exponent(np.vstack([A, h]))
    B = np.ldexp(A, -e) - np.ldexp(h, -e)
    k, p = B.shape
    G = B @ B.T
    dist = np.linalg.norm(B, axis=1)
    tau = 4.0 * (k + p) * np.finfo(np.float64).eps * dist.max()
    corral = [int(np.argmin(dist))]
    s = np.zeros(k)
    s[corral] = 1.0
    stalled = f"no certificate after {4 * (k + p + 1)} major cycles"
    for _ in range(4 * (k + p + 1)):
        y = s @ B
        g = B @ y
        j = int(np.argmin(g))
        if float(y @ y) - g[j] <= tau * dist.max():
            stalled = ""
            break
        if j in corral:
            stalled = "the best row is already in the corral"
            break
        corral.append(j)
        while j in corral:  # minor cycles: step toward the affine minimizer
            F = np.array(corral)
            K = np.ones((F.size + 1, F.size + 1))
            K[:-1, :-1] = G[F[:, None], F]
            K[-1, -1] = 0.0
            v = np.linalg.solve(K, np.eye(F.size + 1)[-1])[:-1]
            if (v > 0.0).all():
                s[F] = v / v.sum()
                break
            out = v <= 0.0
            ratio = s[F][out] / (s[F][out] - v[out])
            s[F] += ratio.min() * (v - s[F])
            s[F[out][np.argmin(ratio)]] = 0.0
            s[F] = np.maximum(s[F], 0.0)
            corral = [f for f in corral if s[f] > 0.0]
        else:
            stalled = "the minor cycles dropped the row just added"
            break
    y = s @ B
    alpha = float(np.linalg.norm(y))
    if stalled:
        gap = float(y @ y) - float((B @ y).min())
        warnings.warn(
            f"simplicial constant of {what}: {stalled}; Wolfe certificate gap "
            f"{gap:.3g} (allowed {tau * dist.max():.3g})",
            RuntimeWarning,
            stacklevel=3,
        )
    return (0.0 if alpha <= tau else math.ldexp(alpha, e)), s


def simplicial_constant(X, ext_indices, i: int) -> float:
    """Distance from extreme row i to the convex hull of the other extreme rows.

    Wolfe's minimum-norm-point algorithm (Wolfe 1976, "Finding the nearest
    point in a polytope").  h = x_i and the other rows a_j are scaled exactly
    by 2^-e, e = ``_scale_exponent`` of them all, and b_j = a_j - h; alpha
    is min ||y|| over y = s B, s in the simplex, scaled back.  The Gram
    matrix B B^T is formed once.  The walk starts at the
    nearest row, with the corral (the support of s) holding it alone.  A major
    cycle adds the row j minimizing b_j.y; minor cycles solve
    [[B_F B_F^T, 1], [1^T, 0]] [v; lam] = [0; 1] on the corral F for its
    affine minimizer v and step s toward it until every weight is positive,
    dropping the rows whose weight reaches 0.  Certificate: y is optimal iff
    min_j b_j.y >= ||y||^2, and alpha lies within gap / ||y|| of the exact
    distance for gap = ||y||^2 - min_j b_j.y.  y errs by about k eps
    max||b_j|| from its k-term sums and p eps max||b_j|| from the p-term
    products, so the walk stops once gap <= tau max_j ||b_j|| with
    tau = 4 (k + p) eps max_j ||b_j||, and ||y|| <= tau reads as exactly 0
    (row i inside the hull of the others, or a duplicate).  A walk that
    rounding stalls first emits a RuntimeWarning naming row i and the gap:
    when the best row is already in the corral, when the minor cycles drop
    the row just added, or after 4 (k + p + 1) major cycles.  A negative,
    out-of-range or repeated index raises ValueError, and so does a
    non-finite entry in the extreme rows; the other rows are not read.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
    ext_indices = _checked_indices(ext_indices, X.shape[0])
    if len(ext_indices) < 2:
        raise ValueError("need at least two extreme points")
    if i not in ext_indices:
        raise ValueError(f"index {i} is not among the extreme indices")
    A = require_matrix(X[[i] + [j for j in ext_indices if j != i]], "X")
    alpha, _ = _nearest_in_hull(A[0], A[1:], f"row {i}")
    return alpha


# ---------------------------------------------------------------------------
# Geometry report


@dataclass(frozen=True)
class GeometryReport:
    """Per-extreme-point diagnostics plus the derived condition numbers."""

    ext_indices: tuple[int, ...]
    omega_hat: np.ndarray
    omega_se: np.ndarray
    alpha_hat: np.ndarray
    kappa: float
    kappa_bar: float
    delta: float
    m_required: int


def geometry_report(
    X, ext_indices, samples: int = 100_000, seed: int = 0, delta: float = 0.05
) -> GeometryReport:
    """Solid angles, simplicial constants and kappa at the rows ext_indices.  A
    lone archetype has no hull of others to measure; its alpha_hat reads 0.0."""
    X = require_matrix(X, "X")
    ext = [int(j) for j in ext_indices]
    omega, se = estimate_solid_angles(X, ext, samples=samples, seed=seed)
    alpha = np.zeros(len(ext))
    if len(ext) >= 2:
        alpha = np.array([simplicial_constant(X, ext, j) for j in ext])
    # Guard the kappa formula against zero estimates from MC noise.
    clipped = np.maximum(omega, 0.5 / samples)
    kappa, kappa_bar = condition_kappa(clipped)
    m_req = required_m(clipped, len(ext), delta)
    return GeometryReport(
        ext_indices=tuple(ext),
        omega_hat=omega,
        omega_se=se,
        alpha_hat=alpha,
        kappa=kappa,
        kappa_bar=kappa_bar,
        delta=delta,
        m_required=m_req,
    )
