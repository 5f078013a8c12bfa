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
hull of the others, is solved exactly as a least-distance NNLS (see
``simplicial_constant``).  Also included: numeric checks of the
spherical-cap area bounds and of the two inequalities tying solid angles to
simplicial constants, on synthetic polytopes with known vertex adjacency.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _rng
from .extreme_points import _BLOCK_BYTES, _MIN_BLOCK, block_optima
from .matrix_io import _checked_indices, require_matrix
from .nnls import nnls_fit

# Monte Carlo blocks share the pursuit kernel's budget (``_BLOCK_BYTES`` and
# ``_MIN_BLOCK`` of ``extreme_points``): a solid-angle block holds at most
# that many bytes of scores, but never fewer than _MIN_BLOCK pairs, and a
# cap-area block at most that many bytes of draws.


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

    X is first scaled by the power of two that puts max|X| in [0.5, 1).  The
    scaling is exact and leaves every angle alone; afterwards no score of a
    finite direction overflows to a false tie, and an X near underflow no
    longer loses its scores to zero.

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
    ext_indices = np.asarray(_checked_indices(ext_indices, X.shape[0]), dtype=np.int64)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    n, p = X.shape
    X = np.ldexp(X, -math.frexp(max(X.max(initial=0.0), -X.min(initial=0.0)))[1])
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


def _nearest_in_hull(h, A, tol: float, what: str) -> tuple[float, np.ndarray]:
    """(alpha, s): distance from h to conv(rows of A) and the hull weights of
    the nearest point, as in ``simplicial_constant``; warnings name ``what``."""
    if not 0.0 <= tol < 1.0:  # tol >= c^2 >= 1 would accept u = 0
        raise ValueError(f"tol must lie in [0, 1), got {tol}")
    e = math.frexp(max(np.abs(A).max(), np.abs(h).max()))[1]
    B = np.ldexp(A, -e) - np.ldexp(h, -e)
    k, p = B.shape
    c = max(float(np.abs(B).max()), 1.0)
    sol = nnls_fit(np.append(np.zeros(p), c)[None, :], np.column_stack([B, np.full(k, c)]), tol)
    sigma = float(sol.W[0].sum())
    s = sol.W[0] / sigma
    y = s @ B
    dist = np.linalg.norm(B, axis=1)
    tau = 4.0 * (k + p) * np.finfo(np.float64).eps * dist.max()
    F = np.flatnonzero(s)
    K = np.pad(B[F] @ B[F].T, (0, 1), constant_values=1.0)
    K[-1, -1] = 0.0
    polished = np.zeros(k)
    try:
        polished[F] = np.linalg.solve(K, np.eye(F.size + 1)[-1])[:-1]
    except np.linalg.LinAlgError:  # affinely dependent support: keep s
        polished = s
    y_polished = polished @ B
    if (polished[F] > 0.0).all() and np.linalg.norm(y_polished) <= np.linalg.norm(y) + tau:
        s, y = polished, y_polished
    j = int(np.argmin(dist))
    if dist[j] < np.linalg.norm(y):
        s, y = np.eye(k)[j], B[j]
    alpha = float(np.linalg.norm(y))
    gap = alpha * alpha - float((B @ y).min())
    slack = tau * dist.max() + 2.0 * tol / sigma
    if not sol.converged or (alpha > tau and gap > slack):
        warnings.warn(
            f"simplicial constant of {what}: NNLS KKT {sol.kkt:.3g} (tol={tol:g}), "
            f"Wolfe certificate gap {gap:.3g} (allowed {slack:.3g})",
            RuntimeWarning,
            stacklevel=3,
        )
    return (0.0 if alpha <= tau else math.ldexp(alpha, e)), s


def simplicial_constant(X, ext_indices, i: int, tol: float = 1e-8) -> float:
    """Distance from extreme row i to the convex hull of the other extreme rows.

    Least-distance reduction (Lawson & Hanson 1974, ch. 23): h = x_i and the
    other rows a_j are scaled exactly by the power of two that puts their
    max|entry| in [0.5, 1).  With b_j = a_j - h and c = max(max|b|, 1), the
    NNLS of [0, ..., 0, c] against the rows [b_j, c] to KKT tol gives u >= 0,
    sigma = sum(u) > 0, and s = u / sigma minimizing ||y||, y = s B, over the
    simplex; alpha is ||y|| scaled back.  Polish: the Gram-form NNLS leaves
    s some ulps off, so s is re-solved on its support F from
    [[B_F B_F^T, 1], [1^T, 0]] [s_F; lam] = [0; 1], kept when positive and
    no farther from the origin (within tau).  A nearer vertex replaces y, so
    alpha never exceeds min_j ||b_j||.  Snap: y errs by about k eps max||b_j||
    from its k-term sums and p eps max||b_j|| from the solve's p-term
    products, so ||y|| <= tau = 4 (k + p) eps max_j ||b_j|| reads as 0 (row i
    inside the hull of the others, or a duplicate).  Certificate (Wolfe
    1976): y is optimal iff min_j b_j.y >= ||y||^2.  The NNLS gradient is
    sigma (b_j.y - ||y||^2) off its support and 0 on it, so KKT tol bounds
    the gap ||y||^2 - min_j b_j.y by tol / sigma, and alpha lies within
    gap / ||y|| of the exact distance.  An unconverged NNLS, or a gap above
    2 tol / sigma + tau max_j ||b_j||, emits a RuntimeWarning naming row i.
    A negative, out-of-range or repeated index raises ValueError, and so does
    a non-finite entry in the extreme rows; the other rows are not read.
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
    alpha, _ = _nearest_in_hull(A[0], A[1:], tol, f"row {i}")
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
    X,
    ext_indices,
    samples: int = 100_000,
    seed: int = 0,
    delta: float = 0.05,
    alpha_tol: float = 1e-8,
) -> GeometryReport:
    """Solid angles, simplicial constants and kappa at the rows ext_indices.  A
    lone archetype has no hull of others to measure; its alpha_hat reads 0.0."""
    X = require_matrix(X, "X")
    ext = [int(j) for j in ext_indices]
    omega, se = estimate_solid_angles(X, ext, samples=samples, seed=seed)
    alpha = np.zeros(len(ext))
    if len(ext) >= 2:
        alpha = np.array([simplicial_constant(X, ext, j, tol=alpha_tol) for j in ext])
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


# ---------------------------------------------------------------------------
# Spherical-cap bounds


@dataclass(frozen=True)
class CapBoundCheck:
    kind: str  # "lower" (by chordal radius) or "upper" (by height)
    p_dim: int
    parameter: float
    area: float
    se: float
    bound: float
    holds: bool


def cap_area_estimate(
    p_dim: int, height: float, samples: int, seed: int, first: int = 0
) -> tuple[float, float]:
    """Monte Carlo normalized area of the spherical cap {u : u_1 >= height}."""
    hits = 0
    block = max(1, _BLOCK_BYTES // (8 * p_dim))
    for done in range(0, samples, block):
        b = min(block, samples - done)
        Z = _rng.gaussian_rows(seed, _rng.DOMAIN_CAPS, first + done, b, p_dim)
        hits += int((Z[:, 0] / np.linalg.norm(Z, axis=1) >= height).sum())
    area = hits / samples
    return area, math.sqrt(area * (1.0 - area) / samples)


def check_cap_bounds(
    p_dim: int, trials: int = 8, samples: int = 50_000, seed: int = 0
) -> list[CapBoundCheck]:
    """Monte Carlo check of the cap-area bounds used in the recovery analysis.

    Lower bound: a cap of chordal radius r has area at least (1/2) (r/2)^(p-1).
    Upper bounds: a cap of height t has area at most (1 - t^2)^(p/2) on
    t in [0, 1/sqrt(2)] and at most (2t)^(-p) on t in [1/sqrt(2), 1).
    Assertions hold within 3 Monte Carlo standard errors.
    """
    if p_dim < 2:
        raise ValueError(f"p_dim must be >= 2, got {p_dim}")
    rng = _rng.generator(seed, _rng.DOMAIN_TRIALS)
    checks = []
    offset = 0
    # Zero-hit estimates have a degenerate binomial s.e.; the rule-of-three
    # limit 3/samples keeps the interval honest for areas below MC resolution.
    floor = 3.0 / samples
    for trial in range(trials):
        r = float(rng.uniform(0.05, 2.0))
        height = 1.0 - 0.5 * r * r  # chordal radius r <-> cap height
        area, se = cap_area_estimate(p_dim, height, samples, seed, first=offset)
        offset += samples
        bound = 0.5 * (r / 2.0) ** (p_dim - 1)
        holds = area + max(3 * se, floor) >= bound
        checks.append(CapBoundCheck("lower", p_dim, r, area, se, bound, holds))

        t = float(rng.uniform(0.0, 0.999))
        area, se = cap_area_estimate(p_dim, t, samples, seed, first=offset)
        offset += samples
        if t <= 1.0 / math.sqrt(2.0):
            bound = (1.0 - t * t) ** (p_dim / 2.0)
        else:
            bound = (1.0 / (2.0 * t)) ** p_dim
        holds = area - max(3 * se, floor) <= bound
        checks.append(CapBoundCheck("upper", p_dim, t, area, se, bound, holds))
    return checks


# ---------------------------------------------------------------------------
# Vertex polytopes with known combinatorics, and the angle/distance inequalities


@dataclass(frozen=True)
class VertexPolytope:
    """Full-dimensional polytope given by vertices and edge adjacency."""

    name: str
    vertices: np.ndarray
    neighbors: tuple[tuple[int, ...], ...]


def regular_simplex(k: int) -> VertexPolytope:
    """Regular simplex with k vertices, full-dimensional in R^(k-1)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    E = np.eye(k) - np.full((k, k), 1.0 / k)
    # Orthonormal basis of the sum-zero hyperplane maps e_i - centroid into
    # R^(k-1); all pairwise distances stay sqrt(2).
    q, _ = np.linalg.qr(E[:, : k - 1])
    verts = E @ q
    nbrs = tuple(tuple(j for j in range(k) if j != i) for i in range(k))
    return VertexPolytope(f"simplex-k{k}", verts, nbrs)


def hypercube(d: int) -> VertexPolytope:
    """Unit hypercube in R^d; vertices adjacent iff they differ in one coordinate."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    verts = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
    # Vertex i has the bits of i as coordinates: flipping one bit is one edge.
    nbrs = tuple(tuple(sorted(i ^ 1 << b for b in range(d))) for i in range(2**d))
    return VertexPolytope(f"cube-d{d}", verts, nbrs)


def needle_simplex(k: int, stretch: float) -> VertexPolytope:
    """Regular simplex with vertex 0 pulled away from the centroid by `stretch`.

    Combinatorics are unchanged; the pulled vertex gets a wide normal cone.
    """
    base = regular_simplex(k)
    verts = base.vertices.copy()
    centroid = verts.mean(axis=0)
    verts[0] = centroid + stretch * (verts[0] - centroid)
    return VertexPolytope(f"needle-k{k}-s{stretch:g}", verts, base.neighbors)


@dataclass(frozen=True)
class LemmaCheck:
    polytope: str
    vertex: int
    omega_hat: float
    omega_se: float
    alpha_hat: float
    r_max: float
    r_min: float | None
    alpha_bound: float | None
    alpha_bound_holds: bool | None
    omega_bound: float | None
    omega_bound_holds: bool | None
    note: str = ""


def _orthonormal_complement(a: np.ndarray) -> np.ndarray:
    """Columns form an orthonormal basis of the hyperplane orthogonal to a."""
    q, _ = np.linalg.qr(a.reshape(-1, 1), mode="complete")
    return q[:, 1:]


def _base_inradius(vertices: np.ndarray, i: int, alpha: float, a: np.ndarray):
    """Inscribed radius of the tangent-cone slice at distance alpha along a.

    Intersects the tangent cone at vertex i with the hyperplane through the
    projection point; returns the distance from that point to the slice
    boundary, in any dimension.  The slice is convex, so that distance is the
    smallest facet offset: Qhull's facet equations n.u + b <= 0 have unit
    normals, so at the axis point u = 0 each -b is the distance to a facet.
    An interval has offsets (min u, -max u).  An axis point on or outside the
    boundary (within 1e-12) returns (None, note).
    """
    h = vertices[i]
    rays = np.delete(vertices, i, axis=0) - h
    along = rays @ a
    if (along <= 1e-12).any():
        return None, "a ray does not cross the base plane"
    pts = alpha * rays / along[:, None]
    u = (pts - alpha * a) @ _orthonormal_complement(a)  # coordinates around the axis point
    if u.shape[1] == 1:
        offsets = np.array([u.min(), -u.max()])
    else:
        from scipy.spatial import ConvexHull

        offsets = ConvexHull(u).equations[:, -1]
    if not (offsets < -1e-12).all():
        return None, "axis point outside the base"
    return float(-offsets.max()), ""


def alpha_upper_bound(omega: float, r_max: float, d: int) -> float:
    """Simplicial-constant bound from the solid angle: alpha <= R_max * f(r(omega)).

    r(omega) = 2 (2 omega)^(1/(d-1)); the bound is vacuous (+inf) once
    r(omega)^2 / 2 >= 1.
    """
    r = 2.0 * (2.0 * omega) ** (1.0 / (d - 1))
    denom = 1.0 - 0.5 * r * r
    if denom <= 0.0 or r * r > 4.0:
        return math.inf
    return r_max * r * math.sqrt(1.0 - 0.25 * r * r) / denom


def omega_upper_bound(alpha: float, r_min: float, d: int):
    """Solid-angle bound from the simplicial constant, when the cap is small enough.

    Valid when r_min^2 / (alpha^2 + r_min^2) >= 1/2; returns None otherwise.
    """
    t2 = r_min * r_min / (alpha * alpha + r_min * r_min)
    if t2 < 0.5:
        return None
    return (math.sqrt(alpha * alpha + r_min * r_min) / (2.0 * r_min)) ** d


def check_simplicial_lemmas(
    polytopes, samples: int = 200_000, seed: int = 0, alpha_tol: float = 1e-9
) -> list[LemmaCheck]:
    """Verify both solid-angle/simplicial-constant inequalities numerically.

    For every vertex of every polytope: estimate omega by Monte Carlo, solve
    for alpha, compute R_max = diam of the neighbor hull and r_min = inscribed
    radius of the tangent-cone slice, then assert

        alpha <= R_max * r(omega) sqrt(1 - r(omega)^2/4) / (1 - r(omega)^2/2)
        omega <= (sqrt(alpha^2 + r_min^2) / (2 r_min))^d   [when applicable]

    with 3-sigma Monte Carlo slack folded into omega.  Vertices whose bound
    preconditions fail are reported with a note instead of a verdict.  A
    polytope in R^1 raises ValueError: r(omega) and the slice need d >= 2.
    """
    from scipy.spatial.distance import pdist

    checks = []
    for poly in polytopes:
        V = require_matrix(poly.vertices, poly.name)
        r, d = V.shape
        if d < 2:
            raise ValueError(f"{poly.name} lies in R^{d}; the lemma checks need d >= 2")
        ext = list(range(r))
        omega, se = estimate_solid_angles(V, ext, samples=samples, seed=seed)
        for i in range(r):
            r_max = float(pdist(V[list(poly.neighbors[i])]).max(initial=0.0))
            alpha, s = _nearest_in_hull(
                V[i], np.delete(V, i, axis=0), alpha_tol, f"{poly.name} vertex {i}"
            )
            note = ""
            r_min = None
            omega_bound = None
            omega_holds = None
            if alpha <= 1e-12:
                note = "vertex inside hull of others"
            else:
                proj = np.delete(V, i, axis=0).T @ s
                a = (proj - V[i]) / alpha
                r_min, note = _base_inradius(V, i, alpha, a)
                if r_min is not None:
                    omega_bound = omega_upper_bound(alpha, r_min, d)
                    if omega_bound is None:
                        note = "height precondition unmet"
                    else:
                        omega_holds = bool(omega[i] - 3 * se[i] <= omega_bound)
            ab = alpha_upper_bound(min(omega[i] + 3 * se[i], 0.5), r_max, d)
            checks.append(
                LemmaCheck(
                    polytope=poly.name,
                    vertex=i,
                    omega_hat=float(omega[i]),
                    omega_se=float(se[i]),
                    alpha_hat=alpha,
                    r_max=r_max,
                    r_min=r_min,
                    alpha_bound=ab,
                    alpha_bound_holds=bool(alpha <= ab),
                    omega_bound=omega_bound,
                    omega_bound_holds=omega_holds,
                    note=note,
                )
            )
    return checks
