"""Test oracles from the paper: the spherical-cap area bounds, polytopes with known
adjacency and the two inequalities tying solid angles to simplicial constants, plus the
NNLS optimality certificate and the exact cone-orthant projection.  No pipeline stage
runs them; pytest does not collect this module (its name does not match
``test_*.py``)."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull
from scipy.spatial.distance import pdist

from archpursuit import _rng
from archpursuit.geometry import _nearest_in_hull, estimate_solid_angles
from archpursuit.matrix_io import require_matrix

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
    Z = _rng.gaussian_rows(seed, _rng.DOMAIN_CAPS, first, samples, p_dim)
    area = int((Z[:, 0] / np.linalg.norm(Z, axis=1) >= height).sum()) / samples
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
    polytopes, samples: int = 200_000, seed: int = 0
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
            alpha, s = _nearest_in_hull(V[i], np.delete(V, i, axis=0), f"{poly.name} vertex {i}")
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


# ---------------------------------------------------------------------------
# NNLS optimality


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


# ---------------------------------------------------------------------------
# Cone-orthant projection


def project_cone_orthant(x) -> np.ndarray:
    """Project onto (second-order cone) ∩ (non-negative orthant).

    The last coordinate is the cone height t, the first q-1 are the group
    coefficients.  Computed as the composition P_cone(P_orthant(.)), where
    the orthant clip leaves t alone; the composition equals the exact
    projection onto the intersection.  x is first scaled exactly by a power
    of two so that the group norm cannot overflow or underflow.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 2:
        raise ValueError(f"expected a vector of length >= 2, got shape {x.shape}")
    e = math.frexp(float(np.abs(x).max()))[1]
    y = np.ldexp(x, -e)
    w, t = np.maximum(y[:-1], 0.0), float(y[-1])
    norm = float(np.linalg.norm(w))
    if t < norm <= -t:
        w, t = np.zeros_like(w), 0.0
    elif norm > t:
        t = 0.5 * (norm + t)
        w = w * (t / norm)
    return np.ldexp(np.append(w, t), e)
