"""Solid angles, simplicial constants, sample-size formula, inequality checks."""

import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from archpursuit import (
    PursuitConfig,
    condition_kappa,
    estimate_solid_angles,
    gen_hilbert_separable,
    gen_uniform_separable,
    geometry_report,
    pursue,
    required_m,
    simplicial_constant,
)
from archpursuit import _rng
from archpursuit.extreme_points import _BLOCK_BYTES, _MIN_BLOCK, linear_scores
from archpursuit.geometry import _nearest_in_hull, _row_space
from paper_checks import cap_area_estimate, check_cap_bounds, check_simplicial_lemmas
from paper_checks import hypercube, needle_simplex, regular_simplex

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def test_square_corner_angles_quarter():
    omega, se = estimate_solid_angles(SQUARE, [0, 1, 2, 3], samples=100_000, seed=1)
    for o, s in zip(omega, se):
        assert abs(o - 0.25) <= 3 * s
    assert abs(omega.sum() - 1.0) <= 3 * np.sqrt((se**2).sum())


def test_segment_endpoints_half():
    X = np.array([[0.0], [1.0]])
    omega, se = estimate_solid_angles(X, [0, 1], samples=20_000, seed=2)
    for o, s in zip(omega, se):
        assert abs(o - 0.5) <= 3 * s


def test_simplex_angles_one_over_k():
    for k in (3, 5):
        poly = regular_simplex(k)
        omega, se = estimate_solid_angles(
            poly.vertices, list(range(k)), samples=100_000, seed=k
        )
        for o, s in zip(omega, se):
            assert abs(o - 1.0 / k) <= 3 * s


def test_interior_candidate_scores_zero():
    X = np.vstack([SQUARE, [[0.5, 0.5]]])
    omega, _ = estimate_solid_angles(X, [4], samples=5_000, seed=3)
    assert omega[0] == 0.0


def test_angles_consistent_with_pursuit_votes():
    # Same estimator through two different streams: vote fraction in pursuit
    # vs direct Monte Carlo; agree within 3 combined standard errors.
    inst = gen_uniform_separable(40, 12, 4, seed=5)
    m = 40_000
    es = pursue(inst.X, PursuitConfig(m=m, seed=11))
    omega, se = estimate_solid_angles(inst.X, [0, 1, 2, 3], samples=60_000, seed=12)
    for i in range(4):
        frac = es.votes.get(i, 0) / (2 * m)
        se_frac = math.sqrt(max(frac * (1 - frac), 1e-12) / (2 * m))
        assert abs(frac - omega[i]) <= 3 * math.hypot(se_frac, se[i])


def test_scale_invariance_same_counts():
    omega1, _ = estimate_solid_angles(SQUARE, [0, 1, 2, 3], samples=10_000, seed=7)
    omega2, _ = estimate_solid_angles(3.7 * SQUARE, [0, 1, 2, 3], samples=10_000, seed=7)
    assert np.array_equal(omega1, omega2)


def polygon_exact_angles(V):
    """Closed-form normal-cone angles of a convex polygon: the normal cone at
    a vertex spans the outward normals of its two edges, so its solid angle
    is the exterior angle over 2*pi.  Vertices must be in convex position,
    counterclockwise."""
    r = V.shape[0]
    omega = np.zeros(r)
    for i in range(r):
        a = V[i] - V[(i - 1) % r]
        b = V[(i + 1) % r] - V[i]
        cross = float(a[0] * b[1] - a[1] * b[0])
        interior = math.pi - math.atan2(cross, float(a @ b))
        omega[i] = (math.pi - interior) / (2.0 * math.pi)
    return omega


def test_polygon_angles_match_exact_formula():
    rng = np.random.default_rng(31)
    for _ in range(3):
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, 7))
        V = np.column_stack([np.cos(angles), np.sin(angles)])
        exact = polygon_exact_angles(V)
        assert exact.sum() == pytest.approx(1.0, abs=1e-12)
        omega, se = estimate_solid_angles(
            V, list(range(7)), samples=80_000, seed=int(rng.integers(1 << 30))
        )
        for o, s, e in zip(omega, se, exact):
            assert abs(o - e) <= 3 * max(s, 1e-4)


def rp_win_counts(X, samples, seed):
    """Integer wins per row of the estimator without the row-space step or
    the certified gemm: each antithetic pair (z, -z) drawn in R^p, scored
    against X itself on the per-row path, and won by the argmax (for z) and
    the argmin (for -z), ties to the lowest index.  Pairs are scored in the
    estimator's blocks, since a per-row product may round a column
    differently in a block of another width."""
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    pairs = -(-samples // 2)
    block = max(_MIN_BLOCK, _BLOCK_BYTES // (8 * n))
    wins = np.zeros(n, dtype=np.int64)
    for done in range(0, pairs, block):
        Z = _rng.gaussian_rows(seed, _rng.DOMAIN_ANGLES, done, min(block, pairs - done), p)
        S = linear_scores(X, Z.T)
        for idx in (np.argmax(S, axis=0), np.argmin(S, axis=0)):
            np.add.at(wins, idx, 1)
    return wins


def rp_solid_angles(X, ext, samples, seed):
    """omega of the rows ext from ``rp_win_counts``."""
    return rp_win_counts(X, samples, seed)[list(ext)] / (2 * -(-samples // 2))


def embedded(V, p, seed):
    """Rows of V mapped into R^p by a random orthonormal map."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((p, V.shape[1])))
    return V @ Q.T


def test_full_column_rank_bit_identical_to_rp_sampling():
    rng = np.random.default_rng(40)
    for X in (SQUARE, regular_simplex(5).vertices, rng.standard_normal((30, 8))):
        ext = list(range(X.shape[0]))
        omega, _ = estimate_solid_angles(X, ext, samples=20_000, seed=41)
        assert np.array_equal(omega, rp_solid_angles(X, ext, 20_000, 41))


def test_embedded_polygon_matches_exact_angles():
    angles = np.sort(np.random.default_rng(42).uniform(0.0, 2.0 * math.pi, 7))
    V = np.column_stack([np.cos(angles), np.sin(angles)])
    exact = polygon_exact_angles(V)
    for p in (3, 50, 500):
        omega, se = estimate_solid_angles(
            embedded(V, p, seed=p), list(range(7)), samples=80_000, seed=43
        )
        for o, s, e in zip(omega, se, exact):
            assert abs(o - e) <= 4 * max(s, 1e-4)


def test_directions_are_drawn_in_the_row_space(monkeypatch):
    draws = []
    draw = _rng.gaussian_rows

    def spy(seed, domain, first_row, n_rows, row_len):
        draws.append((n_rows, row_len))
        return draw(seed, domain, first_row, n_rows, row_len)

    monkeypatch.setattr(_rng, "gaussian_rows", spy)
    inst = gen_uniform_separable(40, 12, 4, seed=5)  # rank 4 in R^12
    for X, r in ((inst.X, 4), (embedded(SQUARE, 50, seed=44), 2), (SQUARE, 2)):
        draws.clear()
        estimate_solid_angles(X, [0, 1], samples=10_000, seed=45)
        assert {width for _, width in draws} == {r}
        assert sum(rows for rows, _ in draws) == 5_000  # one draw per antithetic pair


def test_well_conditioned_tall_input_skips_the_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    rng = np.random.default_rng(52)
    X = rng.standard_normal((60, 10))
    omega, _ = estimate_solid_angles(X, range(60), samples=5_000, seed=53)
    assert calls == []
    assert np.array_equal(omega, rp_solid_angles(X, range(60), 5_000, 53))
    # Condition number 1e11 is past the QR certificate but still rank 10 by
    # the SVD rule: the SVD of the 10x10 factor runs and the draws stay in R^p.
    U, _ = np.linalg.qr(rng.standard_normal((60, 10)))
    V, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    X = (U * np.logspace(0, -11, 10)) @ V
    omega, _ = estimate_solid_angles(X, range(60), samples=5_000, seed=54)
    assert calls == [(10, 10)]
    assert np.array_equal(omega, rp_solid_angles(X, range(60), 5_000, 54))


def test_duplicated_vertex_in_row_space_scores_zero():
    # The first copy of a duplicated vertex wins its ties and keeps its angle.
    angles = np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False)
    V = np.column_stack([np.cos(angles), np.sin(angles)])
    X = embedded(np.vstack([V, V[3]]), 50, seed=46)
    omega, _ = estimate_solid_angles(X, list(range(8)), samples=20_000, seed=47)
    assert omega[7] == 0.0
    assert (omega[:7] > 0.1).all()


def test_degenerate_shapes():
    with pytest.raises(ValueError, match="at least one row"):
        estimate_solid_angles(np.empty((0, 4)), [], samples=1_000)
    # In R^0 every point is every other: each simplicial constant is 0.
    assert simplicial_constant(np.empty((3, 0)), [0, 1, 2], 1) == 0.0
    omega, se = estimate_solid_angles(np.zeros((3, 4)), [0, 1, 2], samples=1_000, seed=48)
    assert np.array_equal(omega, [1.0, 0.0, 0.0]) and np.array_equal(se, np.zeros(3))
    rng = np.random.default_rng(49)
    for X in (rng.standard_normal((1, 5)), np.zeros((1, 5)), [[0.0], [1.0], [-2.0], [1.0]]):
        X = np.asarray(X)
        ext = list(range(X.shape[0]))
        omega, _ = estimate_solid_angles(X, ext, samples=3_000, seed=50)
        assert np.array_equal(omega, rp_solid_angles(X, ext, 3_000, 50))


def test_extreme_scales_give_unscaled_counts():
    # Row 0 is the midpoint of rows 1 and 2.  Unscaled R^p sampling already
    # overflows to tied infinities at 1.7e308 and underflows to a positive
    # angle for row 0 at 2^-1070.
    R = np.array([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    # A rank-2 map into R^50 on the 1/8 grid keeps the 2^-1070 copy exact.
    M = np.random.default_rng(51).integers(-4, 5, (2, 50)) / 8.0
    for X in (R, R @ M):
        base, _ = estimate_solid_angles(X, range(4), samples=20_000, seed=0)
        assert base[0] == 0.0
        for scaled in (X * 1.7e308, X * 2.0**-1070):
            assert np.isfinite(scaled).all()
            omega, _ = estimate_solid_angles(scaled, range(4), samples=20_000, seed=0)
            assert np.array_equal(omega, base)


@pytest.mark.parametrize("samples", [20_000, 200_000])
def test_solid_angle_memory_stays_within_a_fixed_block(samples):
    # One block of 8,192 draws against 2,000 rows alone would be 131 MB of scores.
    X = np.random.default_rng(59).standard_normal((2_000, 3))
    tracemalloc.start()
    try:
        omega, _ = estimate_solid_angles(X, range(2_000), samples=samples, seed=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert abs(omega.sum() - 1.0) <= 1e-12


@st.composite
def hostile_rows(draw):
    """(X, base): rows of a small pool on the 1/8 grid, repeated at random,
    with a zero row in the pool, n and p down to 1, and X = base * 2^s for
    s in {0, 1000, -1000} (exact: every entry stays a normal number)."""
    p = draw(st.integers(1, 4))
    eighths = st.integers(-8, 8).map(lambda v: v / 8.0)
    pool = draw(arrays(np.float64, (draw(st.integers(1, 6)), p), elements=eighths))
    pool = np.vstack([pool, np.zeros(p)])
    base = pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))]
    return np.ldexp(base, draw(st.sampled_from([0, 1000, -1000]))), base


@settings(max_examples=150, deadline=None)
@given(hostile_rows(), st.integers(1, 3_001), st.integers(0, 2**32 - 1))
def test_each_end_of_every_pair_has_exactly_one_winner(case, samples, seed):
    X, base = case
    n = X.shape[0]
    pairs = -(-samples // 2)
    omega, se = estimate_solid_angles(X, range(n), samples=samples, seed=seed)
    wins = np.rint(omega * (2 * pairs)).astype(np.int64)
    assert np.array_equal(wins / (2 * pairs), omega)
    assert wins.sum() == 2 * pairs
    assert np.isfinite(se).all() and (se >= 0).all()
    if not base.any() or _row_space(base) is None:  # the draws stay in R^p
        assert np.array_equal(wins, rp_win_counts(base, samples, seed))


@st.composite
def tall_spectra(draw):
    """(X, r): X = U diag(s) V, n >= p, rows and columns in random order, an
    optional zero leading column; s_0 = 1 and each designed singular value
    is either at least 2^10 s_0 tol (r of them) or at most 2^-10 s_0 tol."""
    p = draw(st.integers(1, 24))
    n = draw(st.integers(p, 3 * p + 8))
    zero_col = p >= 2 and draw(st.booleans())
    q = p - zero_col
    r = draw(st.integers(1, q))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tol = max(n, p) * np.finfo(np.float64).eps
    s = np.exp2(rng.uniform(math.log2(tol) + 10.0, 0.0, q))
    s[0] = 1.0
    s[r:] = draw(st.sampled_from([0.0, 2.0**-10])) * tol * rng.uniform(size=q - r)
    U, _ = np.linalg.qr(rng.standard_normal((n, q)))
    V, _ = np.linalg.qr(rng.standard_normal((q, q)))
    X = ((U * s) @ V)[rng.permutation(n)][:, rng.permutation(q)]
    return (np.column_stack([np.zeros(n), X]) if zero_col else X), r


@settings(max_examples=300, deadline=None)
@given(tall_spectra())
# A rank-1 2x2 X whose SVD basis row was 4 eps short of unit length.
@example(case=(np.array([[0.0, -0.10444146418184275], [0.0, 0.994531035493389]]), 1))
# Two rank-2 inputs with a zero column whose computed error was 1.04x and
# 1.10x the exact-arithmetic bound 2 s_0 tol.
@example(case=(np.array([
    [0.0, -0.04692145285752896, 0.016112743532454888, -0.012795835670887398,
     0.007830940445690356, 0.003565519611547475, 0.028371670392287763, 0.01581634183091022],
    [0.0, 0.5747866799953655, -0.1961359364063252, 0.3349081134722675,
     -0.04734961088858391, -0.036332885359059666, -0.18800111059213948, -0.010973392329238019],
    [0.0, -0.2285175027171367, 0.07713472426922431, -0.25378729718277415,
     -0.014069983551963596, 0.009471515339122064, -0.03329435883764275, -0.11940177768365276],
    [0.0, -0.14764191167492563, 0.04960072723130504, -0.19759143874665386,
     -0.018258512133270514, 0.004733296118357582, -0.05162224809616591, -0.11163820314947535],
    [0.0, 0.047237248703800104, -0.015353180060193462, 0.13711488165230942,
     0.02599128920127674, 0.0015320013458882558, 0.0826945232497446, 0.11152962153388121],
    [0.0, -0.39602619160526664, 0.13713469195217012, 0.05516257555649624,
     0.11058447090320998, 0.03682004986879776, 0.3855825297766249, 0.30088324855520593],
    [0.0, -0.1642468293842802, 0.05805992015825778, 0.19248738705745366,
     0.09211136895382929, 0.022262816952761107, 0.31180963395166533, 0.2987923270629964],
    [0.0, 0.17440987521580448, -0.059310908392829514, 0.13073712577920285,
     -0.0064287318776397075, -0.009824383665981254, -0.03097229785073738, 0.026539386722284536],
]), 2))
@example(case=(np.array([
    [0.0, -0.008910469998718307, -0.42244472665756094, 0.5887555351871062],
    [0.0, 0.37490975242345914, -0.016642488369878573, -0.279439841183361],
    [0.0, -0.4665217349326605, 0.04019078125682751, 0.320903219813629],
    [0.0, -0.6694516806711286, 0.42539786295723225, -0.0457465046955058],
    [0.0, 0.100601088786218, -0.06679879831037928, 0.010829169834051737],
]), 2))
def test_row_space_cut_keeps_the_rank_within_twice_the_threshold(case):
    X, rank = case
    n, p = X.shape
    eps = np.finfo(np.float64).eps
    tol = max(n, p) * eps
    s = np.linalg.svd(X, compute_uv=False)
    Vr = _row_space(X)
    r = p if Vr is None else Vr.shape[0]
    assert r == int((s > s[0] * tol).sum()) == rank
    if Vr is not None:
        assert np.allclose(Vr @ Vr.T, np.eye(r), rtol=0.0, atol=1e-12)
        # 2 s_0 tol holds in exact arithmetic on the computed QR factor; the
        # rounding of the QR, of the SVD and of X Vr^T Vr here adds a few
        # p eps s_0 (the most seen so far is 1.6 p eps s_0, on an 11 x 9 X).
        assert np.linalg.norm(X - X @ Vr.T @ Vr, 2) <= (2.0 * tol + 4.0 * p * eps) * s[0]


def test_rank_deficient_square_input_takes_no_p_by_p_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    X = gen_uniform_separable(500, 500, 20, seed=0).X  # rank 20 in R^500
    omega, _ = estimate_solid_angles(X, range(20), samples=2_000, seed=57)
    assert calls and all(min(shape) < 500 for shape in calls), calls
    assert abs(omega.sum() - 1.0) <= 1e-12


def test_exact_ties_in_full_rank_input_match_rp_sampling():
    # Duplicated rows tie whenever they win, and a constant column ties all
    # rows on every direction; the lowest tied index takes the direction.
    V = regular_simplex(4).vertices  # full column rank in R^3
    for X in (np.vstack([V, V[1], V[1]]), np.vstack([np.eye(3), np.eye(3)]), np.full((4, 1), 2.0)):
        ext = range(X.shape[0])
        omega, _ = estimate_solid_angles(X, ext, samples=20_000, seed=58)
        assert np.array_equal(omega, rp_solid_angles(X, ext, 20_000, 58))
    assert omega.sum() == 1.0


# ---------------------------------------------------------------------------
# Simplicial constants


def test_basis_simplex_closed_form():
    X = np.eye(3)
    alpha = simplicial_constant(X, [0, 1, 2], 0)
    assert alpha == pytest.approx(math.sqrt(1.5), abs=1e-6)


def test_two_points_distance():
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    for i in (0, 1):
        assert simplicial_constant(X, [0, 1], i) == pytest.approx(5.0, abs=1e-8)


def hull_distance_grid_oracle(h, others, step=1e-3):
    """Brute force over the boundary of a planar hull: every vertex pair,
    densely gridded."""
    best = np.inf
    r = others.shape[0]
    t = np.arange(0.0, 1.0 + 0.5 * step, step)[:, None]
    for a in range(r):
        for b in range(a + 1, r):
            seg = (1.0 - t) * others[a] + t * others[b]
            best = min(best, float(np.linalg.norm(seg - h, axis=1).min()))
    return best


def test_planar_polygon_matches_grid_oracle():
    rng = np.random.default_rng(21)
    for _ in range(3):
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, 10))
        radius = rng.uniform(0.8, 1.3)
        X = radius * np.column_stack([np.cos(angles), np.sin(angles)])
        i = int(rng.integers(0, 10))
        mine = simplicial_constant(X, list(range(10)), i)
        oracle = hull_distance_grid_oracle(X[i], np.delete(X, i, axis=0))
        assert mine == pytest.approx(oracle, abs=1e-3)


def test_simplicial_scale_covariance():
    rng = np.random.default_rng(4)
    X = rng.random((8, 5))
    ext = list(range(8))
    a1 = simplicial_constant(X, ext, 2)
    a2 = simplicial_constant(7.0 * X, ext, 2)
    assert a2 == pytest.approx(7.0 * a1, rel=1e-9)


def test_simplicial_errors():
    with pytest.raises(ValueError):
        simplicial_constant(np.eye(3), [0], 0)
    with pytest.raises(ValueError):
        simplicial_constant(np.eye(3), [0, 1], 2)


@pytest.mark.parametrize(
    "ext, message",
    [
        ([0, 1, -2], "-2 is out of range"),
        ([0, 1, 4], "4 is out of range"),
        ([0, 0], "0 is repeated"),
        ([0, 1, 1], "1 is repeated"),
    ],
)
def test_bad_extreme_indices_are_rejected(ext, message):
    with pytest.raises(ValueError, match=message):
        estimate_solid_angles(SQUARE, ext, samples=100)
    with pytest.raises(ValueError, match=message):
        simplicial_constant(SQUARE, ext, 0)


SQUARE_AND_CENTRE = np.vstack([SQUARE, [[0.5, 0.5]]])


def test_simplicial_constant_at_hostile_scales():
    # Unscaled, the Gram matrix of these rows underflows at 1e-200 and
    # overflows at 1e200.
    base = [simplicial_constant(SQUARE_AND_CENTRE, range(4), i) for i in range(4)]
    assert base == [math.sqrt(0.5)] * 4
    for scale in (1e-200, 1e200):
        for i in range(4):
            alpha = simplicial_constant(scale * SQUARE_AND_CENTRE, range(4), i)
            assert alpha == pytest.approx(math.sqrt(0.5) * scale, rel=1e-15, abs=0.0)
    # max|X| = 2^(e-1) with e = +-1000: power-of-two scaling is exact, so the
    # scaled solve is the unit one bit for bit.
    for e in (-1000, 1000):
        X = np.ldexp(SQUARE_AND_CENTRE, e - 1)
        got = [simplicial_constant(X, range(4), i) for i in range(4)]
        assert got == [math.ldexp(a, e - 1) for a in base]
        assert np.array_equal(
            geometry_report(X, range(4), samples=1_000, seed=0).alpha_hat,
            np.ldexp(base, e - 1),
        )


def test_simplicial_constant_is_exactly_zero_inside_the_hull():
    assert simplicial_constant(SQUARE_AND_CENTRE, range(5), 4) == 0.0
    X = np.vstack([SQUARE, SQUARE[1]])
    assert simplicial_constant(X, range(5), 1) == 0.0
    assert simplicial_constant(X, range(5), 4) == 0.0
    assert simplicial_constant([[0.0], [1.0], [3.0]], range(3), 1) == 0.0
    assert simplicial_constant([[0.0], [1.0], [3.0]], range(3), 2) == 2.0


def test_simplicial_constant_never_exceeds_the_nearest_vertex():
    # Rows 1 and 2 nearly tie: their NNLS gradients differ by less than tol,
    # so the solve may mix them, though row 1 alone is nearest to row 0.
    X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0 + 1e-9, 1e-9]])
    assert simplicial_constant(X, range(3), 0) == 1.0


def test_simplicial_constant_warns_when_the_solve_stops_short():
    # A point off a needle: 34 rows within 1e-10 of a segment in R^13.
    # Rounding stalls the walk far above the certificate's bound, and the
    # warning says so.
    rng = np.random.default_rng(0)
    k, p = int(rng.integers(5, 40)), int(rng.integers(2, 20))
    needle = np.outer(rng.uniform(-1, 1, k), rng.standard_normal(p))
    X = np.vstack([needle + 1e-10 * rng.standard_normal((k, p)), rng.standard_normal(p)])
    with pytest.warns(RuntimeWarning, match=f"simplicial constant of row {k}: .* gap"):
        simplicial_constant(X, range(k + 1), k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        geometry_report(gen_uniform_separable(100, 60, 10, seed=7).X, range(10), samples=1_000)


@st.composite
def hulls(draw):
    """(h, A, e): h and the rows of A on a small integer grid, scaled by 2^e.

    Covers p = 1, k = 1, h on a vertex (duplicates), h inside the hull and
    exact ties.
    """
    p = draw(st.integers(1, 4))
    k = draw(st.integers(1, 8))
    grid = st.integers(-4, 4).map(float)
    A = draw(arrays(np.float64, (k, p), elements=grid))
    h = draw(arrays(np.float64, (p,), elements=grid))
    if draw(st.booleans()):
        h = A[draw(st.integers(0, k - 1))].copy()
    return h, A, draw(st.integers(-1000, 1000))


@settings(max_examples=300, deadline=None)
@given(hulls())
# Affinely dependent supports: a repeated row with h inside the hull.
@example((np.array([3.0]), np.array([[2.0], [2.0], [4.0]]), 0))
@example(
    (
        np.array([-2.0, -1.0]),
        np.array([[-2.0, -3.0], [0.0, -1.0], [3.0, 4.0], [-4.0, -4.0], [-4.0, -4.0], [1.0, 3.0], [0.0, 2.0]]),
        0,
    )
)
def test_wolfe_certificate_holds_within_rounding(hull):
    h, A, e = hull
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha, s = _nearest_in_hull(np.ldexp(h, e), np.ldexp(A, e), "h")
    assert s.min() >= 0.0 and s.sum() == pytest.approx(1.0, abs=1e-15)
    B = A - h
    dist = np.linalg.norm(B, axis=1)
    assert math.ldexp(alpha, -e) <= dist.min() * (1.0 + 4.0 * np.finfo(np.float64).eps)
    if dist.min() == 0.0:
        assert alpha == 0.0
    y = s @ B
    k, p = B.shape
    rounding = 4.0 * (k + p) * np.finfo(np.float64).eps * dist.max() ** 2
    assert float(y @ y) - float((B @ y).min()) <= rounding
    if alpha > 0.0:
        assert math.ldexp(alpha, -e) == pytest.approx(float(np.linalg.norm(y)), rel=1e-15)


@pytest.mark.parametrize("k", [20, 30])
def test_hilbert_simplicial_constants_are_certified(k):
    # The paper's ill-conditioned family: the archetypes are the leading rows
    # of the Hilbert matrix, nearly linearly dependent.
    H = gen_hilbert_separable(100, 1000, k, 1).X[:k]
    eps = np.finfo(np.float64).eps
    for i in range(k):
        A = np.delete(H, i, axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha, s = _nearest_in_hull(H[i], A, f"row {i}")
        B = A - H[i]
        y = s @ B
        rounding = 4.0 * sum(B.shape) * eps * np.linalg.norm(B, axis=1).max() ** 2
        assert float(y @ y) - float((B @ y).min()) <= rounding
        assert alpha == pytest.approx(float(np.linalg.norm(y)), rel=1e-15)
    if k == 20:
        # The affine minimizer of the same support, solved at 60 digits, has
        # all weights positive, meets the certificate and agrees to 2e-16.
        alpha = simplicial_constant(H, range(k), 18)
        assert alpha == pytest.approx(7.576484182388914e-05, rel=1e-15, abs=0.0)


def exact_squared_distance(h, others):
    """Squared distance from an integer point h to the hull of integer rows in
    R^1 or R^2, in exact rational arithmetic."""
    h = [Fraction(int(v)) for v in h]
    pts = [[Fraction(int(v)) for v in row] for row in others]
    if len(h) == 1:
        lo, hi = min(q[0] for q in pts), max(q[0] for q in pts)
        return max(Fraction(0), lo - h[0], h[0] - hi) ** 2

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    for a, b, c in itertools.combinations(pts, 3):
        if orient(a, b, c) != 0:
            sides = (orient(a, b, h), orient(b, c, h), orient(c, a, h))
            if min(sides) >= 0 or max(sides) <= 0:
                return Fraction(0)
    # Outside every triangle: the nearest point lies on a segment (or is a row,
    # a segment of one point); h on a segment or at a row gives 0 here.
    best = None
    for a, b in itertools.combinations_with_replacement(pts, 2):
        d = [b[0] - a[0], b[1] - a[1]]
        dd = d[0] * d[0] + d[1] * d[1]
        t = 0 if dd == 0 else min(max(((h[0] - a[0]) * d[0] + (h[1] - a[1]) * d[1]) / dd, 0), 1)
        q = [h[0] - a[0] - t * d[0], h[1] - a[1] - t * d[1]]
        dist2 = q[0] * q[0] + q[1] * q[1]
        best = dist2 if best is None else min(best, dist2)
    return best


@st.composite
def planar_hulls(draw):
    """(h, A) on the integer grid -3..3 in R^1 or R^2, h often a row of A."""
    p = draw(st.integers(1, 2))
    k = draw(st.integers(1, 6))
    grid = st.integers(-3, 3).map(float)
    A = draw(arrays(np.float64, (k, p), elements=grid))
    h = draw(arrays(np.float64, (p,), elements=grid))
    if draw(st.booleans()):
        h = A[draw(st.integers(0, k - 1))].copy()
    return h, A


@settings(max_examples=300, deadline=None)
@given(planar_hulls())
@example((np.array([0.0, 0.0]), np.array([[-1.0, -1.0], [2.0, -1.0], [-1.0, 2.0]])))  # inside
@example((np.array([1.0, 1.0]), np.array([[0.0, 0.0], [2.0, 2.0], [3.0, 3.0]])))  # on a segment
@example((np.array([0.0, 2.0]), np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [2.0, 2.0]])))  # collinear
@example((np.array([0.0]), np.array([[-1.0], [3.0], [3.0]])))
def test_simplicial_constant_matches_an_exact_rational_oracle(hull):
    h, A = hull
    k, p = A.shape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha = simplicial_constant(np.vstack([h, A]), range(k + 1), 0)
    exact = exact_squared_distance(h, A)
    if exact == 0:
        assert alpha == 0.0
    bound = 4.0 * (k + p) * np.finfo(np.float64).eps * float((np.linalg.norm(A - h, axis=1) ** 2).max())
    assert abs(Fraction(alpha) ** 2 - exact) <= Fraction(bound)


# ---------------------------------------------------------------------------
# Sample-size formula


def test_kappa_approaches_half_k():
    k = 100
    kappa, kappa_bar = condition_kappa(np.full(k, 1.0 / k))
    assert abs(kappa - k / 2.0) / (k / 2.0) <= 0.05
    assert kappa_bar == pytest.approx(kappa / k, rel=1e-12)


def test_required_m_square():
    m = required_m(np.full(4, 0.25), 4, 0.05)
    assert m == math.ceil(math.log(80.0) / math.log(2.0)) == 7


def test_required_m_segment_special_case():
    assert required_m([0.5, 0.5], 2, 0.1) == 1


def test_kappa_is_zero_once_an_angle_reaches_one_half():
    # A one-point hull (omega = 1) or a segment is found by one functional.
    for omega in ([1.0], [0.5, 0.5], [0.6, 0.4], [1.0, 0.25]):
        assert condition_kappa(omega) == (0.0, 0.0)
        assert required_m(omega, len(omega), 0.01) == 1
    assert condition_kappa([0.4999, 0.5001])[0] == 0.0
    assert condition_kappa([0.49, 0.49])[0] > 0.0
    with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
        condition_kappa([1.0 + 2**-52])


def test_required_m_errors():
    with pytest.raises(ValueError):
        required_m([0.0, 0.5], 2, 0.05)
    with pytest.raises(ValueError):
        required_m([1.5], 1, 0.05)
    with pytest.raises(ValueError):
        required_m([0.25], 1, 1.5)


def test_required_m_empirical_miss_rate():
    # The bound must hold empirically: miss rate <= delta + 3 sigma over many
    # trials, for the square and a simplex (known angles) and a uniform
    # instance (estimated angles).
    delta = 0.1
    trials = 1500

    def miss_rate(X, truth, m):
        misses = 0
        for t in range(trials):
            es = pursue(X, PursuitConfig(m=m, seed=50_000 + t))
            misses += not truth <= set(es.indices)
        return misses / trials

    sigma = math.sqrt(delta * (1 - delta) / trials)

    m = required_m(np.full(4, 0.25), 4, delta)
    assert miss_rate(SQUARE, {0, 1, 2, 3}, m) <= delta + 3 * sigma

    poly = regular_simplex(5)
    m = required_m(np.full(5, 0.2), 5, delta)
    assert miss_rate(poly.vertices, set(range(5)), m) <= delta + 3 * sigma

    inst = gen_uniform_separable(50, 20, 5, seed=9)
    omega, _ = estimate_solid_angles(inst.X, list(range(5)), samples=50_000, seed=13)
    m = required_m(omega, 5, delta)
    assert miss_rate(inst.X, set(range(5)), m) <= delta + 3 * sigma


# ---------------------------------------------------------------------------
# Cap bounds


def test_cap_bounds_hold():
    for p_dim in (2, 3, 6):
        checks = check_cap_bounds(p_dim, trials=6, samples=20_000, seed=p_dim)
        assert len(checks) == 12
        assert all(c.holds for c in checks)


def test_cap_closed_form_p3():
    # In R^3 a cap of height t has exact normalized area (1 - t)/2.
    area, se = cap_area_estimate(3, 0.5, samples=100_000, seed=0)
    assert abs(area - 0.25) <= 3 * se
    assert 0.25 <= (1.0 - 0.5**2) ** 1.5  # the bound 0.6495... dominates


def test_cap_hemisphere_and_full_sphere():
    area, se = cap_area_estimate(4, 0.0, samples=50_000, seed=1)
    assert abs(area - 0.5) <= 3 * se  # hemisphere
    assert 0.5 <= (1.0 - 0.0) ** 2.0
    # Chordal radius 2 is the whole sphere: lower bound (1/2) * 1^(p-1).
    area, _ = cap_area_estimate(4, 1.0 - 0.5 * 2.0**2, samples=1_000, seed=2)
    assert area == 1.0
    assert area >= 0.5


# ---------------------------------------------------------------------------
# Angle/simplicial-constant inequalities on known polytopes


def test_lemma_checks_on_standard_shapes():
    shapes = [regular_simplex(4), hypercube(2), needle_simplex(4, 5.0)]
    checks = check_simplicial_lemmas(shapes, samples=100_000, seed=3)
    assert all(c.alpha_bound_holds for c in checks)
    verified = [c for c in checks if c.omega_bound_holds is not None]
    assert verified, "no vertex admitted the solid-angle bound"
    assert all(c.omega_bound_holds for c in verified)


def test_needle_vertex_has_large_angle():
    checks = check_simplicial_lemmas(
        [needle_simplex(4, 8.0)], samples=50_000, seed=5
    )
    needle = checks[0]
    rest = [c.omega_hat for c in checks[1:]]
    assert needle.vertex == 0
    assert needle.omega_hat > max(rest)


def test_square_angle_bound_quantities():
    # Hand-computed for the unit square corner: alpha = r_min = sqrt(1/2),
    # height^2 = 1/2 exactly at the bound's precondition, omega bound = 1/2.
    checks = check_simplicial_lemmas([hypercube(2)], samples=20_000, seed=6)
    c = checks[0]
    assert c.alpha_hat == pytest.approx(math.sqrt(0.5), abs=1e-7)
    assert c.r_min == pytest.approx(math.sqrt(0.5), abs=1e-7)
    assert c.omega_bound == pytest.approx(0.5, abs=1e-6)
    assert c.r_max == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_cube_checks_run():
    checks = check_simplicial_lemmas([hypercube(3)], samples=30_000, seed=7)
    assert len(checks) == 8
    assert all(c.alpha_bound_holds for c in checks)


@pytest.mark.parametrize(
    "poly", [regular_simplex(k) for k in range(3, 7)] + [hypercube(d) for d in range(2, 6)],
    ids=lambda poly: poly.name,
)
def test_lemma_slice_inradius_closed_form(poly):
    # Both families have r_min = 1/sqrt(d (d - 1)) at every vertex in R^d,
    # and their slices run from dimension 1 to 4.
    d = poly.vertices.shape[1]
    checks = check_simplicial_lemmas([poly], samples=2_000, seed=0)
    assert len(checks) == poly.vertices.shape[0]
    for c in checks:
        assert c.r_min == pytest.approx(1.0 / math.sqrt(d * (d - 1)), abs=1e-12)


@pytest.mark.parametrize("poly", [hypercube(1), regular_simplex(2)], ids=lambda poly: poly.name)
def test_lemma_checks_reject_a_polytope_in_r1(poly):
    with pytest.raises(ValueError, match=rf"{poly.name} lies in R\^1; .* need d >= 2"):
        check_simplicial_lemmas([poly], samples=100, seed=0)


@pytest.mark.parametrize("d", range(1, 8))
def test_hypercube_neighbors_differ_in_one_coordinate(d):
    V = hypercube(d).vertices
    expected = tuple(
        tuple(j for j in range(len(V)) if np.abs(V[i] - V[j]).sum() == 1.0)
        for i in range(len(V))
    )
    assert hypercube(d).neighbors == expected


# ---------------------------------------------------------------------------
# Report


def test_geometry_report_square():
    rep = geometry_report(SQUARE, [0, 1, 2, 3], samples=30_000, seed=8, delta=0.05)
    assert abs(float(rep.omega_hat.sum()) - 1.0) <= 0.02
    assert rep.m_required >= 7 - 1  # near the exact-angle value
    assert rep.kappa == pytest.approx(1.0 / math.log(2.0), rel=0.05)
    assert np.allclose(rep.alpha_hat, math.sqrt(0.5), atol=1e-6)
