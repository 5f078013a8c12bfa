"""The group prox, the lasso path, and ``paper_checks.project_cone_orthant`` against oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from archpursuit import (
    GroupLassoProblem,
    PursuitConfig,
    default_lambda_grid,
    gen_noisy_pairs,
    gen_uniform_separable,
    lambda_max,
    nnls_fit,
    pursue,
    select_by_persistence,
    solve_path,
)
from archpursuit.experiments import _NOISE_PATH
from archpursuit.glasso import _group_prox
from paper_checks import project_cone_orthant


def in_cone_orthant(y, tol=1e-12):
    return (y[:-1] >= -tol).all() and np.linalg.norm(y[:-1]) <= y[-1] + tol


def soc_projection(v, s):
    """Projection of (v, s) onto the second-order cone {||v||_2 <= s}, written
    here so that the oracle shares no code with the projection it checks."""
    nv = float(np.linalg.norm(v))
    if nv <= s:
        return v, s
    if nv <= -s:
        return np.zeros_like(v), 0.0
    a = 0.5 * (nv + s)
    return (a / nv) * v, a


def dykstra_oracle(x, iters=5000, tol=1e-13):
    """Independent projection onto cone ∩ orthant by Dykstra's algorithm,
    which only uses the two individual projections."""
    y = np.asarray(x, dtype=np.float64).copy()
    p = np.zeros_like(y)
    q = np.zeros_like(y)
    for _ in range(iters):
        u = y + p
        u = np.append(np.maximum(u[:-1], 0.0), u[-1])
        p = y + p - u
        w, t = soc_projection(u[:-1] + q[:-1], u[-1] + q[-1])
        y_new = np.append(w, t)
        q = u + q - y_new
        if np.abs(y_new - y).max() <= tol:
            return y_new
        y = y_new
    return y


def grid_oracle_q2(x, span=4.0, step=1e-3):
    """Exhaustive 2-D search over the feasible set for q = 2."""
    t = np.arange(0.0, span, step)
    best, best_d = None, np.inf
    for ti in t:
        w = np.arange(0.0, ti + 0.5 * step, step)  # w in [0, ti] only
        d = (w - x[0]) ** 2 + (ti - x[1]) ** 2
        j = int(np.argmin(d))
        if d[j] < best_d:
            best_d, best = d[j], np.array([w[j], ti])
    return best


def test_fixed_points_unchanged():
    x = np.array([0.3, 0.4, 1.0])  # ||(0.3, 0.4)|| = 0.5 <= 1, all >= 0
    assert np.array_equal(project_cone_orthant(x), x)


def test_worked_example_negative_height():
    # Clip keeps (1, -1); the cone projection of a point below the anti-cone
    # axis is the origin.  Verified against both independent oracles.
    x = np.array([1.0, -1.0])
    got = project_cone_orthant(x)
    assert np.allclose(got, [0.0, 0.0], atol=1e-15)
    assert np.allclose(dykstra_oracle(x), got, atol=1e-9)
    assert np.allclose(grid_oracle_q2(x), got, atol=2e-3)


def test_worked_example_negative_coefficient():
    x = np.array([-3.0, 1.0])
    got = project_cone_orthant(x)
    assert np.allclose(got, [0.0, 1.0], atol=1e-15)
    assert np.allclose(dykstra_oracle(x), got, atol=1e-9)
    assert np.allclose(grid_oracle_q2(x), got, atol=2e-3)


def test_length_validation():
    with pytest.raises(ValueError):
        project_cone_orthant(np.array([1.0]))


@pytest.mark.parametrize("q", [2, 3, 5, 10])
def test_projection_matches_dykstra(q):
    rng = np.random.default_rng(q)
    for _ in range(100):
        x = rng.standard_normal(q) * rng.choice([0.5, 1.0, 3.0])
        mine = project_cone_orthant(x)
        assert in_cone_orthant(mine)
        assert np.abs(mine - dykstra_oracle(x)).max() <= 1e-6


def test_projection_certificates():
    # The three optimality conditions for a projection onto a closed convex
    # cone: membership, the residual lies in the polar cone (checked through
    # its dual characterization on sampled members), orthogonality.
    rng = np.random.default_rng(11)
    for q in (2, 3, 5, 10):
        for _ in range(50):
            x = rng.standard_normal(q) * 2.0
            y = project_cone_orthant(x)
            assert in_cone_orthant(y)
            r = x - y
            assert abs(float(y @ r)) <= 1e-9 * max(1.0, np.linalg.norm(x) ** 2)
            w = np.abs(rng.standard_normal((20, q - 1)))
            t = np.linalg.norm(w, axis=1) * (1.0 + np.abs(rng.standard_normal(20)))
            Z = np.column_stack([w, t])
            assert (Z @ r <= 1e-9 * np.linalg.norm(Z, axis=1) * max(1.0, np.linalg.norm(r))).all()


def test_projection_idempotent_and_nonexpansive():
    rng = np.random.default_rng(13)
    for _ in range(200):
        q = int(rng.integers(2, 8))
        x = rng.standard_normal(q) * 3.0
        y = rng.standard_normal(q) * 3.0
        px, py = project_cone_orthant(x), project_cone_orthant(y)
        assert np.abs(project_cone_orthant(px) - px).max() <= 1e-12
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


@settings(max_examples=300, deadline=None)
@given(
    arrays(np.float64, st.integers(2, 8), elements=st.floats(-1e150, 1e150)),
    st.lists(arrays(np.float64, 7, elements=st.floats(0.0, 1e3)), min_size=1, max_size=5),
)
@example(np.full(4, 3.69634206e-156), [np.zeros(7)])
def test_projection_is_the_moreau_decomposition(x, rays):
    # P = P_K(x) and Q = x - P split x into orthogonal parts with P in K and
    # Q in the polar cone: <Q, z> <= 0 for every z in K.  K's extreme rays
    # are (u, 1) with u >= 0 and ||u|| = 1; the worst one for Q has u along
    # the positive part of Q's coefficients.  Rounding is relative to ||x||,
    # with an absolute floor of the subnormal spacing; norms and <P, Q> are
    # taken on copies scaled by a power of two m so that their products
    # cannot underflow.
    def norm(v):
        m = float(np.abs(v).max())
        return m * float(np.linalg.norm(v / m)) if m > 0.0 else 0.0

    P = project_cone_orthant(x)
    Q = x - P
    q = x.size
    f = np.finfo(np.float64)
    scale = 4.0 * q * (f.eps * norm(x) + f.smallest_subnormal)
    assert P[:-1].min() >= 0.0 and norm(P[:-1]) <= P[-1] + scale
    m = 2.0 ** math.frexp(float(np.abs(x).max()))[1]
    assert abs(float((P / m) @ (Q / m))) <= scale / m * (norm(x) / m)
    Z = [np.eye(q)[-1]]
    for w in (np.maximum(Q[:-1], 0.0), *(r[: q - 1] for r in rays)):
        if w.max() > 0.0:
            u = w / w.max()
            Z.append(np.append(u / np.linalg.norm(u), 1.0))
    for z in Z:
        assert float(Q @ z) <= scale * float(np.linalg.norm(z))


# ---------------------------------------------------------------------------
# lambda_max and the path


def test_lambda_max_zero_when_orthogonal():
    X = np.zeros((4, 6))
    X[:, :3] = np.random.default_rng(0).random((4, 3))
    H = np.zeros((2, 6))
    H[:, 3:] = np.random.default_rng(1).random((2, 3))
    assert lambda_max(X, H) == 0.0


def _small_problem(seed=0):
    inst = gen_uniform_separable(40, 30, 4, seed=seed)
    return inst, inst.X, inst.X[:6]  # 4 true extremes + 2 interior candidates


def test_path_all_zero_above_lambda_max():
    _, X, H = _small_problem()
    lam = lambda_max(X, H)
    grid = np.array([1.5, 1.2, 1.01]) * lam
    path = solve_path(GroupLassoProblem(X, H, grid))
    for W, act in zip(path.weights, path.active):
        assert np.abs(W).max() == 0.0
        assert act == ()


def test_path_activates_below_lambda_max():
    _, X, H = _small_problem()
    lam = lambda_max(X, H)
    path = solve_path(GroupLassoProblem(X, H, np.array([0.5 * lam])))
    assert len(path.active[0]) >= 1


def test_path_endpoint_converges_to_nnls_fit():
    # As the penalty vanishes the path's fit term approaches the unpenalized
    # NNLS optimum from above, with the gap shrinking like lambda^2.
    rng = np.random.default_rng(3)
    inst = gen_uniform_separable(30, 25, 4, seed=3)
    X = inst.X + 0.3 * rng.standard_normal(inst.X.shape)
    H = X[:4]
    lam = lambda_max(X, H)
    grid = np.geomspace(lam, 1e-5 * lam, 40)
    path = solve_path(GroupLassoProblem(X, H, grid), tol=1e-12, max_iter_per_lambda=20000)
    sol = nnls_fit(X, H)
    f_nnls = 0.5 * np.linalg.norm(X - sol.W @ H) ** 2
    gaps = path.fit_objectives - f_nnls
    assert gaps[-1] >= -1e-9 * f_nnls
    assert path.fit_objectives[-1] == pytest.approx(f_nnls, rel=1e-4)
    # quadratic decay: two decades of lambda shrink the gap by ~1e4
    mid = np.searchsorted(-grid, -grid[-1] * 100.0)
    assert gaps[-1] <= gaps[mid] * 1e-2


def test_path_objective_monotone_weights_nonnegative():
    _, X, H = _small_problem(seed=5)
    lam = lambda_max(X, H)
    path = solve_path(GroupLassoProblem(X, H, default_lambda_grid(lam, num=20)))
    assert (np.diff(path.objectives) <= 1e-9 * np.abs(path.objectives[:-1]) + 1e-12).all()
    for W in path.weights:
        assert W.min() >= 0.0


def test_true_extremes_persist_longer_than_interior():
    inst, X, H = _small_problem(seed=7)
    lam = lambda_max(X, H)
    path = solve_path(GroupLassoProblem(X, H, default_lambda_grid(lam, num=30)))
    counts = [sum(g in act for act in path.active) for g in range(6)]
    # Groups 0..3 are the true extreme rows, groups 4..5 interior rows.
    assert min(counts[:4]) > max(counts[4:])
    top = select_by_persistence(path, 4)
    assert sorted(top) == [0, 1, 2, 3]


def test_path_reports_iterations_and_cap_hits():
    _, X, H = _small_problem()
    grid = default_lambda_grid(lambda_max(X, H), num=4)
    # The gap is first checked at iteration 5, so a cap of 4 stops every
    # penalty short, even the one at lambda_max, where W = 0 is optimal.
    with pytest.warns(RuntimeWarning, match=r"max_iter_per_lambda=4 .*\[0, 1, 2, 3\]"):
        short = solve_path(GroupLassoProblem(X, H, grid), max_iter_per_lambda=4)
    assert short.iterations.tolist() == [4, 4, 4, 4]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        full = solve_path(GroupLassoProblem(X, H, grid))
    assert ((full.iterations % 5 == 0) & (full.iterations < 5000)).all()
    assert (full.gaps <= 1e-6).all(), full.gaps


_unit = st.floats(0.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 5)), elements=_unit),
    arrays(np.float64, st.tuples(st.integers(1, 5), st.just(5)), elements=_unit),
    st.floats(1e-10, 1e-1),
    st.integers(1, 60),
)
@example(np.ones((1, 2)), np.full((1, 5), 8.01583442e-163), 0.0625, 1)
def test_every_uncapped_penalty_stops_within_tol(X, H, tol, cap):
    # The warning names exactly the penalties that ran out of iterations
    # without a passing gap check; every other one stopped at a check (a
    # multiple of 5 iterations) with its recorded gap at most tol.
    H = H[:, : X.shape[1]]
    assume(H.any())
    lam = lambda_max(X, H)
    assume(lam > 0.0)
    grid = default_lambda_grid(lam, num=5, span=1e-2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        path = solve_path(GroupLassoProblem(X, H, grid), tol=tol, max_iter_per_lambda=cap)
    named = []
    if caught:
        (w,) = caught
        assert f"max_iter_per_lambda={cap} " in str(w.message)
        named = [int(t) for t in str(w.message).split("[")[1].rstrip("]").split(",")]
    short = (path.iterations == cap) & ((cap % 5 != 0) | (path.gaps > tol))
    assert named == np.flatnonzero(short).tolist()
    done = ~short
    assert (path.gaps[done] <= tol).all(), (path.gaps, tol)
    assert (path.iterations[done] % 5 == 0).all() and (path.iterations <= cap).all()


def test_objectives_are_fit_plus_penalty():
    _, X, H = _small_problem(seed=5)
    path = solve_path(GroupLassoProblem(X, H, default_lambda_grid(lambda_max(X, H), num=20)))
    expected = path.fit_objectives + path.lambdas * path.group_norms.sum(axis=1)
    assert np.allclose(path.objectives, expected, rtol=4 * np.finfo(float).eps, atol=0)


def _hostile_scale_instances():
    noisy = gen_noisy_pairs(200, 8, 0.01, seed=3)
    uniform = gen_uniform_separable(60, 30, 6, seed=4).X
    return {"noisy-pairs": (noisy, noisy[:16]), "uniform": (uniform, uniform[:10])}


@pytest.mark.parametrize("name", ["noisy-pairs", "uniform"])
def test_path_is_scale_equivariant_bit_for_bit(name):
    # Scaling X and H by 2^s and the grid by 2^(2s) leaves every W, gap,
    # iteration count and active set bit for bit as they are, and scales the
    # objectives exactly; the stopping rule has no absolute floor that a
    # small-scale X would fall under.
    X, H = _hostile_scale_instances()[name]
    grid = default_lambda_grid(lambda_max(X, H), num=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ref = solve_path(GroupLassoProblem(X, H, grid))
        for s in (-100, -20, 20, 100):
            got = solve_path(GroupLassoProblem(np.ldexp(X, s), np.ldexp(H, s), np.ldexp(grid, 2 * s)))
            assert np.array_equal(got.iterations, ref.iterations), s
            assert got.active == ref.active, s
            assert all(np.array_equal(a, b) for a, b in zip(got.weights, ref.weights)), s
            assert np.array_equal(got.group_norms, ref.group_norms), s
            assert np.array_equal(got.gaps, ref.gaps), s
            assert np.array_equal(got.objectives, np.ldexp(ref.objectives, 2 * s)), s


_prox_entries = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@settings(max_examples=300, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)), elements=_prox_entries),
    st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    st.sampled_from([-600, -300, 0, 300, 600]),
    arrays(np.float64, 6, elements=st.floats(0.0, 1e3)),
)
def test_group_prox_is_the_exact_minimizer(z0, tau0, s, u_seed):
    # w = prox(z) minimizes 0.5*||w - z||^2 + tau*||w|| over w >= 0, column
    # by column, iff w >= 0 and <z - w, u - w> <= tau*(||u|| - ||w||) for
    # every u >= 0.  z and tau are scaled by 2^s; the checks run on the
    # exactly unscaled w, since the condition is homogeneous, with norms
    # from math.hypot, which shares no code with the prox.
    w, w_norms = _group_prox(np.ldexp(z0, s), float(np.ldexp(tau0, s)))
    assert w.shape == z0.shape and np.isfinite(w).all() and w.min() >= 0.0
    w0 = np.ldexp(w, -s)
    eps = np.finfo(np.float64).eps
    for i in range(z0.shape[1]):
        z, wi = z0[:, i], w0[:, i]
        z_pos = math.hypot(*np.maximum(z, 0.0))
        w_norm = math.hypot(*wi)
        if tau0 == 0.0:
            assert np.array_equal(wi, np.maximum(z, 0.0))
        elif abs(z_pos - tau0) > 4 * eps * z_pos:
            # w = 0 exactly when ||z_+|| <= tau, away from a rounding tie.
            assert (not wi.any()) == (z_pos < tau0), (z_pos, tau0, wi)
        assert math.isclose(math.ldexp(w_norms[i], -s), w_norm, rel_tol=16 * eps, abs_tol=0.0)
        u_rand = u_seed[: z.size] * (1.0 + z_pos) / (1.0 + math.hypot(*u_seed[: z.size]))
        for u in (np.zeros_like(z), 2.0 * wi, np.maximum(z, 0.0), u_rand):
            lhs = float((z - wi) @ (u - wi))
            rhs = tau0 * (math.hypot(*u) - w_norm)
            size = (math.hypot(*z) + math.hypot(*u) + tau0) ** 2
            assert lhs <= rhs + 16 * z.size * eps * size, (u, lhs, rhs)


def test_select_by_persistence_rules():
    _, X, H = _small_problem(seed=9)
    lam = lambda_max(X, H)
    path = solve_path(GroupLassoProblem(X, H, default_lambda_grid(lam, num=10)))
    assert len(select_by_persistence(path, 3)) == 3
    with pytest.warns(RuntimeWarning, match="fewer"):
        got = select_by_persistence(path, 99)
    assert len(got) == 6
    with pytest.raises(ValueError):
        select_by_persistence(path, 0)


def _fabricated_path(active, norms, lambdas):
    from archpursuit import LassoPath

    T, k = norms.shape
    return LassoPath(
        lambdas=np.asarray(lambdas, dtype=float),
        weights=tuple(np.zeros((1, k)) for _ in range(T)),
        group_norms=np.asarray(norms, dtype=float),
        active=tuple(tuple(a) for a in active),
        objectives=np.zeros(T),
        fit_objectives=np.zeros(T),
        iterations=np.zeros(T, dtype=np.int64),
        gaps=np.zeros(T),
    )


def test_persistence_always_active_beats_never_active():
    path = _fabricated_path(
        active=[(0,), (0,), (0,)],
        norms=np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]),
        lambdas=[1.0, 0.1, 0.01],
    )
    assert select_by_persistence(path, 1) == [0]


def test_persistence_identical_activity_ties_by_index():
    path = _fabricated_path(
        active=[(2, 5, 7), (2, 5, 7)],
        norms=np.array([[0, 0, 1, 0, 0, 1, 0, 1], [0, 0, 1, 0, 0, 1, 0, 1]], float),
        lambdas=[1.0, 0.1],
    )
    assert select_by_persistence(path, 2) == [2, 5]


def test_persistence_selects_true_rows_on_noisy_pairs():
    # The full noisy selection recipe: pursue candidates, rank by path
    # persistence, keep 20.  All 50 seeded trials must pick exactly the true
    # rows at least 90% of the time.
    import math
    import warnings

    from archpursuit import PursuitConfig, gen_noisy_pairs, pursue
    from archpursuit import _rng

    k, p, eps = 20, 1000, 0.01
    m = math.ceil(5 * k * math.log(k))
    hits = 0
    trials = 50
    for trial in range(trials):
        inst_seed = _rng.child_seed(777, _rng.DOMAIN_TRIALS, 2 * trial)
        run_seed = _rng.child_seed(777, _rng.DOMAIN_TRIALS, 2 * trial + 1)
        X = gen_noisy_pairs(p, k, eps, inst_seed)
        es = pursue(X, PursuitConfig(m=m, seed=run_seed))
        cand = list(es.indices)
        lam = lambda_max(X, X[cand])
        path = solve_path(
            GroupLassoProblem(X, X[cand], default_lambda_grid(lam, num=30)), *_NOISE_PATH
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            picked = select_by_persistence(path, k)
        hits += sorted(cand[g] for g in picked) == list(range(k))
    assert hits / trials >= 0.90


# solve_path at noise_cell's settings (m = 180 candidates pursued, 20 grid
# points, ``_NOISE_PATH``) on seeded noisy pairs: (seed, epsilon,
# candidates, iterations per lambda).  The gap is checked every 5th
# iteration, so each count is a multiple of 5.  Every instance selects the
# 20 true rows.
_NOISE_CELL_PATHS = [
    (0, 0.01, 47, [5, 35, 10, 30, 55, 50, 50, 55, 60, 55]
       + [55, 70, 70, 75, 75, 75, 75, 75, 75, 75]),
    (1, 0.03, 75, [5, 30, 15, 40, 130, 50, 50, 70, 75, 50]
       + [60, 75, 85, 90, 90, 95, 105, 135, 220, 270]),
    (2, 0.1, 135, [5, 40, 45, 50, 60, 140, 130, 75, 100, 95]
       + [120, 185, 175, 205, 155, 160, 285, 310, 330, 335]),
]


@pytest.mark.parametrize("seed, eps, n_cand, iterations", _NOISE_CELL_PATHS)
def test_noise_cell_path_iterations_and_selection_are_pinned(seed, eps, n_cand, iterations):
    k = 20
    X = gen_noisy_pairs(1000, k, eps, seed)
    cand = list(pursue(X, PursuitConfig(m=math.ceil(3 * k * math.log(k)), seed=seed)).indices)
    assert len(cand) == n_cand
    grid = default_lambda_grid(lambda_max(X, X[cand]), num=20)
    path = solve_path(GroupLassoProblem(X, X[cand], grid), *_NOISE_PATH)
    assert path.iterations.tolist() == iterations
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        picked = select_by_persistence(path, k)
    assert {cand[g] for g in picked} == set(range(k))


def test_grid_validation():
    _, X, H = _small_problem()
    with pytest.raises(ValueError, match="descending"):
        GroupLassoProblem(X, H, np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="descending"):
        GroupLassoProblem(X, H, np.array([2.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        GroupLassoProblem(X, H, np.array([]))


# ---------------------------------------------------------------------------
# Duality gap


def primal_objective(path, t):
    """0.5*||X - W H||^2 + lam * sum_i ||w_i||, from the path's own records."""
    return path.fit_objectives[t] + path.lambdas[t] * path.group_norms[t].sum()


@settings(max_examples=150, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 8), st.integers(2, 5)),
        elements=st.floats(-1.0, 1.0, allow_subnormal=False),
    ),
    st.integers(1, 8),
    st.sampled_from([(1e-9, 5000), (1e-3, 3)]),
)
def test_duality_gap_is_weakly_non_negative(X, h, solve):
    """Every returned W is feasible, so P(W) >= D(theta) up to rounding, also
    for a solve cut short."""
    H = X[: min(h, X.shape[0])]
    lam = lambda_max(X, H)
    assume(lam > 1e-6)
    tol, max_iter = solve
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        path = solve_path(
            GroupLassoProblem(X, H, default_lambda_grid(lam, num=4, span=1e-2)),
            tol=tol,
            max_iter_per_lambda=max_iter,
        )
    assert path.gaps.shape == path.lambdas.shape
    xx = float((X * X).sum())
    for t in range(path.lambdas.size):
        gap = path.gaps[t] * primal_objective(path, t)
        assert gap >= -1e-12 * xx, (t, path.gaps)


def test_duality_gap_is_zero_at_lambda_max():
    X = gen_uniform_separable(30, 12, 4, seed=1).X
    H = X[:8]
    path = solve_path(GroupLassoProblem(X, H, default_lambda_grid(lambda_max(X, H), num=5)))
    assert path.active[0] == ()
    assert abs(path.gaps[0]) <= 1e-12


def test_duality_gap_closes_after_a_tight_solve():
    X = gen_uniform_separable(12, 5, 3, seed=1).X
    H = X[:3]
    grid = default_lambda_grid(lambda_max(X, H), num=5, span=1e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tight = solve_path(GroupLassoProblem(X, H, grid), tol=1e-12, max_iter_per_lambda=5000)
    assert (tight.gaps <= 1e-12).all(), tight.gaps
