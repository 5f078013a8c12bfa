"""Pursuit correctness: soundness, votes, tie-breaks, overflow, adaptive stopping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from archpursuit import (
    ExtremeSet,
    Partition,
    PursuitConfig,
    gen_uniform_separable,
    posterior_missed_mass,
    pursue,
    run_distributed,
    select_top_voted,
)
from archpursuit import _rng

TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]])
SQUARE_PLUS_CENTER = np.array(
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]]
)


def mc_corner_angle_oracle(X, corner, samples=20_000, seed=123):
    """Independent Monte Carlo estimate of the normal-cone solid angle at a row."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((samples, X.shape[1]))
    S = Z @ X.T
    wins = (np.argmax(S, axis=1) == corner) & (
        (S == S.max(axis=1, keepdims=True)).sum(axis=1) == 1
    )
    return wins.mean()


def test_triangle_only_vertices_returned():
    for m in (1, 5, 50):
        es = pursue(TRIANGLE, PursuitConfig(m=m, seed=3))
        assert set(es.indices) <= {0, 1, 2}
        assert sum(es.votes.values()) == 2 * m


def test_segment_one_functional_returns_both_endpoints():
    X = np.array([[0.0], [1.0]])
    es = pursue(X, PursuitConfig(m=1, seed=0))
    assert es.indices == (0, 1)
    assert es.votes == {0: 1, 1: 1}


def test_square_center_never_wins_and_corner_votes_balance():
    # Oracle first: by symmetry each corner's normal cone is a quadrant, so
    # its solid angle is 1/4; the Monte Carlo estimate confirms it before the
    # vote-fraction assertion below relies on it.
    for corner in range(4):
        omega = mc_corner_angle_oracle(SQUARE_PLUS_CENTER, corner)
        assert omega == pytest.approx(0.25, abs=0.02)
    m = 200
    es = pursue(SQUARE_PLUS_CENTER, PursuitConfig(m=m, seed=17))
    assert 4 not in es.indices
    for corner in range(4):
        frac = es.votes.get(corner, 0) / (2 * m)
        assert frac == pytest.approx(0.25, abs=0.1)


def test_soundness_on_separable_instances():
    for seed in range(5):
        inst = gen_uniform_separable(60, 25, 6, seed=seed)
        es = pursue(inst.X, PursuitConfig(m=40, seed=seed + 100))
        assert set(es.indices) <= set(inst.true_extreme_indices)


def test_vote_total_is_2m_with_single_row():
    es = pursue(np.array([[3.0, 1.0]]), PursuitConfig(m=9, seed=1))
    assert es.indices == (0,)
    assert es.votes == {0: 18}


def test_affine_invariance_of_votes():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 6))
    cfg = PursuitConfig(m=64, seed=9)
    base = pursue(X, cfg)
    shifted = pursue(2.5 * X + rng.standard_normal(6)[None, :], cfg)
    assert base == shifted


def test_determinism():
    X = np.asarray(gen_uniform_separable(40, 12, 5, seed=0).X)
    a = pursue(X, PursuitConfig(m=33, seed=4))
    b = pursue(X, PursuitConfig(m=33, seed=4))
    assert a == b
    c = pursue(X, PursuitConfig(m=33, seed=5))
    assert a != c


def test_duplicate_rows_lowest_index_wins():
    X = np.array([[0.0], [1.0], [1.0]])
    es = pursue(X, PursuitConfig(m=16, seed=2))
    # Row 2 duplicates row 1; the tie always resolves to row 1.
    assert 2 not in es.indices
    assert es.votes[1] == 16


def test_normalize_rows_makes_scale_irrelevant():
    rng = np.random.default_rng(8)
    X = rng.random((20, 4)) + 0.5
    scaled = X.copy()
    scaled[7] *= 50.0
    cfg = PursuitConfig(m=40, seed=1, normalize_rows=True)
    assert pursue(X, cfg) == pursue(scaled, cfg)


def test_normalize_rows_far_from_unit_scale():
    # Squared norms of these rows overflow at 2^700 and underflow at 2^-700.
    X = np.array([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    cfg = PursuitConfig(m=100, seed=0, normalize_rows=True)
    unscaled = pursue(X, cfg)
    assert unscaled.indices == (0, 1, 2, 3)
    for e in (700, -700):
        assert pursue(np.ldexp(X, e), cfg) == unscaled
    mixed = X.copy()
    mixed[1] *= 2.0**700
    mixed[2] *= 2.0**-700
    assert pursue(mixed, cfg) == unscaled


def test_empty_matrix_rejected():
    with pytest.raises(ValueError):
        pursue(np.empty((0, 3)), PursuitConfig(m=1))


def test_config_validation():
    with pytest.raises(ValueError):
        PursuitConfig(m=0)
    with pytest.raises(ValueError):
        PursuitConfig(m=5, patience=0)


def test_rows_near_overflow_keep_their_votes():
    # Unscaled, the scores of these rows overflow to +-inf and the inf ties
    # go to the lowest index: row 0, the midpoint of rows 1 and 2, won votes.
    X = np.array([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    cfg = PursuitConfig(m=100, seed=0)
    unscaled = pursue(X, cfg)
    assert unscaled.indices == (1, 2, 3)
    big = X * 1.7e308
    assert pursue(big, cfg) == unscaled
    assert run_distributed(big, Partition(4, ([0, 3], [1], [2])), cfg) == unscaled


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_votes_invariant_under_powers_of_two(data):
    # Entries are multiples of 1/4 in [-4, 4] and every nonzero functional
    # entry exceeds 2^-53 in magnitude, so for e >= -960 every nonzero
    # product stays normal and scaling X by 2^e scales each score exactly.
    # The top e is the largest that keeps X finite.
    n = data.draw(st.integers(1, 8))
    p = data.draw(st.integers(1, 4))
    X = data.draw(arrays(np.float64, (n, p), elements=st.integers(-16, 16).map(lambda v: v / 4)))
    top = 1024 - math.frexp(float(np.abs(X).max()))[1]
    labels = data.draw(arrays(np.int64, n, elements=st.integers(0, 2)))
    part = Partition(n, tuple(np.flatnonzero(labels == d) for d in range(3)))
    cfg = PursuitConfig(m=24, seed=data.draw(st.integers(0, 2**32)))
    expected = pursue(X, cfg)
    for e in (top, top - 1, data.draw(st.integers(-960, top))):
        scaled = np.ldexp(X, e)
        assert np.isfinite(scaled).all()
        assert pursue(scaled, cfg) == expected
        assert run_distributed(scaled, part, cfg) == expected


# ---------------------------------------------------------------------------
# Adaptive algorithm


def test_adaptive_triangle_finds_all_three():
    # Oracle: each triangle vertex has a positive solid angle (MC check), so
    # the stopping rule cannot halt before all three are seen, with high
    # probability per round.
    angles = [mc_corner_angle_oracle(TRIANGLE, v, samples=10_000) for v in range(3)]
    assert min(angles) > 0.1
    es = pursue(TRIANGLE, PursuitConfig(m=8, seed=21, patience=1))
    assert es.indices == (0, 1, 2)


def test_adaptive_single_point_stops_after_one_round():
    es = pursue(np.array([[1.0, 2.0]]), PursuitConfig(m=4, seed=0, patience=1))
    assert es.indices == (0,)
    # Round 1 finds row 0 (new), round 2 adds nothing and stops: 2 rounds.
    assert sum(es.votes.values()) == 2 * 4 * 2


def test_adaptive_deterministic_with_round_count():
    X = np.asarray(gen_uniform_separable(50, 15, 5, seed=1).X)
    cfg = PursuitConfig(m=6, seed=13, patience=1)
    a = pursue(X, cfg)
    b = pursue(X, cfg)
    assert a == b
    rounds_a = sum(a.votes.values()) // (2 * 6)
    rounds_b = sum(b.votes.values()) // (2 * 6)
    assert rounds_a == rounds_b >= 2


def test_adaptive_patience_extends_rounds():
    X = TRIANGLE
    r1 = sum(pursue(X, PursuitConfig(m=8, seed=3, patience=1)).votes.values())
    r3 = sum(pursue(X, PursuitConfig(m=8, seed=3, patience=3)).votes.values())
    assert r3 == r1 + 2 * 8 * 2  # two extra stopping rounds


def test_adaptive_stopping_rule_confidence():
    # Statistical contract of the stopping rule: vertices whose normal-cone
    # angle is at least log(1/delta)/(2*batch) are all found in at least a
    # 1 - delta fraction of runs.  A thin polygon makes two vertices subtle
    # while the bound only covers the prominent ones.
    from test_geometry import polygon_exact_angles

    V = np.array([[0.0, 0.0], [1.0, -0.02], [2.0, 0.0], [1.0, 1.0]])
    omega = polygon_exact_angles(V)
    assert (omega > 0).all()  # convex position: every vertex is extreme
    batch = 12
    delta = 0.2
    threshold = posterior_missed_mass(batch, delta)
    covered = {i for i in range(4) if omega[i] >= threshold}
    assert covered and covered != set(range(4))  # the test must discriminate
    runs, failures = 400, 0
    for t in range(runs):
        es = pursue(V, PursuitConfig(m=batch, seed=90_000 + t, patience=1))
        failures += not covered <= set(es.indices)
    sigma = math.sqrt(delta * (1 - delta) / runs)
    assert failures / runs <= delta + 3 * sigma


# ---------------------------------------------------------------------------
# Functional blocks


def record_functional_blocks(monkeypatch):
    """Patch the functional generator to log each call's (first, count, p)."""
    calls = []
    functionals = _rng.functionals

    def logged(seed, first, count, p):
        calls.append((first, count, p))
        return functionals(seed, first, count, p)

    monkeypatch.setattr(_rng, "functionals", logged)
    return calls


@pytest.mark.parametrize(
    "p, m, patience, widths",
    [
        (3, 1100, None, [367, 367, 366]),
        (100, 180, None, [180]),  # factorize-tall
        (1000, 180, None, [180]),  # glasso-noise-cell
        (1000, 300, None, [150, 150]),  # sweep-cell
        (1000, 300, 1, [150, 150]),
        (1000, 1000, None, [250, 250, 250, 250]),
        (4096, 130, None, [44, 44, 42]),
        (5000, 200, 1, [50, 50, 50, 50]),
    ],
)
def test_functional_blocks_fit_the_byte_budget(monkeypatch, p, m, patience, widths):
    # Each round is the fewest blocks of one width, a shorter last block
    # allowed, whose draws fit 2 MiB (64 functionals above p = 4,096).
    calls = record_functional_blocks(monkeypatch)
    X = np.random.default_rng(p).standard_normal((7, p))
    es = pursue(X, PursuitConfig(m=m, seed=3, patience=patience))
    rounds = sum(es.votes.values()) // (2 * m)
    assert all(q == p for _, _, q in calls)
    for _, count, _ in calls:
        assert count <= (2**21 // (8 * p) if p <= 4096 else 64)
    assert [(f, c) for f, c, _ in calls] == [
        (r * m + sum(widths[:i]), c) for r in range(rounds) for i, c in enumerate(widths)
    ]


# ---------------------------------------------------------------------------
# A-posteriori bound and vote selection


@pytest.mark.parametrize(
    "batch, p", [(5, 12), (37, 12), (700, 12), (300, 1000)], ids=["5", "37", "700", "300-p1000"]
)
def test_adaptive_equals_pursue_with_the_functionals_it_used(batch, p):
    # r rounds of batch functionals are functionals [0, r * batch), blocked
    # differently from fixed-m pursuit: at p = 12 a round of 700 is two
    # blocks of 350 and 1,400 functionals are three of 467, 467 and 466; at
    # p = 1000 a round of 300 is two blocks of 150 and 600 functionals are
    # three of 200.
    for seed in range(3):
        X = np.asarray(gen_uniform_separable(60, p, 6, seed=seed).X)
        for patience in (1, 2):
            es = pursue(X, PursuitConfig(m=batch, seed=seed, patience=patience))
            rounds = sum(es.votes.values()) // (2 * batch)
            assert rounds >= 2
            assert es == pursue(X, PursuitConfig(m=rounds * batch, seed=seed))


def test_posterior_missed_mass_values():
    assert posterior_missed_mass(100, 0.05) == pytest.approx(
        math.log(20.0) / 200.0, rel=1e-12
    )
    assert posterior_missed_mass(100, 0.05) == pytest.approx(0.014978, abs=1e-6)
    assert posterior_missed_mass(1, math.exp(-2.0)) == pytest.approx(1.0, rel=1e-12)
    assert posterior_missed_mass(50, 0.999999) < 1e-5  # alpha -> 1 limit


def test_posterior_missed_mass_errors():
    with pytest.raises(ValueError):
        posterior_missed_mass(0, 0.5)
    with pytest.raises(ValueError):
        posterior_missed_mass(10, 0.0)
    with pytest.raises(ValueError):
        posterior_missed_mass(10, 1.0)


def _es(votes):
    return ExtremeSet(indices=tuple(sorted(votes)), votes=votes)


def test_select_top_voted_by_count():
    assert select_top_voted(_es({5: 10, 2: 7, 9: 1}), 2) == [5, 2]


def test_select_top_voted_tie_breaks_by_index():
    assert select_top_voted(_es({1: 4, 3: 4}), 1) == [1]


def test_select_top_voted_underfull_warns():
    with pytest.warns(RuntimeWarning, match="fewer"):
        got = select_top_voted(_es({1: 2, 4: 1, 7: 3}), 5)
    assert got == [7, 1, 4]


def test_select_top_voted_k_zero_rejected():
    with pytest.raises(ValueError):
        select_top_voted(_es({1: 1}), 0)
