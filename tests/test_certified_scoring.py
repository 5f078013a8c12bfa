"""Certified-gemm scoring: the merge over row tiles equals per-row scoring
bit for bit.

Property tests on hostile blocks (duplicate rows, exact ties, rows one ulp
apart, clouds of rows whose scores differ by about as much as two summation
orders do, n=1, p in {1, 2}, zero X, X scaled by 2^1000, 2^-1000 and
2^-1060), in one tile and in one-row tiles, and serial pursuit against
distributed pursuit on random non-contiguous partitions that include empty
workers.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from archpursuit import (
    ExecutionTrace,
    Partition,
    PursuitConfig,
    gen_uniform_separable,
    pursue,
    run_distributed,
)
from archpursuit import extreme_points
from archpursuit.extreme_points import _merge_optima, _tiles, linear_scores
from archpursuit._rng import functionals

SCALES = (1.0, 1.0, 2.0**1000, 2.0**-1000, 2.0**-1060)
ENTRIES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 3.0]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)


def reference(X, G):
    R = linear_scores(X, G)
    return np.stack([R.argmax(axis=0), R.argmin(axis=0)])


def ulp_cloud(base, steps):
    """Rows equal to base up to one ulp per entry, up or down by the sign of steps."""
    up, down = np.nextafter(base, np.inf), np.nextafter(base, -np.inf)
    return np.where(steps > 0, up, np.where(steps < 0, down, base))


def assert_bitwise_reference(X, G):
    """The merge equals per-row scoring in one tile, re-scoring at least one
    row, and in one-row tiles, where each tile re-scores its row."""
    want = reference(X, G)
    n = X.shape[0]
    for budget in (extreme_points._TILE_BYTES, 1):
        rescored = [0]
        with mock.patch.object(extreme_points, "_TILE_BYTES", budget):
            got = _merge_optima(_tiles([(X, np.arange(n))], G.shape[1]), G, rescored)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert 1 <= rescored[0] <= n if budget > 1 else rescored[0] == n


@st.composite
def hostile_rows(draw, max_rows=12):
    n = draw(st.integers(1, max_rows))
    p = draw(st.sampled_from([1, 2, 3, 5, 8, 16, 64]))
    if draw(st.booleans()):
        base = draw(arrays(np.float64, p, elements=ENTRIES))
        X = ulp_cloud(base, draw(arrays(np.int8, (n, p), elements=st.integers(-1, 1))))
    else:
        X = draw(arrays(np.float64, (n, p), elements=ENTRIES))
    for _ in range(draw(st.integers(0, n))):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["duplicate", "ulp_up", "ulp_down"]))
        if kind == "duplicate":
            X[dst] = X[src]
        else:
            X[dst] = X[src]
            col = draw(st.integers(0, p - 1))
            X[dst, col] = np.nextafter(X[src, col], np.inf if kind == "ulp_up" else -np.inf)
    if draw(st.booleans()):
        X[:] = 0.0
    return X * draw(st.sampled_from(SCALES))


@st.composite
def functional_block(draw, p):
    b = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return functionals(draw(st.integers(0, 2**32)), draw(st.integers(0, 1000)), b, p)
    # Small integers make many scores tie exactly.
    return draw(arrays(np.float64, (p, b), elements=st.integers(-2, 2).map(float)))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_block_optima_equals_per_row_scoring(data):
    X = data.draw(hostile_rows())
    G = data.draw(functional_block(X.shape[1]))
    assert_bitwise_reference(X, G)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("scale", SCALES[1:])
def test_block_optima_fixed_hostile_cases(p, scale):
    rng = np.random.default_rng(p)
    G = functionals(5, 0, 40, p)
    base = rng.uniform(-1.0, 1.0, size=(6, p))
    base[3] = base[1]  # duplicate row
    base[4] = np.nextafter(base[1], np.inf)  # one ulp above it
    for X in (base * scale, base[:1] * scale, np.zeros((5, p))):
        assert_bitwise_reference(X, G)


@pytest.mark.parametrize("p", [5, 16, 64, 200])
def test_block_optima_on_ulp_clouds(p):
    # Here the gemm's own argmax often differs from the per-row one.
    rng = np.random.default_rng(p)
    for trial in range(20):
        X = ulp_cloud(rng.uniform(-1.0, 1.0, p), rng.integers(-1, 2, size=(12, p)))
        assert_bitwise_reference(X, functionals(trial, 0, 6, p))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_serial_equals_distributed_on_random_partitions(data):
    X = data.draw(hostile_rows(max_rows=30))
    n = X.shape[0]
    workers = data.draw(st.integers(1, n + 2))
    labels = data.draw(arrays(np.int64, n, elements=st.integers(0, workers - 1)))
    part = Partition(n, tuple(np.flatnonzero(labels == w) for w in range(workers)))
    cfg = PursuitConfig(m=data.draw(st.integers(1, 40)), seed=data.draw(st.integers(0, 99)))
    trace = ExecutionTrace()
    es = pursue(X, cfg)
    assert run_distributed(X, part, cfg, trace) == es
    for w, rows in enumerate(part.assignment):
        assert trace.rescored_rows[w] <= rows.size
    # One-row tiles: each tile re-scores its own row, once per block.
    trace = ExecutionTrace()
    with mock.patch.object(extreme_points, "_TILE_BYTES", 1):
        assert run_distributed(X, part, cfg, trace) == es
    assert trace.rescored_rows == {w: rows.size for w, rows in enumerate(part.assignment)}


def test_empty_workers_in_a_scattered_partition():
    inst = gen_uniform_separable(60, 12, 6, seed=8)
    rng = np.random.default_rng(0)
    labels = rng.choice([0, 2, 3, 5], size=60)
    part = Partition(60, tuple(np.flatnonzero(labels == w) for w in range(7)))
    cfg = PursuitConfig(m=700, seed=4)  # two functional blocks
    trace = ExecutionTrace()
    assert run_distributed(inst.X, part, cfg, trace) == pursue(inst.X, cfg)
    assert all(trace.rescored_rows[w] == 0 for w in (1, 4, 6))
