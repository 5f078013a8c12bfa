"""Serial/distributed equivalence, partition validation, pass accounting."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import ConvexHull

from archpursuit import (
    ExecutionTrace,
    Partition,
    PursuitConfig,
    distributed_weights,
    gen_noisy_pairs,
    gen_uniform_separable,
    nnls_fit,
    pursue,
    run_distributed,
)
from archpursuit import _rng, extreme_points
from archpursuit.distributed import BYTES_PER_FUNCTIONAL
from archpursuit.extreme_points import linear_scores


def random_partition(n, d, rng):
    labels = rng.integers(0, d, size=n)
    return Partition(n, tuple(np.flatnonzero(labels == w) for w in range(d)))


def test_partition_contiguous_covers():
    part = Partition.contiguous(10, 3)
    assert part.n_workers == 3
    assert sorted(np.concatenate(part.assignment).tolist()) == list(range(10))


def test_partition_validation():
    with pytest.raises(ValueError, match="overlap"):
        Partition(4, (np.array([0, 1]), np.array([1, 2, 3])))
    with pytest.raises(ValueError, match="cover"):
        Partition(4, (np.array([0, 1]), np.array([3]),))
    with pytest.raises(ValueError, match="range"):
        Partition(4, (np.array([0, 1, 2, 4]),))
    with pytest.raises(ValueError):
        Partition.contiguous(5, 0)


def test_single_worker_equals_serial():
    inst = gen_uniform_separable(40, 20, 5, seed=0)
    cfg = PursuitConfig(m=30, seed=7)
    assert run_distributed(inst.X, Partition.contiguous(40, 1), cfg) == pursue(
        inst.X, cfg
    )


@pytest.mark.parametrize("workers", [2, 3, 4, 8])
def test_distributed_equals_serial_exactly(workers):
    rng = np.random.default_rng(workers)
    for trial in range(4):
        inst = gen_uniform_separable(53, 17, 6, seed=100 * workers + trial)
        cfg = PursuitConfig(m=41, seed=trial)
        serial = pursue(inst.X, cfg)
        contiguous = run_distributed(
            inst.X, Partition.contiguous(53, workers), cfg
        )
        scattered = run_distributed(
            inst.X, random_partition(53, workers, rng), cfg
        )
        assert contiguous == serial
        assert scattered == serial


def test_distributed_recovery_at_experiment_scale():
    # The scale used by the recovery experiments: equality with the serial
    # run carries its recovery property over verbatim.
    import math

    k = 20
    inst = gen_uniform_separable(500, 1000, k, seed=77)
    cfg = PursuitConfig(m=math.ceil(3 * k * math.log(k)), seed=7)
    serial = pursue(inst.X, cfg)
    dist = run_distributed(inst.X, Partition.contiguous(500, 4), cfg)
    assert dist == serial
    assert set(dist.indices) == set(inst.true_extreme_indices)


def test_empty_worker_is_allowed():
    inst = gen_uniform_separable(12, 8, 3, seed=5)
    part = Partition(12, (np.arange(12), np.array([], dtype=np.int64)))
    cfg = PursuitConfig(m=9, seed=2)
    assert run_distributed(inst.X, part, cfg) == pursue(inst.X, cfg)


def test_duplicate_rows_merge_to_lowest_global_index():
    # Rows 1 and 2 identical but owned by different workers: the merge must
    # pick index 1, matching the serial rule.
    X = np.array([[0.0], [1.0], [1.0]])
    part = Partition(3, (np.array([0, 2]), np.array([1]),))
    cfg = PursuitConfig(m=10, seed=0)
    assert run_distributed(X, part, cfg) == pursue(X, cfg)
    assert 2 not in run_distributed(X, part, cfg).indices


def test_trace_passes_and_bytes():
    inst = gen_uniform_separable(30, 10, 4, seed=1)
    part = Partition(30, (np.arange(20), np.arange(20, 30), np.array([], dtype=np.int64)))
    cfg = PursuitConfig(m=25, seed=3)
    trace = ExecutionTrace()
    es = run_distributed(inst.X, part, cfg, trace)
    assert trace.passes == 1
    assert trace.rows_touched == {0: 20, 1: 10, 2: 0}
    # Communication is independent of local row counts, empty workers included.
    assert trace.bytes_sent == {w: 25 * BYTES_PER_FUNCTIONAL for w in range(3)}

    distributed_weights(inst.X, part, list(es.indices), trace=trace)
    assert trace.passes == 2
    assert trace.rows_touched == {0: 40, 1: 20, 2: 0}


def rounds_taken(X, m, seed, patience):
    """Rounds the stopping rule runs, replayed from fixed-m pursuit: the
    first r rounds score the same functionals as one round of r*m."""
    if patience is None:
        return 1
    rounds, seen, idle = 0, 0, 0
    while idle < patience:
        rounds += 1
        found = len(pursue(X, PursuitConfig(m=rounds * m, seed=seed)).indices)
        idle = idle + 1 if found == seen else 0
        seen = found
    return rounds


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sharded_rounds_equal_serial_with_one_pass_per_round(data):
    n = data.draw(st.integers(1, 10))
    p = data.draw(st.integers(1, 3))
    X = data.draw(arrays(np.float64, (n, p), elements=st.integers(-4, 4).map(float)))
    workers = data.draw(st.integers(1, 4))
    labels = data.draw(arrays(np.int64, n, elements=st.integers(0, workers - 1)))
    part = Partition(n, tuple(np.flatnonzero(labels == d) for d in range(workers)))
    m = data.draw(st.sampled_from([1, 5, 600]))
    patience = data.draw(st.sampled_from([None, 1, 2]))
    seed = data.draw(st.integers(0, 2**32))
    cfg = PursuitConfig(m=m, seed=seed, patience=patience)
    trace = ExecutionTrace()
    es = run_distributed(X, part, cfg, trace)
    assert es == pursue(X, cfg)
    rounds = rounds_taken(X, m, seed, patience)
    assert sum(es.votes.values()) == 2 * rounds * m
    assert trace.passes == rounds
    assert trace.bytes_sent == {d: rounds * m * BYTES_PER_FUNCTIONAL for d in range(workers)}


def blocked_votes(X, m, seed, budget, floor):
    """Votes of one round of m functionals scored per row (``linear_scores``)
    in the blocks the byte rule gives, ties to the lowest row index."""
    p = X.shape[1]
    blocks = -(-m // max(floor, min(512, budget // (8 * p))))
    width = -(-m // blocks)
    counts = np.zeros(X.shape[0], dtype=np.int64)
    for start in range(0, m, width):
        S = linear_scores(X, _rng.functionals(seed, start, min(width, m - start), p))
        np.add.at(counts, np.argmax(S, axis=0), 1)
        np.add.at(counts, np.argmin(S, axis=0), 1)
    return {int(i): int(counts[i]) for i in np.flatnonzero(counts)}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_small_byte_budgets_keep_distributed_equal_to_serial(data):
    # A budget of a few bytes puts tiny p at the width floor, and m past it
    # splits into uneven blocks; integer rows give exact ties and duplicates.
    # A tile budget below one row's scores cuts every shard into one-row tiles.
    n = data.draw(st.integers(1, 10))
    p = data.draw(st.integers(1, 3))
    X = data.draw(arrays(np.float64, (n, p), elements=st.integers(-2, 2).map(float)))
    X = np.vstack([X, X[data.draw(st.lists(st.integers(0, n - 1), max_size=3))]])
    n = X.shape[0]
    workers = data.draw(st.integers(1, 4))
    labels = data.draw(arrays(np.int64, n, elements=st.integers(0, workers - 1)))
    part = Partition(n, tuple(np.flatnonzero(labels == d) for d in range(workers)))
    m = data.draw(st.integers(1, 300))
    budget = data.draw(st.integers(8, 8 * p * 600))
    floor = data.draw(st.sampled_from([1, 2, 7, 64]))
    tile = data.draw(st.one_of(st.just(1), st.integers(8, 8 * 512 * n)))
    seed = data.draw(st.integers(0, 2**32))
    cfg = PursuitConfig(m=m, seed=seed)
    with mock.patch.object(extreme_points, "_BLOCK_BYTES", budget), mock.patch.object(
        extreme_points, "_MIN_BLOCK", floor
    ), mock.patch.object(extreme_points, "_TILE_BYTES", tile):
        es = run_distributed(X, part, cfg)
        assert es == pursue(X, cfg)
    assert es.votes == blocked_votes(X, m, seed, budget, floor)


def test_contiguous_workers_do_not_copy_x():
    X = np.random.default_rng(5).standard_normal((20_000, 50))
    part = Partition.contiguous(20_000, 4)
    cfg = PursuitConfig(m=16, seed=2)
    tracemalloc.start()
    try:
        es = run_distributed(X, part, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The shards are views of X: the peak is pursuit's working memory and
    # the finiteness check, well below the 8 MB that copying X would take.
    assert peak < X.nbytes / 4, peak
    assert es == pursue(X, cfg)


def test_distributed_weights_equals_serial():
    inst = gen_uniform_separable(36, 30, 5, seed=9)
    h_rows = list(inst.true_extreme_indices)
    serial = nnls_fit(inst.X, inst.X[h_rows], tol=1e-10).W
    for workers in (1, 3, 4):
        part = Partition.contiguous(36, workers)
        W = distributed_weights(inst.X, part, h_rows, tol=1e-10).W
        assert W.tobytes() == serial.tobytes()
    rel = np.linalg.norm(inst.X - serial @ inst.X[h_rows]) / np.linalg.norm(inst.X)
    assert rel <= 1e-6


def test_distributed_weights_row_ownership():
    # The row owned by a specific worker matches the serial solution row.
    inst = gen_uniform_separable(24, 16, 4, seed=4)
    h_rows = [0, 1, 2, 3]
    part = Partition.contiguous(24, 4)
    serial = nnls_fit(inst.X, inst.X[h_rows], tol=1e-10).W
    W = distributed_weights(inst.X, part, h_rows, tol=1e-10).W
    owned = part.assignment[3]
    assert W[owned].tobytes() == serial[owned].tobytes()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_distributed_weights_do_not_depend_on_the_partition(data):
    # Small integer X with duplicate and zero rows; k may exceed p, so H H^T
    # can be singular.  Every partition, empty workers included, must give
    # the bits of one fit over all rows.
    p = data.draw(st.integers(1, 4))
    base = data.draw(arrays(np.float64, (data.draw(st.integers(1, 6)), p),
                            elements=st.integers(-3, 3).map(float)))
    picks = data.draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=12))
    X = np.vstack([base[picks], np.zeros((data.draw(st.integers(0, 2)), p))])
    n = X.shape[0]
    h_rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = nnls_fit(X, X[h_rows])
        for _ in range(3):
            workers = data.draw(st.integers(1, 5))
            labels = data.draw(arrays(np.int64, n, elements=st.integers(0, workers - 1)))
            part = Partition(n, tuple(np.flatnonzero(labels == d) for d in range(workers)))
            sol = distributed_weights(X, part, h_rows)
            assert sol.W.tobytes() == ref.W.tobytes()
    assert sol.residual == np.linalg.norm(X - sol.W @ X[h_rows])
    norm_x = np.linalg.norm(X)
    assert sol.relative_residual == sol.residual / (norm_x if norm_x > 0 else 1.0)


def test_distributed_weights_warn_once_about_a_zero_row_of_h():
    X = gen_uniform_separable(40, 10, 4, seed=2).X.copy()
    X[5] = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        distributed_weights(X, Partition.contiguous(40, 4), [0, 1, 2, 3, 5])
    messages = [str(w.message) for w in caught]
    assert len(messages) == 1 and messages[0].startswith("H has zero rows [4]"), messages


def test_distributed_weights_validation():
    inst = gen_uniform_separable(10, 6, 2, seed=0)
    part = Partition.contiguous(10, 2)
    with pytest.raises(ValueError, match="nonempty"):
        distributed_weights(inst.X, part, [])


@pytest.mark.parametrize(
    "h_rows, message",
    [([0, 1, -1], "-1 is out of range"), ([0, 10], "10 is out of range"), ([0, 0, 1], "0 is repeated")],
)
def test_distributed_weights_rejects_bad_rows(h_rows, message):
    inst = gen_uniform_separable(10, 6, 2, seed=0)
    with pytest.raises(ValueError, match=message):
        distributed_weights(inst.X, Partition.contiguous(10, 2), h_rows)


def test_partition_size_mismatch_rejected():
    inst = gen_uniform_separable(10, 6, 2, seed=0)
    with pytest.raises(ValueError, match="covers"):
        run_distributed(inst.X, Partition.contiguous(9, 2), PursuitConfig(m=3))


def test_trace_counts_rescored_rows():
    inst = gen_uniform_separable(400, 50, 10, seed=6)
    part = Partition.contiguous(400, 4)
    trace = ExecutionTrace()
    run_distributed(inst.X, part, PursuitConfig(m=200, seed=1), trace)
    # Only rows that could win a functional are re-scored per row.  Worker 0
    # holds all 10 extreme rows, so its local winners are among them; the
    # other workers' winners are interior rows of the full cloud.
    assert set(trace.rescored_rows) == {0, 1, 2, 3}
    assert trace.rescored_rows[0] <= 2 * 10
    assert all(trace.rescored_rows[w] <= 100 for w in range(4))

    # Squared row norms overflow near 2^1000: every row takes the per-row path.
    trace = ExecutionTrace()
    run_distributed(inst.X * 2.0**1000, part, PursuitConfig(m=200, seed=1), trace)
    assert trace.rescored_rows == {w: 100 for w in range(4)}


def test_distributed_weights_warns_when_nnls_stops_short():
    inst = gen_uniform_separable(500, 100, 20, seed=0)
    part = Partition.contiguous(500, 4)
    with pytest.warns(RuntimeWarning, match=r"^NNLS stopped at KKT .*max_iter=0"):
        W = distributed_weights(inst.X, part, range(20), max_iter=0).W
    assert W.shape == (500, 20)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_distributed_weights_warns_on_a_positive_cap(seed):
    # Pivoting needs several rounds here: H holds non-extreme midpoint rows.
    X = gen_noisy_pairs(1000, 20, 0.01, seed)
    rows = [0, 1, 2, 20, 21, 22, 40, 41]
    full = nnls_fit(X, X[rows])
    assert full.converged and full.iterations > 2
    with pytest.warns(RuntimeWarning, match=r"^NNLS stopped at KKT .*max_iter=2 "):
        capped = nnls_fit(X, X[rows], max_iter=2)
    assert not capped.converged and capped.iterations == 2
    with pytest.warns(RuntimeWarning, match=r"^NNLS stopped at KKT .*max_iter=2 "):
        distributed_weights(X, Partition.contiguous(X.shape[0], 1), rows, max_iter=2)


def test_distributed_weights_converged_is_silent():
    inst = gen_uniform_separable(200, 40, 8, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        distributed_weights(inst.X, Partition.contiguous(200, 4), list(inst.true_extreme_indices))


def hull_vertices(X):
    """Vertices of conv(rows of X) as a set of points, for p <= 3.

    Qhull needs a full-dimensional input, so the rows are first written in
    coordinates of their affine hull; a segment or a point is handled
    directly.
    """
    C = X - X[0]
    r = np.linalg.matrix_rank(C)
    if r == 0:
        keep = [0]
    elif r == 1:
        t = C @ C[np.flatnonzero(np.abs(C).sum(axis=1))[0]]
        keep = [int(np.argmin(t)), int(np.argmax(t))]
    else:
        keep = ConvexHull(C if r == X.shape[1] else C @ np.linalg.svd(C)[2][:r].T).vertices
    return {tuple(X[i]) for i in keep}


@st.composite
def grid_clouds(draw):
    """Rows on a small integer grid in R^2 or R^3, with duplicated rows and
    midpoints of row pairs, which lie on edges, facets or inside."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 14))
    X = draw(arrays(np.float64, (n, p), elements=st.integers(-3, 3).map(lambda v: 2.0 * v)))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    rows = [X] + [(X[a] + X[b])[None, :] / 2.0 for a, b in extra]
    return np.vstack(rows)[draw(st.permutations(range(n + len(extra))))]


@settings(max_examples=150, deadline=None)
@given(grid_clouds(), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_every_returned_row_is_a_hull_vertex(X, workers, seed):
    vertices = hull_vertices(X)
    cfg = PursuitConfig(m=25, seed=seed)
    part = random_partition(X.shape[0], workers, np.random.default_rng(seed))
    found = pursue(X, cfg)
    assert run_distributed(X, part, cfg) == found
    assert {tuple(X[i]) for i in found.indices} <= vertices
