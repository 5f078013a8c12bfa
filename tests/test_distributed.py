"""Serial/distributed equivalence, partition validation, pass accounting."""

import warnings

import numpy as np
import pytest

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
from archpursuit.distributed import BYTES_PER_FUNCTIONAL


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


def test_distributed_weights_equals_serial():
    inst = gen_uniform_separable(36, 30, 5, seed=9)
    h_rows = list(inst.true_extreme_indices)
    serial = nnls_fit(inst.X, inst.X[h_rows], tol=1e-10).W
    for workers in (1, 3, 4):
        part = Partition.contiguous(36, workers)
        W = distributed_weights(inst.X, part, h_rows, tol=1e-10)
        assert np.abs(W - serial).max() <= 1e-10
    rel = np.linalg.norm(inst.X - serial @ inst.X[h_rows]) / np.linalg.norm(inst.X)
    assert rel <= 1e-6


def test_distributed_weights_row_ownership():
    # The row owned by a specific worker matches the serial solution row.
    inst = gen_uniform_separable(24, 16, 4, seed=4)
    h_rows = [0, 1, 2, 3]
    part = Partition.contiguous(24, 4)
    serial = nnls_fit(inst.X, inst.X[h_rows], tol=1e-10).W
    W = distributed_weights(inst.X, part, h_rows, tol=1e-10)
    owned = part.assignment[3]
    assert np.abs(W[owned] - serial[owned]).max() <= 1e-10


def test_distributed_weights_validation():
    inst = gen_uniform_separable(10, 6, 2, seed=0)
    part = Partition.contiguous(10, 2)
    with pytest.raises(ValueError, match="nonempty"):
        distributed_weights(inst.X, part, [])


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
    with pytest.warns(RuntimeWarning, match=r"worker \d: NNLS stopped at KKT .*max_iter=0"):
        W = distributed_weights(inst.X, part, range(20), max_iter=0)
    assert W.shape == (500, 20)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_distributed_weights_warns_on_a_positive_cap(seed):
    # Pivoting needs several rounds here: H holds non-extreme midpoint rows.
    X = gen_noisy_pairs(1000, 20, 0.01, seed)
    rows = [0, 1, 2, 20, 21, 22, 40, 41]
    full = nnls_fit(X, X[rows])
    assert full.converged and full.iterations > 2
    capped = nnls_fit(X, X[rows], max_iter=2)
    assert not capped.converged and capped.iterations == 2
    with pytest.warns(RuntimeWarning, match=r"worker 0: NNLS stopped at KKT .*max_iter=2 "):
        distributed_weights(X, Partition.contiguous(X.shape[0], 1), rows, max_iter=2)


def test_distributed_weights_converged_is_silent():
    inst = gen_uniform_separable(200, 40, 8, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        distributed_weights(inst.X, Partition.contiguous(200, 4), list(inst.true_extreme_indices))
