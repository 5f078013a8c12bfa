"""Experiment harnesses: sweep cells, noise cells, scree, classify, factorize."""

import os
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from archpursuit import (
    NoiseSpec,
    SweepSpec,
    classify_rows,
    factorize,
    gen_noisy_pairs,
    gen_uniform_separable,
    run_noise,
    run_scree,
    run_sweep,
)
from archpursuit import experiments
from archpursuit.experiments import noise_cell, recovery_fraction
from archpursuit.extreme_points import PursuitConfig, pursue
from archpursuit.matrix_io import _scale_exponent


def test_recovery_fraction_easy_cell():
    frac = recovery_fraction("uniform", 60, 40, 4, m=60, trials=20, seed=0)
    assert frac == 1.0


def test_recovery_fraction_tiny_m_fails_sometimes():
    frac = recovery_fraction("uniform", 60, 40, 8, m=2, trials=20, seed=0)
    assert frac < 1.0


def test_run_sweep_shapes_and_isocline():
    spec = SweepSpec(
        k_values=(3, 5),
        multipliers=(0.5, 4.0),
        trials=10,
        n=40,
        p=30,
        generator="uniform",
        seed=1,
    )
    res = run_sweep(spec)
    assert len(res.grid) == 4
    ks = [row[0] for row in res.grid]
    assert ks == [3, 3, 5, 5]
    for k, logk, c95 in res.isoclines:
        assert logk == pytest.approx(np.log(k))
    # With c = 4 recovery should hit 1.0 for these tiny instances.
    assert res.grid[1][4] == 1.0


def test_sweep_deterministic():
    spec = SweepSpec(k_values=(3,), multipliers=(2.0,), trials=8, n=30, p=20, seed=5)
    assert run_sweep(spec).grid == run_sweep(spec).grid


def test_noise_cell_zero_eps_exact():
    r = noise_cell(k=5, p=40, m=40, epsilon=0.0, trials=3, seed=2, select_k=5)
    assert r <= 1e-6


def test_glasso_noise_cell_zero_eps_exact():
    r = noise_cell(
        k=5, p=40, m=40, epsilon=0.0, trials=2, seed=2, select_k=5, selector="glasso"
    )
    assert r <= 1e-6


def test_noise_cells_same_order_of_magnitude():
    vote = noise_cell(k=5, p=60, m=60, epsilon=0.02, trials=4, seed=3, select_k=5)
    glasso = noise_cell(
        k=5, p=60, m=60, epsilon=0.02, trials=4, seed=3, select_k=5, selector="glasso"
    )
    assert 0.1 <= vote / glasso <= 10.0


def test_run_noise_grid_rows():
    spec = NoiseSpec(
        k=4, p=30, multipliers=(2.0,), eps_grid=(0.0, 0.05), trials=2, select_k=4, seed=4
    )
    rows = run_noise(spec)
    assert len(rows) == 2
    assert rows[0][3] <= 1e-6  # eps = 0 is exactly separable
    assert rows[1][3] > rows[0][3]


@pytest.mark.parametrize("trials", [0, -1])
def test_noise_rejects_nonpositive_trials(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        NoiseSpec(trials=trials)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        noise_cell(k=5, p=40, m=40, epsilon=0.0, trials=trials, seed=2, select_k=5)


def test_run_scree_single_row_matrix():
    out = run_scree(np.array([[1.0, 2.0]]), m=6, repeats=2, seed=0)
    assert out.shape == (2, 1)
    assert np.array_equal(out, np.ones((2, 1)))


def test_run_scree_sharp_drop_on_separable():
    X = gen_noisy_pairs(80, 6, 0.0, seed=1)
    out = run_scree(X, m=400, repeats=3, seed=2)
    assert out.shape == (3, X.shape[0])
    # Rank 6 to rank 7: interior rows receive no votes on exact instances.
    assert (out[:, 5] > 0).all()
    assert (out[:, 6] == 0.0).all()


def test_high_noise_makes_every_row_extreme():
    # Strong noise perturbs the hull until every point protrudes: with enough
    # functionals every row collects at least one vote, unlike the low-noise
    # regime where votes concentrate on the k true rows.
    import math

    k, p = 10, 300
    m = math.ceil(20 * k * math.log(k))
    from archpursuit import PursuitConfig, pursue

    quiet = pursue(gen_noisy_pairs(p, k, 1e-3, seed=5), PursuitConfig(m=m, seed=6))
    loud = pursue(gen_noisy_pairs(p, k, 0.5, seed=5), PursuitConfig(m=m, seed=6))
    n = 10 + 45
    assert len(loud.indices) == n
    assert len(quiet.indices) < n // 2


def test_residual_insensitive_to_m_beyond_threshold():
    import math

    k, p = 10, 300
    vals = [
        noise_cell(k, p, math.ceil(c * k * math.log(k)), 0.01, 20, seed=3, select_k=k)
        for c in (5.0, 10.0, 20.0)
    ]
    assert max(vals) <= 1.1 * min(vals)


def test_glasso_residual_insensitive_to_m():
    import math

    k, p = 8, 200
    vals = [
        noise_cell(
            k, p, math.ceil(c * k * math.log(k)), 0.01, 8, seed=5, select_k=k,
            selector="glasso",
        )
        for c in (2.0, 10.0)
    ]
    assert max(vals) <= 1.1 * min(vals)


def test_classify_archetypes_label_themselves():
    inst = gen_uniform_separable(20, 8, 3, seed=6)
    labels = classify_rows(inst.X, [0, 1, 2])
    assert labels[0] == 0 and labels[1] == 1 and labels[2] == 2


def test_classify_tie_breaks_to_lowest_index():
    X = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    labels = classify_rows(X, [0, 1])
    assert labels[2] == 0  # row 2 is exactly distance 1 from both archetypes
    assert (classify_rows(X, [1, 0]) == labels).all()
    # In R^0 every row ties with every archetype.
    assert classify_rows(np.empty((4, 0)), [3, 1]).tolist() == [1, 1, 1, 1]


FIVE_ROWS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.9, 0.1], [0.1, 0.8]])


def test_classify_survives_an_offset_and_hostile_scales():
    # The expanded form ||x||^2 - 2 x.a + ||a||^2 labelled every row 0 under
    # the offset and at 1e-200, and row 4 as 1 (with an overflow) at 1e200.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for X in (FIVE_ROWS, FIVE_ROWS + 1e9, FIVE_ROWS * 1e-200, FIVE_ROWS * 1e200):
            assert classify_rows(X, [0, 1, 2]).tolist() == [0, 1, 2, 1, 2]


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(1, 4)),
        elements=st.integers(-4, 4).map(float),
    ),
    st.integers(-900, 900),
    st.data(),
)
def test_classify_labels_are_invariant_under_power_of_two_scaling(X, s, data):
    arch = data.draw(st.lists(st.integers(0, X.shape[0] - 1), min_size=1, unique=True))
    assert (classify_rows(np.ldexp(X, s), arch) == classify_rows(X, arch)).all()


def test_classify_mass_concentration():
    rng = np.random.default_rng(7)
    H = rng.random((3, 12))
    W = np.vstack(
        [
            np.eye(3),
            [[0.95, 0.03, 0.02], [0.01, 0.97, 0.02], [0.04, 0.02, 0.94]],
        ]
    )
    X = W @ H
    labels = classify_rows(X, [0, 1, 2])
    assert labels[3] == 0 and labels[4] == 1 and labels[5] == 2


def test_classify_validation():
    with pytest.raises(ValueError):
        classify_rows(np.eye(3), [])
    with pytest.raises(ValueError):
        classify_rows(np.eye(3), [5])
    with pytest.raises(ValueError, match="row index 1 is repeated"):
        classify_rows(np.eye(3), [2, 1, 1])


def test_factorize_vote_pipeline():
    inst = gen_uniform_separable(50, 30, 5, seed=8)
    res = factorize(inst.X, m=60, seed=1, select="vote", k=5)
    assert res.indices == [0, 1, 2, 3, 4]
    assert res.relative_residual <= 1e-6
    assert res.passes == 2
    assert res.m_used == 60


def test_factorize_workers_equivalent():
    inst = gen_uniform_separable(45, 25, 4, seed=9)
    serial = factorize(inst.X, m=40, seed=2, select="vote", k=4, workers=1)
    quad = factorize(inst.X, m=40, seed=2, select="vote", k=4, workers=4)
    assert serial.indices == quad.indices
    assert serial.W.tobytes() == quad.W.tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_factorize_weights_are_the_same_bits_on_any_worker_count(seed):
    # Noisy rows give diverse passive sets, so per-worker fits would group
    # them differently from one fit over all rows.
    X = gen_noisy_pairs(200, 12, 0.01, seed)
    runs = [factorize(X, m=200, seed=seed, k=12, workers=w) for w in (1, 2, 3, 4)]
    for res in runs[1:]:
        assert res.indices == runs[0].indices
        assert res.W.tobytes() == runs[0].W.tobytes()
        assert res.relative_residual == runs[0].relative_residual


def test_factorize_adaptive():
    inst = gen_uniform_separable(40, 20, 4, seed=10)
    res = factorize(inst.X, m=25, seed=3, adaptive=True, select="vote", k=4)
    assert res.indices == [0, 1, 2, 3]
    assert res.m_used % 25 == 0  # whole rounds
    # One pass per pursuit round plus one for the weights.
    assert res.passes == res.m_used // 25 + 1
    quad = factorize(inst.X, m=25, seed=3, adaptive=True, select="vote", k=4, workers=4)
    assert (quad.indices, quad.m_used, quad.passes) == (res.indices, res.m_used, res.passes)
    assert quad.W.tobytes() == res.W.tobytes()


def test_factorize_glasso_selection():
    inst = gen_uniform_separable(40, 30, 4, seed=11)
    res = factorize(inst.X, m=80, seed=4, select="glasso", k=4)
    assert res.indices == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="requires k"):
        factorize(inst.X, m=10, select="glasso")


def test_threads_env_cap(monkeypatch):
    from archpursuit.experiments import max_threads

    monkeypatch.setenv("ARCHPURSUIT_THREADS", "1")
    assert max_threads() == 1
    monkeypatch.setenv("ARCHPURSUIT_THREADS", "8")
    assert max_threads() == min(2, os.cpu_count() or 1)
    monkeypatch.setenv("ARCHPURSUIT_THREADS", "bogus")
    with pytest.raises(ValueError):
        max_threads()
    monkeypatch.delenv("ARCHPURSUIT_THREADS")
    assert max_threads() == min(2, os.cpu_count() or 1)


def test_results_independent_of_thread_cap(monkeypatch):
    spec = SweepSpec(k_values=(4,), multipliers=(3.0,), trials=6, n=30, p=20, seed=7)
    results = {}
    for cap in ("1", "2", "4"):
        monkeypatch.setenv("ARCHPURSUIT_THREADS", cap)
        results[cap] = (
            run_sweep(spec).grid,
            noise_cell(5, 40, 60, 0.05, 6, seed=3, select_k=3),
            noise_cell(5, 40, 60, 0.05, 6, seed=3, select_k=3, selector="glasso", grid_points=8),
        )
    assert results["1"] == results["2"] == results["4"]


def test_noise_cell_solvers_run_one_trial_at_a_time(monkeypatch):
    # Pursuit runs on the trial threads; the path and the fit must not
    # overlap across trials.  Each wrapped call sleeps so that two unlocked
    # threads would overlap for certain.
    monkeypatch.setenv("ARCHPURSUIT_THREADS", "2")
    spans = []

    def timed(fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            time.sleep(0.02)
            out = fn(*args, **kwargs)
            spans.append((start, time.perf_counter()))
            return out

        return wrapper

    monkeypatch.setattr(experiments, "solve_path", timed(experiments.solve_path))
    monkeypatch.setattr(
        experiments, "_fit_residual_per_row", timed(experiments._fit_residual_per_row)
    )
    noise_cell(5, 40, 60, 0.05, 4, seed=3, select_k=2, selector="glasso", grid_points=8)
    spans.sort()
    assert len(spans) == 8
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end <= start


def test_threaded_noise_cells_leave_warnings_filters_alone(monkeypatch):
    # The warnings filters are process-wide state: a filter set and restored
    # by two trial threads at once can be left behind for good.  The outer
    # catch_warnings only keeps a failure from leaking into later tests.
    monkeypatch.setenv("ARCHPURSUIT_THREADS", "2")
    interval = sys.getswitchinterval()
    with warnings.catch_warnings():
        before = list(warnings.filters)
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(6):
                noise_cell(5, 40, 60, 0.05, 16, seed=seed, select_k=2)
                noise_cell(
                    5, 40, 60, 0.05, 4, seed=seed, select_k=2, selector="glasso", grid_points=8
                )
                assert warnings.filters == before
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("select", ["vote", "glasso"])
def test_factorize_keeps_every_row_without_warning_when_k_exceeds_the_finds(select):
    X = gen_noisy_pairs(40, 6, 0.01, 5)
    found = factorize(X, m=60, seed=2, select="vote").indices
    res = factorize(X, m=60, seed=2, select=select, k=len(found) + 5)
    assert res.indices == found
    if select == "glasso":
        assert res.lasso_path is not None
        assert res.candidates == tuple(found)
        assert res.lasso_path.group_norms.shape == (50, len(found))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("selector", ["vote", "glasso"])
@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_noise_cell_keeps_every_row_without_warning_when_select_k_covers_the_finds(
    monkeypatch, selector, epsilon
):
    fitted = []

    def fit(X, rows):
        fitted.append((X.tobytes(), rows))
        return 0.0

    monkeypatch.setattr(experiments, "_fit_residual_per_row", fit)
    expected = []
    for t in range(3):
        inst_seed, run_seed = experiments._trial_seeds(4, t)
        X = gen_noisy_pairs(40, 5, epsilon, inst_seed)
        found = list(pursue(X, PursuitConfig(m=30, seed=run_seed)).indices)
        # The trial scales its own X once, before selection and the fit.
        expected.append((np.ldexp(X, -_scale_exponent(X)).tobytes(), found))
    select_k = max(len(rows) for _, rows in expected)
    noise_cell(5, 40, 30, epsilon, 3, seed=4, select_k=select_k, selector=selector)
    assert sorted(fitted) == sorted(expected)


def test_sweep_recovery_monotone_in_multiplier():
    # More functionals can only help; recovery per cell is non-decreasing in
    # the multiplier up to 2-sigma binomial noise at 200 trials.
    trials = 200
    spec = SweepSpec(
        k_values=(5,),
        multipliers=(0.25, 0.5, 1.0, 2.0, 4.0),
        trials=trials,
        n=60,
        p=40,
        seed=17,
    )
    res = run_sweep(spec)
    fracs = [row[4] for row in res.grid]
    for lo, hi in zip(fracs, fracs[1:]):
        noise = 2.0 * np.sqrt(max(lo * (1 - lo), hi * (1 - hi)) / trials)
        assert hi >= lo - noise
    assert fracs[-1] > fracs[0]
