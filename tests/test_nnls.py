"""NNLS solver: certificates, recovery, row decomposability."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import nnls as scipy_nnls

from archpursuit import gen_noisy_pairs, gen_uniform_separable, nnls_fit
from paper_checks import kkt_residual


def test_self_representation_is_identity():
    rng = np.random.default_rng(0)
    H = rng.random((6, 10))
    sol = nnls_fit(H, H)
    assert sol.converged
    assert np.abs(sol.W - np.eye(6)).max() <= 1e-6
    assert sol.relative_residual <= 1e-8


def test_negative_direction_forces_zero():
    sol = nnls_fit(np.array([[2.0]]), np.array([[-1.0]]))
    assert sol.W[0, 0] == 0.0
    assert sol.relative_residual == pytest.approx(1.0, rel=1e-12)


def test_exact_instance_recovers_weights():
    inst = gen_uniform_separable(80, 40, 8, seed=3)
    sol = nnls_fit(inst.X, inst.H)
    assert sol.converged
    assert sol.W.min() >= 0.0  # exact, by projection
    assert sol.relative_residual <= 1e-6
    err = np.linalg.norm(sol.W - inst.W) / np.linalg.norm(inst.W)
    assert err <= 1e-4


def test_exact_instance_takes_one_round():
    # Every row is a convex combination of the archetype rows, so the first
    # full exchange lands on the optimum; the KKT stop keeps rounding noise
    # in the archetype rows' own fits from starting more rounds.
    inst = gen_uniform_separable(250, 100, 20, seed=2)
    sol = nnls_fit(inst.X, inst.X[list(inst.true_extreme_indices)])
    assert sol.converged and sol.iterations == 1
    assert sol.kkt <= 1e-10


def test_kkt_certificate_behaviour():
    inst = gen_uniform_separable(30, 20, 4, seed=1)
    sol = nnls_fit(inst.X, inst.H)
    base = kkt_residual(inst.X, inst.H, sol.W)
    assert base <= 1e-8
    # W = 0 with a positive descent direction is certifiably non-optimal.
    assert kkt_residual(inst.X, inst.H, np.zeros_like(sol.W)) > 0.1
    # Perturbing one entry of the optimum worsens the certificate.
    bumped = sol.W.copy()
    bumped[0, 0] += 0.1
    assert kkt_residual(inst.X, inst.H, bumped) > base


def test_capped_fit_warns_once_and_a_converged_fit_is_silent():
    # Pivoting needs several rounds here: H holds non-extreme midpoint rows.
    X = gen_noisy_pairs(1000, 20, 0.01, 0)
    H = X[[0, 1, 2, 20, 21, 22, 40, 41]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        capped = nnls_fit(X, H, max_iter=2)
    assert not capped.converged
    assert [w.category for w in caught] == [RuntimeWarning]
    assert str(caught[0].message) == (
        f"NNLS stopped at KKT {capped.kkt:.3g} (X's units squared), above tol=1e-08 on X "
        "and H scaled to max|H| in [0.5, 1), after max_iter=2 iterations"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert nnls_fit(X, H).converged


def test_row_decomposability():
    inst = gen_uniform_separable(15, 12, 3, seed=6)
    joint = nnls_fit(inst.X, inst.H, tol=1e-10).W
    for i in range(inst.X.shape[0]):
        single = nnls_fit(inst.X[i : i + 1], inst.H, tol=1e-10).W
        assert np.abs(single[0] - joint[i]).max() <= 1e-10


def test_matches_reference_active_set_solver():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((8, 12))
    H = rng.standard_normal((5, 12))
    sol = nnls_fit(X, H, tol=1e-10)
    for i in range(8):
        w_ref, _ = scipy_nnls(H.T, X[i])
        assert np.abs(sol.W[i] - w_ref).max() <= 1e-6


def test_objective_no_worse_than_zero_start():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((10, 6))
    H = rng.standard_normal((4, 6))
    sol = nnls_fit(X, H)
    assert np.linalg.norm(X - sol.W @ H) <= np.linalg.norm(X) + 1e-12


def test_zero_h_row_warns_and_zeroes_coefficient():
    rng = np.random.default_rng(2)
    H = rng.random((3, 8))
    H[1] = 0.0
    X = rng.random((5, 8))
    with pytest.warns(RuntimeWarning, match="zero rows"):
        sol = nnls_fit(X, H)
    assert np.abs(sol.W[:, 1]).max() == 0.0


def test_degenerate_h_converges_in_objective():
    # Duplicate archetype rows: W is non-unique, but the fit must still match
    # the reference solver's residual.
    rng = np.random.default_rng(4)
    base = rng.random((2, 10))
    H = np.vstack([base, base[0]])
    X = rng.random((6, 10))
    sol = nnls_fit(X, H)
    for i in range(6):
        _, rnorm = scipy_nnls(H.T, X[i])
        mine = np.linalg.norm(X[i] - sol.W[i] @ H)
        assert mine <= rnorm + 1e-6


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        nnls_fit(np.ones((3, 4)), np.ones((2, 5)))
    with pytest.raises(ValueError):
        kkt_residual(np.ones((3, 4)), np.ones((2, 4)), np.ones((3, 3)))


@st.composite
def nnls_problems(draw):
    """(X, H) with small integer-valued entries and hostile shapes.

    Covers n = 1, p = 1, k > p, X = 0, duplicate rows and zero rows of H.
    Integer entries keep H away from near-dependence, where a fit through
    H H^T cannot certify KKT 1e-8 in float64.
    """
    n = draw(st.integers(1, 6))
    p = draw(st.integers(1, 6))
    k = draw(st.integers(1, 8))
    X = draw(arrays(np.float64, (n, p), elements=st.integers(-4, 4).map(float)))
    H = draw(arrays(np.float64, (k, p), elements=st.integers(-3, 3).map(float)))
    if draw(st.booleans()):
        X[:] = 0.0
    if k > 1 and draw(st.booleans()):
        H[draw(st.integers(0, k - 1))] = H[draw(st.integers(0, k - 1))]
    if draw(st.booleans()):
        H[draw(st.integers(0, k - 1))] = 0.0
    return X, H


def _fit_quietly(X, H, **kw):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "H has zero rows", RuntimeWarning)
        return nnls_fit(X, H, **kw)


@settings(max_examples=300, deadline=None)
@given(nnls_problems())
# The reference solver reported rnorm 4.39 here, below the least-squares
# minimum 5; its own w leaves a residual of 5.71.
@example(problem=(
    np.vstack([np.zeros((4, 4)), [2.0, 3.0, 3.0, 3.0]]),
    np.array([[-1.0, 2, 0, 0], [-1, 2, 0, 0], [0, 0, 0, 0], [2, -2, 1, -1], [0, 0, 0, 0],
              [0, 2, -1, 0]]),
))
def test_fit_is_no_worse_than_the_reference_solver(problem):
    X, H = problem
    sol = _fit_quietly(X, H)
    assert sol.W.min() >= 0.0
    assert sol.converged
    assert kkt_residual(X, H, sol.W) <= 1e-8
    for i in range(X.shape[0]):
        w_ref, _ = scipy_nnls(H.T, X[i])
        ref = 0.5 * np.sum((X[i] - w_ref @ H) ** 2)
        mine = 0.5 * np.sum((X[i] - sol.W[i] @ H) ** 2)
        # Relative to 0.5 * ||x_i||^2, the objective at w = 0.
        assert mine <= ref + 1e-9 * 0.5 * X[i] @ X[i]


@settings(max_examples=150, deadline=None)
@given(nnls_problems())
def test_rows_solved_alone_match_the_joint_solve(problem):
    X, H = problem
    joint = _fit_quietly(X, H).W
    for i in range(X.shape[0]):
        alone = _fit_quietly(X[i : i + 1], H).W
        assert np.abs(alone[0] - joint[i]).max() <= 1e-10


# ---------------------------------------------------------------------------
# Passive-set solves: LU on well-conditioned H H^T, min-norm lstsq otherwise


def _counted_solvers(monkeypatch):
    """Count the calls of np.linalg.solve and np.linalg.lstsq."""
    calls = {"solve": 0, "lstsq": 0}
    solve, lstsq = np.linalg.solve, np.linalg.lstsq

    def counted_solve(A, B):
        calls["solve"] += 1
        return solve(A, B)

    def counted_lstsq(*args, **kwargs):
        calls["lstsq"] += 1
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    return calls


def _noisy_mixture(rng, n, H, noise=0.05):
    return rng.random((n, H.shape[0])) @ H + noise * rng.standard_normal((n, H.shape[1]))


@pytest.mark.parametrize("seed", range(4))
def test_lu_and_lstsq_branches_agree_on_well_conditioned_h(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((12, 40))
    X = _noisy_mixture(rng, 150, H)
    tol = 1e-8
    calls = _counted_solvers(monkeypatch)
    lu = nnls_fit(X, H, tol=tol)
    assert calls["solve"] > 0 and calls["lstsq"] == 0, calls
    monkeypatch.setattr(np.linalg, "solve", lambda A, B: np.linalg.lstsq(A, B, rcond=None)[0])
    ref = nnls_fit(X, H, tol=tol)
    assert calls["lstsq"] > 0
    assert lu.converged and ref.converged
    assert lu.kkt <= tol and ref.kkt <= tol
    assert lu.iterations == ref.iterations
    assert np.abs(lu.W - ref.W).max() <= tol
    assert abs(lu.relative_residual - ref.relative_residual) <= 1e-12


def _k_above_p(rng):
    return rng.standard_normal((9, 6))


def _duplicate_row(rng):
    H = rng.standard_normal((6, 15))
    H[4] = H[1]
    return H


def _zero_row(rng):
    H = rng.standard_normal((6, 15))
    H[2] = 0.0
    return H


@pytest.mark.parametrize("make_h", [_k_above_p, _duplicate_row, _zero_row])
def test_singular_h_takes_the_lstsq_branch(make_h, monkeypatch):
    rng = np.random.default_rng(11)
    H = make_h(rng)
    X = _noisy_mixture(rng, 60, H)
    calls = _counted_solvers(monkeypatch)
    sol = _fit_quietly(X, H)
    assert calls["solve"] == 0 and calls["lstsq"] > 0, calls
    assert sol.converged and sol.W.min() >= 0.0
    for i in range(X.shape[0]):
        _, rnorm = scipy_nnls(H.T, X[i])
        mine = 0.5 * np.sum((X[i] - sol.W[i] @ H) ** 2)
        assert mine <= 0.5 * rnorm**2 + 1e-9 * 0.5 * X[i] @ X[i]
