"""Every numeric entry point is power-of-two equivariant.

Each one scales its input by 2^-e, e = ``matrix_io._scale_exponent``, before
it computes anything that depends on X's units, so X * 2^s gives the same
bits as X, and the outputs that carry X's units scale by exactly 2^s (or 4^s
for squared units).  The inputs hold values of order one, so at 2^+-500 no
entry, score or product under- or overflows.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archpursuit import (
    classify_rows,
    factorize,
    gen_noisy_pairs,
    gen_uniform_separable,
    geometry_report,
    nnls_fit,
)

SCALES = (-500, -100, -20, 20, 100, 500)


@st.composite
def inputs(draw):
    """(X, k): noisy pairs (k + C(k, 2) rows) or a uniform separable instance."""
    k = draw(st.integers(3, 5))
    p = draw(st.integers(k, 12))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        return gen_noisy_pairs(p, k, draw(st.sampled_from([0.0, 0.01, 0.1])), seed), k
    return gen_uniform_separable(draw(st.integers(k, 30)), p, k, seed).X, k


def assert_same_factorization(got, ref, s):
    assert got.indices == ref.indices
    assert np.array_equal(got.W, ref.W)
    assert got.relative_residual == ref.relative_residual
    assert got.candidates == ref.candidates
    if ref.lasso_path is not None:
        a, b = got.lasso_path, ref.lasso_path
        assert a.active == b.active
        assert np.array_equal(a.group_norms, b.group_norms)
        assert np.array_equal(a.lambdas, np.ldexp(b.lambdas, 2 * s))
        assert np.array_equal(a.objectives, np.ldexp(b.objectives, 2 * s))


@settings(max_examples=12, deadline=None)
@given(inputs(), st.integers(0, 2**16), st.integers(1, 3))
# With an absolute KKT tolerance, nnls_fit met it at W = 0 on this X * 2^-20.
@example(case=(gen_uniform_separable(200, 40, 6, seed=1).X, 6), seed=0, workers=1)
# Unscaled, lambda_max of this X * 2^-500 was 0 and the glasso path failed.
@example(case=(gen_noisy_pairs(60, 6, 0.01, seed=2), 6), seed=3, workers=2)
def test_every_entry_point_is_power_of_two_equivariant(case, seed, workers):
    X, k = case
    runs = {
        "nnls": lambda X: nnls_fit(X, X[:k]),
        "vote": lambda X: factorize(X, m=40, seed=seed, k=k, workers=workers),
        "glasso": lambda X: factorize(X, m=40, seed=seed, select="glasso", k=k, workers=workers),
        "diagnose": lambda X: geometry_report(X, range(k), samples=400, seed=seed),
        "classify": lambda X: classify_rows(X, range(k)),
    }
    ref = {name: run(X) for name, run in runs.items()}
    for s in SCALES:
        got = {name: run(np.ldexp(X, s)) for name, run in runs.items()}
        fit, want = got["nnls"], ref["nnls"]
        assert np.array_equal(fit.W, want.W) and fit.converged == want.converged, s
        assert fit.iterations == want.iterations, s
        assert fit.residual == math.ldexp(want.residual, s), s
        assert fit.kkt == math.ldexp(want.kkt, 2 * s), s
        assert_same_factorization(got["vote"], ref["vote"], s)
        assert_same_factorization(got["glasso"], ref["glasso"], s)
        rep, want = got["diagnose"], ref["diagnose"]
        assert np.array_equal(rep.omega_hat, want.omega_hat), s
        assert np.array_equal(rep.omega_se, want.omega_se), s
        assert np.array_equal(rep.alpha_hat, np.ldexp(want.alpha_hat, s)), s
        assert np.array_equal(got["classify"], ref["classify"]), s
