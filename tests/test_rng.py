"""Counter-addressed stream contracts: isolation, addressability, distribution."""

import numpy as np
import pytest
from scipy.special import ndtri

from archpursuit import _rng


def test_row_regeneration_is_exact():
    full = _rng.gaussian_rows(42, _rng.DOMAIN_FUNCTIONALS, 0, 10, 33)
    for j in (0, 3, 9):
        row = _rng.gaussian_rows(42, _rng.DOMAIN_FUNCTIONALS, j, 1, 33)
        assert np.array_equal(row[0], full[j])


def test_row_blocks_concatenate():
    full = _rng.uniform_rows(7, _rng.DOMAIN_ANGLES, 0, 8, 5)
    head = _rng.uniform_rows(7, _rng.DOMAIN_ANGLES, 0, 3, 5)
    tail = _rng.uniform_rows(7, _rng.DOMAIN_ANGLES, 3, 5, 5)
    assert np.array_equal(np.vstack([head, tail]), full)


def test_domains_are_independent_streams():
    a = _rng.uniform_rows(1, _rng.DOMAIN_FUNCTIONALS, 0, 1, 16)
    b = _rng.uniform_rows(1, _rng.DOMAIN_ANGLES, 0, 1, 16)
    assert not np.array_equal(a, b)


def test_seeds_change_everything():
    a = _rng.gaussian_rows(1, _rng.DOMAIN_FUNCTIONALS, 0, 2, 8)
    b = _rng.gaussian_rows(2, _rng.DOMAIN_FUNCTIONALS, 0, 2, 8)
    assert not np.array_equal(a, b)


def test_functionals_shape_and_addressing():
    G = _rng.functionals(5, 0, 12, 30)
    assert G.shape == (30, 12)
    col = _rng.functionals(5, 7, 1, 30)
    assert np.array_equal(col[:, 0], G[:, 7])


def test_child_seed_deterministic_and_distinct():
    s1 = _rng.child_seed(9, _rng.DOMAIN_TRIALS, 0)
    s2 = _rng.child_seed(9, _rng.DOMAIN_TRIALS, 0)
    s3 = _rng.child_seed(9, _rng.DOMAIN_TRIALS, 1)
    assert s1 == s2
    assert s1 != s3


def test_gaussian_moments():
    g = _rng.gaussian_rows(0, _rng.DOMAIN_ANGLES, 0, 200, 500).ravel()
    n = g.size
    assert abs(g.mean()) < 3.0 / np.sqrt(n)
    assert abs(g.std() - 1.0) < 3.0 / np.sqrt(2 * n)


def test_uniform_range():
    u = _rng.uniform_rows(3, _rng.DOMAIN_CAPS, 0, 50, 40)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_invalid_requests():
    with pytest.raises(ValueError):
        _rng.uniform_rows(0, 0, 0, 1, 0)


def test_gaussian_rows_finite_at_the_grid_ends(monkeypatch):
    # Philox uniforms lie on the 2^-53 grid in [0, 1 - 2^-53]; the top point
    # plus the half-ulp shift rounds to 1.0, which ndtri maps to +inf.
    grid = np.array([[0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53]])
    monkeypatch.setattr(_rng, "uniform_rows", lambda *args: grid.copy())
    g = _rng.gaussian_rows(3, _rng.DOMAIN_FUNCTIONALS, 0, 1, 4)[0]
    assert np.isfinite(g).all()
    assert np.array_equal(g[:3], ndtri(grid[0, :3] + 2.0**-54))
    assert 8.2 < g[3] < 8.3
