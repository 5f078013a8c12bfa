"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The full suite does real
experiment-scale work (recovery sweeps at n=500, p=1000; 10^4-trial
sample-bound checks; 50-trial noise grids) and takes a few minutes.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

from archpursuit import (
    ExecutionTrace,
    GroupLassoProblem,
    Partition,
    PursuitConfig,
    default_lambda_grid,
    distributed_weights,
    estimate_solid_angles,
    gen_noisy_pairs,
    gen_uniform_separable,
    lambda_max,
    nnls_fit,
    pursue,
    required_m,
    run_distributed,
    run_scree,
    select_by_persistence,
    select_top_voted,
    simplicial_constant,
    solve_path,
)
from archpursuit.experiments import noise_cell, recovery_fraction
from archpursuit import _rng

from paper_checks import project_cone_orthant, regular_simplex
from test_geometry import SQUARE, hull_distance_grid_oracle
from test_glasso import dykstra_oracle, in_cone_orthant


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_01_exact_recovery_uniform(monkeypatch):
    monkeypatch.setenv("ARCHPURSUIT_THREADS", "1")  # stated single-threaded budget
    k, trials = 20, 200
    m = math.ceil(3 * k * math.log(k))
    t0 = time.perf_counter()
    frac = recovery_fraction("uniform", 500, 1000, k, m, trials, seed=101)
    elapsed = time.perf_counter() - t0
    threshold = 0.95 - 2.0 * math.sqrt(0.95 * 0.05 / trials)
    ok = frac >= threshold and elapsed < 300.0
    assert _report(
        1,
        "exact-recovery-uniform",
        ok,
        f"m={m}, recovery={frac:.3f} >= {threshold:.3f}, {elapsed:.0f}s < 300s",
    )


def test_02_exact_recovery_hilbert(monkeypatch):
    monkeypatch.setenv("ARCHPURSUIT_THREADS", "1")
    k, trials = 20, 200
    m = math.ceil(12 * k * math.log(k))
    frac = recovery_fraction("hilbert", 500, 1000, k, m, trials, seed=202)
    threshold = 0.90 - 0.05
    ok = frac >= threshold
    assert _report(
        2, "exact-recovery-hilbert", ok, f"m={m}, recovery={frac:.3f} >= {threshold:.2f}"
    )


def test_03_sample_bound_validity():
    delta, trials = 0.05, 10_000
    sigma = math.sqrt(delta * (1 - delta) / trials)
    shapes = [("square", SQUARE, 4, 0.25)]
    for k in (3, 5, 10):
        shapes.append((f"simplex-k{k}", regular_simplex(k).vertices, k, 1.0 / k))
    all_ok = True
    details = []
    for shape_idx, (name, X, k, omega) in enumerate(shapes):
        m = required_m(np.full(k, omega), k, delta)
        analytic = k * (1.0 - 2.0 * omega) ** m
        misses = 0
        for t in range(trials):
            seed = _rng.child_seed(303, _rng.DOMAIN_TRIALS, shape_idx * trials + t)
            es = pursue(X, PursuitConfig(m=m, seed=seed))
            misses += len(es.indices) < k
        rate = misses / trials
        ok = rate <= delta + 3 * sigma and rate <= analytic + 3 * sigma
        all_ok &= ok
        details.append(f"{name}: m={m} miss={rate:.4f} (bound {analytic:.4f})")
    assert _report(
        3,
        "sample-bound-validity",
        all_ok,
        f"delta+3sigma={delta + 3 * sigma:.4f}; " + "; ".join(details),
    )


def test_04_solid_angle_consistency():
    samples = 100_000
    all_ok = True
    details = []
    cases = [("square", SQUARE, 0.25)]
    for k in (5, 10):
        cases.append((f"simplex-k{k}", regular_simplex(k).vertices, 1.0 / k))
    for name, X, target in cases:
        ext = list(range(X.shape[0]))
        omega, se = estimate_solid_angles(X, ext, samples=samples, seed=404)
        point_ok = bool((np.abs(omega - target) <= 3 * se).all())
        sum_ok = abs(float(omega.sum()) - 1.0) <= 3 * math.sqrt(float((se**2).sum()))
        all_ok &= point_ok and sum_ok
        details.append(f"{name}: max|w-{target:.3g}|={np.abs(omega - target).max():.2e}")
    assert _report(4, "solid-angles", all_ok, "; ".join(details))


def test_05_simplicial_constant():
    alpha = simplicial_constant(np.eye(3), [0, 1, 2], 0)
    closed_form_ok = abs(alpha - math.sqrt(1.5)) <= 1e-6
    rng = np.random.default_rng(505)
    poly_ok = True
    worst = 0.0
    for _ in range(3):
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, 10))
        X = rng.uniform(0.8, 1.4) * np.column_stack([np.cos(angles), np.sin(angles)])
        i = int(rng.integers(0, 10))
        mine = simplicial_constant(X, list(range(10)), i)
        oracle = hull_distance_grid_oracle(X[i], np.delete(X, i, axis=0))
        worst = max(worst, abs(mine - oracle))
        poly_ok &= abs(mine - oracle) <= 1e-3
    ok = closed_form_ok and poly_ok
    assert _report(
        5,
        "simplicial-constant",
        ok,
        f"|alpha-sqrt(3/2)|={abs(alpha - math.sqrt(1.5)):.2e}; polygon max dev={worst:.2e}",
    )


def test_06_cone_orthant_projection():
    rng = np.random.default_rng(606)
    worst_gap = 0.0
    worst_cert = 0.0
    ok = True
    for q in (2, 3, 5, 10):
        for _ in range(1000):
            x = rng.standard_normal(q) * rng.choice([0.3, 1.0, 3.0])
            y = project_cone_orthant(x)
            gap = float(np.abs(y - dykstra_oracle(x)).max())
            worst_gap = max(worst_gap, gap)
            ok &= gap <= 1e-6 and in_cone_orthant(y)
            r = x - y
            orth = abs(float(y @ r)) / max(1.0, float(np.linalg.norm(x)) ** 2)
            worst_cert = max(worst_cert, orth)
            ok &= orth <= 1e-9
            w = np.abs(rng.standard_normal((8, q - 1)))
            t = np.linalg.norm(w, axis=1) * (1.0 + np.abs(rng.standard_normal(8)))
            Z = np.column_stack([w, t])
            polar = Z @ r / (np.linalg.norm(Z, axis=1) * max(1.0, np.linalg.norm(r)))
            ok &= bool((polar <= 1e-9).all())
    assert _report(
        6,
        "cone-orthant-projection",
        ok,
        f"max |mine-dykstra|={worst_gap:.2e} <= 1e-6; max orthogonality={worst_cert:.2e} <= 1e-9",
    )


def test_07_nnls_exact_instances():
    ok = True
    details = []
    for n, p, k, seed in ((120, 80, 8, 707), (500, 1000, 20, 708)):
        inst = gen_uniform_separable(n, p, k, seed=seed)
        sol = nnls_fit(inst.X, inst.H, tol=1e-8, max_iter=5000)
        ok &= (
            sol.relative_residual <= 1e-6
            and sol.kkt <= 1e-8
            and sol.iterations <= 5000
            and sol.converged
        )
        details.append(
            f"{n}x{p}k{k}: rel={sol.relative_residual:.1e} kkt={sol.kkt:.1e} it={sol.iterations}"
        )
    assert _report(7, "nnls-exact", ok, "; ".join(details))


def test_08_distributed_equivalence():
    ok = True
    for pair in range(20):
        inst_seed = _rng.child_seed(808, _rng.DOMAIN_TRIALS, 2 * pair)
        run_seed = _rng.child_seed(808, _rng.DOMAIN_TRIALS, 2 * pair + 1)
        inst = gen_uniform_separable(130, 60, 8, seed=inst_seed)
        cfg = PursuitConfig(m=45, seed=run_seed)
        serial = pursue(inst.X, cfg)
        for D in (1, 2, 4, 8):
            got = run_distributed(inst.X, Partition.contiguous(130, D), cfg)
            ok &= got == serial
    # Pass accounting on one representative run.
    inst = gen_uniform_separable(130, 60, 8, seed=9)
    part = Partition.contiguous(130, 4)
    trace = ExecutionTrace()
    es = run_distributed(inst.X, part, PursuitConfig(m=45, seed=1), trace)
    pursuit_passes = trace.passes
    distributed_weights(inst.X, part, list(es.indices), trace=trace)
    total_passes = trace.passes
    ok &= pursuit_passes == 1 and total_passes == 2
    assert _report(
        8,
        "distributed-equivalence",
        ok,
        f"20 pairs x D in (1,2,4,8) bit-identical; passes {pursuit_passes} then {total_passes}",
    )


def test_09_noise_monotonicity():
    k, p, trials = 20, 1000, 50
    eps_grid = np.geomspace(1e-4, 1e-1, 6)
    ok = True
    details = []
    for ci, c in enumerate((1.0, 5.0, 20.0)):
        m = math.ceil(c * k * math.log(k))
        means = []
        for ei, eps in enumerate(eps_grid):
            cell_seed = _rng.child_seed(909, _rng.DOMAIN_TRIALS, ci * 10 + ei)
            means.append(noise_cell(k, p, m, float(eps), trials, cell_seed, 20))
        rho = float(spearmanr(eps_grid, means).statistic)
        ok &= rho >= 0.95
        details.append(f"m={m}: rho={rho:.3f}")
    assert _report(9, "noise-monotonicity", ok, "; ".join(details))


def test_10_group_lasso_endpoints():
    # (a) every lambda >= lambda_max leaves all groups at zero
    Xa = gen_noisy_pairs(300, 8, 0.02, seed=1001)
    Ha = Xa[:8]
    lam = lambda_max(Xa, Ha)
    path = solve_path(GroupLassoProblem(Xa, Ha, np.array([1.5, 1.2, 1.01]) * lam))
    zero_ok = all(np.abs(W).max() == 0.0 for W in path.weights) and all(
        act == () for act in path.active
    )

    # (b) at lambda = 1e-3 * lambda_max the quadratic fit matches the NNLS
    # optimum to 1e-4 relative (instance chosen so the remaining penalty
    # effect, which scales as lambda^2, sits below that tolerance; see the
    # decisions ledger for the calibration analysis).
    Xb = gen_noisy_pairs(1000, 20, 0.5, seed=1002)
    Hb = Xb[:20]
    lam_b = lambda_max(Xb, Hb)
    path_b = solve_path(
        GroupLassoProblem(Xb, Hb, default_lambda_grid(lam_b, num=50)),
        tol=1e-11,
        max_iter_per_lambda=10000,
    )
    sol = nnls_fit(Xb, Hb, tol=1e-9, max_iter=10000)
    f_nnls = 0.5 * float(np.linalg.norm(Xb - sol.W @ Hb)) ** 2
    rel_gap = abs(path_b.fit_objectives[-1] - f_nnls) / f_nnls
    endpoint_ok = rel_gap <= 1e-4

    # (c) persistence ranks every true extreme above every interior candidate
    n, p, k, n_interior, trials = 100, 200, 10, 5, 50
    hits = 0
    for trial in range(trials):
        seed = _rng.child_seed(1003, _rng.DOMAIN_TRIALS, trial)
        inst = gen_uniform_separable(n, p, k, seed=seed)
        cand = list(range(k)) + [50 + j for j in range(n_interior)]
        H = inst.X[cand]
        lam_c = lambda_max(inst.X, H)
        pth = solve_path(
            GroupLassoProblem(inst.X, H, default_lambda_grid(lam_c, num=30)),
            tol=1e-8,
            max_iter_per_lambda=2000,
        )
        top = select_by_persistence(pth, k)
        hits += sorted(top) == list(range(k))
    persist_ok = hits / trials >= 0.90

    ok = zero_ok and endpoint_ok and persist_ok
    assert _report(
        10,
        "group-lasso-endpoints",
        ok,
        f"zero@lam>=lam_max={zero_ok}; endpoint rel gap={rel_gap:.1e} <= 1e-4; "
        f"persistence {hits}/{trials} >= 90%",
    )


def test_11_scree_sharpness():
    k, p = 20, 1000
    m = math.ceil(20 * k * math.log(k))
    ok = True
    details = []
    for eps in (1e-4, 1e-3):
        X = gen_noisy_pairs(p, k, eps, seed=1101)
        fractions = run_scree(X, m=m, repeats=3, seed=1102)
        for row in fractions:
            ok &= row[19] >= 10.0 * row[20]
        ratio = fractions[:, 19] / np.maximum(fractions[:, 20], 1e-12)
        details.append(f"eps={eps:g}: min ratio={ratio.min():.1f}")
    assert _report(11, "scree-sharpness", ok, "; ".join(details))


def test_12_suite_vote_selection_sanity():
    # Supporting check tying criteria together: the full noisy pipeline at
    # moderate noise still selects the 20 true rows by vote count.
    X = gen_noisy_pairs(1000, 20, 0.01, seed=1201)
    es = pursue(X, PursuitConfig(m=1199, seed=1202))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        top = sorted(select_top_voted(es, 20))
    assert top == list(range(20))
