"""CLI surface: subcommands, file artifacts, exit codes, determinism."""

import json
import warnings

import numpy as np
import pytest

from archpursuit import gen_noisy_pairs, gen_uniform_separable, load_csv, save_csv
from archpursuit.cli import main


@pytest.fixture()
def instance_csv(tmp_path):
    inst = gen_uniform_separable(40, 20, 4, seed=3)
    path = tmp_path / "X.csv"
    save_csv(inst.X, path)
    return path, inst


def test_factorize_writes_artifacts(tmp_path, instance_csv):
    path, inst = instance_csv
    out = tmp_path / "fact"
    rc = main(
        [
            "factorize",
            "--input", str(path),
            "--m", "50",
            "--select", "vote",
            "--k", "4",
            "--seed", "5",
            "--workers", "3",
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    idx = load_csv(out / "indices.csv", skip_header=True)
    assert idx[:, 0].astype(int).tolist() == [0, 1, 2, 3]
    W = load_csv(out / "W.csv")
    assert W.shape == (40, 4)
    summary = load_csv(out / "summary.csv", skip_header=True)
    rel, passes = summary[0, 0], int(summary[0, 1])
    assert rel <= 1e-6
    assert passes == 2
    trace = load_csv(out / "trace.csv", skip_header=True)
    assert trace.shape == (3, 3)
    assert trace[:, 1].sum() == 2 * 40  # two passes over all rows
    assert set(trace[:, 2]) == {50 * 32.0}  # pursuit bytes per worker


def test_factorize_glasso_writes_path(tmp_path, instance_csv):
    path, _ = instance_csv
    out = tmp_path / "gfact"
    rc = main(
        [
            "factorize",
            "--input", str(path),
            "--m", "60",
            "--select", "glasso",
            "--k", "4",
            "--seed", "5",
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    rows = load_csv(out / "path.csv", skip_header=True)
    assert rows.shape[1] == 4
    lams = np.unique(rows[:, 0])
    assert lams.size == 50  # default grid length
    assert set(rows[:, 3]) <= {0.0, 1.0}


def test_factorize_glasso_selects_the_same_rows_at_small_scale(tmp_path):
    # The group-lasso path has no absolute floor in its stopping rule, so
    # the same input times 2^-20 selects the same rows.
    X = gen_noisy_pairs(200, 12, 0.01, 11)
    picked = []
    for name, data in (("unit", X), ("small", np.ldexp(X, -20))):
        save_csv(data, tmp_path / f"{name}.csv")
        argv = ["factorize", "--input", str(tmp_path / f"{name}.csv"), "--select", "glasso"]
        argv += ["--k", "8", "--m", "200", "--seed", "11", "--out-dir", str(tmp_path / name)]
        assert main(argv) == 0
        picked.append((tmp_path / name / "indices.csv").read_bytes())
    assert picked[0] == picked[1]


def test_factorize_workers_identical_output(tmp_path, instance_csv):
    path, _ = instance_csv
    outs = []
    for workers in ("1", "4"):
        out = tmp_path / f"w{workers}"
        rc = main(
            [
                "factorize",
                "--input", str(path),
                "--m", "40",
                "--k", "4",
                "--seed", "9",
                "--workers", workers,
                "--out-dir", str(out),
            ]
        )
        assert rc == 0
        outs.append((out / "indices.csv").read_bytes())
    assert outs[0] == outs[1]


def test_factorize_transpose_matches_pretransposed(tmp_path, instance_csv):
    path, inst = instance_csv
    tpath = tmp_path / "XT.csv"
    save_csv(np.asarray(inst.X).T, tpath)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    base = ["--m", "40", "--k", "4", "--seed", "2"]
    assert main(["factorize", "--input", str(path), *base, "--out-dir", str(out_a)]) == 0
    assert (
        main(
            [
                "factorize",
                "--input", str(tpath),
                "--transpose",
                *base,
                "--out-dir", str(out_b),
            ]
        )
        == 0
    )
    assert (out_a / "indices.csv").read_bytes() == (out_b / "indices.csv").read_bytes()
    assert (out_a / "W.csv").read_bytes() == (out_b / "W.csv").read_bytes()


def test_sweep_csv_round_trips(tmp_path):
    out = tmp_path / "grid.csv"
    iso = tmp_path / "iso.csv"
    rc = main(
        [
            "sweep",
            "--n", "30",
            "--p", "20",
            "--k-list", "3",
            "--multipliers", "1,4",
            "--trials", "5",
            "--seed", "1",
            "--out", str(out),
            "--isocline-out", str(iso),
        ]
    )
    assert rc == 0
    grid = load_csv(out, skip_header=True)
    assert grid.shape == (2, 5)
    assert set(grid[:, 0]) == {3.0}
    assert load_csv(iso, skip_header=True).shape == (1, 3)


def test_noise_csv(tmp_path):
    out = tmp_path / "noise.csv"
    rc = main(
        [
            "noise",
            "--k", "4",
            "--p", "30",
            "--multipliers", "2",
            "--eps-min", "1e-4",
            "--eps-max", "1e-2",
            "--eps-count", "2",
            "--trials", "2",
            "--select-k", "4",
            "--seed", "2",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = load_csv(out, skip_header=True)
    assert rows.shape == (2, 5)
    assert rows[1, 3] >= rows[0, 3]


def test_glasso_noise_csv(tmp_path):
    out = tmp_path / "gnoise.csv"
    rc = main(
        [
            "glasso-noise",
            "--k", "4",
            "--p", "30",
            "--multipliers", "2",
            "--eps-min", "1e-3",
            "--eps-max", "1e-3",
            "--eps-count", "1",
            "--trials", "2",
            "--select-k", "4",
            "--seed", "2",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert load_csv(out, skip_header=True).shape == (1, 5)


@pytest.mark.parametrize("command", ["noise", "glasso-noise"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_noise_rejects_nonpositive_trials(tmp_path, capsys, command, trials):
    out = tmp_path / "noise.csv"
    rc = main([command, "--k", "4", "--p", "30", "--trials", trials, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: trials must be >= 1"]
    assert not out.exists()


def test_scree_csv(tmp_path, instance_csv):
    path, inst = instance_csv
    out = tmp_path / "scree.csv"
    rc = main(
        ["scree", "--input", str(path), "--m", "60", "--repeats", "3", "--out", str(out)]
    )
    assert rc == 0
    rows = load_csv(out, skip_header=True)
    assert rows.shape == (3, 1 + 40)
    assert (rows[:, 1] == 1.0).all()  # top rank is normalized to 1


def test_classify_cli(tmp_path, instance_csv):
    path, _ = instance_csv
    out = tmp_path / "labels.csv"
    rc = main(
        ["classify", "--input", str(path), "--archetypes", "0,1,2,3", "--out", str(out)]
    )
    assert rc == 0
    rows = load_csv(out, skip_header=True)
    assert rows.shape == (40, 2)
    assert rows[0, 1] == 0.0 and rows[3, 1] == 3.0


def test_classify_rejects_a_repeated_archetype(tmp_path, instance_csv, capsys):
    path, _ = instance_csv
    out = tmp_path / "labels.csv"
    rc = main(["classify", "--input", str(path), "--archetypes", "0,0,1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: row index 0 is repeated"]
    assert not out.exists()


def test_diagnose_cli(tmp_path, instance_csv):
    path, _ = instance_csv
    prefix = tmp_path / "diag"
    rc = main(
        [
            "diagnose",
            "--input", str(path),
            "--archetypes", "0,1,2,3",
            "--samples", "5000",
            "--out-prefix", str(prefix),
        ]
    )
    assert rc == 0
    pts = load_csv(f"{prefix}_points.csv", skip_header=True)
    assert pts.shape == (4, 4)
    summary = json.loads(open(f"{prefix}_summary.json").read())
    assert summary["n_extreme"] == 4
    assert 0.9 <= summary["omega_sum"] <= 1.1
    assert summary["m_required"] >= 1


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_diagnose_at_hostile_scales(tmp_path, scale):
    # The unit square plus its centre: alpha = sqrt(1/2) * scale at each corner.
    path = tmp_path / "X.csv"
    save_csv(scale * np.array([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]]), path)
    prefix = tmp_path / "diag"
    rc = main(
        [
            "diagnose",
            "--input", str(path),
            "--archetypes", "0,1,2,3",
            "--samples", "2000",
            "--out-prefix", str(prefix),
        ]
    )
    assert rc == 0
    alpha = load_csv(f"{prefix}_points.csv", skip_header=True)[:, 3]
    assert alpha == pytest.approx(np.full(4, np.sqrt(0.5) * scale), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "archetypes, message",
    [
        ("0,1,-2", "-2 is out of range"),
        ("0,40", "40 is out of range"),
        ("0,0", "0 is repeated"),
        ("0,1,1", "1 is repeated"),
    ],
)
def test_diagnose_rejects_bad_archetypes(tmp_path, instance_csv, capsys, archetypes, message):
    path, _ = instance_csv
    rc = main(
        [
            "diagnose",
            "--input", str(path),
            "--archetypes", archetypes,
            "--samples", "100",
            "--out-prefix", str(tmp_path / "diag"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_diagnose_requires_archetypes_or_m(tmp_path, instance_csv):
    path, _ = instance_csv
    rc = main(["diagnose", "--input", str(path), "--out-prefix", str(tmp_path / "x")])
    assert rc == 2


def test_missing_input_is_runtime_error(tmp_path):
    rc = main(
        ["scree", "--input", str(tmp_path / "nope.csv"), "--m", "5", "--out", str(tmp_path / "o")]
    )
    assert rc == 1


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_conflicting_flags_exit_2(tmp_path, instance_csv):
    path, _ = instance_csv
    rc = main(
        [
            "factorize",
            "--input", str(path),
            "--m", "10",
            "--select", "glasso",
            "--out-dir", str(tmp_path / "y"),
        ]
    )
    assert rc == 2


def test_same_seed_same_bytes(tmp_path, instance_csv):
    path, _ = instance_csv
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        main(
            [
                "factorize",
                "--input", str(path),
                "--m", "30",
                "--k", "4",
                "--seed", "11",
                "--out-dir", str(out),
            ]
        )
        blobs.append((out / "W.csv").read_bytes() + (out / "indices.csv").read_bytes())
    assert blobs[0] == blobs[1]


DEGENERATE = {
    "1x1": np.array([[3.0]]),
    "1x5": np.arange(1.0, 6.0).reshape(1, 5),
    "5x1": np.arange(1.0, 6.0).reshape(5, 1),
    "constant": np.full((5, 3), 2.0),
    "zero": np.zeros((5, 3)),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
@pytest.mark.parametrize("select", [["--select", "vote"], ["--select", "glasso", "--k", "1"]])
def test_factorize_degenerate_shapes(tmp_path, capsys, name, select):
    X = DEGENERATE[name]
    path = tmp_path / "X.csv"
    save_csv(X, path)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        # A zero archetype row forces its coefficients to 0, with a warning.
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["factorize", "--input", str(path), "--m", "20", "--out-dir", str(out)] + select)
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    idx = [int(v) for v in (out / "indices.csv").read_text().split()[1:]]
    assert idx and all(0 <= i < X.shape[0] for i in idx)
    if "glasso" in select:
        assert len(idx) == 1
    W = load_csv(out / "W.csv")
    assert W.shape == (X.shape[0], len(idx)) and (W >= 0).all()
    assert np.allclose(W @ X[idx], X, rtol=0, atol=1e-12)
    summary = (out / "summary.csv").read_text().splitlines()[1].split(",")
    assert float(summary[0]) <= 1e-12


@pytest.mark.parametrize("name", sorted(DEGENERATE))
@pytest.mark.parametrize("select", [["--m", "20"], ["--archetypes", "0"]])
def test_diagnose_degenerate_shapes(tmp_path, capsys, name, select):
    X = DEGENERATE[name]
    path = tmp_path / "X.csv"
    save_csv(X, path)
    prefix = tmp_path / "diag"
    rc = main(
        ["diagnose", "--input", str(path), "--samples", "500", "--out-prefix", str(prefix)]
        + select
    )
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = (tmp_path / "diag_points.csv").read_text().splitlines()[1:]
    summary = json.loads((tmp_path / "diag_summary.json").read_text())
    assert summary["n_extreme"] == len(rows) >= 1
    omega = [float(r.split(",")[1]) for r in rows]
    assert all(0.0 <= w <= 1.0 for w in omega)
    assert summary["omega_sum"] == pytest.approx(sum(omega))
    if name in ("constant", "zero"):
        # Five copies of one point: row 0 wins every tie and owns the whole
        # sphere, and one functional finds it.
        assert [int(r.split(",")[0]) for r in rows] == [0] and omega == [1.0]
        assert summary["kappa"] == 0.0 and summary["m_required"] == 1
        assert summary["omega_sum"] == 1.0


@pytest.mark.parametrize(
    "name, select", [("1x1", ["--m", "20"]), ("1x5", ["--m", "20"]), ("5x1", ["--archetypes", "0"])]
)
def test_diagnose_lone_archetype_writes_a_readable_alpha(tmp_path, name, select):
    path = tmp_path / "X.csv"
    save_csv(DEGENERATE[name], path)
    prefix = tmp_path / "diag"
    rc = main(
        ["diagnose", "--input", str(path), "--samples", "500", "--out-prefix", str(prefix)]
        + select
    )
    assert rc == 0
    pts = load_csv(f"{prefix}_points.csv", skip_header=True)
    assert pts.shape == (1, 4) and pts[0, 0] == 0.0 and pts[0, 3] == 0.0
    summary = json.loads(open(f"{prefix}_summary.json").read())
    assert "lone archetype" in summary["alpha_note"]
