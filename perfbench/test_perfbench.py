"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from archpursuit import cli  # noqa: E402
from archpursuit.matrix_io import save_csv  # noqa: E402

THREADS = {"ARCHPURSUIT_THREADS": "2", "OPENBLAS_NUM_THREADS": "1"}


def tiny_run(name, trace):
    record = harness.run(name, 3, 0.3, trace, time.perf_counter(), THREADS, size="tiny")
    return record, run.report(record).splitlines()


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
    for name, wl in harness.WORKLOADS.items():
        assert set(wl.layers) <= set(tracer.PER_LAYER), name
    # Every per-layer metric has a home workload that runs its layer.
    assert set().union(*(wl.layers for wl in harness.WORKLOADS.values())) == set(
        tracer.PER_LAYER
    )


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_end_to_end_metrics_print_with_units(name):
    record, lines = tiny_run(name, False)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    for metric, unit in harness.END_TO_END.items():
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] > 0
        assert any(line.split()[:1] == [metric] and line.split()[2] == unit for line in lines)
    assert any(line.startswith("error_ratio 0.0 ") for line in lines)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_traced_run_gives_every_layer_metric(name):
    record, lines = tiny_run(name, True)
    result = json.loads(lines[-1])
    assert result["correct"]
    assert record["missing"] == []
    assert set(result["metrics"]) == set(tracer.PER_LAYER)
    for metric, unit in tracer.PER_LAYER.items():
        assert result["metrics"][metric]["unit"] == unit
        assert any(line.split()[:1] == [metric] and line.split()[2] == unit for line in lines)
    # Layers the workload runs come from its own ops, the others from their home.
    homes = harness.home_workloads(name)
    assert set(record["filled_from"]) == {m for names in homes.values() for m in names}
    assert not set(record["filled_from"]) & set(harness.WORKLOADS[name].layers)
    # Self times of the modules add up to the op time.
    acc = record["accounting"]
    assert acc["ops"] >= 1
    assert acc["min_ratio"] == pytest.approx(1.0, abs=1e-9)
    assert acc["max_ratio"] == pytest.approx(1.0, abs=1e-9)
    spans = json.loads((HERE.parent / record["trace_file"]).read_text())["spans"]
    assert {"name", "start", "end", "parent", "op", "thread"} <= set(spans[0])


def test_layer_without_spans_is_missing_not_zero(monkeypatch):
    monkeypatch.delitem(tracer.TARGETS, "nnls.nnls_fit")
    record, lines = tiny_run("factorize-tall", True)
    gone = {"nnls.self_s", "nnls.nnls_fit_s", "nnls.iterations", "nnls.kkt",
            "nnls.converged_ratio"}
    assert gone <= set(record["missing"])
    assert not gone & set(json.loads(lines[-1])["metrics"])
    assert "nnls.nnls_fit_s missing (layer recorded no span)" in lines


def _factorize_run(tmp_path, monkeypatch, corrupt):
    wl = harness.FactorizeTall(harness.PARAMS["tiny"]["factorize-tall"], 3, tmp_path, None)
    wl.prepare()
    r = harness.Run(wl)
    assert r.op() is not None and r.failed == 0
    real_main = cli.main

    def main(argv):
        rc = real_main(argv)
        corrupt(wl, tmp_path / "out")
        return rc

    monkeypatch.setattr(cli, "main", main)
    assert r.op() is None
    return r


def test_negative_weight_counts_as_error(tmp_path, monkeypatch):
    def negate(wl, out):
        W = np.loadtxt(out / "W.csv", delimiter=",", ndmin=2)
        W[7, 2] = -1e-6
        save_csv(W, out / "W.csv")

    r = _factorize_run(tmp_path, monkeypatch, negate)
    assert (r.attempted, r.failed) == (2, 1)


def test_non_extreme_index_counts_as_error(tmp_path, monkeypatch):
    def interior(wl, out):
        rows = (out / "indices.csv").read_text().splitlines()
        rows[1] = str(wl.p["k"] + 3)  # an interior row in place of archetype 0
        (out / "indices.csv").write_text("\n".join(rows) + "\n")

    r = _factorize_run(tmp_path, monkeypatch, interior)
    assert (r.attempted, r.failed) == (2, 1)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    times = [float(i) for i in range(1, 41)]
    assert harness.tail(times) == (30.0, 75.0)
    assert harness.tail(times[:10]) == (10.0, 100.0)


def test_leaf_shares_split_overlapping_threads():
    S = tracer.Span
    root = S(1, "cli.main", 0.0, None, 0, 1, end=10.0)
    a = S(2, "extreme_points.pursue", 1.0, 1, 0, 2, end=5.0)
    b = S(3, "extreme_points.pursue", 3.0, 1, 0, 3, end=7.0)
    c = S(4, "_rng.functionals", 1.0, 2, 0, 2, end=2.0)
    share = tracer.leaf_shares([root, a, b, c])
    assert share == pytest.approx({1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0})
    assert sum(share.values()) == pytest.approx(10.0)
    own = tracer.own_time([root, a, b, c])
    assert own[2] == pytest.approx(3.0) and own[1] == pytest.approx(4.0)
