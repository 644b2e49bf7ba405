"""tools/bench_record.py folds paired benchmark results into one record."""

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

import bench_record  # noqa: E402

MACHINE = {"nproc": 2, "cpu": "X", "python": "3.11.7", "numpy": "2.4.6"}
METRICS = ("throughput", "latency_ms.p50", "latency_ms.p90", "ok_frac",
           "oracle_ok_frac", "peak_rss_mb", "setup_s")


def _spec(workload):
    """A benchmark declaration of one workload and the metrics written."""
    better = {m: "lower" if m.startswith(("latency", "peak", "setup"))
              else "higher" for m in METRICS}
    return {"workloads": [{"name": workload}],
            "end_to_end": [{"name": m, "better": b}
                           for m, b in better.items()]}


def _write(directory, workload, seed, throughput, correct=True,
           machine=MACHINE):
    metrics = {"throughput": throughput, "latency_ms.p50": 1000.0 / throughput,
               "latency_ms.p90": 2000.0 / throughput, "ok_frac": 0.9,
               "oracle_ok_frac": 0.8, "peak_rss_mb": 40.0, "setup_s": 0.07}
    path = directory / f"result-{workload}-seed{seed}-trace0.json"
    path.write_text(json.dumps({"seed": seed, "seconds": 10.0,
                                "machine": machine, "correct": correct,
                                "metrics": metrics}))


def test_fold_medians_ratios_and_pair_wins(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    parent.mkdir(), change.mkdir()
    for seed, (p, c) in enumerate([(100, 300), (110, 290), (90, 80)], 1):
        _write(parent, "certify", seed, p)
        _write(change, "certify", seed, c)
    _write(parent, "certify", 9, 100)  # no partner: not used
    rec = bench_record.fold(parent, change, _spec("certify"))
    entry = rec["workloads"]["certify"]
    assert entry["seeds"] == [1, 2, 3]
    assert entry["parent"]["throughput"]["median"] == 100
    assert entry["change"]["throughput"]["median"] == 290
    assert entry["change_over_parent"]["throughput"] == pytest.approx(2.9)
    assert entry["change_better_in_pairs"]["throughput"] == "2/3"
    assert entry["change_better_in_pairs"]["latency_ms.p50"] == "2/3"
    assert entry["change_better_in_pairs"]["ok_frac"] == "0/3"
    assert rec["machine"] == "nproc=2 cpu='X' python=3.11.7 numpy=2.4.6"


def test_fold_refuses_mixed_machines_and_incorrect_runs(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    parent.mkdir(), change.mkdir()
    _write(parent, "audit", 1, 100)
    _write(change, "audit", 1, 100, machine=dict(MACHINE, nproc=8))
    with pytest.raises(SystemExit, match="two machines"):
        bench_record.fold(parent, change, _spec("audit"))
    _write(change, "audit", 1, 100, correct=False)
    with pytest.raises(SystemExit, match="not correct"):
        bench_record.fold(parent, change, _spec("audit"))


def test_fold_refuses_a_workload_without_seed_pairs(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    parent.mkdir(), change.mkdir()
    _write(parent, "compare", 1, 100)
    _write(change, "compare", 2, 100)
    with pytest.raises(SystemExit, match="no seed run on both sides"):
        bench_record.fold(parent, change, _spec("compare"))



def _write_traced(directory, workload, seed, cli_self_s, correct=True):
    metrics = {"cli.self_s": cli_self_s, "inequalities.points_in": 500,
               "cli.bytes_out": 1000, "not.declared": 1.0}
    path = directory / f"result-{workload}-seed{seed}-trace1.json"
    path.write_text(json.dumps({"seed": seed, "seconds": 10.0,
                                "machine": MACHINE, "correct": correct,
                                "metrics": metrics}))


def _spec_with_layers(workload):
    spec = _spec(workload)
    spec["per_layer"] = [{"name": m, "better": "lower"} for m in (
        "cli.self_s", "inequalities.points_in", "cli.bytes_out",
        "quad.calls")]
    return spec


def test_fold_adds_per_layer_columns_from_traced_pairs(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    parent.mkdir(), change.mkdir()
    for seed in (1, 2):
        _write(parent, "audit", seed, 100)
        _write(change, "audit", seed, 300)
    _write_traced(parent, "audit", 1, 1.6)
    _write_traced(change, "audit", 1, 0.4)
    _write_traced(parent, "audit", 2, 2.0)    # no traced partner: not used
    rec = bench_record.fold(parent, change, _spec_with_layers("audit"))
    layers = rec["workloads"]["audit"]["per_layer"]
    assert layers["seeds"] == [1]
    assert layers["parent"] == {"cli.self_s": 1.6,
                                "inequalities.points_in": 500,
                                "cli.bytes_out": 1000}
    assert layers["change"]["cli.self_s"] == 0.4
    assert layers["change_over_parent"] == {
        "cli.self_s": pytest.approx(0.25), "inequalities.points_in": 1.0,
        "cli.bytes_out": 1.0}
    assert rec["workloads"]["audit"]["seeds"] == [1, 2]


def test_fold_per_layer_medians_and_refusals(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    parent.mkdir(), change.mkdir()
    _write(parent, "audit", 1, 100)
    _write(change, "audit", 1, 100)
    assert "per_layer" not in bench_record.fold(
        parent, change, _spec_with_layers("audit"))["workloads"]["audit"]
    for seed, (p, c) in enumerate([(1.0, 0.5), (3.0, 0.7), (2.0, 0.9)], 1):
        _write_traced(parent, "audit", seed, p)
        _write_traced(change, "audit", seed, c)
    layers = bench_record.fold(parent, change, _spec_with_layers("audit"))[
        "workloads"]["audit"]["per_layer"]
    assert layers["seeds"] == [1, 2, 3]
    assert layers["parent"]["cli.self_s"] == 2.0
    assert layers["change"]["cli.self_s"] == 0.7
    _write_traced(change, "audit", 2, 0.7, correct=False)
    with pytest.raises(SystemExit, match="not correct"):
        bench_record.fold(parent, change, _spec_with_layers("audit"))
