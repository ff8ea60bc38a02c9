"""Tiny-size smoke test of the benchmark: ``python3 -m pytest perfbench -q``."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cbmap  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "roll": workloads.LibraryWorkload("roll", n_train=300, n_new=100, k=10, fit_iters=100,
                                      transform_iters=30),
    "highdim": workloads.LibraryWorkload("highdim", n_train=300, n_new=100, k=10,
                                         fit_iters=100, transform_iters=30, lift_dim=16,
                                         kmeans_max_iters=5),
    "oos": workloads.CliWorkload("oos", n_train=300, n_new=200, fit_iters=100, transform_iters=30),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    return tmp_path


def _result(capsys, *argv):
    assert run.main([*argv, "--seconds", "0"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_reported_with_its_unit(tiny, capsys, workload):
    for trace, table in (("0", "end_to_end"), ("1", "per_layer")):
        result = _result(capsys, "--workload", workload, "--seed", "3", "--trace", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 9
        expected = {m["name"]: m["unit"] for m in SPEC[table]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    records = [json.loads(line) for line in (tiny / "results.jsonl").read_text().splitlines()]
    assert [r["host"]["seed"] for r in records] == [3, 3]
    assert (tiny / f"spans-{workload}-seed3.json").is_file()


def test_per_layer_table_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in tracing.LAYER_METRICS]


def test_injected_failure_is_counted_and_the_pass_goes_on(monkeypatch, tmp_path):
    wl = TINY["roll"]
    inputs = wl.setup(0, tmp_path)
    clean = workloads.run_pass(wl, inputs, 0, tmp_path)
    assert (clean.attempted, clean.failed) == (3, 0)

    monkeypatch.setattr(cbmap, "transform", lambda model, x, iters: np.full((len(x), 2), np.nan))
    res = workloads.run_pass(wl, inputs, 0, tmp_path)
    assert (res.attempted, res.failed) == (3, 1)
    assert "global_score" in res.quality and "oos_knn_acc" not in res.quality
    assert any("non-finite" in e for e in res.errors)

    def broken_fit(x, cfg):
        raise ValueError("injected")

    monkeypatch.setattr(cbmap, "fit", broken_fit)
    res = workloads.run_pass(wl, inputs, 0, tmp_path)
    assert (res.attempted, res.failed) == (3, 3)


def test_tracer_reports_missing_functions_as_absent(monkeypatch, tmp_path):
    monkeypatch.setitem(tracing.TRACED, "embedder", tracing.TRACED["embedder"] + ("gone",))
    wl = TINY["roll"]
    inputs = wl.setup(0, tmp_path)
    original = cbmap.linalg_core.euclidean_distance_matrix
    with tracing.Tracer() as tracer:
        workloads.run_pass(wl, inputs, 0, tmp_path)
    assert tracer.absent == ["embedder.gone"]
    assert cbmap.linalg_core.euclidean_distance_matrix is original
    values = tracing.layer_metrics(tracer.spans, wl.fit_iters, wl.transform_iters)
    assert values["linalg_core.euclidean_distance_matrix.by_embedder.calls"] == (
        1 + wl.fit_iters + 1 + wl.transform_iters)
    assert values["linalg_core.euclidean_distance_matrix.by_membership.calls"] == 1 + wl.fit_iters
