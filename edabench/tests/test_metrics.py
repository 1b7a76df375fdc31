"""Metric names, BENCHMARK.json agreement, and tiny runs of every workload."""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from edabench import harness, workloads
from edabench.workloads import TINY, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units_are_well_formed():
    for table in (harness.END_TO_END, harness.PER_LAYER):
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    doc = _benchmark_json()
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == harness.PER_LAYER
    for metric in doc["end_to_end"] + doc["per_layer"] + doc["workloads"]:
        assert NAME.fullmatch(metric["name"]), metric


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    out = harness.run_workload(
        name, seed=3, seconds=0, trace=trace, sizes=TINY[name],
        trace_dir=str(tmp_path),
    )
    result = out["result"]
    assert out["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == expected[key]
        assert math.isfinite(metric["value"]), key
    if trace:
        assert (tmp_path / f"{name}-seed3.json").exists()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_service_submit_loop_matches_run_session():
    """The benchmark's own submit loop drives the same session run_session does."""
    from repro.service import ServiceConfig, run_session, session_log

    service = WORKLOADS["service"](TINY["service"])
    inputs = service.setup(5)
    sample = service.op(inputs)
    requests = inputs["requests"]
    reference = run_session(
        requests, config=ServiceConfig(queue_depth=len(requests)),
        runner=inputs["runner"],
    )
    log = "\n".join(session_log(reference.service)) + "\n"
    import hashlib

    assert sample.output["session_log_sha256"] == hashlib.sha256(log.encode()).hexdigest()


def test_reference_mismatch_is_a_failed_operation(monkeypatch):
    name = "fleet"
    fleet = WORKLOADS[name](TINY[name])
    sample = fleet.op(fleet.setup(1))
    monkeypatch.setattr(harness, "load_refs", lambda w: {"1": "0" * 64})
    out = harness.run_workload(name, 1, 0, False, sizes=TINY[name])
    # The warm-up operation and the one timed operation both mismatch.
    assert not out["result"]["correct"] and out["result"]["failed"] == 2
    monkeypatch.setattr(harness, "load_refs", lambda w: {"1": fleet.reference(sample.output)})
    out = harness.run_workload(name, 1, 0, False, sizes=TINY[name])
    assert out["result"]["correct"]


def test_predict_tolerance_catches_small_loss_changes():
    predict = WORKLOADS["predict"](TINY["predict"])
    sample = predict.op(predict.setup(2))
    ref = json.loads(workloads.canonical(predict.reference(sample.output)))
    assert predict.compare(sample.output, ref) == []
    stage = sorted(ref["losses"])[0]
    ref["losses"][stage][-1] *= 1 + 1e-4
    assert predict.compare(sample.output, ref)


def test_recorded_references_match_the_current_sizes():
    for name, cls in WORKLOADS.items():
        refs = harness.load_refs(cls())
        assert refs, f"no references recorded for {name} at its current sizes"


def test_exits_nonzero_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "edabench"), tmp_path / "edabench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "edabench/run.py", "--workload", "fleet", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_adjusted_sample_scales_durations_not_counts():
    sample = workloads.Sample(
        wall_s=2.0,
        timings={"tick_s": [1.0, 3.0], "submit_ns": [400, 800], "epoch_s": 3.0, "jobs": 8},
        output={},
        hosts={"tick_s": [2.0, 1.5], "submit_ns": 2.0, "epoch_s": 1.5},
        wall_host=2.0,
    )
    adjusted = sample.adjusted()
    assert adjusted.wall_s == 1.0 and adjusted.wall_host == 1.0 and adjusted.hosts == {}
    assert adjusted.timings == {
        "tick_s": [0.5, 2.0], "submit_ns": [200.0, 400.0], "epoch_s": 2.0, "jobs": 8,
    }
    assert sample.wall_s == 2.0 and sample.timings["tick_s"] == [1.0, 3.0]


def test_stopwatch_laps_add_up():
    from edabench.yardstick import Stopwatch

    watch = Stopwatch()
    laps = [watch.lap() for _ in range(3)]
    assert watch.elapsed == sum(took for took, _ in laps)
    assert watch.at_reference == sum(took / host for took, host in laps)
    assert watch.host > 0


def test_yardstick_probe_takes_a_few_milliseconds():
    from edabench import yardstick

    for with_numpy in (False, True):
        assert 0.001 < yardstick.probe(with_numpy) < 1.0
        assert yardstick.host_factor(with_numpy) > 0
