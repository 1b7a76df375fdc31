"""Engine outputs pinned by value: counters, modelled runtimes, metrics.

The engine determinism tests compare two runs of the same code, so a
refactor that moves a counter or a runtime passes them.  This golden
pins, per (design, stage, vCPU level), every ``PerfCounters`` field,
``runtime(v)`` at each paper vCPU level, and the stage metrics.  The
instrumented levels go through :func:`characterize`; each design also
has a bare (uninstrumented) flow.  Regenerate only after an intentional
change to the engines or the perf model::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/eda/test_fingerprint_golden.py
"""

import dataclasses
import json
import math
import os
import pathlib

import pytest

from repro.core.characterize import characterize
from repro.eda.flow import FlowRunner
from repro.netlist import benchmarks
from repro.parallel import PAPER_VCPU_LEVELS

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "fingerprint.json"

#: (design, scale, instrumented vCPU levels); all at seed 0.  The
#: sparc_core proxy clamps to its minimum size (1504 ANDs) at 0.3.
CASES = (
    ("ctrl", 0.2, PAPER_VCPU_LEVELS),
    ("dynamic_node", 0.5, PAPER_VCPU_LEVELS),
    ("sparc_core", 0.3, (1, 8)),
)


class _RecordingRunner(FlowRunner):
    """A flow runner that keeps every flow it runs, in call order."""

    def __init__(self):
        super().__init__(seed=0)
        self.flows = []

    def run(self, *args, **kwargs):
        flow = super().run(*args, **kwargs)
        self.flows.append(flow)
        return flow


def _stage_fingerprint(job, with_counters):
    entry = {
        "runtimes": {str(v): job.runtime(v) for v in PAPER_VCPU_LEVELS},
        "metrics": dict(sorted(job.metrics.items())),
    }
    if with_counters:
        entry["counters"] = dataclasses.asdict(job.counters)
    return entry


def _flow_fingerprint(flow, with_counters):
    return {
        stage.value: _stage_fingerprint(job, with_counters)
        for stage, job in flow.stages.items()
    }


def _fingerprints():
    out = {}
    for design, scale, levels in CASES:
        aig = benchmarks.build(design, scale)
        runner = _RecordingRunner()
        characterize(aig, vcpu_levels=levels, sample_rate=2, runner=runner)
        entry = {"bare": _flow_fingerprint(FlowRunner(seed=0).run(aig), False)}
        for vcpus, flow in zip(levels, runner.flows):
            entry[str(vcpus)] = _flow_fingerprint(flow, True)
        out[f"{design}@{scale}"] = entry
    return out


def _assert_same(actual, expected, path="fingerprint"):
    """Integers and strings compare exactly, floats to 1e-12 relative."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert sorted(actual) == sorted(expected), path
        for key in expected:
            _assert_same(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, float):
        assert isinstance(actual, float), path
        assert math.isclose(actual, expected, rel_tol=1e-12), (
            f"{path}: {actual!r} != {expected!r}"
        )
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{path}: {actual!r} != {expected!r}"
        )


@pytest.fixture(scope="module")
def fingerprints():
    return _fingerprints()


@pytest.fixture(scope="module")
def golden(fingerprints):
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(fingerprints, indent=2, sort_keys=True) + "\n")
    assert GOLDEN.exists(), (
        "fingerprint golden missing — regenerate with REPRO_UPDATE_GOLDENS=1"
    )
    return json.loads(GOLDEN.read_text())


def test_fingerprints_match_golden(fingerprints, golden):
    _assert_same(fingerprints, golden)


def test_golden_covers_every_case(golden):
    for design, scale, levels in CASES:
        entry = golden[f"{design}@{scale}"]
        assert sorted(entry) == sorted(["bare"] + [str(v) for v in levels])
        for flow in entry.values():
            assert sorted(flow) == ["placement", "routing", "sta", "synthesis"]


def test_instrumenting_never_changes_engine_outputs(fingerprints):
    """Metrics and runtimes are the same bare and at every vCPU level."""
    for name, entry in fingerprints.items():
        bare = entry["bare"]
        for level, flow in entry.items():
            for stage, fp in flow.items():
                assert fp["metrics"] == bare[stage]["metrics"], (name, level, stage)
                assert fp["runtimes"] == bare[stage]["runtimes"], (name, level, stage)
