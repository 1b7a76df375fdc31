"""Session logs pinned by value: the plain serve batch and two storms.

Same-seed replay tests only show that two runs of one commit agree;
this golden pins the log lines themselves — completion order, worker
slots, billed totals and eviction records.  Regenerate only after an
intentional change to service scheduling or billing::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/service/test_session_golden.py
"""

import json
import os
import pathlib

import pytest

from repro.chaos.scenarios import run_scenario
from repro.service import (
    ServiceConfig,
    run_session,
    seeded_job_mix,
    session_log,
)

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "session_logs.json"

#: Scenarios whose storm sessions evict and requeue jobs at seed 0.
STORM_SCENARIOS = ("az_reclaim_storm", "transfer_partition")


def _serve_log():
    """The batch ``repro serve --seed 0 --jobs 20 --workers 2
    --priorities 0 1`` runs, with its default depth, kinds and design."""
    requests = seeded_job_mix(
        0,
        20,
        kinds=("execute", "flow", "plan"),
        priorities=(0, 1),
        design="ctrl",
        scale=0.2,
    )
    result = run_session(requests, ServiceConfig(workers=2, queue_depth=64))
    return session_log(result.service)


def _service_section(name):
    """The ``# service`` section of a scenario's trace dump."""
    lines = run_scenario(name, severity=1.0, seed=0).trace_dump().splitlines()
    start = lines.index("# service") + 1
    end = next(
        i for i, line in enumerate(lines) if line.startswith("# verdict")
    )
    return lines[start:end]


def _cases():
    cases = {"serve_seed0_jobs20": _serve_log()}
    for name in STORM_SCENARIOS:
        cases[f"chaos_{name}"] = _service_section(name)
    return cases


@pytest.fixture(scope="module")
def golden():
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(_cases(), indent=2, sort_keys=True) + "\n")
    assert GOLDEN.exists(), (
        "session-log golden missing — regenerate with REPRO_UPDATE_GOLDENS=1"
    )
    return json.loads(GOLDEN.read_text())


def test_session_logs_match_golden(golden):
    assert _cases() == golden


def test_golden_covers_evictions_and_requeues(golden):
    for name in STORM_SCENARIOS:
        evicted = [
            line
            for line in golden[f"chaos_{name}"]
            if line.startswith("evicted ")
        ]
        assert evicted, name
        assert all("requeued_as=job-" in line for line in evicted), name
    assert len(golden["serve_seed0_jobs20"]) == 20
