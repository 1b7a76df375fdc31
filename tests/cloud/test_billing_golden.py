"""Billing pinned by value: every billed segment and both run totals.

The structural billing oracles only check that views agree with each
other; this golden pins the numbers themselves, as ``repr`` strings so a
change in the last bit of any float shows.  Regenerate only after an
intentional billing change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/cloud/test_billing_golden.py
"""

import json
import os
import pathlib

import pytest

from repro.chaos.scenarios import run_scenario
from repro.cloud import FaultProfile, PlanExecutor
from repro.eda.job import EDAStage

from .test_executor import _menus_and_plan

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "billing.json"


def _snapshot(result):
    return {
        "segments": [
            f"{seg.stage} {seg.vm} {seg.seconds!r} {seg.cost!r}"
            for seg in result.segments
        ],
        "stage_costs": [repr(rec.cost) for rec in result.stage_records],
        "total_cost": repr(result.total_cost),
        "billed_seconds": repr(result.billed_seconds),
    }


def _executor_heavy(record_events=True):
    """All-spot plan under the heavy profile: preemptions, backoff, a
    fallback and a mid-flight re-plan."""
    plan, menus = _menus_and_plan(spot_stages=set(EDAStage.ordered()))
    return PlanExecutor(FaultProfile.preemption_heavy()).execute(
        plan,
        deadline_seconds=6000,
        seed=10,
        stage_options=menus,
        record_events=record_events,
    )


def _chaos(name):
    return run_scenario(name, severity=1.0, seed=0).execution


def _cases():
    return {
        "executor_heavy": _snapshot(_executor_heavy()),
        "chaos_transfer_partition": _snapshot(_chaos("transfer_partition")),
        "chaos_regime_flap": _snapshot(_chaos("regime_flap")),
    }


@pytest.fixture(scope="module")
def golden():
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(_cases(), indent=2, sort_keys=True) + "\n")
    assert GOLDEN.exists(), (
        "billing golden missing — regenerate with REPRO_UPDATE_GOLDENS=1"
    )
    return json.loads(GOLDEN.read_text())


def test_cases_match_golden(golden):
    assert _cases() == golden


def test_golden_covers_fallback_and_transfer(golden):
    vms = [seg.split()[1] for seg in golden["chaos_regime_flap"]["segments"]]
    assert any(vm.startswith("transfer:") for vm in vms)
    heavy_vms = {seg.split()[1] for seg in golden["executor_heavy"]["segments"]}
    assert any(not vm.endswith(".spot") for vm in heavy_vms)


def test_lean_mode_matches_golden(golden):
    lean = _executor_heavy(record_events=False)
    assert lean.trace.events == []
    assert _snapshot(lean) == golden["executor_heavy"]
