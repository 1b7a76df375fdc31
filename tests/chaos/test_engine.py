"""Chaos executor: the zero-severity anchor, failover billing, the bound.

The anchor test is the contract everything else leans on: a
severity-zero ``ChaosPlanExecutor`` must produce a trace *byte-identical*
to the fault-free base ``PlanExecutor`` — regions, placement and spec
notwithstanding — because at severity zero no stream is ever consulted.
"""

import pytest

from repro.chaos import (
    ChaosPlanExecutor,
    ChaosSpec,
    DegradationBound,
    default_topology,
    degradation_bound,
)
from repro.chaos.scenarios import SCENARIOS, _build_workload, _placement
from repro.cloud.events import EventKind, running_sum
from repro.cloud.executor import ExecutionPolicy, PlanExecutor
from repro.cloud.faults import FaultProfile


def workload(name="az_reclaim_storm", topology=None):
    scenario = SCENARIOS[name]
    topology = topology if topology is not None else default_topology()
    menu, plan, deadline = _build_workload(scenario, topology)
    return scenario, menu, plan, deadline


# ----------------------------------------------------------------------
# The zero-severity anchor
# ----------------------------------------------------------------------
def test_zero_severity_trace_is_byte_identical_to_base_executor():
    scenario, menu, plan, deadline = workload()
    topology = default_topology()
    placement = _placement(scenario, topology, seed=3)
    chaos = ChaosPlanExecutor(
        scenario.spec,
        0.0,
        topology=topology,
        placement=placement,
        policy=scenario.policy,
    ).execute(plan, deadline_seconds=deadline, seed=3, stage_options=menu)
    base = PlanExecutor(
        profile=FaultProfile.none(), policy=scenario.policy
    ).execute(plan, deadline_seconds=deadline, seed=3, stage_options=menu)
    assert chaos.trace.to_jsonl() == base.trace.to_jsonl()
    assert chaos.total_time == base.total_time
    assert chaos.total_cost == base.total_cost


def test_chaos_replay_is_deterministic_and_seeds_diverge():
    scenario, menu, plan, deadline = workload()

    def run(seed):
        return ChaosPlanExecutor(
            scenario.spec, 1.0, policy=scenario.policy
        ).execute(
            plan, deadline_seconds=deadline, seed=seed, stage_options=menu
        )

    assert run(0).trace.to_jsonl() == run(0).trace.to_jsonl()
    assert run(0).trace.to_jsonl() != run(1).trace.to_jsonl()


# ----------------------------------------------------------------------
# Failover: events, transfers, billing views
# ----------------------------------------------------------------------
def test_az_reclaim_triggers_failover_transfer_and_consistent_billing():
    scenario, menu, plan, deadline = workload("az_reclaim_storm")
    topology = default_topology()
    struck = 0
    failovers = 0
    for seed in range(12):
        result = ChaosPlanExecutor(
            scenario.spec,
            1.0,
            topology=topology,
            placement=_placement(scenario, topology, seed),
            policy=scenario.policy,
        ).execute(
            plan, deadline_seconds=deadline, seed=seed, stage_options=menu
        )
        trace = result.trace
        # The segment record, its total and the trace agree exactly.
        assert result.total_cost == running_sum(s.cost for s in result.segments)
        assert result.total_cost == trace.billed_cost
        if trace.count(EventKind.AZ_RECLAIM):
            struck += 1
            # Every AZ-wide reclaim is also a preemption.
            assert trace.preemptions() >= trace.count(EventKind.AZ_RECLAIM)
        # A failover moves exactly one checkpoint: one TRANSFER each.
        assert trace.count(EventKind.REGION_FAILOVER) == trace.count(
            EventKind.TRANSFER
        )
        failovers += trace.count(EventKind.REGION_FAILOVER)
    assert struck >= 3, "the reclaim-storm scenario should strike often"
    assert failovers >= 1, "cap exhaustion should force some failovers"


def test_transfer_events_bill_the_source_egress_rate():
    scenario, menu, plan, deadline = workload("transfer_partition")
    topology = default_topology()
    for seed in range(8):
        result = ChaosPlanExecutor(
            scenario.spec,
            1.0,
            topology=topology,
            placement=_placement(scenario, topology, seed),
            policy=scenario.policy,
        ).execute(
            plan, deadline_seconds=deadline, seed=seed, stage_options=menu
        )
        transfers = result.trace.of_kind(EventKind.TRANSFER)
        if not transfers:
            continue
        gb = scenario.spec.checkpoint_gb
        valid = {
            topology.transfer_cost(src.name, dst.name, gb)
            for src in topology.regions
            for dst in topology.regions
            if src.name != dst.name
        }
        for event in transfers:
            assert event.get("cost") in valid
        return
    pytest.fail("no TRANSFER event over 8 seeds of transfer_partition")


# ----------------------------------------------------------------------
# The degradation bound
# ----------------------------------------------------------------------
def test_bound_is_zero_at_zero_and_monotone_in_severity():
    scenario, menu, plan, deadline = workload()
    topology = default_topology()

    def bound(sev):
        return degradation_bound(
            plan,
            scenario.policy,
            scenario.spec,
            topology,
            sev,
            stage_options=menu,
        )

    zero = bound(0.0)
    assert zero == DegradationBound(time_overrun=0.0, cost_overrun=0.0)
    sweep = [bound(s) for s in (0.25, 0.5, 1.0)]
    for lo, hi in zip(sweep, sweep[1:]):
        assert hi.time_overrun >= lo.time_overrun
        assert hi.cost_overrun >= lo.cost_overrun
    assert sweep[-1].time_overrun > 0
    assert sweep[-1].cost_overrun > 0


def test_bound_requires_a_bounded_policy():
    scenario, menu, plan, _ = workload()
    unbounded = ExecutionPolicy(max_preemptions_per_stage=None)
    with pytest.raises(ValueError, match="bounded policy"):
        degradation_bound(
            plan,
            unbounded,
            scenario.spec,
            default_topology(),
            1.0,
            stage_options=menu,
        )
    with pytest.raises(ValueError, match="severity"):
        degradation_bound(
            plan,
            scenario.policy,
            scenario.spec,
            default_topology(),
            -0.1,
            stage_options=menu,
        )


def test_dominates_accepts_interior_points_and_rejects_exterior():
    bound = DegradationBound(time_overrun=100.0, cost_overrun=5.0)
    assert bound.dominates(0.0, 0.0)
    assert bound.dominates(100.0, 5.0)
    assert not bound.dominates(100.1, 0.0)
    assert not bound.dominates(0.0, 5.1)
