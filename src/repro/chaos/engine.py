"""Chaos-aware plan execution: failover, transfer billing, hard bounds.

:class:`ChaosPlanExecutor` runs a plan under a :class:`ChaosInjector`
instead of the base Poisson injector, and extends the executor's
degradation policy across regions:

* preemptions are *attributed* — an AZ-wide reclaim records an
  ``AZ_RECLAIM`` event, and observed calm/storm transitions record
  ``REGIME_SHIFT`` events;
* when a spot stage degrades (preemption cap or timeout) **while the
  world is inside a storm, or because its whole AZ was reclaimed**, the
  fallback flees the region entirely: the checkpoint is transferred to
  the next region in the topology ring (billed through the executor's
  ``_bill`` as a zero-second ``transfer:`` segment at the source
  region's egress rate), the stage
  finishes on the target region's repriced on-demand twin, and
  subsequent re-planning prices the menu in the new region (spot
  excluded — degraded flows flee to reliability);
* a calm-regime idiosyncratic degrade keeps the base same-region
  on-demand fallback.

:func:`degradation_bound` computes the *hard* worst-case overrun a
scenario execution may show versus its severity-zero baseline, from the
plan, the menu, the policy, and the topology alone — no sampling.  The
bound is zero at severity zero and constant above it, hence monotone,
which is exactly the shape the graceful-degradation oracle asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from ..cloud.events import EventKind, ExecutionTrace
from ..cloud.executor import (
    ExecutionPolicy,
    ExecutionResult,
    FaultInjector,
    PlanExecutor,
    StageRecord,
    is_spot_vm,
)
from ..cloud.instance import VMConfig
from ..cloud.provisioner import DeploymentPlan, StageAssignment
from ..cloud.tenancy import TenancyModel
from ..obs import get_metrics, get_tracer
from .processes import ChaosInjector, ChaosSpec
from .topology import CloudTopology, default_topology

__all__ = ["ChaosPlanExecutor", "DegradationBound", "degradation_bound"]


class ChaosPlanExecutor(PlanExecutor):
    """A :class:`PlanExecutor` whose world has regions, regimes and storms.

    ``placement`` maps stage keys to availability zones (defaults to the
    home region's first zone).  At ``severity == 0`` the injector draws
    nothing and every hook reduces to the base behaviour, so the trace is
    byte-identical to ``PlanExecutor(FaultProfile.none(), policy)``.
    """

    def __init__(
        self,
        spec: ChaosSpec,
        severity: float,
        topology: Optional[CloudTopology] = None,
        placement: Optional[Mapping[str, str]] = None,
        policy: Optional[ExecutionPolicy] = None,
        tenancy: Optional[TenancyModel] = None,
    ):
        self.topology = topology if topology is not None else default_topology()
        super().__init__(
            profile=spec.effective_profile(severity), policy=policy
        )
        self.spec = spec
        self.severity = severity
        self.placement = dict(placement or {})
        self.tenancy = tenancy if tenancy is not None else TenancyModel()
        self._current_region = self.topology.home
        self._last_regime = "calm"

    # -- hook overrides ---------------------------------------------------

    def _make_injector(self, seed: int) -> FaultInjector:
        # Called once per execute(): also the per-run state reset point.
        self._current_region = self.topology.home
        self._last_regime = "calm"
        return ChaosInjector(
            self.spec,
            self.severity,
            self.topology,
            placement=self.placement,
            seed=seed,
            tenancy=self.tenancy,
        )

    def _note_preemption(
        self,
        a: StageAssignment,
        t: float,
        rec: StageRecord,
        injector: FaultInjector,
        trace: ExecutionTrace,
        result: ExecutionResult,
    ) -> None:
        if not isinstance(injector, ChaosInjector):
            return
        stage_key = a.stage.value
        regime = injector.regime_at(t)
        if regime != self._last_regime:
            trace.record(
                t, EventKind.REGIME_SHIFT, stage=stage_key, regime=regime
            )
            self._last_regime = regime
        if injector.last_preemption_cause == "az_reclaim":
            az = injector.last_reclaim_az
            trace.record(
                t,
                EventKind.AZ_RECLAIM,
                stage=stage_key,
                vm=a.vm.name,
                az=az,
                region=injector.topology.region_of(az).name,
            )
            get_metrics().counter("chaos.az_reclaims").inc()
            get_metrics().counter(
                "chaos.az_reclaims_by_region",
                region=injector.topology.region_of(az).name,
            ).inc()
            get_tracer().event(
                EventKind.AZ_RECLAIM.value, stage=stage_key, az=az, sim_time=t
            )

    def _fallback_target(
        self,
        a: StageAssignment,
        t: float,
        rec: StageRecord,
        injector: FaultInjector,
        trace: ExecutionTrace,
        result: ExecutionResult,
        stage_options: Optional[Sequence],
    ) -> VMConfig:
        od = self._on_demand_twin(a.vm, a.stage, stage_options)
        if not isinstance(injector, ChaosInjector):
            return od
        az_struck = injector.last_preemption_cause == "az_reclaim"
        stormy = injector.regime_at(t) == "storm"
        if not (az_struck or stormy):
            return od
        src = self._current_region
        dst = self.topology.failover_target(src)
        if dst == src:
            return od
        stage_key = a.stage.value
        gb = self.spec.checkpoint_gb
        cost = self.topology.transfer_cost(src, dst, gb)
        trace.record(
            t,
            EventKind.REGION_FAILOVER,
            stage=stage_key,
            vm=od.name,
            src=src,
            dst=dst,
            reason="az_reclaim" if az_struck else "storm",
        )
        get_tracer().event(
            EventKind.REGION_FAILOVER.value,
            stage=stage_key,
            src=src,
            dst=dst,
            reason="az_reclaim" if az_struck else "storm",
            sim_time=t,
        )
        self._bill_transfer(trace, t, rec, src, dst, gb, cost)
        get_metrics().counter("chaos.failovers").inc()
        get_metrics().counter("chaos.failovers_by_region", region=dst).inc()
        self._current_region = dst
        return self.topology.price_in(od, dst)

    def _replan(
        self,
        assignments: List[StageAssignment],
        i: int,
        t: float,
        deadline_seconds: float,
        stage_options: Sequence,
        trace: ExecutionTrace,
        result: ExecutionResult,
    ) -> List[StageAssignment]:
        if self._current_region != self.topology.home:
            stage_options = self._repriced_menu(
                stage_options, self._current_region
            )
        return super()._replan(
            assignments, i, t, deadline_seconds, stage_options, trace, result
        )

    # -- chaos internals --------------------------------------------------

    def _bill_transfer(
        self,
        trace: ExecutionTrace,
        t: float,
        rec: StageRecord,
        src: str,
        dst: str,
        gb: float,
        cost: float,
    ) -> None:
        """Bill a checkpoint move as a zero-second ``transfer:`` segment.

        Records the ``TRANSFER`` event and the ``chaos.transfer_cost``
        counter, then bills the segment through ``_bill`` like any lease.
        """
        stage_key = rec.stage.value
        get_metrics().counter("chaos.transfer_cost").inc(cost)
        get_tracer().event(
            EventKind.TRANSFER.value, stage=stage_key, src=src, dst=dst,
            gb=gb, cost=cost, sim_time=t,
        )
        vm_label = f"transfer:{src}->{dst}"
        trace.record(
            t, EventKind.TRANSFER, stage=stage_key, vm=vm_label,
            src=src, dst=dst, gb=gb, cost=cost,
        )
        self._bill(trace, t, rec, vm_label, 0.0, cost)

    def _repriced_menu(self, stage_options: Sequence, region: str) -> List:
        """The planning menu as priced in ``region``, spot excluded."""
        from ..core.optimize import ConfigOption, StageOptions

        mult = self.topology.region(region).price_multiplier
        out: List[StageOptions] = []
        for so in stage_options:
            options = [
                ConfigOption(
                    vm=self.topology.price_in(o.vm, region),
                    runtime_seconds=o.runtime_seconds,
                    price=o.price * mult,
                )
                for o in so.options
                if not is_spot_vm(o.vm)
            ]
            if options:
                out.append(StageOptions(stage=so.stage, options=options))
        return out


@dataclass(frozen=True)
class DegradationBound:
    """Hard worst-case overrun versus the severity-zero baseline."""

    time_overrun: float
    cost_overrun: float

    def dominates(self, time_overrun: float, cost_overrun: float) -> bool:
        """True when an observed overrun sits inside the bound."""
        slop = 1e-6
        return (
            time_overrun <= self.time_overrun + slop
            and cost_overrun <= self.cost_overrun + slop
        )


def degradation_bound(
    plan: DeploymentPlan,
    policy: ExecutionPolicy,
    spec: ChaosSpec,
    topology: CloudTopology,
    severity: float,
    stage_options: Optional[Sequence] = None,
    tenancy: Optional[TenancyModel] = None,
) -> DegradationBound:
    """Worst-case time/cost overrun of a completed chaos execution.

    Derived purely from the plan, the menu, the policy and the topology:

    * every stage may retry provisioning ``max_retries`` times with
      maximum-jitter backoff;
    * its runtime may be the *longest* option on its menu (re-planning
      can reassign it), stretched by the worst straggler × noisy-region
      multiplier;
    * a spot stage may lose up to ``max_preemptions_per_stage`` segments
      of at most the checkpoint interval before falling back;
    * the fallback may land in the most expensive region, moving the
      checkpoint at the worst egress rate, and per-second ceil billing
      may round every lease segment up.

    Zero at zero severity, constant above — monotone in severity by
    construction.  Requires a bounded policy (a finite preemption cap).
    """
    if not 0.0 <= severity <= 1.0:
        raise ValueError(f"severity must be in [0, 1], got {severity!r}")
    if severity == 0.0:
        return DegradationBound(time_overrun=0.0, cost_overrun=0.0)
    cap = policy.max_preemptions_per_stage
    if cap is None:
        raise ValueError(
            "degradation_bound requires a bounded policy "
            "(max_preemptions_per_stage must not be None)"
        )
    tenancy = tenancy if tenancy is not None else TenancyModel()
    retry = policy.retry
    backoff_total = sum(
        retry.backoff_seconds(k, 1.0) for k in range(retry.max_retries)
    )
    noisy_max = 1.0
    for load in spec.region_loads.values():
        noisy_max = max(
            noisy_max, tenancy.slowdown(load, spec.cache_miss_rate)
        )
    slow_max = spec.profile.straggler_slowdown * noisy_max
    interval = spec.profile.checkpoint_interval_seconds
    mult_max = topology.max_price_multiplier()
    transfer_max = topology.max_egress_per_gb() * spec.checkpoint_gb

    menu_by_stage = {}
    if stage_options is not None:
        menu_by_stage = {so.stage: list(so.options) for so in stage_options}

    worst_time = 0.0
    worst_cost = 0.0
    baseline_time = 0.0
    baseline_cost = 0.0
    for a in plan.assignments:
        baseline_time += a.runtime_seconds
        baseline_cost += a.vm.cost(a.runtime_seconds)
        options = menu_by_stage.get(a.stage, [])
        runtimes = [a.runtime_seconds] + [o.runtime_seconds for o in options]
        worst_rt = max(runtimes) * slow_max
        rates = [a.vm.price_per_hour] + [o.vm.price_per_hour for o in options]
        # A spot twin outside the menu falls back to a reconstructed
        # on-demand shape at price / spot_discount.
        rates.extend(
            o.vm.price_per_hour / policy.spot_discount
            for o in options
            if is_spot_vm(o.vm)
        )
        if is_spot_vm(a.vm):
            rates.append(a.vm.price_per_hour / policy.spot_discount)
        rate_max = max(rates) * mult_max / 3600.0
        seg_max = worst_rt if interval is None else min(interval, worst_rt)
        worst_time += backoff_total + cap * seg_max + worst_rt
        n_bills = cap + 1 + (
            1 if interval is None else int(math.ceil(worst_rt / interval))
        )
        worst_cost += (
            rate_max * (cap * seg_max + worst_rt + n_bills) + transfer_max
        )
    return DegradationBound(
        time_overrun=max(0.0, worst_time - baseline_time),
        cost_overrun=max(0.0, worst_cost - baseline_cost),
    )
