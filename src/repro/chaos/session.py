"""Driving the service layer through a correlated-fault storm.

Jobs are deterministically placed into availability zones (crc32 of the
submission index), the scenario's :class:`ChaosInjector` is asked which
zones its AZ-reclaim process strikes inside the session window, and
every job placed in a struck zone is *evicted mid-run*: the runner
wrapper sets ``Job.external_cancel`` so the next cooperative checkpoint
raises :class:`~repro.service.errors.JobEvicted` — the pool lands the
job in ``cancelled``, writes its crash dump, releases the slot, and the
service requeues a fresh incarnation (which, having a new job id, rides
out the rest of the storm).

At severity zero the reclaim process is empty, no job is evicted, and
the session is byte-identical to a plain
:func:`repro.service.api.run_session` over the same requests — the
service half of the zero-severity anchor.

Unlike ``run_session`` the driver waits for the service to go *idle*
before draining: requeues are refused while draining, and an eviction
storm is exactly when requeues must be admitted.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..seeding import stream_seed
from ..service.api import EDAService, ServiceConfig, session_log
from ..service.errors import ServiceError
from ..service.jobs import Job, JobContext, JobRequest
from ..service.runners import PipelineRunner
from .processes import ChaosInjector, ChaosSpec
from .topology import CloudTopology

__all__ = ["StormSessionResult", "plan_evictions", "run_storm_session"]


def job_zone(topology: CloudTopology, seed: int, index: int) -> str:
    """Deterministic AZ placement of the ``index``-th submitted job."""
    zones = topology.zones
    return zones[stream_seed(seed, "job-az", index) % len(zones)]


def plan_evictions(
    requests: Sequence[JobRequest],
    spec: ChaosSpec,
    severity: float,
    topology: CloudTopology,
    seed: int,
    window_seconds: float = 4 * 3600.0,
) -> Dict[int, str]:
    """Map submission index -> eviction reason for storm-struck jobs.

    A job is struck when its deterministic zone placement suffers an
    AZ-wide reclaim inside the session window.  All co-located jobs go
    down together — that is the correlated part.  Empty at severity 0.
    """
    injector = ChaosInjector(spec, severity, topology, seed=seed)
    struck = {az for _, az in injector.az_reclaims_until(window_seconds)}
    out: Dict[int, str] = {}
    if not struck:
        return out
    for index in range(len(requests)):
        az = job_zone(topology, seed, index)
        if az in struck:
            out[index] = f"az_reclaim:{az}"
    return out


@dataclass
class StormSessionResult:
    """Everything one storm-driven service session produced."""

    service: EDAService
    outcomes: List[dict] = field(default_factory=list)
    evictions: Dict[str, str] = field(default_factory=dict)

    @property
    def accepted(self) -> int:
        return sum(1 for o in self.outcomes if o.get("accepted"))

    def log_lines(self) -> List[str]:
        """Byte-stable session log: per-job lines plus eviction records."""
        lines = session_log(self.service)
        requeued_by: Dict[str, str] = {
            job.requeue_of: job.job_id
            for job in self.service.jobs.values()
            if job.requeue_of is not None
        }
        for job_id in sorted(self.evictions):
            lines.append(
                f"evicted {job_id} reason={self.evictions[job_id]} "
                f"requeued_as={requeued_by.get(job_id, 'none')}"
            )
        return lines


def run_storm_session(
    requests: Sequence[JobRequest],
    evictions: Dict[int, str],
    config: Optional[ServiceConfig] = None,
    runner: Optional[Callable[[Job, JobContext], dict]] = None,
) -> StormSessionResult:
    """Drive one service session with mid-run external evictions.

    ``evictions`` maps submission index -> reason.  The eviction fires
    at the struck job's first in-run checkpoint (requeued incarnations
    have fresh job ids and are never re-struck).  The whole batch is
    submitted before any worker step, so with ``deterministic=True`` the
    session — including evictions, crash dumps and requeues — is a pure
    function of ``(requests, evictions)``.
    """
    base_runner = runner if runner is not None else PipelineRunner()
    evicted_ids: Dict[str, str] = {}

    def storm_runner(job: Job, ctx: JobContext) -> dict:
        reason = evicted_ids.get(job.job_id)
        if reason is not None:
            job.external_cancel = reason
        ctx.checkpoint()
        return base_runner(job, ctx)

    service = EDAService(config=config, runner=storm_runner)

    async def _drive() -> List[dict]:
        service.start()
        outcomes: List[dict] = []
        for index, request in enumerate(requests):
            try:
                doc = service.submit(request)
                reason = evictions.get(index)
                if reason is not None:
                    evicted_ids[doc["job_id"]] = reason
                outcomes.append({"accepted": True, "job_id": doc["job_id"]})
            except ServiceError as exc:
                outcomes.append({"accepted": False, **exc.to_response()})
        # Idle first, *then* drain: requeues are refused while draining,
        # and storm evictions must be able to requeue.
        await service.join()
        await service.drain()
        return outcomes

    outcomes = asyncio.run(_drive())
    return StormSessionResult(
        service=service, outcomes=outcomes, evictions=dict(evicted_ids)
    )
