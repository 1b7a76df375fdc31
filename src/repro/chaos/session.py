"""Where a correlated-fault storm strikes a service session.

Jobs are deterministically placed into availability zones (crc32 of the
submission index), and the scenario's :class:`ChaosInjector` is asked
which zones its AZ-reclaim process strikes inside the session window.
:func:`plan_evictions` maps every job placed in a struck zone to an
eviction reason; :func:`repro.service.api.run_session` takes that map as
``evict`` and evicts those jobs mid-run — the pool lands each in
``cancelled``, writes its crash dump, releases the slot, and the service
requeues a fresh incarnation (which, having a new job id, rides out the
rest of the storm).

At severity zero the reclaim process is empty, so the eviction map is
empty and the session is a plain ``run_session`` over the same
requests — the service half of the zero-severity anchor.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..seeding import stream_seed
from ..service.jobs import JobRequest
from .processes import ChaosInjector, ChaosSpec
from .topology import CloudTopology

__all__ = ["job_zone", "plan_evictions"]


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
