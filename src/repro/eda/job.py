"""Common EDA job abstractions.

Every engine (synthesis, placement, routing, STA) produces a
:class:`JobResult` bundling:

* the engine's *artifact* (netlist, placement, routing tables, timing),
* the :class:`~repro.parallel.taskgraph.WorkProfile` describing the compute
  it performed (from which ``runtime(vcpus)`` follows),
* the :class:`~repro.perf.counters.PerfCounters` observed during the run,
* free-form quality metrics.

This is the unit the characterization, prediction and optimization layers
operate on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..parallel import PAPER_VCPU_LEVELS, WorkProfile
from ..perf import PerfCounters

__all__ = ["EDAStage", "JobResult"]


class EDAStage(str, enum.Enum):
    """The four applications characterized by the paper."""

    SYNTHESIS = "synthesis"
    PLACEMENT = "placement"
    ROUTING = "routing"
    STA = "sta"

    @property
    def display_name(self) -> str:
        return {
            EDAStage.SYNTHESIS: "Synthesis",
            EDAStage.PLACEMENT: "Placement",
            EDAStage.ROUTING: "Routing",
            EDAStage.STA: "STA",
        }[self]

    @classmethod
    def ordered(cls) -> list:
        """Stages in flow order (the order Table I lists them)."""
        return [cls.SYNTHESIS, cls.PLACEMENT, cls.ROUTING, cls.STA]


@dataclass
class JobResult:
    """Outcome of running one EDA application on one design."""

    stage: EDAStage
    design: str
    profile: WorkProfile
    counters: PerfCounters
    artifact: Any = None
    metrics: Dict[str, float] = field(default_factory=dict)

    def runtime(self, vcpus: int) -> float:
        """Modelled wall-clock runtime in seconds on a ``vcpus``-wide VM."""
        return self.profile.runtime(vcpus)

    def runtimes(self, vcpu_levels=PAPER_VCPU_LEVELS) -> Dict[int, float]:
        """Runtime at each vCPU level (the paper's 1/2/4/8 grid)."""
        return {k: self.runtime(k) for k in vcpu_levels}

    def speedup(self, vcpus: int) -> float:
        """Speedup at ``vcpus`` relative to one vCPU."""
        return self.profile.speedup(vcpus)

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        times = self.runtimes()
        time_str = ", ".join(f"{k}v: {t:,.0f}s" for k, t in times.items())
        return (
            f"{self.stage.display_name} on {self.design}: {time_str}; "
            f"branch-miss {100 * self.counters.branch_miss_rate:.1f}%, "
            f"cache-miss {100 * self.counters.cache_miss_rate:.1f}%, "
            f"AVX {100 * self.counters.avx_share:.1f}%"
        )
