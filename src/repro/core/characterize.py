"""EDA flow characterization (Problem 1).

Runs the four applications on a design under each VM size (1/2/4/8 vCPUs)
with the perf simulators attached, and aggregates the quantities plotted in
Figure 2: branch-miss rate, cache-miss rate, AVX utilization and speedup.
From the measured counters it derives the paper's "Main Takeaways" —
which instance family to provision per application — as *data-driven
rules* rather than hard-coded conclusions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..cloud.instance import InstanceFamily
from ..eda.flow import FlowRunner
from ..eda.job import EDAStage, JobResult
from ..netlist import benchmarks
from ..netlist.aig import AIG
from ..parallel import PAPER_VCPU_LEVELS
from ..perf import PerfCounters, make_instrument

__all__ = [
    "StageCharacterization",
    "CharacterizationReport",
    "characterize",
    "recommend_family",
]

#: Counter thresholds for the provisioning rules (fractions).
CACHE_MISS_THRESHOLD = 0.20  # above this, the job is memory-hungry
AVX_SHARE_THRESHOLD = 0.05  # above this, the job benefits from AVX hosts
SCALING_THRESHOLD = 3.0  # speedup@8 above this means "scales well"


@dataclass
class StageCharacterization:
    """One application's measurements across VM sizes."""

    stage: EDAStage
    counters: Dict[int, PerfCounters] = field(default_factory=dict)
    runtimes: Dict[int, float] = field(default_factory=dict)

    @property
    def vcpu_levels(self) -> List[int]:
        return sorted(self.runtimes)

    def speedup(self, vcpus: int) -> float:
        base = self.runtimes[min(self.runtimes)]
        return base / self.runtimes[vcpus]

    @property
    def speedups(self) -> Dict[int, float]:
        return {v: self.speedup(v) for v in self.vcpu_levels}

    def branch_miss_rates(self) -> Dict[int, float]:
        """Figure 2-a series."""
        return {v: c.branch_miss_rate for v, c in sorted(self.counters.items())}

    def cache_miss_rates(self) -> Dict[int, float]:
        """Figure 2-b series."""
        return {v: c.cache_miss_rate for v, c in sorted(self.counters.items())}

    def avx_shares(self) -> Dict[int, float]:
        """Figure 2-c series."""
        return {v: c.avx_share for v, c in sorted(self.counters.items())}


def recommend_family(
    char: StageCharacterization, reference_rate: Optional[float] = None
) -> InstanceFamily:
    """Instance-family rule derived from measured counters.

    High cache-miss jobs want the memory-optimized tier's higher
    memory-to-core ratio; everything else runs well on general-purpose
    instances — the paper's takeaway, reproduced as a measurement-driven
    rule.  When ``reference_rate`` is given (a report passes the mean miss
    rate across all four applications), the rule is relative — a stage is
    memory-hungry when it misses more than the flow's average — which is
    robust across design scales; standalone calls fall back to the
    absolute :data:`CACHE_MISS_THRESHOLD`.
    """
    rates = char.cache_miss_rates()
    if not rates:
        raise ValueError("no counters recorded")
    mean_miss = sum(rates.values()) / len(rates)
    threshold = reference_rate if reference_rate is not None else CACHE_MISS_THRESHOLD
    if mean_miss > threshold:
        return InstanceFamily.MEMORY_OPTIMIZED
    return InstanceFamily.GENERAL_PURPOSE


@dataclass
class CharacterizationReport:
    """Everything Figure 2 plots plus the derived recommendations."""

    design: str
    stages: Dict[EDAStage, StageCharacterization] = field(default_factory=dict)

    def __getitem__(self, stage: EDAStage) -> StageCharacterization:
        return self.stages[stage]

    def recommended_families(self) -> Dict[EDAStage, InstanceFamily]:
        """Per-stage family choices, relative to the flow-wide miss rate."""
        per_stage_mean = {}
        for stage, char in self.stages.items():
            rates = char.cache_miss_rates()
            per_stage_mean[stage] = sum(rates.values()) / max(1, len(rates))
        overall = sum(per_stage_mean.values()) / max(1, len(per_stage_mean))
        return {
            stage: recommend_family(c, reference_rate=overall)
            for stage, c in self.stages.items()
        }

    def wants_avx(self) -> Dict[EDAStage, bool]:
        """Stages whose AVX utilization justifies AVX-capable hosts."""
        out = {}
        for stage, char in self.stages.items():
            shares = char.avx_shares()
            out[stage] = (sum(shares.values()) / len(shares)) > AVX_SHARE_THRESHOLD
        return out

    def scales_well(self) -> Dict[EDAStage, bool]:
        """Stages whose speedup at the largest VM clears the threshold."""
        out = {}
        for stage, char in self.stages.items():
            top = max(char.vcpu_levels)
            out[stage] = char.speedup(top) >= SCALING_THRESHOLD
        return out

    def stage_runtimes(self) -> Dict[EDAStage, Dict[int, float]]:
        """Runtimes in the shape the optimizer consumes."""
        return {stage: dict(c.runtimes) for stage, c in self.stages.items()}

    def recommendations_text(self) -> List[str]:
        """The 'Main Takeaways' as sentences, derived from measurements."""
        fams = self.recommended_families()
        avx = self.wants_avx()
        scaling = self.scales_well()
        lines = []
        gp = [s.display_name for s, f in fams.items() if f == InstanceFamily.GENERAL_PURPOSE]
        mem = [s.display_name for s, f in fams.items() if f == InstanceFamily.MEMORY_OPTIMIZED]
        if gp:
            lines.append(
                f"{' and '.join(gp)} perform well on general-purpose VM instances "
                "with a balance between computations and memory access."
            )
        if mem:
            lines.append(
                f"{' and '.join(mem)} require VM instances with a higher "
                "memory-to-core ratio (memory-optimized)."
            )
        avx_stages = [s.display_name for s, flag in avx.items() if flag]
        if avx_stages:
            lines.append(
                f"{' and '.join(avx_stages)} should run on instances whose "
                "processors support Advanced Vector Extensions (AVX)."
            )
        scale_stages = [s.display_name for s, flag in scaling.items() if flag]
        if scale_stages:
            lines.append(
                f"{' and '.join(scale_stages)} scale well with the number of "
                "vCPUs allocated; the other stages cap early."
            )
        return lines


def characterize(
    design: str | AIG = "sparc_core",
    scale: float = 1.5,
    vcpu_levels: Sequence[int] = PAPER_VCPU_LEVELS,
    sample_rate: int = 2,
    runner: Optional[FlowRunner] = None,
) -> CharacterizationReport:
    """Characterize the four applications on one design (Figure 2).

    Parameters
    ----------
    design:
        Benchmark name or a prebuilt AIG.  The default is the SPARC-core
        proxy at characterization scale, matching the paper's use of the
        OpenPiton SPARC core.
    vcpu_levels:
        VM sizes to emulate (cgroups substitute).
    sample_rate:
        PMU-style event sampling stride (higher = faster, coarser).
    """
    aig = benchmarks.build(design, scale) if isinstance(design, str) else design
    runner = runner if runner is not None else FlowRunner()
    report = CharacterizationReport(design=aig.name)
    for stage in EDAStage.ordered():
        report.stages[stage] = StageCharacterization(stage=stage)
    for vcpus in vcpu_levels:
        instruments = {
            stage: make_instrument(vcpus, sample_rate=sample_rate)
            for stage in EDAStage.ordered()
        }
        flow = runner.run(aig, instruments=instruments)
        for stage, result in flow.stages.items():
            char = report.stages[stage]
            char.counters[vcpus] = result.counters
            char.runtimes[vcpus] = result.runtime(vcpus)
    return report
