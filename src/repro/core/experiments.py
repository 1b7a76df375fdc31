"""Structured experiment runner: regenerate every result as JSON.

`pytest benchmarks/` prints the paper's tables; this module produces the
same content as machine-readable dictionaries so downstream tooling
(dashboards, regression tracking, EXPERIMENTS.md updates) can consume it.

Usage::

    from repro.core.experiments import run_all
    results = run_all(scale=1.0, quick=True)
    json.dump(results, open("results.json", "w"), indent=2)
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Sequence

from ..eda.flow import FlowRunner
from ..eda.job import EDAStage
from ..netlist import benchmarks
from ..parallel import PAPER_VCPU_LEVELS
from .characterize import CharacterizationReport, characterize
from .optimize import (
    build_stage_options,
    cost_saving_percent,
    over_provisioning,
    solve_mckp_dp,
    under_provisioning,
)

__all__ = ["run_figure2", "run_figure3", "run_table1_figure6", "run_all"]


def _stage_map(d: Dict[EDAStage, Any]) -> Dict[str, Any]:
    return {stage.value: value for stage, value in d.items()}


def run_figure2(
    design: str = "sparc_core",
    scale: float = 1.5,
    sample_rate: int = 2,
    report: Optional[CharacterizationReport] = None,
) -> Dict[str, Any]:
    """Figure 2's four panels as nested dictionaries."""
    if report is None:
        report = characterize(design, scale=scale, sample_rate=sample_rate)
    return {
        "design": report.design,
        "branch_miss_rates": _stage_map(
            {s: c.branch_miss_rates() for s, c in report.stages.items()}
        ),
        "cache_miss_rates": _stage_map(
            {s: c.cache_miss_rates() for s, c in report.stages.items()}
        ),
        "avx_shares": _stage_map(
            {s: c.avx_shares() for s, c in report.stages.items()}
        ),
        "speedups": _stage_map({s: c.speedups for s, c in report.stages.items()}),
        "recommended_families": _stage_map(
            {s: f.value for s, f in report.recommended_families().items()}
        ),
        "wants_avx": _stage_map(report.wants_avx()),
        "scales_well": _stage_map(report.scales_well()),
        "runtimes": _stage_map(report.stage_runtimes()),
    }


def run_figure3(
    designs: Sequence = (
        ("dynamic_node", 1.0),
        ("aes", 0.8),
        ("fpu", 1.0),
        ("sparc_core", 1.5),
    ),
    vcpus: Sequence[int] = PAPER_VCPU_LEVELS,
) -> Dict[str, Any]:
    """Routing speedups per design (smallest to largest)."""
    runner = FlowRunner()
    speedups: Dict[str, Dict[int, float]] = {}
    sizes: Dict[str, int] = {}
    for name, scale in designs:
        flow = runner.run(benchmarks.build(name, scale))
        routing = flow[EDAStage.ROUTING]
        speedups[name] = {v: routing.profile.speedup(v) for v in vcpus}
        sizes[name] = flow[EDAStage.SYNTHESIS].artifact.num_instances
    return {"speedups": speedups, "instances": sizes}


def run_table1_figure6(
    report: Optional[CharacterizationReport] = None,
    design: str = "sparc_core",
    scale: float = 1.5,
    sample_rate: int = 2,
    num_deadlines: int = 6,
) -> Dict[str, Any]:
    """Table I's menu + selections and Figure 6's savings sweep."""
    if report is None:
        report = characterize(design, scale=scale, sample_rate=sample_rate)
    stages = build_stage_options(
        report.stage_runtimes(), families=report.recommended_families()
    )
    menu = {
        s.stage.value: {
            o.vm.vcpus: {"runtime_s": o.runtime_seconds, "cost_usd": o.price}
            for o in s.options
        }
        for s in stages
    }
    fastest = sum(s.fastest.runtime_seconds for s in stages)
    slowest = sum(s.options[0].runtime_seconds for s in stages)
    step = max(1, (slowest - fastest) // max(1, num_deadlines - 1))
    deadlines = [fastest + i * step for i in range(num_deadlines)]
    deadlines.append(int(0.9 * fastest))  # the NA row

    over = over_provisioning(stages)
    under = under_provisioning(stages)
    rows = []
    savings = []
    for deadline in deadlines:
        selection = solve_mckp_dp(stages, deadline)
        if selection is None:
            rows.append({"deadline_s": deadline, "feasible": False})
            continue
        saving_over = cost_saving_percent(selection.total_cost, over.total_cost)
        saving_under = cost_saving_percent(selection.total_cost, under.total_cost)
        savings.extend([saving_over, saving_under])
        rows.append(
            {
                "deadline_s": deadline,
                "feasible": True,
                "vcpus": {
                    s.value: o.vm.vcpus for s, o in selection.choices.items()
                },
                "total_runtime_s": selection.total_runtime,
                "total_cost_usd": selection.total_cost,
                "saving_vs_over_pct": saving_over,
                "saving_vs_under_pct": saving_under,
            }
        )
    return {
        "menu": menu,
        "selections": rows,
        "over_provisioning_cost": over.total_cost,
        "under_provisioning_cost": under.total_cost,
        "average_saving_pct": sum(savings) / len(savings) if savings else 0.0,
    }


def run_all(
    scale: float = 1.5, sample_rate: int = 2, quick: bool = False
) -> Dict[str, Any]:
    """Regenerate Figure 2/3, Table I and Figure 6 (Figure 5 is separate
    because GCN training is minutes; see ``repro.core.predict``).

    ``quick=True`` shrinks designs for smoke runs.
    """
    if quick:
        scale = min(scale, 0.8)
        sample_rate = max(sample_rate, 6)
    started = time.time()
    report = characterize("sparc_core", scale=scale, sample_rate=sample_rate)
    fig3_designs = (
        (("dynamic_node", 0.8), ("fpu", 0.8), ("sparc_core", 1.0))
        if quick
        else (("dynamic_node", 1.0), ("aes", 0.8), ("fpu", 1.0), ("sparc_core", 1.5))
    )
    results = {
        "figure2": run_figure2(report=report),
        "figure3": run_figure3(designs=fig3_designs),
        "table1_figure6": run_table1_figure6(report=report),
        "meta": {
            "scale": scale,
            "sample_rate": sample_rate,
            "quick": quick,
            "wall_seconds": None,
        },
    }
    results["meta"]["wall_seconds"] = round(time.time() - started, 1)
    return results
