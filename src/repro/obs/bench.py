"""Perf-regression bench harness: a fixed-seed workload matrix.

``repro bench`` runs a small deterministic slice of every hot path —
the four-stage flow (with modelled runtimes recorded at 1/2/4/8 vCPUs),
one fault-injected executor run, and a short GCN fit — under an enabled
tracer and a fresh metric registry, then writes a ``BENCH_<rev>.json``
document (schema :data:`BENCH_SCHEMA`):

* ``structure`` — the timing-free span tree (byte-stable for one seed),
* ``metrics``   — the metric snapshot (byte-stable for one seed),
* ``timings``   — wall-clock seconds per span path (machine-dependent),
* ``workloads`` — headline wall-clock per workload,
* ``profile``   — per-span-path self-time summary (``calls`` byte-stable
  for one seed; ``total``/``self`` seconds machine-dependent).

Determinism contract: two runs with the same seed produce identical
``structure``, ``metrics``, and profile call counts; only the wall-clock
quantities (``timings``/``workloads``/profile seconds) vary.
:func:`compare_bench` diffs the timings against a baseline file with a
percentage tolerance — that comparison is what CI gates on — and, when
both documents carry profiles, names the span path whose *self time*
regressed the most, so the gate blames a frame instead of a total.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from typing import Dict, List, Optional, Tuple

from ..cloud.executor import ExecutionPolicy, PlanExecutor
from ..cloud.faults import FaultProfile
from ..cloud.instance import InstanceFamily, VMConfig
from ..cloud.provisioner import DeploymentPlan
from ..eda.flow import FlowRunner
from ..eda.job import EDAStage
from ..fleet import FleetPlanner, synthetic_fleet
from ..gnn.dataset import RuntimeSample
from ..gnn.model import RuntimeGCN
from ..gnn.training import TrainConfig, train
from ..netlist import benchmarks
from ..netlist.stargraph import aig_to_graph
from ..parallel import PAPER_VCPU_LEVELS
from . import scoped
from .export import structural_tree
from .log import Logger
from .metrics import MetricsRegistry
from .profile import build_profile
from .spans import Span, Tracer

__all__ = [
    "BENCH_SCHEMA",
    "KneePoint",
    "detect_knee",
    "run_bench",
    "write_bench",
    "bench_filename",
    "git_rev",
    "validate_bench",
    "compare_bench",
]

#: Schema tag stamped into every ``BENCH_*.json``.
BENCH_SCHEMA = "repro-bench/1"

#: Ignore timing deltas below this many seconds (noise floor).
ABS_GUARD_SECONDS = 0.02


class KneePoint:
    """The detected knee of a scaling curve (see :func:`detect_knee`)."""

    __slots__ = ("index", "x", "y", "gain")

    def __init__(self, index: int, x: float, y: float, gain: float):
        self.index = index
        self.x = x
        self.y = y
        self.gain = gain

    def to_dict(self) -> dict:
        return {"index": self.index, "x": self.x, "y": self.y,
                "gain": self.gain}

    def __repr__(self) -> str:
        return (
            f"KneePoint(index={self.index}, x={self.x}, y={self.y}, "
            f"gain={self.gain:.4f})"
        )


def detect_knee(
    xs, ys, min_gain: float = 0.05
) -> Optional[KneePoint]:
    """Locate the knee of an increasing, saturating curve (kneedle-lite).

    Both axes are min-max normalized to ``[0, 1]``; the knee is the point
    maximizing the difference curve ``y_n - x_n`` — where the curve pulls
    furthest above the straight diagonal, i.e. where returns start
    diminishing.  Shared by the ``repro bench`` flow-scaling gauges and
    the service concurrency sweep so both gates agree on what a knee is.

    Returns ``None`` (never raises) when no knee exists: fewer than three
    points (a single concurrency point must not crash the sweep), a flat
    or degenerate curve, or a maximum gain below ``min_gain`` (an
    essentially linear curve has no knee worth reporting).
    """
    if len(xs) != len(ys):
        raise ValueError(f"xs/ys length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 3:
        return None
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 <= x0 or y1 <= y0:
        return None  # flat curve (or all-equal xs): no knee
    best: Optional[KneePoint] = None
    for i, (x, y) in enumerate(zip(xs, ys)):
        xn = (x - x0) / (x1 - x0)
        yn = (y - y0) / (y1 - y0)
        gain = yn - xn
        if gain >= min_gain and (best is None or gain > best.gain):
            best = KneePoint(index=i, x=float(x), y=float(y), gain=gain)
    return best


def git_rev(default: str = "dev") -> str:
    """Short git revision of the working tree, or ``default``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return default
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else default


def _span_paths(spans: List[Span]) -> Dict[str, float]:
    """Flatten finished spans to ``root/child/...`` path -> duration."""
    by_id = {s.span_id: s for s in spans}
    paths: Dict[str, float] = {}
    for span in spans:
        if not span.finished:
            continue
        parts = [span.name]
        parent_id = span.parent_id
        while parent_id is not None:
            parent = by_id[parent_id]
            parts.append(parent.name)
            parent_id = parent.parent_id
        path = "/".join(reversed(parts))
        # Repeated paths (e.g. per-epoch spans) accumulate.
        paths[path] = paths.get(path, 0.0) + span.duration
    return paths


def _bench_plan(runtimes: Dict[EDAStage, float]) -> DeploymentPlan:
    """A fixed mixed spot/on-demand plan over the measured flow runtimes."""
    spot = VMConfig(
        name="gp.4x.spot",
        family=InstanceFamily.GENERAL_PURPOSE,
        vcpus=4,
        memory_gb=16.0,
        price_per_hour=0.06,
    )
    on_demand = VMConfig(
        name="gp.4x",
        family=InstanceFamily.GENERAL_PURPOSE,
        vcpus=4,
        memory_gb=16.0,
        price_per_hour=0.20,
    )
    plan = DeploymentPlan(design="bench")
    for stage in EDAStage.ordered():
        vm = spot if stage in (EDAStage.SYNTHESIS, EDAStage.ROUTING) else on_demand
        plan.add(stage, vm, max(1.0, runtimes[stage]))
    return plan


def run_bench(
    seed: int = 0,
    design: str = "ctrl",
    scale: float = 0.3,
    epochs: int = 3,
    rev: Optional[str] = None,
) -> dict:
    """Run the fixed workload matrix; returns the bench document."""
    tracer = Tracer(enabled=True)
    registry = MetricsRegistry()
    logger = Logger()
    with scoped(tracer=tracer, metrics=registry, log=logger):
        workloads: Dict[str, float] = {}

        # -- workload 1: the four-stage flow at 1/2/4/8 vCPUs ------------
        with tracer.span("bench.flow", design=design, seed=seed) as sp:
            runner = FlowRunner(seed=seed)
            aig = benchmarks.build(design, scale)
            flow = runner.run(aig, seed=seed)
            for stage, result in flow.stages.items():
                for vcpus in PAPER_VCPU_LEVELS:
                    registry.gauge(
                        f"flow.runtime_seconds.{stage.value}.{vcpus}v"
                    ).set(result.runtime(vcpus))
                # Where adding vCPUs stops paying for this stage — same
                # knee definition the service concurrency sweep uses.
                speedups = [
                    result.runtime(PAPER_VCPU_LEVELS[0]) / result.runtime(v)
                    for v in PAPER_VCPU_LEVELS
                ]
                knee = detect_knee(PAPER_VCPU_LEVELS, speedups)
                if knee is not None:
                    registry.gauge(
                        f"bench.flow.scaling_knee_vcpus.{stage.value}"
                    ).set(knee.x)
        workloads["flow"] = sp.duration

        # -- workload 2: one fault-injected executor run ------------------
        runtimes = {s: r.runtime(4) for s, r in flow.stages.items()}
        plan = _bench_plan(runtimes)
        with tracer.span("bench.executor", seed=seed) as sp:
            profile = FaultProfile.calm()
            executor = PlanExecutor(profile=profile, policy=ExecutionPolicy())
            outcome = executor.execute(
                plan, deadline_seconds=plan.total_runtime * 4, seed=seed
            )
            registry.gauge("bench.executor.total_cost").set(outcome.total_cost)
            registry.gauge("bench.executor.sim_seconds").set(outcome.total_time)
        workloads["executor"] = sp.duration

        # -- workload 3: a short GCN fit ----------------------------------
        with tracer.span("bench.gnn", seed=seed, epochs=epochs) as sp:
            synth = flow.stages[EDAStage.SYNTHESIS]
            sample = RuntimeSample(
                graph=aig_to_graph(aig),
                runtimes=[synth.runtime(v) for v in PAPER_VCPU_LEVELS],
                design=design,
            )
            model = RuntimeGCN(
                feature_dim=sample.graph.feature_dim,
                hidden1=16,
                hidden2=8,
                fc_units=8,
                seed=seed,
            )
            fit = train(
                model,
                [sample],
                TrainConfig(epochs=epochs, shuffle_seed=seed),
            )
            registry.gauge("bench.gnn.final_loss").set(fit.final_loss)
        workloads["gnn"] = sp.duration

        # -- workload 4: fleet-scale approximate planning -----------------
        # Fleet *generation* stays outside the timed region: the bench
        # measures the planner's flows/sec, not the synthetic generator.
        fleet_flows = max(1000, int(200_000 * scale))
        menus, flows = synthetic_fleet(
            seed=seed, flows=fleet_flows, menus=40, deadline_buckets=12
        )
        planner = FleetPlanner(mode="approx")
        for menu_id in sorted(menus):
            planner.register_menu(menu_id, menus[menu_id])
        with tracer.span("bench.fleet", seed=seed, flows=fleet_flows) as sp:
            t0 = time.perf_counter()
            fleet_plan = planner.plan(flows)
            plan_seconds = time.perf_counter() - t0
            stats = fleet_plan.stats
            registry.gauge("bench.fleet.planned_flows").set(stats.flows)
            registry.gauge("bench.fleet.feasible_flows").set(
                stats.feasible_flows
            )
            registry.gauge("bench.fleet.groups").set(stats.groups)
            registry.gauge("bench.fleet.pruned_options").set(
                stats.pruned_options
            )
            registry.gauge("bench.fleet.total_cost").set(fleet_plan.total_cost)
            registry.gauge("bench.fleet.max_certified_gap").set(
                fleet_plan.max_certified_gap
            )
        workloads["fleet"] = sp.duration
        # Wall-clock throughput stays OUT of the metric registry — the
        # same-seed determinism contract covers every gauge — and rides
        # in its own doc block instead, next to the other wall timings.
        fleet_block = {
            "flows": stats.flows,
            "groups": stats.groups,
            "plan_seconds": plan_seconds,
            "flows_per_second": (
                stats.flows / plan_seconds if plan_seconds > 0 else 0.0
            ),
        }

    snapshot = registry.snapshot()
    profile = build_profile(tracer.spans)
    return {
        "schema": BENCH_SCHEMA,
        "rev": rev if rev is not None else git_rev(),
        "seed": seed,
        "design": design,
        "scale": scale,
        "epochs": epochs,
        "workloads": workloads,
        "fleet": fleet_block,
        "timings": _span_paths(tracer.spans),
        "structure": structural_tree(tracer.spans),
        "metrics": snapshot.to_dict(),
        "profile": {
            path: {
                "calls": stat.calls,
                "total": stat.total,
                "self": stat.self_time,
            }
            for path, stat in sorted(profile.frames.items())
        },
    }


def bench_filename(rev: str) -> str:
    return f"BENCH_{rev}.json"


def write_bench(doc: dict, directory: str = "benchmarks") -> str:
    """Write ``BENCH_<rev>.json`` into ``directory`` (not the CWD, so
    the bench gate and the run-store dashboard read from one place);
    returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, bench_filename(doc["rev"]))
    with open(path, "w") as handle:
        json.dump(doc, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return path


def validate_bench(doc: dict) -> List[str]:
    """Schema check for a bench document; [] when valid."""
    out: List[str] = []
    if doc.get("schema") != BENCH_SCHEMA:
        out.append(
            f"schema: expected {BENCH_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    for key, kind in (
        ("rev", str),
        ("seed", int),
        ("workloads", dict),
        ("timings", dict),
        ("structure", list),
        ("metrics", dict),
    ):
        if not isinstance(doc.get(key), kind):
            out.append(f"{key}: missing or not a {kind.__name__}")
    if isinstance(doc.get("workloads"), dict):
        for name in ("flow", "executor", "gnn", "fleet"):
            value = doc["workloads"].get(name)
            if not isinstance(value, (int, float)) or value < 0:
                out.append(f"workloads.{name}: missing or negative")
    if isinstance(doc.get("metrics"), dict):
        for section in ("counters", "gauges", "histograms"):
            if section not in doc["metrics"]:
                out.append(f"metrics.{section}: missing")
    profile = doc.get("profile")
    if not isinstance(profile, dict):
        out.append("profile: missing or not a dict")
    else:
        for path, frame in profile.items():
            if not isinstance(frame, dict) or not (
                {"calls", "total", "self"} <= set(frame)
            ):
                out.append(f"profile.{path}: missing calls/total/self")
                break
    # The service concurrency sweep is optional (``repro bench --sweep``).
    sweep = doc.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            out.append("sweep: not a dict")
        else:
            for key in ("levels", "jobs", "throughput", "makespan_seconds"):
                if key not in sweep:
                    out.append(f"sweep.{key}: missing")
            knee = sweep.get("knee")
            if knee is not None and not (
                isinstance(knee, dict) and {"index", "x", "y"} <= set(knee)
            ):
                out.append("sweep.knee: missing index/x/y")
    return out


def _top_profile_regression(
    current: dict, baseline: dict
) -> Optional[Tuple[str, float]]:
    """The span path whose profile *self time* grew the most, if any.

    Returns ``(path, delta_seconds)`` for the largest positive self-time
    delta above :data:`ABS_GUARD_SECONDS`, or ``None`` when either
    document lacks a profile block or nothing cleared the guard.
    """
    base_prof = baseline.get("profile")
    cur_prof = current.get("profile")
    if not isinstance(base_prof, dict) or not isinstance(cur_prof, dict):
        return None
    top: Optional[Tuple[str, float]] = None
    for path in sorted(set(base_prof) & set(cur_prof)):
        delta = float(cur_prof[path].get("self", 0.0)) - float(
            base_prof[path].get("self", 0.0)
        )
        if delta > ABS_GUARD_SECONDS and (top is None or delta > top[1]):
            top = (path, delta)
    return top


def compare_bench(
    current: dict, baseline: dict, tolerance_pct: float = 25.0
) -> Tuple[List[str], List[str]]:
    """Diff two bench documents; returns ``(regressions, notes)``.

    A timing path regresses when it is more than ``tolerance_pct`` slower
    than the baseline *and* the absolute delta exceeds
    :data:`ABS_GUARD_SECONDS` (sub-centisecond spans are all noise).
    When anything regresses and both documents carry a ``profile`` block,
    a final attribution line names the span path whose self time grew
    the most — the frame to blame, not just the inclusive total.
    Structure drift (span paths appearing/disappearing) is reported as a
    note, not a regression — it usually means the workload changed shape
    and the baseline needs regenerating.
    """
    if tolerance_pct < 0:
        raise ValueError("tolerance_pct must be non-negative")
    regressions: List[str] = []
    notes: List[str] = []
    base_timings = baseline.get("timings", {})
    cur_timings = current.get("timings", {})
    for path in sorted(set(base_timings) | set(cur_timings)):
        if path not in cur_timings:
            notes.append(f"span path disappeared: {path}")
            continue
        if path not in base_timings:
            notes.append(f"new span path (no baseline): {path}")
            continue
        base = float(base_timings[path])
        cur = float(cur_timings[path])
        if cur > base * (1.0 + tolerance_pct / 100.0) and (
            cur - base > ABS_GUARD_SECONDS
        ):
            regressions.append(
                f"{path}: {cur:.4f}s vs baseline {base:.4f}s "
                f"(+{100.0 * (cur - base) / base:.1f}% > {tolerance_pct:.0f}%)"
            )
    if regressions:
        top = _top_profile_regression(current, baseline)
        if top is not None:
            regressions.append(
                f"top regressed span: {top[0]} (+{top[1]:.4f}s self time)"
            )
    return regressions, notes
