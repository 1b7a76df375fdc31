"""Span tracing from outside the program: wrap public calls, restore them.

A :class:`Tracer` replaces each traced function or method with a wrapper
that records how long the call took and which traced call it ran inside,
then puts every original back when the ``with`` block ends.  Nothing under
``src/`` changes; the wrappers only add timing.

Each call becomes a span ``(name, start_ns, end_ns, parent)``.  A span's
self time is its duration minus the time its child spans cover, so a layer's
time is the sum of its spans' self times and nested layers are never
counted twice.  Spans are kept in memory and written out once, by
:meth:`Tracer.write`.  Leaf calls that run millions of times per workload
(the perf model's event methods) are only aggregated, never stored one by
one, but their time is still subtracted from the span that called them.

A function imported by name into another module is looked up there, not in
the module that defines it, so each target names the module its caller
reads it from (``repro.service.runners:solve_mckp_dp``).
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Target", "Tracer", "LAYER_TARGETS", "mem_events", "branch_events"]


def mem_events(args: tuple, kwargs: dict) -> int:
    """Addresses ``Instrument.mem`` replays through the cache model."""
    inst, addresses = args[0], args[1] if len(args) > 1 else kwargs["addresses"]
    return -(-len(addresses) // inst.sample_rate)


def branch_events(args: tuple, kwargs: dict) -> int:
    """Outcomes ``Instrument.branch`` replays through the predictor."""
    inst, outcomes = args[0], args[2] if len(args) > 2 else kwargs["outcomes"]
    return -(-len(outcomes) // inst.sample_rate)


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module:attr`` or ``module:Class.method``.

    ``store=False`` aggregates the calls without keeping each span.
    ``count`` maps a call's ``(args, kwargs)`` to a number of events.
    ``observe`` maps each return value to what :attr:`Tracer.observed`
    keeps under the span name (small stats, never the result itself).
    """

    span: str
    where: str
    store: bool = True
    count: Optional[Callable[[tuple, dict], int]] = None
    observe: Optional[Callable[[object], object]] = None


#: Layer boundaries of the program, by the public calls into them.
LAYER_TARGETS: Tuple[Target, ...] = (
    Target("eda.flow", "repro.eda.flow:FlowRunner.run"),
    Target("eda.synthesis", "repro.eda.synthesis:SynthesisEngine.run"),
    Target("eda.placement", "repro.eda.placement:PlacementEngine.run"),
    Target("eda.routing", "repro.eda.routing:GlobalRouter.run"),
    Target("eda.sta", "repro.eda.sta:STAEngine.run"),
    Target("netlist.build", "repro.netlist.benchmarks:build"),
    Target("netlist.build", "repro.core.predict:restructure"),
    Target("netlist.graph", "repro.core.predict:aig_to_graph"),
    Target("netlist.graph", "repro.core.predict:netlist_to_star_graph"),
    Target("perf.mem", "repro.perf.instrument:Instrument.mem",
           store=False, count=mem_events),
    Target("perf.branch", "repro.perf.instrument:Instrument.branch",
           store=False, count=branch_events),
    Target("perf.flops", "repro.perf.instrument:Instrument.flops", store=False),
    Target("perf.instructions", "repro.perf.instrument:Instrument.instructions",
           store=False),
    Target("gnn.forward", "repro.gnn.model:RuntimeGCN.forward"),
    Target("gnn.backward", "repro.gnn.model:RuntimeGCN.backward"),
    Target("gnn.adam", "repro.gnn.optim:Adam.step"),
    Target("service.submit", "repro.service.api:EDAService.submit"),
    Target("service.runner", "repro.service.runners:PipelineRunner.__call__"),
    Target("obs.records", "repro.service.api:EDAService.records"),
    Target("core.optimize", "repro.core.optimize:build_stage_options"),
    Target("core.optimize", "repro.core.optimize:solve_mckp_dp"),
    Target("core.optimize", "repro.core.optimize:MCKPTable.__init__"),
    Target("core.optimize", "repro.core.optimize:MCKPTable.query"),
    Target("core.optimize", "repro.core.experiments:build_stage_options"),
    Target("core.optimize", "repro.core.experiments:solve_mckp_dp"),
    Target("core.optimize", "repro.service.runners:build_stage_options"),
    Target("core.optimize", "repro.service.runners:solve_mckp_dp"),
    Target("core.optimize", "repro.fleet.planner:prune_stage_options"),
    Target("core.optimize", "repro.fleet.planner:solve_approx"),
    Target("cloud.execute", "repro.cloud.executor:PlanExecutor.execute"),
    Target("fleet.plan", "repro.fleet.planner:FleetPlanner.plan",
           observe=lambda plan: (plan.stats.flows, plan.stats.group_hits)),
    Target("fleet.register", "repro.fleet.planner:FleetPlanner.register_menu"),
    Target("fleet.reprice",
           "repro.fleet.market:SpotMarketFeed.reprice_stage_options"),
)


def _resolve(where: str):
    """``module:attr`` or ``module:Class.method`` -> (owner, attr name)."""
    module_name, _, path = where.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"{where}: not defined on {owner!r}")
    return owner, attr


class _Agg:
    """Running totals for one span name."""

    __slots__ = ("calls", "total_ns", "self_ns", "events")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.events = 0


class Tracer:
    """Context manager that installs the wrappers and restores them on exit."""

    def __init__(self, targets: Sequence[Target] = LAYER_TARGETS):
        self.targets = tuple(targets)
        self.spans: List[Tuple[str, int, int, int]] = []
        self.aggs: Dict[str, _Agg] = {}
        self.observed: Dict[str, list] = {}
        # Each open frame is [child_ns, span_index]; index -1 = not stored.
        self._stack: List[list] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- install / restore -------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                owner, attr = _resolve(target.where)
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(original, target))
                self._saved.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, target: Target):
        name, store, count = target.span, target.store, target.count
        agg = self.aggs.setdefault(name, _Agg())
        stack, spans = self._stack, self.spans
        clock = time.perf_counter_ns
        close, observe = self._close, target.observe
        sink = self.observed.setdefault(name, []) if observe else None

        def wrapper(*args, **kwargs):
            if store:
                index = len(spans)
                spans.append(None)  # placeholder keeps parents before children
            else:
                index = -1
            frame = [0, index]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                close(frame, agg, start, end)
                if count is not None:
                    agg.events += count(args, kwargs)
                if store:
                    spans[index] = (name, start, end, parent)
            if observe is not None:
                sink.append(observe(result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _close(self, frame: list, agg: "_Agg", start: int, end: int) -> None:
        """Pop ``frame`` and charge its duration to its parent and ``agg``."""
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        agg.calls += 1
        agg.total_ns += duration
        agg.self_ns += duration - frame[0]

    # -- queries -----------------------------------------------------------

    def calls(self, prefix: str) -> int:
        """Calls to every span name equal to or under ``prefix``."""
        return sum(a.calls for n, a in self._matching(prefix))

    def self_s(self, prefix: str) -> float:
        """Self time, in seconds, of every span under ``prefix``."""
        return sum(a.self_ns for n, a in self._matching(prefix)) / 1e9

    def total_s(self, prefix: str) -> float:
        """Inclusive time of ``prefix`` spans; for layers that never nest."""
        return sum(a.total_ns for n, a in self._matching(prefix)) / 1e9

    def events(self, prefix: str) -> int:
        return sum(a.events for n, a in self._matching(prefix))

    def _matching(self, prefix: str):
        return [
            (n, a) for n, a in self.aggs.items()
            if n == prefix or n.startswith(prefix + ".")
        ]

    def write(self, path: str, meta: dict) -> None:
        """Write every stored span and the per-name aggregates as JSON."""
        doc = {
            "meta": meta,
            "span_fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": self.spans,
            "aggregates": {
                n: {"calls": a.calls, "total_ns": a.total_ns,
                    "self_ns": a.self_ns, "events": a.events}
                for n, a in sorted(self.aggs.items())
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
