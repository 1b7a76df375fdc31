"""Run one workload: set up, measure, check, and compute the metrics.

Set-ups and operations time themselves with a :class:`yardstick.Stopwatch`,
and the end-to-end metrics are taken from their durations at the reference
host speed; the report lines also give them as measured.

An untraced run (``trace=False``) sets the inputs up several times, then
repeats the workload's operation for the given seconds and reports the
end-to-end metrics.  A traced run measures the same operation untraced
for half the seconds, runs it once more under :class:`tracing.Tracer`, and
reports the per-layer metrics; the two runs' outputs must be identical,
and the bypass checks must hold.  Every operation's output is compared
with the first one's, and with the recorded reference for the seed.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import time
from typing import Dict, List, Optional

from .tracing import Tracer
from .workloads import WORKLOADS, Sample, Workload, digest, percentile
from .yardstick import Stopwatch

__all__ = ["END_TO_END", "PER_LAYER", "run_workload", "load_refs", "REFS_DIR"]

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

#: Setups per run; ``setup_s`` is import time plus their median, both at
#: the reference host speed.
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms": "ms",
    "work_per_s": "1/s",
}

PER_LAYER = {
    "eda.synthesis.self_s": "s",
    "eda.placement.self_s": "s",
    "eda.routing.self_s": "s",
    "eda.sta.self_s": "s",
    "eda.flow_calls": "count",
    "netlist.build_s": "s",
    "netlist.graph_s": "s",
    "perf.self_s": "s",
    "perf.share_pct": "%",
    "perf.mem_events": "count",
    "perf.branch_events": "count",
    "perf.ns_per_event": "ns",
    "perf.l1_misses": "count",
    "perf.llc_misses.1v": "count",
    "perf.llc_misses.2v": "count",
    "perf.llc_misses.4v": "count",
    "perf.llc_misses.8v": "count",
    "perf.branch_misses": "count",
    "core.model_to_wall_ratio": "ratio",
    "core.fig6_saving_pct": "%",
    "gnn.forward_s": "s",
    "gnn.backward_s": "s",
    "gnn.adam_s": "s",
    "gnn.samples": "count",
    "service.submit_s": "s",
    "service.runner_s": "s",
    "service.self_s": "s",
    "service.self_us_per_job": "us",
    "service.flow_cache_hit_ratio": "ratio",
    "service.submit_p99_us": "us",
    "service.scaling_exponent": "ratio",
    "core.optimize.calls": "count",
    "core.optimize.s": "s",
    "cloud.execute_calls": "count",
    "cloud.execute_s": "s",
    "obs.records_s": "s",
    "fleet.plan_s": "s",
    "fleet.register_s": "s",
    "fleet.reprice_s": "s",
    "fleet.invalidated_menus": "count",
    "fleet.group_hit_ratio": "ratio",
    "bench.trace_overhead_pct": "%",
}

#: Service batch fraction for the scaling exponent (traced run only).
SCALING_FRACTION = 4


def load_refs(workload: Workload) -> Dict[str, object]:
    """Recorded references by seed, or {} when the sizes differ."""
    path = os.path.join(REFS_DIR, f"{workload.name}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("sizes") != json.loads(json.dumps(workload.sizes)):
        return {}
    return doc.get("seeds", {})


def _repeat(workload: Workload, inputs, seconds: float) -> List[Sample]:
    """Run the operation until ``seconds`` have passed (at least once).

    One warm-up operation runs first and is returned first; the timing
    starts after it.  Garbage from one operation is collected before the
    next starts, so no operation pays for collecting another's objects.
    """
    gc.collect()
    samples = [workload.op(inputs)]
    start = time.perf_counter()
    while len(samples) < 2 or time.perf_counter() - start < seconds:
        gc.collect()
        samples.append(workload.op(inputs))
    return samples


def _check(workload: Workload, samples: List[Sample], reference) -> List[str]:
    """Per-sample problems: reference mismatch, or drift between samples."""
    problems = []
    first = digest(samples[0].output)
    for i, sample in enumerate(samples):
        problems.extend(sample.problems)
        if reference is not None:
            mismatch = workload.compare(sample.output, reference)
        elif digest(sample.output) != first:
            mismatch = [f"{workload.name}: operation {i} output differs from operation 0"]
        else:
            mismatch = []
        if mismatch:
            sample.failed += 1
            problems.extend(mismatch)
    return problems


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Optional[dict] = None,
    import_s: float = 0.0,
    import_host: float = 1.0,
    trace_dir: Optional[str] = None,
) -> dict:
    """One benchmark run; returns the result document plus report lines."""
    workload = WORKLOADS[name](sizes)
    refs = load_refs(workload)
    reference = refs.get(str(seed))

    setup_times = []
    for _ in range(SETUP_REPEATS if not trace else 1):
        watch = Stopwatch()
        inputs = workload.setup(seed)
        took, host = watch.lap()
        setup_times.append(took / host)

    checked = _repeat(workload, inputs, seconds / 2 if trace else seconds)
    problems = _check(workload, checked, reference)
    samples = checked[1:]  # the warm-up operation is checked, not timed
    lines = [f"workload {name} seed {seed}: {len(samples)} timed operations after "
             f"a warm-up, reference "
             f"{'checked' if reference is not None else 'not recorded for this seed'}"]

    if trace:
        metrics, trace_problems, traced = _traced(workload, inputs, samples, seed, trace_dir)
        problems.extend(trace_problems)
        checked.append(traced)
        values = {k: (metrics[k], unit) for k, unit in PER_LAYER.items()}
    else:
        adjusted = [x.adjusted() for x in samples]
        e2e = workload.end_to_end(adjusted)
        e2e["setup_s"] = import_s / import_host + statistics.median(setup_times)
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {k: (e2e[k], unit) for k, unit in END_TO_END.items()}
        op, to_ms = workload.op_metric
        hosts = [x.wall_host for x in samples]
        lines.append(f"  host ran {statistics.median(hosts):.3g}x the reference time "
                     f"(median; {min(hosts):.3g}x to {max(hosts):.3g}x)")
        for metric, value, unit, note in workload.named(samples):
            lines.append(f"  {metric} = {value:.6g} {unit} as measured ({note})")
        for metric, value, unit, note in workload.named(adjusted):
            lines.append(f"  {metric} = {value:.6g} {unit} at reference speed ({note})")
        lines.append(f"  op_ms is {op} in ms and work_per_s is "
                     f"{workload.work_metric}, at reference speed")

    attempted = sum(x.attempted for x in checked)
    failed = sum(x.failed for x in checked)
    for key, (value, unit) in values.items():
        lines.append(f"  {key} = {value:.6g} {unit}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    return {"result": result, "lines": lines, "problems": problems}


# -- traced run -----------------------------------------------------------


def _traced(workload: Workload, inputs, untraced: List[Sample], seed: int,
            trace_dir: Optional[str]):
    tracer = Tracer()
    gc.collect()
    with tracer:
        traced = workload.op(inputs)
    problems = list(traced.problems)
    if digest(traced.output) != digest(untraced[0].output):
        traced.failed += 1
        problems.append(f"{workload.name}: traced output differs from the untraced output")

    base_wall = statistics.median(x.adjusted().wall_s for x in untraced)
    m = {k: 0.0 for k in PER_LAYER}
    m["bench.trace_overhead_pct"] = 100.0 * (traced.adjusted().wall_s / base_wall - 1.0)
    for stage in ("synthesis", "placement", "routing", "sta"):
        m[f"eda.{stage}.self_s"] = tracer.self_s(f"eda.{stage}")
    m["eda.flow_calls"] = tracer.calls("eda.flow")
    m["netlist.build_s"] = tracer.self_s("netlist.build")
    m["netlist.graph_s"] = tracer.self_s("netlist.graph")
    perf_s = tracer.self_s("perf")
    events = tracer.events("perf.mem") + tracer.events("perf.branch")
    m["perf.self_s"] = perf_s
    m["perf.share_pct"] = 100.0 * perf_s / traced.wall_s
    m["perf.mem_events"] = tracer.events("perf.mem")
    m["perf.branch_events"] = tracer.events("perf.branch")
    m["perf.ns_per_event"] = 1e9 * perf_s / events if events else 0.0
    m["gnn.forward_s"] = tracer.self_s("gnn.forward")
    m["gnn.backward_s"] = tracer.self_s("gnn.backward")
    m["gnn.adam_s"] = tracer.self_s("gnn.adam")
    m["gnn.samples"] = tracer.calls("gnn.forward")
    m["core.optimize.calls"] = tracer.calls("core.optimize")
    m["core.optimize.s"] = tracer.self_s("core.optimize")
    m["cloud.execute_calls"] = tracer.calls("cloud.execute")
    m["cloud.execute_s"] = tracer.self_s("cloud.execute")
    m["obs.records_s"] = tracer.total_s("obs.records")
    m["fleet.plan_s"] = tracer.self_s("fleet.plan")
    m["fleet.register_s"] = tracer.self_s("fleet.register")
    m["fleet.reprice_s"] = tracer.self_s("fleet.reprice")

    name = workload.name
    if name == "characterize":
        _characterize_layers(m, traced, untraced)
    elif name == "service":
        problems.extend(_service_layers(m, tracer, traced, workload, inputs, untraced))
    elif name == "fleet":
        plans = tracer.observed.get("fleet.plan", [])
        flows = sum(f for f, _ in plans)
        m["fleet.invalidated_menus"] = sum(traced.output["invalidated"])
        m["fleet.group_hit_ratio"] = sum(h for _, h in plans) / flows if flows else 0.0

    bypassed = _bypass(name, m, tracer, traced)
    traced.failed += len(bypassed)
    problems.extend(bypassed)
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(
            os.path.join(trace_dir, f"{name}-seed{seed}.json"),
            {"workload": name, "seed": seed, "sizes": workload.sizes},
        )
    return m, problems, traced


def _characterize_layers(m, traced: Sample, untraced) -> None:
    stages = traced.output["stages"]
    levels = sorted({int(v) for per in stages.values() for v in per})
    counters = [c["counters"] for per in stages.values() for c in per.values()]
    m["perf.l1_misses"] = sum(c["l1_misses"] for c in counters)
    m["perf.branch_misses"] = sum(c["branch_misses"] for c in counters)
    for v in (1, 2, 4, 8):
        if v in levels:
            m[f"perf.llc_misses.{v}v"] = sum(
                per[str(v)]["counters"]["llc_misses"] for per in stages.values()
            )
    modelled_1v = sum(per[str(levels[0])]["runtime"] for per in stages.values())
    char_s = statistics.median(x.timings["characterize_s"] for x in untraced)
    m["core.model_to_wall_ratio"] = modelled_1v / char_s
    m["core.fig6_saving_pct"] = traced.output["table1_figure6"]["average_saving_pct"]


def _service_layers(m, tracer, traced: Sample, workload, inputs, untraced) -> List[str]:
    jobs = traced.timings["jobs"]
    submit_s = tracer.total_s("service.submit")
    runner_s = tracer.total_s("service.runner")
    m["service.submit_s"] = submit_s
    m["service.runner_s"] = runner_s
    # The session is the traced operation: first submit through records().
    m["service.self_s"] = traced.wall_s - submit_s - runner_s - m["obs.records_s"]
    m["service.self_us_per_job"] = 1e6 * m["service.self_s"] / jobs
    m["service.flow_cache_hit_ratio"] = 1.0 - tracer.calls("eda.flow") / jobs
    submits = [ns / 1e3 for x in untraced for ns in x.timings["submit_ns"]]
    m["service.submit_p99_us"] = percentile(submits, 99)
    # Log-log slope of session wall time against batch size, untraced.
    small = max(1, len(inputs["requests"]) // SCALING_FRACTION)
    quarter = [workload.op(inputs, jobs=small) for _ in range(3)]
    big_s = statistics.median(x.adjusted().wall_s for x in untraced)
    small_s = statistics.median(x.adjusted().wall_s for x in quarter)
    m["service.scaling_exponent"] = (
        math.log(big_s / small_s) / math.log(len(inputs["requests"]) / small)
    )
    traced.failed += sum(x.failed for x in quarter)
    return [p for x in quarter for p in x.problems]


def _bypass(name: str, m: dict, tracer, traced: Sample) -> List[str]:
    """Fail loudly when a workload stops exercising its layers."""
    expect = {
        "perf.mem_events": name == "characterize",
        "eda.flow_calls": name in ("characterize", "predict"),
        "gnn.samples": name == "predict",
        "core.optimize.calls": name in ("characterize", "service", "fleet"),
        "cloud.execute_calls": name in ("service", "fleet"),
    }
    problems = []
    for metric, used in expect.items():
        if used and not m[metric] > 0:
            problems.append(f"bypass: {metric} is 0 on {name}; the workload no longer uses it")
        if not used and m[metric] != 0:
            problems.append(f"bypass: {metric} = {m[metric]:g} on {name}, expected 0")
    if name == "service" and tracer.calls("service.submit") != traced.timings["jobs"]:
        problems.append("bypass: service submits != jobs")
    return problems
