"""The four workloads: inputs from a seed, one timed operation, its checks.

Each workload makes its inputs from the seed in :meth:`Workload.setup`
(outside timing), and :meth:`Workload.op` runs one operation through the
program's public API and returns a :class:`Sample`: the wall times taken
inside the operation, and an ``output`` document that the harness compares
with the other operations of the run, with the traced run, and with the
recorded reference for the seed.  The document is built after the timed
calls return.

``SIZES`` fixes the inputs the benchmark measures; ``TINY`` shrinks every
workload so the benchmark's own tests finish in seconds.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import math
import statistics
import time
from typing import Dict, List, Optional

from repro.core.characterize import characterize
from repro.core.experiments import run_table1_figure6
from repro.core.predict import DatasetSpec, build_datasets, train_predictors
from repro.eda.flow import FlowRunner
from repro.fleet import ContinuousSession, FleetPlanner, synthetic_fleet
from repro.netlist import benchmarks
from repro.service import (
    EDAService,
    JobRequest,
    PipelineRunner,
    ServiceConfig,
    ServiceError,
    run_session,
    seeded_job_mix,
    session_log,
)

from .yardstick import Stopwatch

__all__ = ["Sample", "Workload", "WORKLOADS", "SIZES", "TINY", "digest"]

#: Timestamp stamped on service run-store records (the CLI boundary's job).
RECORD_TIMESTAMP = "2026-01-01T00:00:00Z"

SIZES: Dict[str, dict] = {
    "characterize": {
        "design": "dynamic_node", "scale": 1.5,
        "vcpu_levels": [1, 2, 4, 8], "sample_rate": 2,
    },
    "predict": {
        "designs": benchmarks.dataset_names(), "variants_per_design": 1,
        "scale": 0.3, "dataset_seed": 0, "split_seed": 0, "epochs": 8,
        "hidden1": 256, "hidden2": 128, "fc_units": 128,
    },
    "service": {
        "jobs": 1000, "kinds": ["plan", "execute", "pipeline"],
        "priorities": [0, 1], "clients": ["alice", "bob"],
        "design": "ctrl", "scale": 0.2, "workers": 2,
    },
    "fleet": {
        "flows": 160000, "menus": 40, "deadline_buckets": 12, "fleet_seed": 0,
        "ticks": 10, "execute_per_tick": 50, "mode": "exact",
    },
}

TINY: Dict[str, dict] = {
    "characterize": {**SIZES["characterize"], "scale": 0.5, "vcpu_levels": [1, 2]},
    "predict": {
        **SIZES["predict"], "designs": ["adder", "dec", "voter", "router"],
        "scale": 0.2, "epochs": 2, "hidden1": 16, "hidden2": 8, "fc_units": 8,
    },
    "service": {**SIZES["service"], "jobs": 24},
    "fleet": {**SIZES["fleet"], "flows": 2000, "menus": 6, "ticks": 3},
}


def canonical(doc) -> str:
    """Byte-stable JSON: sorted keys, floats written with every digit."""
    return json.dumps(doc, sort_keys=True)


def digest(doc) -> str:
    return hashlib.sha256(canonical(doc).encode()).hexdigest()


@dataclasses.dataclass
class Sample:
    """One operation: its wall times, work counts and output document.

    ``hosts`` holds, for each duration in ``timings``, the host factor
    measured around it (see :mod:`yardstick`): one number, or for a list of
    durations one number or a list of the same length.  ``wall_host`` is
    the factor over ``wall_s``.  Timings not in ``hosts`` are counts.
    """

    wall_s: float
    timings: Dict[str, object]
    output: dict
    attempted: int = 1
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    hosts: Dict[str, object] = dataclasses.field(default_factory=dict)
    wall_host: float = 1.0

    def adjusted(self) -> "Sample":
        """This operation with its durations at the reference host speed."""
        def scale(value, host):
            if not isinstance(value, list):
                return value / host
            if not isinstance(host, list):
                host = [host] * len(value)
            return [x / h for x, h in zip(value, host)]

        timings = {
            key: scale(value, self.hosts[key]) if key in self.hosts else value
            for key, value in self.timings.items()
        }
        return dataclasses.replace(
            self, wall_s=self.wall_s / self.wall_host, timings=timings,
            hosts={}, wall_host=1.0,
        )


class Workload:
    """Base class; see the module docstring."""

    name = ""
    #: The named metrics that ``op_ms`` and ``work_per_s`` report, and the
    #: factor that turns the first into milliseconds.
    op_metric = ("", 1.0)
    work_metric = ""

    def __init__(self, sizes: Optional[dict] = None):
        self.sizes = dict(sizes if sizes is not None else SIZES[self.name])

    def setup(self, seed: int):
        raise NotImplementedError

    def op(self, inputs) -> Sample:
        raise NotImplementedError

    def named(self, samples: List[Sample]) -> List[tuple]:
        """The workload's own metrics, as (name, value, unit, note)."""
        raise NotImplementedError

    def end_to_end(self, samples: List[Sample]) -> Dict[str, float]:
        """``op_ms`` and ``work_per_s``, picked from :meth:`named`."""
        named = {metric[0]: metric[1] for metric in self.named(samples)}
        op, to_ms = self.op_metric
        return {"op_ms": named[op] * to_ms, "work_per_s": named[self.work_metric]}

    def compare(self, output: dict, reference) -> List[str]:
        """Mismatches between an output and its recorded reference."""
        if digest(output) != reference:
            return [f"{self.name}: output digest {digest(output)[:16]} "
                    f"!= reference {str(reference)[:16]}"]
        return []

    def reference(self, output: dict):
        """What the reference file records for one seed."""
        return digest(output)


# -- characterize ---------------------------------------------------------


class _RecordingRunner(FlowRunner):
    """A FlowRunner that keeps each flow's stage metrics for the digest,
    and ends a stopwatch lap after each flow, so that one ``characterize``
    call is timed in one lap per vCPU level."""

    def __init__(self, seed: int):
        super().__init__(seed=seed)
        self.flows: list = []
        self.watch: Optional[Stopwatch] = None

    def run(self, *args, **kwargs):
        flow = super().run(*args, **kwargs)
        self.watch.lap()
        self.flows.append(flow)
        return flow


class Characterize(Workload):
    name = "characterize"
    op_metric = ("characterize_s", 1e3)
    work_metric = "stage_runs_per_s"

    def setup(self, seed: int):
        s = self.sizes
        return {"aig": benchmarks.build(s["design"], s["scale"]), "seed": seed}

    def op(self, inputs) -> Sample:
        s = self.sizes
        runner = _RecordingRunner(seed=inputs["seed"])
        runner.watch = watch = Stopwatch()
        report = characterize(
            inputs["aig"], vcpu_levels=tuple(s["vcpu_levels"]),
            sample_rate=s["sample_rate"], runner=runner,
        )
        watch.lap()
        characterize_s, characterize_host = watch.elapsed, watch.host
        table = run_table1_figure6(report=report)
        watch.lap()
        stages = {}
        for vcpus, flow in zip(s["vcpu_levels"], runner.flows):
            for stage, result in flow.stages.items():
                char = report.stages[stage]
                stages.setdefault(stage.value, {})[str(vcpus)] = {
                    "counters": dataclasses.asdict(char.counters[vcpus]),
                    "runtime": char.runtimes[vcpus],
                    "metrics": result.metrics,
                }
        output = {"stages": stages, "table1_figure6": table}
        runs = len(s["vcpu_levels"]) * len(stages)
        return Sample(
            wall_s=watch.elapsed,
            timings={"characterize_s": characterize_s, "stage_runs": runs},
            output=output,
            hosts={"characterize_s": characterize_host},
            wall_host=watch.host,
        )

    def named(self, samples):
        return [
            _timing("characterize_s", [x.timings["characterize_s"] for x in samples], "s"),
            # Instrumented stage runs per second, Table I/Fig. 6 included.
            _rate("stage_runs_per_s",
                  [x.timings["stage_runs"] / x.wall_s for x in samples], "runs/s"),
        ]


# -- predict --------------------------------------------------------------


class Predict(Workload):
    name = "predict"
    op_metric = ("train_epoch_s", 1e3)
    work_metric = "dataset_flows_per_s"

    def setup(self, seed: int):
        # One spec per design, so that each design's flows are one lap of
        # the stopwatch; design i draws its size jitter from dataset_seed + i.
        s = self.sizes
        specs = [
            DatasetSpec(
                designs=(design,), variants_per_design=s["variants_per_design"],
                scale=s["scale"], seed=s["dataset_seed"] + i,
            )
            for i, design in enumerate(s["designs"])
        ]
        return {"specs": specs, "seed": seed}

    def op(self, inputs) -> Sample:
        s = self.sizes
        runner = FlowRunner(seed=inputs["seed"])
        datasets: Dict[object, list] = {}
        watch = Stopwatch()
        for spec in inputs["specs"]:
            for stage, samples in build_datasets(spec, runner=runner).items():
                datasets.setdefault(stage, []).extend(samples)
            watch.lap()
        # Each stage's model is trained on its own (train_predictors keeps
        # no state across stages), one lap per stage, probed with numpy's
        # part too: the host's slowdowns reach BLAS-bound code differently.
        trainer = Stopwatch(with_numpy=True)
        losses = {}
        for stage, samples in datasets.items():
            suite = train_predictors(
                {stage: samples}, epochs=s["epochs"], seed=s["split_seed"],
                hidden1=s["hidden1"], hidden2=s["hidden2"], fc_units=s["fc_units"],
            )
            losses[stage.value] = list(suite.predictors[stage].train_result.losses)
            trainer.lap()
        flows = len(s["designs"]) * s["variants_per_design"]
        output = {
            "runtimes": {
                stage.value: [sample.runtimes.tolist() for sample in samples]
                for stage, samples in datasets.items()
            },
            "losses": losses,
        }
        wall_s = watch.elapsed + trainer.elapsed
        return Sample(
            wall_s=wall_s,
            timings={
                "dataset_s": watch.elapsed, "flows": flows,
                "train_epoch_s": trainer.elapsed / s["epochs"],
            },
            output=output,
            hosts={"dataset_s": watch.host, "train_epoch_s": trainer.host},
            wall_host=wall_s / (watch.at_reference + trainer.at_reference),
        )

    def named(self, samples):
        return [
            _rate("dataset_flows_per_s",
                  [x.timings["flows"] / x.timings["dataset_s"] for x in samples],
                  "flows/s"),
            _timing("train_epoch_s", [x.timings["train_epoch_s"] for x in samples], "s"),
        ]

    #: Relative tolerances: runtimes are pure-Python arithmetic and must
    #: agree to rounding; losses go through BLAS, and a change to the
    #: per-sample Adam update moves them by far more than 1e-6.
    RTOL = {"runtimes": 1e-9, "losses": 1e-6}

    def reference(self, output):
        return output

    def compare(self, output, reference):
        problems = []
        for part, rtol in self.RTOL.items():
            got, want = output[part], reference[part]
            if sorted(got) != sorted(want):
                problems.append(f"predict: {part} stages {sorted(got)} != {sorted(want)}")
                continue
            for stage in sorted(want):
                a, b = _flatten(got[stage]), _flatten(want[stage])
                if len(a) != len(b) or any(
                    not math.isclose(x, y, rel_tol=rtol, abs_tol=0.0)
                    for x, y in zip(a, b)
                ):
                    problems.append(
                        f"predict: {part}[{stage}] differs from the reference "
                        f"beyond rel. tolerance {rtol:g}"
                    )
        return problems


def _flatten(values) -> List[float]:
    if isinstance(values, (list, tuple)):
        return [x for v in values for x in _flatten(v)]
    return [float(values)]


# -- service --------------------------------------------------------------


class Service(Workload):
    name = "service"
    op_metric = ("service_submit_p50_us", 1e-3)
    work_metric = "service_jobs_per_s"

    def setup(self, seed: int):
        s = self.sizes
        runner = PipelineRunner()
        # Warm the runner's flow cache: every job shares one design and
        # scale, and seeded_job_mix draws flow_seed from (0, 1).
        warm = [
            JobRequest(kind="flow", design=s["design"], scale=s["scale"],
                       seed=0, flow_seed=flow_seed)
            for flow_seed in (0, 1)
        ]
        run_session(warm, config=ServiceConfig(queue_depth=len(warm)), runner=runner)
        requests = seeded_job_mix(
            seed, s["jobs"], kinds=tuple(s["kinds"]),
            priorities=tuple(s["priorities"]), clients=tuple(s["clients"]),
            design=s["design"], scale=s["scale"],
        )
        return {"runner": runner, "requests": requests}

    def op(self, inputs, jobs: Optional[int] = None) -> Sample:
        requests = inputs["requests"][:jobs] if jobs else inputs["requests"]
        config = ServiceConfig(
            workers=self.sizes["workers"], queue_depth=len(requests),
            mode="inline", deterministic=True,
        )
        service = EDAService(config=config, runner=inputs["runner"])
        latencies: List[int] = []
        rejected: List[str] = []

        async def drive() -> None:
            # run_session's closed batch: admit everything, then drain.
            service.start()
            clock = time.perf_counter_ns
            for request in requests:
                t = clock()
                try:
                    service.submit(request)
                except ServiceError as exc:
                    rejected.append(exc.code)
                latencies.append(clock() - t)
            await service.drain()

        watch = Stopwatch()
        asyncio.run(drive())
        records = service.records(RECORD_TIMESTAMP)
        wall_s, host = watch.lap()
        states: Dict[str, int] = {}
        for job in service.jobs.values():
            states[job.state.value] = states.get(job.state.value, 0) + 1
        log = "\n".join(session_log(service)) + "\n"
        output = {
            "jobs": len(requests),
            "rejected": len(rejected),
            "states": states,
            "records": len(records),
            "session_log_sha256": hashlib.sha256(log.encode()).hexdigest(),
        }
        done = states.get("done", 0)
        problems = []
        if rejected or done != len(requests):
            problems.append(
                f"service: {done}/{len(requests)} jobs done, "
                f"{len(rejected)} rejected ({sorted(set(rejected))})"
            )
        return Sample(
            wall_s=wall_s,
            timings={"jobs": len(requests), "submit_ns": latencies},
            hosts={"submit_ns": host},
            wall_host=host,
            output=output,
            attempted=len(requests),
            failed=len(requests) - done,
            problems=problems,
        )

    def named(self, samples):
        submits_us = [ns / 1e3 for x in samples for ns in x.timings["submit_ns"]]
        p50 = statistics.median(submits_us)
        p99 = percentile(submits_us, 99)
        return [
            _rate("service_jobs_per_s", [x.timings["jobs"] / x.wall_s for x in samples],
                  "jobs/s"),
            ("service_submit_p50_us", p50, "us", f"median of {len(submits_us)}"),
            ("service_submit_p99_us", p99, "us", f"p99 of {len(submits_us)}"),
        ]


# -- fleet ----------------------------------------------------------------


class Fleet(Workload):
    name = "fleet"
    op_metric = ("fleet_tick_s", 1e3)
    work_metric = "fleet_flows_per_s"

    def setup(self, seed: int):
        s = self.sizes
        menus, flows = synthetic_fleet(
            seed=s["fleet_seed"], flows=s["flows"], menus=s["menus"],
            deadline_buckets=s["deadline_buckets"],
        )
        return {"menus": menus, "flows": flows, "seed": seed}

    def op(self, inputs) -> Sample:
        s = self.sizes
        ticks: List[float] = []
        tick_hosts: List[float] = []
        watch = Stopwatch()
        session = ContinuousSession(
            inputs["menus"], inputs["flows"],
            planner=FleetPlanner(mode=s["mode"]),
            seed=inputs["seed"], execute_per_tick=s["execute_per_tick"],
        )
        watch.lap()
        for _ in range(s["ticks"]):
            session.step()
            took, host = watch.lap()
            ticks.append(took)
            tick_hosts.append(host)
        report = session.report
        dump = report.dump()
        replanned = sum(t.replanned_flows for t in report.ticks)
        output = {
            "dump_sha256": hashlib.sha256(dump.encode()).hexdigest(),
            "replanned": [t.replanned_flows for t in report.ticks],
            "invalidated": [t.invalidated for t in report.ticks],
        }
        return Sample(
            wall_s=watch.elapsed,
            timings={"tick_s": ticks, "replanned": replanned},
            hosts={"tick_s": tick_hosts},
            wall_host=watch.host,
            output=output,
        )

    def named(self, samples):
        return [
            _rate("fleet_flows_per_s", [x.timings["replanned"] / x.wall_s for x in samples],
                  "flows/s"),
            _timing("fleet_tick_s", [t for x in samples for t in x.timings["tick_s"]], "s"),
        ]


# -- reporting helpers ----------------------------------------------------

#: Percentiles tried, highest first, for the tail figure of a timing.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: List[float]):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in _TAILS:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p, percentile(values, p)
    return None


def _timing(name, values, unit):
    """A timing: its median, plus the tail percentile where one exists."""
    note = f"median of {len(values)}"
    high = tail(values)
    if high is not None:
        note += f"; p{high[0]:g} = {high[1]:.6g} {unit}"
    return (name, statistics.median(values), unit, note)


def _rate(name, values, unit):
    return (name, statistics.median(values), unit, f"median of {len(values)}")


WORKLOADS = {w.name: w for w in (Characterize, Predict, Service, Fleet)}
