"""The in-process EDA-flow service: submit/status/cancel + session driver.

:class:`EDAService` wires the pieces together — admission controller in
front of the priority queue, the asyncio worker pool behind it, a
dedicated tracer/registry pair so every request is span-wrapped and
every rejection counted.  ``submit``/``status``/``cancel``/``evict`` are
plain synchronous methods (they never block); only *running* the pool
needs an event loop, so tests can drive scheduling explicitly while the
CLI, the chaos scenarios and the benchmark use :func:`run_session`.

:func:`run_session` is the one session driver.  It admits the whole
request list, applies client cancels and external evictions (``evict``
marks a struck job right after admission, so its first checkpoint
raises :class:`~repro.service.errors.JobEvicted` mid-run), waits for
the service to go idle so evicted jobs can requeue, then drains.

Determinism contract: the service clock is a shared
:class:`~repro.obs.spans.TickClock`, the pool runs ``inline``, and
:func:`run_session` admits the whole request list before the first
worker step runs — so for one seed the admission outcomes, the
completion order, the per-job billing totals, evictions and requeues,
and the byte-level :func:`session_log` are all identical across runs.
That is the acceptance property the 100-job regression test replays
twice, and the session-log golden pins by value.

Nothing here reads wall-clock time; timestamps enter only at the CLI
boundary (``repro serve`` stamps the run-store records it persists).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..obs import MetricsRegistry, Tracer, merge_snapshots
from ..obs.attrib import attribute_session
from ..obs.spans import TickClock, mint_trace_id
from ..obs.store import RunRecord
from .errors import JobNotFoundError, NotCancellableError, ServiceError
from .jobs import Job, JobContext, JobRequest, JobState, job_to_run
from .pool import WorkerPool
from .queue import AdmissionController, JobQueue, TokenBucket
from .runners import PipelineRunner

__all__ = [
    "ServiceConfig",
    "EDAService",
    "SessionResult",
    "run_session",
    "session_log",
    "seeded_job_mix",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for one service instance.

    ``rate_capacity=None`` disables per-client rate limiting entirely;
    otherwise each client gets a token bucket with that burst capacity,
    refilled at ``rate_refill_per_second`` on the service clock.
    ``mode`` must be ``"inline"``, the pool's only execution mode, and
    ``deterministic`` must be ``True``: the service runs only on a tick
    clock.
    """

    workers: int = 2
    queue_depth: int = 64
    rate_capacity: Optional[float] = None
    rate_refill_per_second: float = 1.0
    mode: str = "inline"
    deterministic: bool = True
    crash_dir: Optional[str] = None
    rev: str = "dev"
    #: Automatically resubmit jobs cancelled by an external eviction
    #: (never jobs cancelled by the client), up to ``max_requeues``
    #: incarnations per original request.
    requeue_on_eviction: bool = True
    max_requeues: int = 1

    def __post_init__(self) -> None:
        if self.mode != "inline":
            raise ValueError(f"unknown pool mode {self.mode!r}")
        if self.deterministic is not True:
            raise ValueError("the service runs only deterministically")


class EDAService:
    """Admission + queue + pool behind a three-verb request API."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        runner: Optional[Callable[[Job, JobContext], dict]] = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.clock = TickClock()
        # The tracer shares the service clock: job history edges and span
        # boundaries interleave on one timeline, which is what makes the
        # critical-path attribution in repro.obs.attrib exact (bucket
        # sums equal end-to-end durations bit-for-bit under tick clocks).
        self.tracer = Tracer(clock=self.clock, deterministic=True)
        self.registry = MetricsRegistry()
        self.queue = JobQueue(depth=self.config.queue_depth)
        limiter = (
            TokenBucket(
                self.config.rate_capacity,
                self.config.rate_refill_per_second,
                self.clock,
            )
            if self.config.rate_capacity is not None
            else None
        )
        self.admission = AdmissionController(self.queue, rate_limiter=limiter)
        self.runner = runner if runner is not None else PipelineRunner()
        self.pool = WorkerPool(
            queue=self.queue,
            runner=self._traced_runner,
            size=self.config.workers,
            clock=self.clock,
            crash_dir=self.config.crash_dir,
            on_terminal=self._on_terminal,
            tracer=self.tracer,
        )
        self.jobs: Dict[str, Job] = {}
        self.terminal_order: List[str] = []
        self._seq = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # -- request API ------------------------------------------------------

    def submit(self, request: JobRequest) -> dict:
        """Admit one request; returns the job document or raises a
        :class:`~repro.service.errors.ServiceError` rejection."""
        with self.tracer.span(
            "service.submit",
            client=request.client,
            kind=request.kind,
            priority=request.priority,
        ) as span:
            try:
                request.validate()
                job = Job(
                    job_id=f"job-{self._seq:04d}",
                    request=request,
                    seq=self._seq,
                )
                self.admission.admit(job)
            except ServiceError as exc:
                span.set_tag("rejected", exc.code)
                self.registry.counter(f"service.rejected.{exc.code}").inc()
                raise
            self._seq += 1
            self.jobs[job.job_id] = job
            # One trace per admitted job, minted deterministically from
            # the request seed and the admission sequence number.  The
            # submit span joins it retroactively (the id exists only
            # once admission succeeded — rejected submits stay unstitched).
            job.trace_id = mint_trace_id("service", job.request.seed, job.seq)
            span.trace_id = job.trace_id
            span.set_tag("trace_id", job.trace_id)
            # Jobs are born QUEUED; record the admission edge directly.
            job.history.append((JobState.QUEUED.value, self.clock()))
            self.registry.counter("service.admitted").inc()
            self.registry.gauge("service.queue_depth").set(len(self.queue))
            span.set_tag("job_id", job.job_id)
            self._idle.clear()
            self.pool.notify()
            return job.to_public_dict()

    def status(self, job_id: str) -> dict:
        job = self.jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no such job: {job_id}", job_id=job_id)
        return job.to_public_dict()

    def cancel(self, job_id: str) -> dict:
        """Cancel a queued job immediately, or flag a running one.

        Running jobs observe the flag at their next cooperative
        checkpoint; terminal jobs raise
        :class:`~repro.service.errors.NotCancellableError`.
        """
        return self._stop(job_id, eviction=None)

    def evict(self, job_id: str, reason: str = "external") -> dict:
        """Cancel a job because something *outside* the service took its
        capacity (an AZ reclaim, a chaos storm striking its zone).

        Queued jobs go terminal immediately; running jobs observe the
        eviction at their next cooperative checkpoint as
        :class:`~repro.service.errors.JobEvicted`.  Either way the job
        lands in ``cancelled`` and — when ``requeue_on_eviction`` is set
        and the budget allows — a fresh incarnation of the request is
        admitted automatically.
        """
        return self._stop(job_id, eviction=reason)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Start the worker pool (requires a running event loop)."""
        self.pool.start()

    async def drain(self) -> None:
        """Stop admission, run the backlog dry, join all workers."""
        self.admission.draining = True
        await self.pool.drain()

    async def shutdown(self) -> List[Job]:
        """Stop admission, cancel the backlog, join all workers."""
        self.admission.draining = True
        return await self.pool.shutdown()

    async def join(self) -> None:
        """Wait until every admitted job is terminal (pool keeps running)."""
        await self._idle.wait()

    # -- introspection ----------------------------------------------------

    @property
    def all_terminal(self) -> bool:
        # Every job enters terminal_order exactly once, when it goes
        # terminal, so the lengths agree only when nothing is in flight.
        return len(self.terminal_order) == len(self.jobs)

    def records(self, timestamp_utc: str) -> List[RunRecord]:
        """Run-store records: one per terminal job plus a session record.

        ``timestamp_utc`` is stamped by the caller (the CLI boundary) —
        the service itself never reads wall-clock time.  While the tracer
        is enabled each job record also carries its exact latency
        attribution (``labels["attrib"]``), and the session
        record's metrics gain labeled latency/attribution histograms —
        computed into a *fresh* registry each call so ``records()`` stays
        idempotent.
        """
        attribs = {}
        if self.tracer.enabled:
            attribs = {a.job_id: a for a in attribute_session(self)}
        out = [
            job_to_run(
                self.jobs[job_id],
                self.config.rev,
                timestamp_utc,
                attribution=(
                    attribs[job_id].to_dict() if job_id in attribs else None
                ),
            )
            for job_id in self.terminal_order
        ]
        labels: Dict[str, object] = {
            "admitted": self.admission.admitted,
            "rejected": {
                k: self.admission.rejected[k]
                for k in sorted(self.admission.rejected)
            },
            "workers": self.config.workers,
            "queue_depth": self.config.queue_depth,
            "completion_order": list(self.terminal_order),
            "states": {
                job_id: self.jobs[job_id].state.value
                for job_id in sorted(self.jobs)
            },
        }
        snapshot = self.registry.snapshot()
        if attribs:
            extra = MetricsRegistry()
            for job_id in self.terminal_order:
                a = attribs[job_id]
                request = self.jobs[job_id].request
                for bucket, value in a.buckets:
                    extra.histogram(
                        "service.attrib_ticks", bucket=bucket
                    ).observe(value)
                extra.histogram("service.latency_ticks").observe(a.total)
                extra.histogram(
                    "service.latency_ticks",
                    job_kind=request.kind,
                    priority=str(request.priority),
                ).observe(a.total)
            snapshot = merge_snapshots(snapshot, extra.snapshot())
        out.append(
            RunRecord(
                kind="service",
                rev=self.config.rev,
                seed=0,
                timestamp_utc=timestamp_utc,
                labels=labels,
                metrics=snapshot.to_dict(),
            )
        )
        return out

    # -- internals --------------------------------------------------------

    def _stop(self, job_id: str, eviction: Optional[str]) -> dict:
        """Shared body of :meth:`cancel` (``eviction=None``) and
        :meth:`evict`: flag the job, and finish it now if still queued."""
        job = self.jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no such job: {job_id}", job_id=job_id)
        if job.terminal:
            raise NotCancellableError(
                f"job {job_id} is already {job.state.value}",
                job_id=job_id,
                state=job.state.value,
            )
        if eviction is None:
            job.cancel_requested = True
        else:
            job.external_cancel = eviction
        if job.state is JobState.QUEUED:
            # Never reaches a worker: the queue drops it lazily at pop.
            self.queue.cancel(job, self.clock())
            self._on_terminal(job)
        self.registry.counter(
            "service.cancel_requests" if eviction is None
            else "service.evictions"
        ).inc()
        return job.to_public_dict()

    def _traced_runner(self, job: Job, ctx: JobContext) -> dict:
        # The pool has already bound job.trace_id on this thread, so this
        # span — and every descendant the runner/executor opens — stitches
        # into the job's end-to-end trace.
        with self.tracer.span(
            "service.job",
            job_id=job.job_id,
            kind=job.request.kind,
            priority=job.request.priority,
            client=job.request.client,
            trace_id=job.trace_id,
        ):
            return self.runner(job, ctx)

    def _on_terminal(self, job: Job) -> None:
        self.terminal_order.append(job.job_id)
        self.registry.counter(f"service.terminal.{job.state.value}").inc()
        self._maybe_requeue(job)
        self.registry.gauge("service.queue_depth").set(len(self.queue))
        if self.all_terminal:
            self._idle.set()

    def _maybe_requeue(self, job: Job) -> bool:
        """Resubmit an evicted job's request under a fresh job id.

        Only externally-evicted cancellations qualify; client cancels and
        natural terminal states never requeue.  A draining service, an
        exhausted requeue budget, or an admission rejection all end the
        line (each counted separately so sessions stay auditable).
        """
        if (
            job.external_cancel is None
            or job.state is not JobState.CANCELLED
            or not self.config.requeue_on_eviction
        ):
            return False
        if job.requeues >= self.config.max_requeues:
            self.registry.counter("service.requeue_exhausted").inc()
            return False
        if self.admission.draining:
            self.registry.counter("service.requeue_draining").inc()
            return False
        clone = Job(
            job_id=f"job-{self._seq:04d}",
            request=job.request,
            seq=self._seq,
            requeues=job.requeues + 1,
            requeue_of=job.job_id,
        )
        try:
            self.admission.admit(clone)
        except ServiceError as exc:
            self.registry.counter(f"service.rejected.{exc.code}").inc()
            return False
        self._seq += 1
        self.jobs[clone.job_id] = clone
        clone.trace_id = mint_trace_id(
            "service", clone.request.seed, clone.seq
        )
        clone.history.append((JobState.QUEUED.value, self.clock()))
        self.registry.counter("service.requeued").inc()
        self._idle.clear()
        self.pool.notify()
        return True


# -- session driver -------------------------------------------------------


@dataclass
class SessionResult:
    """Everything one driven session produced."""

    service: EDAService
    outcomes: List[dict] = field(default_factory=list)

    @property
    def accepted(self) -> int:
        return sum(1 for o in self.outcomes if o.get("accepted"))

    @property
    def rejected(self) -> int:
        return len(self.outcomes) - self.accepted

    @property
    def completion_order(self) -> List[str]:
        return list(self.service.terminal_order)

    @property
    def evictions(self) -> Dict[str, str]:
        """Job id -> reason for every job an external event evicted."""
        return _evictions(self.service)


def _evictions(service: EDAService) -> Dict[str, str]:
    return {
        job.job_id: job.external_cancel
        for job in service.jobs.values()
        if job.external_cancel is not None
    }


def run_session(
    requests: Sequence[JobRequest],
    config: Optional[ServiceConfig] = None,
    runner: Optional[Callable[[Job, JobContext], dict]] = None,
    cancel: Optional[Dict[int, int]] = None,
    evict: Optional[Dict[int, str]] = None,
) -> SessionResult:
    """Drive one complete service session synchronously.

    Every request is submitted before the first worker step runs (the
    submit loop never awaits), so the whole session is a pure function
    of ``requests``, the request seeds, ``cancel`` and ``evict``.
    ``cancel`` maps *submission index -> number of completed jobs to
    wait for* before cancelling that job (0 = cancel while queued).
    ``evict`` maps *submission index -> reason*: the admitted job is
    marked ``external_cancel`` at once, so it is evicted at its first
    in-run checkpoint (it still gets a worker) and, budget allowing,
    requeued under a fresh job id that is never struck.  The driver
    waits for the service to go idle before draining, because requeues
    are refused while draining.
    """
    service = EDAService(config=config, runner=runner)
    evict = evict or {}

    async def _drive() -> List[dict]:
        service.start()
        outcomes: List[dict] = []
        job_ids: Dict[int, str] = {}
        for index, request in enumerate(requests):
            try:
                doc = service.submit(request)
            except ServiceError as exc:
                outcomes.append({"accepted": False, **exc.to_response()})
                continue
            job_ids[index] = doc["job_id"]
            if index in evict:
                service.jobs[doc["job_id"]].external_cancel = evict[index]
            outcomes.append({"accepted": True, "job_id": doc["job_id"]})
        for index, after in sorted((cancel or {}).items()):
            job_id = job_ids.get(index)
            if job_id is None:
                continue
            while len(service.pool.completed) < after:
                await asyncio.sleep(0)
            try:
                service.cancel(job_id)
            except (NotCancellableError, JobNotFoundError):
                pass
        await service.join()
        await service.drain()
        return outcomes

    outcomes = asyncio.run(_drive())
    return SessionResult(service=service, outcomes=outcomes)


def session_log(service: EDAService) -> List[str]:
    """Byte-stable per-job log lines in completion order.

    One line per terminal job — id, priority, client, kind, state,
    worker slot, billed totals — then one ``evicted`` line per evicted
    job, by job id, naming the incarnation that replaced it.  Exactly
    reproducible for one seed; the CI smoke job diffs two same-seed
    runs of this log and the session-log golden pins it by value.
    """
    lines: List[str] = []
    for job_id in service.terminal_order:
        job = service.jobs[job_id]
        counters = job.metrics.get("counters", {})
        lines.append(
            f"{job.job_id} priority={job.request.priority} "
            f"client={job.request.client} kind={job.request.kind} "
            f"state={job.state.value} worker={job.worker} "
            f"billed_seconds={counters.get('executor.billed_seconds', 0.0):.6f} "
            f"billed_cost={counters.get('executor.billed_cost', 0.0):.6f}"
        )
    evictions = _evictions(service)
    requeued_as = {
        job.requeue_of: job.job_id
        for job in service.jobs.values()
        if job.requeue_of is not None
    }
    for job_id in sorted(evictions):
        lines.append(
            f"evicted {job_id} reason={evictions[job_id]} "
            f"requeued_as={requeued_as.get(job_id, 'none')}"
        )
    return lines


def seeded_job_mix(
    seed: int,
    jobs: int,
    kinds: Sequence[str] = ("execute", "flow", "plan"),
    priorities: Sequence[int] = (0, 1),
    clients: Sequence[str] = ("alice", "bob"),
    design: str = "ctrl",
    scale: float = 0.2,
) -> List[JobRequest]:
    """A reproducible mixed-priority request batch for smoke/regression
    runs — same seed, same batch, byte for byte."""
    rng = random.Random(seed)
    out: List[JobRequest] = []
    for _ in range(jobs):
        out.append(
            JobRequest(
                kind=rng.choice(list(kinds)),
                design=design,
                scale=scale,
                seed=rng.randrange(1 << 16),
                flow_seed=rng.choice((0, 1)),
                priority=rng.choice(list(priorities)),
                client=rng.choice(list(clients)),
            )
        )
    return out
