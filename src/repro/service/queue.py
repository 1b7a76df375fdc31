"""Priority job queue and admission control (bounded depth, rate limit).

The queue is a binary heap ordered by ``(-priority, seq)``: higher
priority first, and *within* a priority strictly first-in-first-out by
admission sequence number — the tie-break is deterministic by
construction, never by heap internals, which is what makes a seeded
arrival schedule produce one canonical service order.

Admission is refused with **typed** errors before a job object is ever
created:

* :class:`~repro.service.errors.QueueFullError` (503) once the bounded
  queue holds ``depth`` undelivered jobs,
* :class:`~repro.service.errors.RateLimitedError` (429, with a
  ``retry_after_seconds`` hint) once the submitting client's token
  bucket runs dry,
* :class:`~repro.service.errors.ServiceDrainingError` (503) once the
  service began draining.

The queue alone decides what "queued" means: it keeps the count of
undelivered jobs, and :meth:`JobQueue.cancel` is the only way a job
leaves ``queued`` without being popped.  Nothing outside it scans the
heap to count.

The token bucket is clock-injected: service sessions use a tick clock,
tests a manual clock — refill arithmetic is identical everywhere.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from .errors import QueueFullError, RateLimitedError, ServiceDrainingError
from .jobs import Job, JobState

__all__ = ["TokenBucket", "JobQueue", "AdmissionController"]


class TokenBucket:
    """Per-client token buckets: ``capacity`` burst, ``refill_per_second``.

    A fresh client starts with a full bucket.  ``try_acquire`` either
    takes one token and returns ``None``, or returns the number of
    seconds until one token will be available (the 429 retry hint).
    """

    def __init__(
        self,
        capacity: float,
        refill_per_second: float,
        clock: Callable[[], float],
    ):
        if capacity < 1:
            raise ValueError("token bucket capacity must be >= 1")
        if refill_per_second <= 0:
            raise ValueError("refill rate must be positive")
        self.capacity = float(capacity)
        self.refill_per_second = float(refill_per_second)
        self.clock = clock
        #: client -> (tokens, last refill time)
        self._buckets: Dict[str, Tuple[float, float]] = {}

    def _refill(self, client: str, now: float) -> float:
        tokens, last = self._buckets.get(client, (self.capacity, now))
        tokens = min(
            self.capacity, tokens + (now - last) * self.refill_per_second
        )
        return tokens

    def tokens(self, client: str) -> float:
        """Current token count for ``client`` (refilled to now)."""
        return self._refill(client, self.clock())

    def try_acquire(self, client: str) -> Optional[float]:
        """Take one token; returns ``None`` on success, retry-after secs
        when the bucket is dry."""
        now = self.clock()
        tokens = self._refill(client, now)
        if tokens >= 1.0:
            self._buckets[client] = (tokens - 1.0, now)
            return None
        self._buckets[client] = (tokens, now)
        return (1.0 - tokens) / self.refill_per_second


class JobQueue:
    """Bounded max-priority queue with deterministic FIFO tie-breaking.

    ``depth`` bounds the number of *undelivered* jobs.  The queue owns
    that count: ``push`` raises it, and ``pop`` and :meth:`cancel` lower
    it, so ``__len__`` is O(1).  A job cancelled while queued stops
    counting toward the bound at once (a cancelled backlog can never
    wedge admission); its heap entry is discarded lazily at ``pop``.
    """

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.depth = depth
        self._heap: List[Tuple[int, int, Job]] = []
        self._queued = 0

    def __len__(self) -> int:
        return self._queued

    @property
    def full(self) -> bool:
        return self._queued >= self.depth

    def push(self, job: Job) -> None:
        """Enqueue an admitted job; raises :class:`QueueFullError`."""
        if self.full:
            raise QueueFullError(
                f"queue is at capacity ({self.depth} jobs)",
                depth=self.depth,
            )
        heapq.heappush(self._heap, (-job.request.priority, job.seq, job))
        self._queued += 1

    def pop(self) -> Optional[Job]:
        """Highest-priority, earliest-admitted live job; ``None`` if empty.

        Jobs cancelled while queued are dropped here, never returned.
        """
        while self._heap:
            _, _, job = heapq.heappop(self._heap)
            if job.state is JobState.QUEUED:
                self._queued -= 1
                return job
        return None

    def cancel(self, job: Job, now: float) -> None:
        """Cancel a job still waiting in the queue, at service time ``now``.

        The only way a job leaves ``queued`` without being popped.
        """
        if job.state is not JobState.QUEUED:
            raise ValueError(
                f"job {job.job_id} is {job.state.value}, not queued"
            )
        job.transition(JobState.CANCELLED, now)
        self._queued -= 1

    def snapshot(self) -> List[str]:
        """Job ids in exact delivery order (non-destructive, for tests)."""
        return [
            job.job_id
            for _, _, job in sorted(self._heap)
            if job.state is JobState.QUEUED
        ]


class AdmissionController:
    """Gate in front of the queue: draining, rate limit, then depth.

    Check order is fixed (draining -> request validation -> rate limit ->
    queue depth) so a given request always fails with the same typed
    error — rejection streams are as deterministic as admissions.
    """

    def __init__(
        self,
        queue: JobQueue,
        rate_limiter: Optional[TokenBucket] = None,
    ):
        self.queue = queue
        self.rate_limiter = rate_limiter
        self.draining = False
        self.admitted = 0
        self.rejected: Dict[str, int] = {}

    def _reject(self, exc) -> None:
        self.rejected[exc.code] = self.rejected.get(exc.code, 0) + 1
        raise exc

    def admit(self, job: Job) -> None:
        """Admit ``job`` into the queue or raise a typed rejection."""
        if self.draining:
            self._reject(
                ServiceDrainingError(
                    "service is draining; not accepting new jobs"
                )
            )
        if self.rate_limiter is not None:
            retry_after = self.rate_limiter.try_acquire(job.request.client)
            if retry_after is not None:
                self._reject(
                    RateLimitedError(
                        f"client {job.request.client!r} is over its rate "
                        f"limit; retry in {retry_after:.3f}s",
                        client=job.request.client,
                        retry_after_seconds=retry_after,
                    )
                )
        if self.queue.full:
            self._reject(
                QueueFullError(
                    f"queue is at capacity ({self.queue.depth} jobs)",
                    depth=self.queue.depth,
                )
            )
        self.queue.push(job)
        self.admitted += 1
