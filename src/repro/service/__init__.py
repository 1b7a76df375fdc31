"""EDA-flow-as-a-service: async job layer over the full pipeline.

The paper frames cloud EDA as many concurrent flows competing for
shared capacity; this package serves the repo's characterize ->
predict -> plan (MCKP) -> execute pipeline as *jobs* behind a
framework-free, stdlib-asyncio service:

* :mod:`repro.service.errors`  — typed rejection taxonomy (429/503/...)
  with structured response documents,
* :mod:`repro.service.jobs`    — requests, validated lifecycle states,
  cooperative cancellation/timeout contexts, run-store persistence,
* :mod:`repro.service.queue`   — bounded priority queue (deterministic
  FIFO tie-break), per-client token buckets, admission control,
* :mod:`repro.service.pool`    — asyncio worker pool running jobs
  inline on the event loop (replayable sessions), graceful drain,
  guaranteed slot release,
* :mod:`repro.service.runners` — job kinds mapped onto the pipeline,
  with a memoized characterization flow,
* :mod:`repro.service.api`     — the in-process request API
  (submit/status/cancel/evict), the one synchronous session driver
  (CLI, chaos storms, benchmark), and the byte-stable session log,
* :mod:`repro.service.sweep`   — the deterministic concurrency sweep
  that locates the throughput knee for the bench gate.

Everything is deterministic by default: tick clocks, inline workers,
and whole-batch admission make a seeded session a pure function of its
requests — the property the acceptance tests replay twice and diff.
"""

from .api import (
    EDAService,
    ServiceConfig,
    SessionResult,
    run_session,
    seeded_job_mix,
    session_log,
)
from .errors import (
    ERROR_CODES,
    InvalidRequestError,
    JobCancelled,
    JobEvicted,
    JobNotFoundError,
    JobTimeout,
    NotCancellableError,
    QueueFullError,
    RateLimitedError,
    ServiceDrainingError,
    ServiceError,
)
from .jobs import (
    JOB_KINDS,
    TERMINAL_STATES,
    Job,
    JobContext,
    JobRequest,
    JobState,
    job_to_run,
)
from .pool import WorkerPool
from .queue import AdmissionController, JobQueue, TokenBucket
from .runners import PipelineRunner
from .sweep import DEFAULT_LEVELS, run_sweep, simulated_makespan

__all__ = [
    "AdmissionController",
    "DEFAULT_LEVELS",
    "EDAService",
    "ERROR_CODES",
    "InvalidRequestError",
    "JOB_KINDS",
    "Job",
    "JobCancelled",
    "JobContext",
    "JobEvicted",
    "JobNotFoundError",
    "JobQueue",
    "JobRequest",
    "JobState",
    "JobTimeout",
    "NotCancellableError",
    "PipelineRunner",
    "QueueFullError",
    "RateLimitedError",
    "ServiceConfig",
    "ServiceDrainingError",
    "ServiceError",
    "SessionResult",
    "TERMINAL_STATES",
    "TokenBucket",
    "WorkerPool",
    "job_to_run",
    "run_session",
    "run_sweep",
    "seeded_job_mix",
    "session_log",
    "simulated_makespan",
]
