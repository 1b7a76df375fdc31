"""Priority queue, token bucket, and admission-control properties."""

import random

import pytest

from repro.service import (
    AdmissionController,
    Job,
    JobQueue,
    JobRequest,
    JobState,
    QueueFullError,
    RateLimitedError,
    ServiceDrainingError,
    TokenBucket,
)


def make_job(seq, priority=0, client="default"):
    return Job(
        job_id=f"job-{seq:04d}",
        request=JobRequest(kind="sleep", priority=priority, client=client),
        seq=seq,
    )


class ManualClock:
    """A clock the test advances explicitly."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTokenBucket:
    def test_fresh_client_starts_full(self):
        clock = ManualClock()
        bucket = TokenBucket(capacity=2, refill_per_second=1.0, clock=clock)
        assert bucket.tokens("alice") == 2.0
        assert bucket.try_acquire("alice") is None
        assert bucket.try_acquire("alice") is None

    def test_dry_bucket_returns_retry_after(self):
        clock = ManualClock()
        bucket = TokenBucket(capacity=2, refill_per_second=0.5, clock=clock)
        bucket.try_acquire("alice")
        bucket.try_acquire("alice")
        retry = bucket.try_acquire("alice")
        # Empty bucket at 0.5 tokens/s: one token is 2 seconds away.
        assert retry == pytest.approx(2.0)

    def test_refill_restores_tokens(self):
        clock = ManualClock()
        bucket = TokenBucket(capacity=1, refill_per_second=1.0, clock=clock)
        assert bucket.try_acquire("alice") is None
        assert bucket.try_acquire("alice") is not None
        clock.now = 1.0
        assert bucket.try_acquire("alice") is None

    def test_refill_caps_at_capacity(self):
        clock = ManualClock()
        bucket = TokenBucket(capacity=3, refill_per_second=1.0, clock=clock)
        bucket.try_acquire("alice")
        clock.now = 1000.0
        assert bucket.tokens("alice") == 3.0

    def test_clients_are_independent(self):
        clock = ManualClock()
        bucket = TokenBucket(capacity=1, refill_per_second=1.0, clock=clock)
        assert bucket.try_acquire("alice") is None
        assert bucket.try_acquire("alice") is not None
        assert bucket.try_acquire("bob") is None

    def test_invalid_parameters(self):
        clock = ManualClock()
        with pytest.raises(ValueError):
            TokenBucket(capacity=0, refill_per_second=1.0, clock=clock)
        with pytest.raises(ValueError):
            TokenBucket(capacity=1, refill_per_second=0.0, clock=clock)


class TestJobQueue:
    def test_higher_priority_pops_first(self):
        queue = JobQueue(depth=8)
        low, high = make_job(0, priority=0), make_job(1, priority=5)
        queue.push(low)
        queue.push(high)
        assert queue.pop() is high
        assert queue.pop() is low

    def test_fifo_within_priority(self):
        queue = JobQueue(depth=8)
        jobs = [make_job(seq, priority=1) for seq in range(5)]
        for job in jobs:
            queue.push(job)
        assert [queue.pop() for _ in jobs] == jobs

    def test_delivery_order_matches_sort_key(self):
        rng = random.Random(7)
        queue = JobQueue(depth=64)
        jobs = [make_job(seq, priority=rng.randint(0, 3)) for seq in range(20)]
        for job in jobs:
            queue.push(job)
        expected = sorted(jobs, key=lambda j: (-j.request.priority, j.seq))
        assert queue.snapshot() == [j.job_id for j in expected]
        popped = []
        while True:
            job = queue.pop()
            if job is None:
                break
            popped.append(job)
        assert popped == expected

    def test_depth_bound(self):
        queue = JobQueue(depth=2)
        queue.push(make_job(0))
        queue.push(make_job(1))
        assert queue.full
        with pytest.raises(QueueFullError):
            queue.push(make_job(2))

    def test_cancelled_jobs_free_capacity_immediately(self):
        queue = JobQueue(depth=2)
        victim = make_job(0)
        queue.push(victim)
        queue.push(make_job(1))
        queue.cancel(victim, 0.0)
        assert len(queue) == 1
        assert not queue.full
        queue.push(make_job(2))  # must not raise

    def test_pop_skips_cancelled(self):
        queue = JobQueue(depth=4)
        victim, survivor = make_job(0), make_job(1)
        queue.push(victim)
        queue.push(survivor)
        queue.cancel(victim, 0.0)
        assert queue.pop() is survivor
        assert queue.pop() is None

    def test_cancel_rejects_a_job_that_left_the_queue(self):
        queue = JobQueue(depth=4)
        job = make_job(0)
        queue.push(job)
        assert queue.pop() is job
        job.transition(JobState.RUNNING, 0.0)  # as the pool does
        with pytest.raises(ValueError):
            queue.cancel(job, 0.0)
        assert len(queue) == 0

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            JobQueue(depth=0)


class TestAdmissionController:
    def test_admits_and_counts(self):
        admission = AdmissionController(JobQueue(depth=4))
        admission.admit(make_job(0))
        admission.admit(make_job(1))
        assert admission.admitted == 2
        assert admission.rejected == {}

    def test_queue_full_rejection_is_typed_and_counted(self):
        admission = AdmissionController(JobQueue(depth=1))
        admission.admit(make_job(0))
        with pytest.raises(QueueFullError) as excinfo:
            admission.admit(make_job(1))
        assert excinfo.value.to_response()["error"]["code"] == "queue_full"
        assert admission.rejected == {"queue_full": 1}
        assert admission.admitted == 1

    def test_draining_rejects_before_anything_else(self):
        admission = AdmissionController(JobQueue(depth=1))
        admission.admit(make_job(0))  # queue now full
        admission.draining = True
        with pytest.raises(ServiceDrainingError):
            admission.admit(make_job(1))
        assert admission.rejected == {"draining": 1}

    def test_rate_limit_checked_before_queue_depth(self):
        clock = ManualClock()
        bucket = TokenBucket(capacity=1, refill_per_second=1.0, clock=clock)
        admission = AdmissionController(JobQueue(depth=1), rate_limiter=bucket)
        admission.admit(make_job(0, client="alice"))  # queue now full too
        with pytest.raises(RateLimitedError) as excinfo:
            admission.admit(make_job(1, client="alice"))
        details = excinfo.value.to_response()["error"]["details"]
        assert details["client"] == "alice"
        assert details["retry_after_seconds"] > 0
        assert admission.rejected == {"rate_limited": 1}

    def test_admission_never_exceeds_depth(self):
        rng = random.Random(11)
        for depth in (1, 2, 5):
            queue = JobQueue(depth=depth)
            admission = AdmissionController(queue)
            offered = depth + rng.randint(1, 5)
            outcomes = []
            for seq in range(offered):
                try:
                    admission.admit(make_job(seq, priority=rng.randint(0, 2)))
                    outcomes.append("ok")
                except QueueFullError:
                    outcomes.append("full")
            assert len(queue) <= depth
            assert admission.admitted == depth
            # The bound binds deterministically: first `depth` in, rest out.
            assert outcomes == ["ok"] * depth + ["full"] * (offered - depth)
