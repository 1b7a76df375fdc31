"""Service bookkeeping must scale linearly in the number of jobs.

A machine-independent gate: with a runner that does nothing but its
checkpoint, every Python call a session makes is service bookkeeping
(submit, queue, pool, terminal hooks).  Ten times the jobs must cost
well under thirteen times the calls; a per-job scan of the queue or of
the job table makes the ratio grow with n instead (it was 75 when
``JobQueue.__len__`` and ``EDAService.all_terminal`` scanned).
cProfile's primitive-call count is exact and repeatable, so the gate
reads no clock.
"""

import cProfile
import pstats

from repro.service import JobRequest, ServiceConfig, run_session

SMALL, LARGE = 200, 2000
MAX_CALL_RATIO = 13.0


def noop_runner(job, ctx):
    ctx.checkpoint()
    return {}


def session_calls(n):
    requests = [JobRequest(kind="sleep", priority=i % 2) for i in range(n)]
    config = ServiceConfig(workers=2, queue_depth=n)
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_session(requests, config, runner=noop_runner)
    profiler.disable()
    assert result.accepted == n
    assert len(result.completion_order) == n
    return pstats.Stats(profiler).prim_calls


def test_session_call_count_scales_linearly():
    small, large = session_calls(SMALL), session_calls(LARGE)
    ratio = large / small
    assert ratio < MAX_CALL_RATIO, (
        f"{LARGE} jobs made {large} calls vs {small} for {SMALL} "
        f"(ratio {ratio:.1f}, gate {MAX_CALL_RATIO})"
    )
