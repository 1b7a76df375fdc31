"""Replaying a memory stream must cost O(1) Python calls, not O(addresses).

A machine-independent gate in the style of ``tests/service/test_scaling.py``:
cProfile's primitive-call count is exact and repeatable, so the gate reads
no clock.  ``Instrument.mem`` on 100,000 addresses must make the same
number of Python function calls as on 1,000, give or take a constant.  It
made about five per sampled address when each address went through
``CacheLevel.access`` calls, the ``num_sets`` property and an ``int()``
generator.  Built-in calls are not counted (``builtins=False``): the
``OrderedDict`` methods that move a line to the MRU end or evict the LRU
line are the simulated cache's own per-access work, while every counted
call is interpreter overhead around it.
"""

import cProfile
import pstats
import random

import pytest

from repro.perf.instrument import make_instrument

SMALL, LARGE = 1_000, 100_000
MAX_EXTRA_CALLS = 5


def mem_calls(n, sample_rate):
    rng = random.Random(0)
    # Two parts hot working set, one part cold scatter: hits and misses in
    # both levels.
    addresses = [
        rng.randrange(1 << 12) * 8 if i % 3 else rng.randrange(1 << 24)
        for i in range(n)
    ]
    inst = make_instrument(4, sample_rate=sample_rate)
    profiler = cProfile.Profile(builtins=False)
    profiler.enable()
    inst.mem(addresses, reads_per_element=4)
    profiler.disable()
    counters = inst.counters
    assert counters.mem_accesses == 4 * n
    assert min(counters.l1_hits, counters.llc_hits, counters.llc_misses) > 0
    return pstats.Stats(profiler).prim_calls


@pytest.mark.parametrize("sample_rate", [1, 2])
def test_mem_call_count_does_not_grow_with_the_stream(sample_rate):
    small, large = mem_calls(SMALL, sample_rate), mem_calls(LARGE, sample_rate)
    assert large - small < MAX_EXTRA_CALLS, (
        f"{LARGE} addresses made {large} calls vs {small} for {SMALL} "
        f"(gate: fewer than {MAX_EXTRA_CALLS} more)"
    )
