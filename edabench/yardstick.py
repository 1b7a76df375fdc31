"""A fixed probe that measures how fast the host runs at a given moment.

The benchmark runs on a virtual machine shared with other load, whose
speed moves by up to 1.6x within seconds: the same operation, repeated in
one process, takes from 2.2 s to 4.2 s.  That drift swamps the medians of a
20 s run.  So each timed stretch is bracketed by two runs of :func:`probe`
(see :class:`Stopwatch`), and the end-to-end figures divide its duration
by the probes' mean ratio to :data:`REFERENCE_S`: they read as the time on
a host where the probe takes ``REFERENCE_S``.  The probe shares no code
with the program, so a change to the program moves the figures by its full
amount.
"""

from __future__ import annotations

import gc
import time

__all__ = ["REFERENCE_S", "REFERENCE_WITH_NUMPY_S", "probe", "host_factor", "Stopwatch"]

#: The probe's time on a quiet 2.1 GHz Xeon virtual machine, without and
#: with its numpy part (BLAS on one thread).
REFERENCE_S = 0.013
REFERENCE_WITH_NUMPY_S = 0.020


def probe(with_numpy: bool = False) -> float:
    """Seconds taken by a fixed task: interpreter work (arithmetic in a
    loop, then a dict of fresh strings and lists), which tracks the
    engines, the service and the fleet; ``with_numpy`` adds small matrix
    products through numpy, which track the GCN training better.  Each part
    tracks its own kind of work better than the two together do.

    The cyclic garbage collector is paused meanwhile: its passes cost in
    proportion to the caller's heap, which is not the host's speed.
    """
    if with_numpy:
        import numpy as np  # here, so that importing this module stays cheap

        base = np.linspace(-1.0, 1.0, 96 * 96).reshape(96, 96)
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        table = {}
        for i in range(20_000):
            table[str(i)] = [i]
        if with_numpy:
            x = base
            for _ in range(150):
                x = np.tanh(x @ base / 96 + base)
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    assert total and len(table) == 20_000
    return elapsed


def host_factor(with_numpy: bool = False) -> float:
    """How much slower than the reference the host runs right now."""
    reference = REFERENCE_WITH_NUMPY_S if with_numpy else REFERENCE_S
    return probe(with_numpy) / reference


class Stopwatch:
    """Times consecutive stretches of work, probing the host between them.

    The clock starts after a probe.  Each :meth:`lap` returns the seconds
    since the previous lap (or the start) and the host factor over that
    stretch, the mean of the probes at its two ends; the probes themselves
    fall outside every stretch.
    """

    def __init__(self, with_numpy: bool = False):
        self.with_numpy = with_numpy
        self.elapsed = 0.0  #: seconds in all laps, as measured
        self.at_reference = 0.0  #: the same at the reference host speed
        self._host = host_factor(with_numpy)
        self._start = time.perf_counter()

    def lap(self):
        took = time.perf_counter() - self._start
        host = host_factor(self.with_numpy)
        factor = (self._host + host) / 2
        self.elapsed += took
        self.at_reference += took / factor
        self._host = host
        self._start = time.perf_counter()
        return took, factor

    @property
    def host(self) -> float:
        """The host factor over all laps together."""
        return self.elapsed / self.at_reference if self.at_reference else 1.0
