"""Branch predictor simulators.

The characterization in Figure 2-a attributes routing's high branch-miss
rate to data-dependent graph-search control flow (maze expansion order,
rip-up-and-reroute retries).  We reproduce the mechanism: the routing engine
emits its *actual* conditional outcomes (was this neighbour cheaper? was the
cell blocked?) and the predictors below try to predict them, exactly like
the hardware would.

Two predictors are provided:

* :class:`TwoBitPredictor` — the classic per-PC 2-bit saturating counter
  table (the default, matching mainstream hardware behaviour).
* :class:`GSharePredictor` — global-history XOR indexing, for the
  sensitivity ablation.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

__all__ = ["TwoBitPredictor", "GSharePredictor", "BranchStats"]


class BranchStats:
    """Mutable hit/miss tally shared by the predictor implementations."""

    def __init__(self) -> None:
        self.branches = 0
        self.misses = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.branches if self.branches else 0.0


class TwoBitPredictor:
    """Per-PC table of 2-bit saturating counters.

    Counter states: 0, 1 predict not-taken; 2, 3 predict taken.  Counters
    start weakly taken (2), matching common hardware reset behaviour.
    """

    def __init__(self, table_bits: int = 12):
        if table_bits < 1 or table_bits > 24:
            raise ValueError("table_bits must be in [1, 24]")
        self.table_size = 1 << table_bits
        self._table = bytearray([2] * self.table_size)
        self.stats = BranchStats()

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict branch at ``pc``; train on the true outcome; return hit."""
        index = pc % self.table_size
        counter = self._table[index]
        predicted_taken = counter >= 2
        hit = predicted_taken == taken
        self.stats.branches += 1
        if not hit:
            self.stats.misses += 1
        if taken:
            if counter < 3:
                self._table[index] = counter + 1
        else:
            if counter > 0:
                self._table[index] = counter - 1
        return hit

    def process(self, pcs: Sequence[int], outcomes: Sequence[bool]) -> int:
        """Run a stream of (pc, outcome) pairs; return the miss count added."""
        if len(pcs) != len(outcomes):
            raise ValueError("pcs and outcomes must have equal length")
        before = self.stats.misses
        table = self._table
        size = self.table_size
        stats = self.stats
        for pc, taken in zip(pcs, outcomes):
            index = pc % size
            counter = table[index]
            if (counter >= 2) != bool(taken):
                stats.misses += 1
            if taken:
                if counter < 3:
                    table[index] = counter + 1
            elif counter > 0:
                table[index] = counter - 1
        stats.branches += len(pcs)
        return self.stats.misses - before

    @property
    def miss_rate(self) -> float:
        return self.stats.miss_rate


class GSharePredictor:
    """Gshare: 2-bit counters indexed by PC XOR global history."""

    def __init__(self, table_bits: int = 12, history_bits: int = 8):
        if table_bits < 1 or table_bits > 24:
            raise ValueError("table_bits must be in [1, 24]")
        if history_bits < 0 or history_bits > 24:
            raise ValueError("history_bits must be in [0, 24]")
        self.table_size = 1 << table_bits
        self.history_mask = (1 << history_bits) - 1
        self._table = bytearray([2] * self.table_size)
        self._history = 0
        self.stats = BranchStats()

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        index = (pc ^ self._history) % self.table_size
        counter = self._table[index]
        predicted_taken = counter >= 2
        hit = predicted_taken == taken
        self.stats.branches += 1
        if not hit:
            self.stats.misses += 1
        if taken:
            if counter < 3:
                self._table[index] = counter + 1
        else:
            if counter > 0:
                self._table[index] = counter - 1
        self._history = ((self._history << 1) | int(taken)) & self.history_mask
        return hit

    def process(self, pcs: Sequence[int], outcomes: Sequence[bool]) -> int:
        """Run a stream of (pc, outcome) pairs; return the miss count added."""
        if len(pcs) != len(outcomes):
            raise ValueError("pcs and outcomes must have equal length")
        before = self.stats.misses
        for pc, taken in zip(pcs, outcomes):
            self.predict_and_update(pc, bool(taken))
        return self.stats.misses - before

    @property
    def miss_rate(self) -> float:
        return self.stats.miss_rate
