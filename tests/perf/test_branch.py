"""Tests for the branch predictor simulators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.perf.branch import GSharePredictor, TwoBitPredictor


class TestTwoBit:
    def test_always_taken_converges(self):
        p = TwoBitPredictor()
        misses = p.process([7] * 100, [True] * 100)
        assert misses <= 1  # counters start weakly-taken

    def test_always_not_taken_converges(self):
        p = TwoBitPredictor()
        misses = p.process([7] * 100, [False] * 100)
        assert misses <= 2  # at most the warm-up transitions

    def test_alternating_pattern_confuses_2bit(self):
        p = TwoBitPredictor()
        outcomes = [i % 2 == 0 for i in range(200)]
        misses = p.process([3] * 200, outcomes)
        assert misses >= 80  # the classic 2-bit pathological case

    def test_biased_stream_low_misses(self):
        import random

        rng = random.Random(0)
        outcomes = [rng.random() < 0.95 for _ in range(1000)]
        p = TwoBitPredictor()
        misses = p.process([1] * 1000, outcomes)
        assert misses / 1000 < 0.15

    def test_distinct_sites_do_not_alias(self):
        p = TwoBitPredictor(table_bits=12)
        p.process([0] * 50, [True] * 50)
        misses = p.process([1], [False])
        # site 1 is fresh (weakly taken) -> one miss, unaffected by site 0
        assert misses == 1

    def test_process_equals_predict_and_update(self):
        import random

        rng = random.Random(5)
        pcs = [rng.randrange(64) for _ in range(300)]
        outcomes = [rng.random() < 0.6 for _ in range(300)]
        p1 = TwoBitPredictor(table_bits=6)
        p2 = TwoBitPredictor(table_bits=6)
        batch_misses = p1.process(pcs, outcomes)
        loop_misses = sum(
            0 if p2.predict_and_update(pc, o) else 1 for pc, o in zip(pcs, outcomes)
        )
        assert batch_misses == loop_misses

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            TwoBitPredictor().process([1, 2], [True])

    def test_table_bits_validation(self):
        with pytest.raises(ValueError):
            TwoBitPredictor(table_bits=0)

    @given(st.lists(st.booleans(), min_size=1, max_size=400))
    @settings(max_examples=50, deadline=None)
    def test_miss_count_bounded(self, outcomes):
        p = TwoBitPredictor()
        misses = p.process([9] * len(outcomes), outcomes)
        assert 0 <= misses <= len(outcomes)
        assert p.stats.branches == len(outcomes)
        assert p.miss_rate == pytest.approx(misses / len(outcomes))


class TestGShare:
    def test_learns_global_pattern(self):
        """Gshare learns a period-2 global pattern that defeats 2-bit."""
        outcomes = [i % 2 == 0 for i in range(400)]
        g = GSharePredictor(table_bits=10, history_bits=4)
        t = TwoBitPredictor(table_bits=10)
        g_misses = g.process([3] * 400, outcomes)
        t_misses = t.process([3] * 400, outcomes)
        assert g_misses < t_misses

    def test_stats(self):
        g = GSharePredictor()
        g.process([1] * 10, [True] * 10)
        assert g.stats.branches == 10
        assert 0 <= g.miss_rate <= 1

    def test_length_mismatch_rejected(self):
        g = GSharePredictor()
        with pytest.raises(ValueError, match="equal length"):
            g.process([1, 2, 3], [True, False])
        assert g.stats.branches == 0

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"table_bits": 0}, "table_bits"),
            ({"table_bits": 25}, "table_bits"),
            ({"table_bits": -1}, "table_bits"),
            ({"history_bits": -1}, "history_bits"),
            ({"history_bits": 25}, "history_bits"),
        ],
    )
    def test_bits_validation(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            GSharePredictor(**kwargs)

    def test_zero_history_bits_is_a_per_pc_table(self):
        """With no history gshare indexes by pc alone, like the 2-bit table."""
        outcomes = [i % 3 != 0 for i in range(300)]
        pcs = [i % 5 for i in range(300)]
        g = GSharePredictor(table_bits=10, history_bits=0)
        t = TwoBitPredictor(table_bits=10)
        assert g.process(pcs, outcomes) == t.process(pcs, outcomes)
