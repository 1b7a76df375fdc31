"""The tracer must only add timing: originals come back, nesting is exact."""

import time

import pytest

from edabench.tracing import LAYER_TARGETS, Target, Tracer, _resolve


def _originals(targets):
    return {t.where: vars(_resolve(t.where)[0])[_resolve(t.where)[1]] for t in targets}


def test_wrappers_restore_the_original_functions():
    before = _originals(LAYER_TARGETS)
    with Tracer():
        during = _originals(LAYER_TARGETS)
        assert all(during[w] is not before[w] for w in before)
    assert _originals(LAYER_TARGETS) == before


def test_wrappers_restored_when_the_block_raises():
    before = _originals(LAYER_TARGETS)
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert _originals(LAYER_TARGETS) == before


def test_a_bad_target_installs_nothing():
    before = _originals(LAYER_TARGETS)
    bad = LAYER_TARGETS[:3] + (Target("x", "repro.core.optimize:no_such_fn"),)
    with pytest.raises(AttributeError):
        with Tracer(bad):
            pass
    assert _originals(LAYER_TARGETS) == before


def leaf():
    time.sleep(0.002)


def inner():
    leaf()
    time.sleep(0.002)


def outer():
    inner()
    leaf()
    return "result"


def test_self_time_subtracts_children_and_parents_link_up():
    targets = (
        Target("t.outer", f"{__name__}:outer"),
        Target("t.inner", f"{__name__}:inner"),
        Target("t.leaf", f"{__name__}:leaf", store=False, count=lambda a, k: 3),
    )
    tracer = Tracer(targets)
    with tracer:
        assert outer() == "result"
    assert tracer.calls("t.leaf") == 2 and tracer.events("t.leaf") == 6
    outer_agg, inner_agg = tracer.aggs["t.outer"], tracer.aggs["t.inner"]
    leaf_agg = tracer.aggs["t.leaf"]
    total = outer_agg.self_ns + inner_agg.self_ns + leaf_agg.self_ns
    assert total == outer_agg.total_ns
    assert inner_agg.self_ns < inner_agg.total_ns
    names = [s[0] for s in tracer.spans]
    assert names == ["t.outer", "t.inner"]  # the leaf is aggregated only
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert tracer.self_s("t") == pytest.approx(outer_agg.total_ns / 1e9)


def test_bypass_checks_flag_a_layer_used_or_dropped():
    from edabench.harness import PER_LAYER, _bypass
    from edabench.workloads import Sample

    sample = Sample(wall_s=1.0, timings={"jobs": 0}, output={})
    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update({"eda.flow_calls": 18, "gnn.samples": 520})
    assert _bypass("predict", metrics, Tracer(()), sample) == []
    metrics["perf.mem_events"] = 5  # the perf model ran on the uninstrumented path
    assert any("perf.mem_events" in p for p in _bypass("predict", metrics, Tracer(()), sample))
    metrics.update({"perf.mem_events": 0, "gnn.samples": 0})  # training skipped
    assert any("gnn.samples" in p for p in _bypass("predict", metrics, Tracer(()), sample))
