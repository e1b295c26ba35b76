"""Unit tests for the benchmark's metric helpers (tiny inputs, no repro runs)."""

from __future__ import annotations

import pytest

from perfbench.layers import LayerProbe
from perfbench.measure import (
    MIN_TAIL,
    SelfTimer,
    VisibilityTracker,
    percentile,
    samples_beyond,
    summarize_ms,
    supported,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- percentiles -------------------------------------------------------------
def test_percentile_is_nearest_rank_sample():
    values = list(range(100, 0, -1))  # 100..1, unsorted on purpose
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.90) == 90
    assert percentile(values, 0.99) == 99
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


def test_percentile_rule_needs_ten_samples_beyond():
    assert MIN_TAIL == 10
    assert samples_beyond(100, 0.90) == 10 and supported(100, 0.90)
    assert samples_beyond(99, 0.90) == 9 and not supported(99, 0.90)
    assert supported(1000, 0.99) and not supported(999, 0.99)
    assert samples_beyond(0, 0.5) == 0


def test_summarize_reports_counts_beyond_each_percentile():
    summary = summarize_ms([i / 1000 for i in range(1, 101)], (0.5, 0.9))
    assert summary["n"] == 100
    assert summary["p50"] == pytest.approx(50.0)
    assert summary["p90"] == pytest.approx(90.0)
    assert summary["p90_beyond"] == 10 and summary["p90_supported"]
    assert summary["p50_beyond"] == 50
    assert not summarize_ms([0.001] * 50, (0.99,))["p99_supported"]


# -- self time ---------------------------------------------------------------
def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    timer = SelfTimer(clock)
    timer.enter("outer")  # [0, 10]
    clock.now = 2.0
    timer.enter("child")  # [2, 5]
    clock.now = 3.0
    timer.enter("grandchild")  # [3, 4]
    clock.now = 4.0
    timer.leave()
    clock.now = 5.0
    timer.leave()
    clock.now = 6.0
    timer.enter("other")  # [6, 7]
    clock.now = 7.0
    timer.leave()
    clock.now = 10.0
    timer.leave()
    assert timer.self_time == {"outer": 6.0, "child": 2.0, "grandchild": 1.0, "other": 1.0}
    assert timer.busy == {"outer": 10.0, "child": 3.0, "grandchild": 1.0, "other": 1.0}
    assert timer.total_self() == pytest.approx(10.0)  # covers the wall exactly


def test_reentrant_span_counts_busy_and_calls_once():
    clock = FakeClock()
    timer = SelfTimer(clock)
    timer.enter("graph")  # update_object [0, 10] ...
    clock.now = 2.0
    timer.enter("graph")  # ... calling remove_object [2, 4]
    clock.now = 4.0
    timer.leave()
    clock.now = 10.0
    timer.leave()
    assert timer.busy["graph"] == 10.0
    assert timer.calls["graph"] == 1
    assert timer.self_time["graph"] == pytest.approx(10.0)


def test_counts_only_while_enabled():
    timer = SelfTimer()
    timer.count("x")
    assert timer.counts == {}
    timer.enabled = True
    timer.count("x", 3)
    assert timer.counts == {"x": 3}


# -- visibility --------------------------------------------------------------
def test_visibility_samples_fifo_until_first_invisible():
    tracker = VisibilityTracker()
    tracker.wrote("t", 1, started=0.0)
    tracker.wrote("t", 2, started=1.0)
    tracker.wrote("t", 3, started=2.0)
    visible: set[int] = set()
    assert tracker.probe("t", 2.5, visible.__contains__) == []
    visible.update({1, 3})  # 3 cannot be sampled while 2 is still pending
    assert tracker.probe("t", 4.0, visible.__contains__) == [1]
    visible.add(2)
    assert tracker.probe("t", 6.0, visible.__contains__) == [2, 3]
    assert tracker.samples == [4.0, 5.0, 4.0]
    assert tracker.pending("t") == 0


def test_visibility_drops_adds_removed_before_visible():
    tracker = VisibilityTracker()
    tracker.wrote("t", 1, started=0.0)
    tracker.wrote("t", 2, started=1.0)
    tracker.removed("t", 1)
    tracker.removed("t", 99)  # not pending: ignored
    assert tracker.superseded == 1
    assert tracker.probe("t", 3.0, lambda obj_id: True) == [2]
    assert tracker.samples == [2.0]


def test_visibility_excludes_adds_first_seen_after_final_flush():
    tracker = VisibilityTracker()
    tracker.wrote("a", 1, started=0.0)
    tracker.wrote("a", 2, started=0.5)
    tracker.wrote("b", 7, started=1.0)
    tracker.probe("a", 2.0, {1}.__contains__)
    # The final flush makes 2 visible; 7 never shows up.
    tracker.finish(lambda key, obj_id: obj_id == 2)
    assert tracker.samples == [2.0]
    assert tracker.excluded == 1
    assert tracker.never_visible == 1
    assert tracker.pending("a") == tracker.pending("b") == 0


# -- wrappers ------------------------------------------------------------------
class Toy:
    def work(self, n):
        return self.helper(n) + 1

    def helper(self, n):
        return n * 2


def test_probe_spans_wrap_and_unwrap_methods():
    timer = SelfTimer()
    probe = LayerProbe(timer, {})
    original_work = Toy.__dict__["work"]
    probe._patch(Toy, "work", probe._span("toy.work"))
    probe._patch(Toy, "helper", probe._span("toy.helper"))
    assert Toy().work(2) == 5
    assert timer.calls == {}  # disabled: pass-through, no accounting
    timer.enabled = True
    assert Toy().work(3) == 7
    assert timer.calls == {"toy.work": 1, "toy.helper": 1}
    assert timer.busy["toy.work"] >= timer.busy["toy.helper"]
    assert timer.self_time["toy.work"] == pytest.approx(
        timer.busy["toy.work"] - timer.busy["toy.helper"]
    )
    probe.uninstall()
    assert Toy.__dict__["work"] is original_work
