"""Tests of the benchmark's own helpers (not of the program).

    python3 -m pytest perfbench/test_helpers.py -q
"""

from __future__ import annotations

import math
import os
import random
import statistics
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402
from pace import REFERENCE_PROBE_S, Pace, probe  # noqa: E402
from proc import cpu_s_of, live_cpu_s_of  # noqa: E402
from spans import Recorder, _replace_reexports  # noqa: E402
from wl_serve import reload_lags  # noqa: E402


class TestPercentile:
    def test_matches_linear_interpolation(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert stats.percentile(values, 0) == 1.0
        assert stats.percentile(values, 50) == 3.0
        assert stats.percentile(values, 100) == 5.0
        assert stats.percentile(values, 25) == 2.0
        assert stats.percentile([0.0, 10.0], 99) == pytest.approx(9.9)

    def test_median_agrees_with_statistics(self):
        rng = random.Random(7)
        values = [rng.random() for _ in range(101)]
        assert stats.median(values) == statistics.median(values)

    def test_failures_count_as_missing_the_limit(self):
        values = [1.0] * 98 + [math.inf] * 2
        assert stats.percentile(values, 50) == 1.0
        assert stats.percentile(values, 99) == math.inf

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)
        with pytest.raises(ValueError):
            stats.percentile([1.0], 101)


class TestTail:
    def test_needs_ten_samples_beyond(self):
        assert stats.tail_quantile(1000) == 99.0
        assert stats.tail_quantile(200) == 95.0
        assert stats.tail_quantile(100) == 90.0
        # Too few samples for ten beyond p90: p90 all the same.
        assert stats.tail_quantile(15) == 90.0

    def test_tail_of_few_samples_is_p90(self):
        value, q = stats.tail([float(i) for i in range(11)])
        assert (value, q) == (pytest.approx(9.0), 90.0)


class TestSelfTime:
    def test_children_are_subtracted_from_their_parent_only(self):
        spans = [
            (1, None, "root", 0.0, 10.0),
            (2, 1, "a", 1.0, 4.0),
            (3, 2, "b", 2.0, 3.0),
            (4, 1, "b", 5.0, 7.0),
        ]
        out = stats.self_times(spans)
        assert out["root"] == (pytest.approx(5.0), 1)
        assert out["a"] == (pytest.approx(2.0), 1)
        assert out["b"] == (pytest.approx(3.0), 2)
        # Self times along the tree add up to the root's duration.
        assert sum(total for total, _ in out.values()) == pytest.approx(10.0)

    def test_recorder_nests_wrapped_calls(self):
        recorder = Recorder()

        def inner():
            time.sleep(0.01)

        wrapped_inner = recorder.wrap(inner, "inner")

        def outer():
            wrapped_inner()
            wrapped_inner()

        recorder.wrap(outer, "outer")()
        summary = recorder.summary()
        assert summary["inner"][1] == 2
        assert summary["outer"][1] == 1
        assert summary["outer"][0] < summary["inner"][0]
        assert summary["outer"][2] == pytest.approx(
            summary["outer"][0] + summary["inner"][0])

    def test_gc_time_is_a_child_span(self):
        import gc

        recorder = Recorder()
        recorder.watch_gc()
        try:
            token = recorder.begin("work")
            gc.collect()
            recorder.end(token)
        finally:
            recorder.unwatch_gc()
        spans = recorder.take()
        gc_spans = [s for s in spans if s[2] == "py.gc"]
        work = [s for s in spans if s[2] == "work"][0]
        assert gc_spans and all(s[1] == work[0] for s in gc_spans)
        assert recorder.spans == []

    def test_reexported_functions_are_replaced(self, monkeypatch):
        import types

        def original():
            return 1

        module = types.ModuleType("repro_perfbench_probe")
        module.f = original
        monkeypatch.setitem(sys.modules, "repro_perfbench_probe", module)
        wrapped = Recorder().wrap(original, "probe")
        _replace_reexports(original, wrapped)
        assert module.f is wrapped and module.f() == 1


class TestSchedules:
    def test_poisson_schedule_is_seeded_and_near_rate(self):
        first = stats.poisson_schedule(500, 4.0, random.Random(3))
        again = stats.poisson_schedule(500, 4.0, random.Random(3))
        assert first == again
        assert all(0 <= t < 4.0 for t in first)
        assert first == sorted(first)
        assert abs(len(first) - 2000) < 4 * math.sqrt(2000)

    def test_backlog_growing(self):
        due = [i / 100 for i in range(100)]
        keeping_up = [d + 0.005 for d in due]
        assert not stats.backlog_growing(due, keeping_up, 100, 0.05)
        # Completion falls further behind with every request.
        falling_behind = [d + 0.02 * i for i, d in enumerate(due)]
        assert stats.backlog_growing(due, falling_behind, 100, 0.05)
        never = [math.inf] * 100
        assert stats.backlog_growing(due, never, 100, 0.05)

    def test_geometric_ladder(self):
        assert stats.geometric_ladder(100, 2.0, 3) == [100, 200, 400]


class TestKnee:
    def test_interpolates_between_pass_and_fail(self):
        steps = [(100, 0.010, False), (200, 0.100, False)]
        # log(0.05) sits at (log 5 / log 10) of the way from 10 to 100 ms.
        expected = 100 + 100 * math.log(5) / math.log(10)
        assert stats.knee_rate(steps, 0.05) == pytest.approx(expected)

    def test_all_steps_passing_reports_the_last(self):
        assert stats.knee_rate([(100, 0.01, False), (200, 0.02, False)], 0.05) == 200

    def test_growing_backlog_fails_a_step(self):
        assert stats.knee_rate([(100, 0.01, False), (200, 0.02, True)], 0.05) == 100

    def test_first_step_failing_scales_down(self):
        assert stats.knee_rate([(100, 0.1, False)], 0.05) == pytest.approx(50)


def test_reload_lag_is_the_first_answer_naming_the_new_version():
    replaced = [(1.0, "b"), (2.0, "c"), (3.0, "d")]
    answered = [(0.5, "a"), (1.2, "a"), (1.3, "b"), (2.5, "b"), (2.6, "c")]
    lags = reload_lags(replaced, answered)
    assert lags[:2] == [pytest.approx(0.3), pytest.approx(0.6)]
    assert lags[2] is None


def test_spread_uses_statistics_quartiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def test_pace_scales_by_the_median_probe():
    pace = Pace([0.3, 0.1, 0.2])
    assert pace.probe_s() == pytest.approx(0.2)
    assert pace.scale(1.0) == pytest.approx(REFERENCE_PROBE_S / 0.2)
    pace.sample()
    assert len(pace.samples) == 4 and pace.samples[-1] > 0


def test_probe_leaves_the_collector_as_it_found_it():
    import gc

    assert gc.isenabled()
    probe()
    assert gc.isenabled()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs procfs")
def test_process_cpu_time_from_procfs_agrees_with_process_time():
    deadline = time.process_time() + 0.2
    while time.process_time() < deadline:
        pass
    own = time.process_time()
    # /proc/<pid>/stat counts clock ticks; schedstat counts nanoseconds.
    assert cpu_s_of(os.getpid()) == pytest.approx(own, abs=0.05)
    assert live_cpu_s_of(os.getpid()) == pytest.approx(own, abs=0.01)
