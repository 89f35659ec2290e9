"""Unit + property tests for counters, histograms, series, fairness."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics.counters import Counter, PacketCounter
from repro.metrics.fairness import jain_index
from repro.metrics.histogram import CycleHistogram, SlidingWindowEstimator
from repro.metrics.report import format_value, render_table
from repro.metrics.timeseries import IntervalSampler, TimeSeries
from repro.sim.clock import MSEC, SEC
from repro.sim.engine import EventLoop


class TestCounters:
    def test_counter_accumulates(self):
        c = Counter("x")
        c.add()
        c.add(5)
        assert c.value == 6
        assert int(c) == 6

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").add(-1)

    def test_packet_counter(self):
        c = PacketCounter("rx")
        c.add(10, 640)
        assert (c.packets, c.bytes) == (10, 640)
        c.reset()
        assert (c.packets, c.bytes) == (0, 0)

    def test_packet_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            PacketCounter().add(-1, 0)


class TestCycleHistogram:
    def test_empty(self):
        h = CycleHistogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0

    def test_mean_exact(self):
        h = CycleHistogram()
        for v in (100, 200, 300):
            h.add(v)
        assert h.mean == pytest.approx(200.0)
        assert h.min == 100
        assert h.max == 300

    def test_median_within_bucket_resolution(self):
        h = CycleHistogram(bins_per_octave=8)
        for v in (100,) * 50 + (1000,) * 49:
            h.add(v)
        # Median rank falls in the 100-cycle bucket.
        assert h.median() == pytest.approx(100, rel=0.15)

    def test_percentile_ordering(self):
        h = CycleHistogram()
        for v in range(1, 1000):
            h.add(float(v))
        assert h.percentile(10) <= h.percentile(50) <= h.percentile(95)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CycleHistogram().add(-1)

    def test_bad_percentile_rejected(self):
        with pytest.raises(ValueError):
            CycleHistogram().percentile(101)

    def test_reset(self):
        h = CycleHistogram()
        h.add(50)
        h.reset()
        assert h.count == 0
        assert h.min is None

    @given(st.lists(st.floats(min_value=1, max_value=1e7), min_size=1,
                    max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_percentile_within_relative_error(self, values):
        """Log buckets: percentile estimates within one bucket width
        (~19 % for 4 bins/octave) of the true order statistic."""
        h = CycleHistogram(bins_per_octave=4)
        for v in values:
            h.add(v)
        import math

        true_median = sorted(values)[max(0, math.ceil(len(values) / 2) - 1)]
        estimate = h.median()
        assert estimate == pytest.approx(true_median, rel=0.25)


class TestSlidingWindow:
    def test_median_over_window(self):
        est = SlidingWindowEstimator(window_ns=100)
        for t, v in ((0, 10.0), (10, 30.0), (20, 20.0)):
            est.add(t, v)
        assert est.median(20) == 20.0

    def test_eviction_outside_window(self):
        est = SlidingWindowEstimator(window_ns=100)
        est.add(0, 999.0)
        est.add(200, 1.0)
        assert est.median(200) == 1.0
        assert len(est) == 1

    def test_even_count_median_interpolates(self):
        est = SlidingWindowEstimator(window_ns=1000)
        est.add(0, 10.0)
        est.add(1, 20.0)
        assert est.median(1) == 15.0

    def test_empty_returns_none(self):
        est = SlidingWindowEstimator(window_ns=100)
        assert est.median(0) is None
        assert est.mean(0) is None

    def test_warmup_discard(self):
        """The paper discards the first 10 samples (§4.3.8)."""
        est = SlidingWindowEstimator(window_ns=10 ** 9, warmup_discard=10)
        for i in range(10):
            est.add(i, 9999.0)
        assert est.median(9) is None
        est.add(10, 5.0)
        assert est.median(10) == 5.0

    def test_mean(self):
        est = SlidingWindowEstimator(window_ns=1000)
        est.add(0, 10.0)
        est.add(1, 30.0)
        assert est.mean(1) == 20.0


class TestJainIndex:
    def test_equal_allocations(self):
        assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_winner(self):
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_and_zero(self):
        assert jain_index([]) == 1.0
        assert jain_index([0, 0]) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_index([1, -1])

    def test_paper_example_direction(self):
        """Fig 15b: the skewed default allocation scores far below the
        near-equal NFVnice one."""
        default = [1.02e6, 0.5e6, 0.3e6, 0.1e6, 0.08e6, 0.07e6]
        nfvnice = [80e3] * 6
        assert jain_index(default) < 0.7
        assert jain_index(nfvnice) == pytest.approx(1.0)

    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1,
                    max_size=50))
    @example([3.0083857721902698e-161] * 2)  # squares go subnormal
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, values):
        j = jain_index(values)
        assert 1.0 / len(values) - 1e-9 <= j <= 1.0 + 1e-9

    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1,
                    max_size=30), st.floats(min_value=0.01, max_value=100))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, values, scale):
        assert jain_index(values) == pytest.approx(
            jain_index([v * scale for v in values]), rel=1e-6)


class TestTimeSeries:
    def test_append_and_summary(self):
        ts = TimeSeries("x")
        for t, v in ((0, 1.0), (1, 3.0), (2, 2.0)):
            ts.append(t, v)
        assert ts.summary() == (2.0, 1.0, 3.0)
        assert ts.last() == 2.0
        assert len(ts) == 3

    def test_append_only(self):
        ts = TimeSeries("x")
        ts.append(10, 1.0)
        with pytest.raises(ValueError):
            ts.append(5, 2.0)

    def test_between(self):
        ts = TimeSeries("x")
        for t in range(10):
            ts.append(t, float(t))
        window = ts.between(3, 7)
        assert window.times == [3, 4, 5, 6]

    def test_empty_summary(self):
        assert TimeSeries("x").summary() == (0.0, 0.0, 0.0)


class TestIntervalSampler:
    def test_rate_probe(self):
        loop = EventLoop()
        counter = Counter()
        sampler = IntervalSampler(loop, SEC)
        sampler.add_probe("c", lambda: counter.value)
        sampler.start()
        # 1000 increments per simulated second via a periodic bump.
        from repro.sim.process import PeriodicProcess

        bump = PeriodicProcess(loop, MSEC, lambda: counter.add(1))
        bump.start()
        loop.run_until(3 * SEC)
        series = sampler["c"]
        assert len(series) == 3
        for _t, v in series:
            assert v == pytest.approx(1000.0, rel=0.01)

    def test_value_probe(self):
        loop = EventLoop()
        sampler = IntervalSampler(loop, SEC)
        sampler.add_probe("now", lambda: loop.now, rate=False)
        sampler.start()
        loop.run_until(2 * SEC)
        assert sampler["now"].values == [SEC, 2 * SEC]

    def test_duplicate_probe_rejected(self):
        sampler = IntervalSampler(EventLoop(), SEC)
        sampler.add_probe("x", lambda: 0)
        with pytest.raises(ValueError):
            sampler.add_probe("x", lambda: 0)


class TestReport:
    def test_format_value(self):
        assert format_value(1_500_000.0) == "1.5M"
        assert format_value(2_500.0) == "2.5K"
        assert format_value(3.25e9) == "3.25G"
        assert format_value(0.5) == "0.5"
        assert format_value(0) in ("0", "0.0")
        assert format_value(12345) == "12,345"
        assert format_value("text") == "text"

    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2], [333, 4]], title="T")
        lines = out.splitlines()
        assert "=== T ===" in lines[1]
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1  # all rows equally wide

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])
