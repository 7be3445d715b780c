"""The shared metrics registry and its deterministic latency reservoir."""

from repro.obs.metrics import MAX_SAMPLES, LatencyStat, MetricsRegistry


class TestLatencyStat:
    def test_basic_aggregates(self):
        stat = LatencyStat()
        for ms in (1.0, 3.0, 2.0):
            stat.record(ms)
        assert stat.count == 3
        assert stat.total_ms == 6.0
        assert stat.mean_ms == 2.0
        assert stat.max_ms == 3.0
        assert stat.last_ms == 2.0

    def test_percentiles_small(self):
        stat = LatencyStat()
        for ms in range(1, 101):
            stat.record(float(ms))
        assert stat.percentile(50) in (50.0, 51.0)
        assert stat.percentile(99) in (99.0, 100.0)
        assert stat.percentile(0) == 1.0
        assert stat.percentile(100) == 100.0

    def test_percentile_nearest_rank_is_deterministic(self):
        """Regression: round-half-to-even (banker's rounding) made the
        rank depend on sample-count parity — p50 over [1, 2] picked
        index round(0.5) == 0, under-reporting the median."""
        stat = LatencyStat()
        stat.record(1.0)
        stat.record(2.0)
        assert stat.percentile(50) == 2.0

    def test_percentile_ties_round_up(self):
        # Six samples: p90 must be the 6th (rank ceil on the 0..n-1
        # scale), not the banker's-rounded 5th.
        stat = LatencyStat()
        for ms in (10.0, 20.0, 30.0, 40.0, 50.0, 60.0):
            stat.record(ms)
        assert stat.percentile(90) == 60.0
        assert stat.percentile(50) == 40.0
        assert stat.percentile(10) == 20.0  # ceil(0.5) -> rank 1

    def test_percentile_float_noise_does_not_inflate_rank(self):
        # 0.9 * 10 == 9.000000000000002: without an epsilon the ceil
        # would jump a whole rank on pure float noise.
        stat = LatencyStat()
        for ms in range(1, 12):
            stat.record(float(ms))
        assert stat.percentile(90) == 10.0

    def test_reservoir_stays_bounded(self):
        stat = LatencyStat()
        for i in range(MAX_SAMPLES * 5):
            stat.record(float(i))
        assert len(stat._samples) <= MAX_SAMPLES
        assert stat.count == MAX_SAMPLES * 5

    def test_stride_doubles_as_reservoir_fills(self):
        stat = LatencyStat()
        assert stat.sample_stride == 1
        for i in range(MAX_SAMPLES):
            stat.record(float(i))
        assert stat.sample_stride == 1
        stat.record(float(MAX_SAMPLES))
        assert stat.sample_stride == 2

    def test_percentiles_cover_whole_lifetime(self):
        """Regression: the old ring overwrite made percentiles describe
        only the last MAX_SAMPLES observations.

        Two thirds of this history is 1.0 ms, the final third 100.0 ms —
        but the 100s all arrive last, so a last-4096 window reports
        p50 = 100.0 while the lifetime median is 1.0.
        """
        stat = LatencyStat()
        for _ in range(2 * MAX_SAMPLES):
            stat.record(1.0)
        for _ in range(MAX_SAMPLES):
            stat.record(100.0)
        assert stat.count == 3 * MAX_SAMPLES
        assert stat.percentile(50) == 1.0
        assert stat.percentile(99) == 100.0
        # The reservoir is a systematic (every stride-th) sample, so the
        # population mix is preserved to within one stride.
        ones = sum(1 for s in stat._samples if s == 1.0)
        hundreds = sum(1 for s in stat._samples if s == 100.0)
        assert ones > hundreds

    def test_summary_keys(self):
        stat = LatencyStat()
        stat.record(5.0)
        summary = stat.summary()
        assert set(summary) == {
            "count", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms"
        }


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 2)
        m.set_gauge("g", 7)
        assert m.counter("a") == 3
        assert m.stats()["gauges"]["g"] == 7

    def test_latency_accessor(self):
        m = MetricsRegistry()
        m.observe("x", 10.0)
        assert m.latency("x").count == 1
        assert m.latency("fresh").count == 0
