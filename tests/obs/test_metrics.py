"""Metrics registry: shard merging, monotone counters, histogram math,
Prometheus rendering, and the determinism-cleanliness pin."""

import sys
import threading

import pytest

from repro.obs.metrics import (DEFAULT_SECONDS_BUCKETS, MetricsRegistry,
                               nearest_rank, render_prometheus, summarize)


class TestNearestRank:
    def test_odd_median_is_the_middle_element(self):
        assert nearest_rank([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0

    def test_even_median_is_lower_of_the_pair(self):
        # nearest-rank does not interpolate: ceil(0.5*10) = 5th element
        assert nearest_rank([float(i) for i in range(1, 11)], 0.5) == 5.0

    def test_extremes(self):
        data = [10.0, 20.0, 30.0]
        assert nearest_rank(data, 0.0) == 10.0
        assert nearest_rank(data, 1.0) == 30.0

    def test_summarize(self):
        assert summarize([]) is None
        assert summarize([3.0, 1.0, 2.0]) == {
            "min": 1.0, "p50": 2.0, "p90": 3.0, "max": 3.0, "count": 3}


class TestCounters:
    def test_labelled_cells_merge_sorted(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help text")
        counter.inc(route="/b")
        counter.inc(3, route="/a")
        counter.inc(route="/b")
        [family] = registry.scrape()
        assert family["type"] == "counter" and family["help"] == "help text"
        assert family["values"] == [
            {"labels": {"route": "/a"}, "value": 3},
            {"labels": {"route": "/b"}, "value": 2},
        ]

    def test_counters_are_monotone_across_scrapes(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        first = registry.scrape()[0]["values"][0]["value"]
        registry.scrape()                       # scrapes never reset
        counter.inc()
        second = registry.scrape()[0]["values"][0]["value"]
        assert (first, second) == (1, 2)

    def test_registration_is_idempotent_by_name(self):
        registry = MetricsRegistry()
        a = registry.counter("same_total")
        b = registry.counter("same_total")
        assert a is b
        with pytest.raises(ValueError):
            registry.gauge("same_total")

    def test_threaded_increments_all_land(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total")
        per_thread, threads = 2_000, 8

        def worker():
            for _ in range(per_thread):
                counter.inc()

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        [family] = registry.scrape()
        assert family["values"][0]["value"] == per_thread * threads

    def test_thread_death_does_not_lose_counts(self):
        registry = MetricsRegistry()
        counter = registry.counter("d_total")
        thread = threading.Thread(target=lambda: counter.inc(7))
        thread.start()
        thread.join()
        assert registry.scrape()[0]["values"][0]["value"] == 7

    def test_ended_threads_leave_their_shards_to_new_ones(self):
        """1,000 short-lived threads, four at a time, each count 20
        times: the shard list stays at the four that wrote at once, and
        no update is lost (two live threads sharing a shard would lose
        some with threads switching this often)."""
        registry = MetricsRegistry()
        counter = registry.counter("short_total")
        wall = registry.histogram("short_seconds")

        def worker():
            for _ in range(20):
                counter.inc()
            wall.observe(0.002)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(250):
                wave = [threading.Thread(target=worker) for _ in range(4)]
                for thread in wave:
                    thread.start()
                for thread in wave:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in wave)
        finally:
            sys.setswitchinterval(interval)
        assert len(registry._shards) <= 4
        hist, count = registry.scrape()       # sorted by family name
        assert count["values"][0]["value"] == 20_000
        assert hist["values"][0]["count"] == 1000


class TestGauges:
    def test_set_overwrites_and_clear_drops_series(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(1.0, url="a")
        gauge.set(2.0, url="a")
        gauge.set(5.0, url="b")
        [family] = registry.scrape()
        assert family["values"] == [
            {"labels": {"url": "a"}, "value": 2.0},
            {"labels": {"url": "b"}, "value": 5.0},
        ]
        gauge.clear()
        assert registry.scrape()[0]["values"] == []


class TestHistograms:
    def test_cumulative_buckets_and_summary(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        [family] = registry.scrape()
        [cell] = family["values"]
        assert cell["buckets"] == [
            {"le": 0.1, "count": 1},
            {"le": 1.0, "count": 3},
            {"le": 10.0, "count": 4},
            {"le": "+Inf", "count": 5},
        ]
        assert cell["count"] == 5 and cell["sum"] == pytest.approx(56.05)
        assert cell["summary"]["p50"] == 0.5
        assert cell["summary"]["max"] == 50.0

    def test_value_on_bound_lands_in_that_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("edge_seconds", buckets=(1.0, 2.0))
        hist.observe(1.0)             # le=1.0 is inclusive (Prometheus)
        [cell] = registry.scrape()[0]["values"]
        assert cell["buckets"][0] == {"le": 1.0, "count": 1}

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_SECONDS_BUCKETS) \
            == sorted(DEFAULT_SECONDS_BUCKETS)

    def test_cross_thread_merge(self):
        registry = MetricsRegistry()
        hist = registry.histogram("m_seconds", buckets=(1.0,))
        hist.observe(0.5)
        thread = threading.Thread(target=lambda: hist.observe(2.0))
        thread.start()
        thread.join()
        [cell] = registry.scrape()[0]["values"]
        assert cell["count"] == 2
        assert cell["buckets"][-1] == {"le": "+Inf", "count": 2}


class TestPrometheusRender:
    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("r_total", "requests").inc(2, route="/x")
        registry.gauge("live", "gauge").set(3)
        registry.histogram("w_seconds", "wall",
                           buckets=(0.5,)).observe(0.25)
        text = render_prometheus(registry.scrape())
        assert "# HELP r_total requests\n# TYPE r_total counter" in text
        assert 'r_total{route="/x"} 2' in text
        assert "live 3" in text
        assert 'w_seconds_bucket{le="0.5"} 1' in text
        assert 'w_seconds_bucket{le="+Inf"} 1' in text
        assert "w_seconds_sum 0.25" in text
        assert "w_seconds_count 1" in text


class TestDeterminismCleanliness:
    def test_module_is_clock_env_and_random_free(self):
        """metrics.py sits inside explore/runner.py's deterministic
        closure (via the artifact cache), so it must never import a
        clock, randomness, or environment access."""
        import ast
        import repro.obs.metrics as module
        tree = ast.parse(open(module.__file__).read())
        imports = {alias.name.split(".")[0]
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   for alias in node.names}
        imports |= {node.module.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module}
        assert not imports & {"time", "random", "os", "datetime", "uuid"}


class TestPrometheusGolden:
    def test_exposition_is_byte_exact(self):
        """Golden pin of the text exposition (v0.0.4): HELP/TYPE pairs,
        escaping in help text and label values, cumulative buckets, and
        the histogram ``_sum``/``_count`` pair — the exact bytes a stock
        Prometheus scraper ingests."""
        registry = MetricsRegistry()
        registry.counter("demo_total", "Demo events by mode") \
            .inc(mode="serial")
        registry.counter("demo_total", "Demo events by mode") \
            .inc(2, mode="fleet")
        registry.gauge(
            "demo_gauge",
            "Live demo value with a \\ backslash\nand a newline") \
            .set(2.5, q='va"l')
        hist = registry.histogram("demo_seconds", "Demo wall time",
                                  buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)

        expected = "\n".join([
            "# HELP demo_gauge Live demo value with a \\\\ backslash"
            "\\nand a newline",
            "# TYPE demo_gauge gauge",
            'demo_gauge{q="va\\"l"} 2.5',
            "# HELP demo_seconds Demo wall time",
            "# TYPE demo_seconds histogram",
            'demo_seconds_bucket{le="0.1"} 1',
            'demo_seconds_bucket{le="1.0"} 2',
            'demo_seconds_bucket{le="+Inf"} 3',
            "demo_seconds_sum 5.55",
            "demo_seconds_count 3",
            "# HELP demo_total Demo events by mode",
            "# TYPE demo_total counter",
            'demo_total{mode="fleet"} 2',
            'demo_total{mode="serial"} 1',
        ]) + "\n"
        assert render_prometheus(registry.scrape()) == expected
