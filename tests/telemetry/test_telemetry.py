"""The registry's flat counter ledger and table/bar rendering."""

from repro.telemetry import (
    MetricsRegistry,
    format_bar_chart,
    format_seconds,
    format_table,
)


class TestFormatting:
    def test_format_seconds_scales(self):
        assert format_seconds(13.9) == "13.9s"
        assert format_seconds(2.42) == "2.42s"
        assert format_seconds(0.0123) == "12.3ms"
        assert format_seconds(45e-6) == "45us"

    def test_format_table_alignment(self):
        rows = [
            {"dataset": "arxiv", "epoch": 1.7},
            {"dataset": "products", "epoch": 8.6},
        ]
        out = format_table(rows, title="Table 1")
        lines = out.splitlines()
        assert lines[0] == "Table 1"
        assert "dataset" in lines[1] and "epoch" in lines[1]
        assert "products" in out

    def test_format_table_empty(self):
        assert "empty" in format_table([])

    def test_format_table_golden_output(self):
        rows = [
            {"dataset": "arxiv", "epoch_s": 1.5, "speedup": "2.0x"},
            {"dataset": "products", "epoch_s": 12.25, "speedup": "1.5x"},
        ]
        golden = "\n".join(
            [
                "Table",
                "dataset   epoch_s  speedup",
                "-" * 26,
                "arxiv     1.5      2.0x   ",
                "products  12.25    1.5x   ",
            ]
        )
        assert format_table(rows, title="Table") == golden

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        out = format_table(rows, columns=["b"])
        assert "a" not in out.splitlines()[0]

    def test_bar_chart_scales_to_peak(self):
        out = format_bar_chart(["x", "yy"], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_bar_chart_empty(self):
        assert format_bar_chart([], []) == "(empty)"

    def test_bar_chart_zero_values(self):
        out = format_bar_chart(["a"], [0.0])
        assert "a" in out


class TestCounters:
    """``MetricsRegistry.counter_values()``: the ``{name: value}`` ledger of
    unlabelled counters that RunReport's ``counters`` object records."""

    def test_inc_and_default_zero(self):
        registry = MetricsRegistry()
        assert registry.value("missing") == 0
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        registry.counter("rows", outcome="hit").inc(7)  # labelled: not flat
        assert registry.counter_values() == {"a": 5}
        assert "missing" not in registry.counter_values()

    def test_snapshot_is_a_copy(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        snap = registry.counter_values()
        snap["a"] = 99
        assert registry.value("a") == 2
        assert sorted(registry.counter_values()) == ["a"]

    def test_merge_counters_and_mappings(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("a").inc(1)
        right.counter("a").inc(2)
        right.counter("b").inc(3)
        right.gauge("c").set(5)  # gauges are not counters
        left.merge(right)
        assert left.counter_values() == {"a": 3, "b": 3}

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.reset()
        assert registry.counter_values() == {}

    def test_thread_safety_under_contention(self):
        import threading

        registry = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                registry.counter("hits").inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter_values() == {"hits": 8000}
