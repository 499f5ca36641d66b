"""Tracer: interval accounting and ASCII rendering."""

from repro.runtime import Tracer, render_timeline


class TestTracer:
    def test_span_records_event(self):
        tracer = Tracer()
        with tracer.span("train", "gpu", 0):
            pass
        assert len(tracer.events) == 1
        assert tracer.events[0].name == "train"
        assert tracer.events[0].duration >= 0

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("train", "gpu", 0):
            pass
        assert tracer.events == []

    def test_stage_totals(self):
        tracer = Tracer()
        tracer.record("sample", "cpu:0", 0, 0.0, 1.0)
        tracer.record("sample", "cpu:1", 1, 0.5, 1.0)
        tracer.record("train", "gpu", 0, 1.0, 1.5)
        totals = tracer.stage_totals()
        assert abs(totals["sample"] - 1.5) < 1e-9
        assert abs(totals["train"] - 0.5) < 1e-9

    def test_resource_busy_merges_overlaps(self):
        tracer = Tracer()
        tracer.record("a", "gpu", 0, 0.0, 2.0)
        tracer.record("b", "gpu", 1, 1.0, 3.0)  # overlapping
        tracer.record("c", "gpu", 2, 5.0, 6.0)  # disjoint
        assert abs(tracer.resource_busy("gpu") - 4.0) < 1e-9

    def test_makespan_and_utilization(self):
        tracer = Tracer()
        tracer.record("train", "gpu", 0, 0.0, 1.0)
        tracer.record("transfer", "dma", 0, 0.0, 4.0)
        assert abs(tracer.makespan() - 4.0) < 1e-9
        assert abs(tracer.gpu_utilization() - 0.25) < 1e-9

    def test_empty_trace(self):
        tracer = Tracer()
        assert tracer.makespan() == 0.0
        assert tracer.gpu_utilization() == 0.0


class TestRenderer:
    def test_renders_lanes_and_glyphs(self):
        tracer = Tracer()
        tracer.record("sample", "cpu:0", 0, 0.0, 1.0)
        tracer.record("transfer", "dma", 0, 1.0, 2.0)
        tracer.record("train", "gpu", 0, 2.0, 3.0)
        out = render_timeline(tracer, width=30)
        assert "cpu:0" in out and "dma" in out and "gpu" in out
        assert "S" in out and "T" in out and "C" in out
        assert "legend" in out

    def test_empty_render(self):
        assert "empty" in render_timeline(Tracer())

    def test_explicit_resource_order(self):
        tracer = Tracer()
        tracer.record("train", "gpu", 0, 0.0, 1.0)
        tracer.record("sample", "cpu:0", 0, 0.0, 1.0)
        out = render_timeline(tracer, resources=["gpu", "cpu:0"])
        lines = out.splitlines()
        assert lines[0].strip().startswith("gpu")
