"""Span tracer: zero-cost disabled path, hierarchy, Chrome trace export.

The renderer/analysis surface (stage_totals, resource_busy,
render_timeline) keeps its coverage in ``tests/runtime/test_trace.py``;
this file covers the behaviour added by the telemetry unification.
"""

import json
import threading

import pytest

from repro.telemetry.tracer import _NULL_SPAN, TraceEvent, Tracer


class _CountingLock:
    """Lock proxy counting acquisitions (arena-counter style assertion)."""

    def __init__(self):
        self.acquisitions = 0
        self._lock = threading.Lock()

    def __enter__(self):
        self.acquisitions += 1
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)

    def acquire(self, *args, **kwargs):
        self.acquisitions += 1
        return self._lock.acquire(*args, **kwargs)

    def release(self):
        return self._lock.release()


class TestDisabledTracer:
    def test_span_returns_shared_singleton(self):
        tracer = Tracer(enabled=False)
        first = tracer.span("sample", "cpu:0", 0)
        second = tracer.span("train", "gpu", 7)
        # No per-call allocation: every disabled span is the same object.
        assert first is second is _NULL_SPAN

    def test_null_span_has_no_instance_dict(self):
        # __slots__ = () keeps the singleton allocation-free to enter.
        assert not hasattr(_NULL_SPAN, "__dict__")
        with _NULL_SPAN as span:
            assert span is _NULL_SPAN

    def test_disabled_span_skips_lock_and_events(self):
        tracer = Tracer(enabled=False)
        counting = _CountingLock()
        tracer._lock = counting
        for batch in range(100):
            with tracer.span("sample", "cpu:0", batch):
                pass
        assert counting.acquisitions == 0
        assert tracer.events == []

    def test_disabled_record_is_a_noop(self):
        tracer = Tracer(enabled=False)
        tracer.record("train", "gpu", 0, 0.0, 1.0)
        assert tracer.events == []

    def test_enabled_span_does_take_the_lock(self):
        # Sanity check that the counting proxy would detect the hot path.
        tracer = Tracer()
        counting = _CountingLock()
        tracer._lock = counting
        with tracer.span("sample", "cpu:0", 0):
            pass
        assert counting.acquisitions > 0
        assert len(tracer.events) == 1


class TestSpanHierarchy:
    def test_nested_spans_record_parent_id(self):
        tracer = Tracer()
        with tracer.span("prepare", "cpu:0", 0):
            with tracer.span("sample", "cpu:0", 0):
                pass
            with tracer.span("slice", "cpu:0", 0):
                pass
        by_name = {e.name: e for e in tracer.events}
        parent = by_name["prepare"]
        assert parent.parent_id == -1
        assert by_name["sample"].parent_id == parent.span_id
        assert by_name["slice"].parent_id == parent.span_id
        # Children closed before the parent, all ids unique.
        ids = [e.span_id for e in tracer.events]
        assert len(set(ids)) == len(ids)

    def test_sibling_spans_are_roots(self):
        tracer = Tracer()
        with tracer.span("sample", "cpu:0", 0):
            pass
        with tracer.span("train", "gpu", 0):
            pass
        assert [e.parent_id for e in tracer.events] == [-1, -1]

    def test_hierarchy_is_per_thread(self):
        tracer = Tracer()
        done = threading.Event()

        def worker():
            with tracer.span("sample", "cpu:1", 1):
                done.wait(timeout=5.0)

        thread = threading.Thread(target=worker)
        with tracer.span("train", "gpu", 0):
            thread.start()
            done.set()
            thread.join()
        # The worker's span is not a child of the main thread's open span.
        assert all(e.parent_id == -1 for e in tracer.events)
        threads = {e.thread for e in tracer.events}
        assert len(threads) == 2

    def test_span_timestamps_share_the_tracer_clock(self):
        tracer = Tracer()
        with tracer.span("sample", "cpu:0", 0):
            pass
        event = tracer.events[0]
        assert 0.0 <= event.start <= event.end <= tracer.now()


class TestChromeTrace:
    def _traced(self):
        tracer = Tracer()
        tracer.record("train", "gpu", 0, 2.0, 3.0)
        tracer.record("transfer", "dma", 0, 1.0, 2.0)
        tracer.record("sample", "cpu:0", 0, 0.0, 1.0)
        tracer.record("sample", "cpu:1", 1, 0.5, 1.5)
        return tracer

    def test_complete_events_have_required_fields(self):
        doc = self._traced().to_chrome_trace()
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 4
        for event in xs:
            assert event["cat"] == "stage"
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["dur"] > 0
            assert event["pid"] == 1
            assert isinstance(event["tid"], int)
            assert set(event["args"]) == {"batch", "span_id", "parent_id"}

    def test_timestamps_are_microseconds(self):
        doc = self._traced().to_chrome_trace()
        train = next(
            e for e in doc["traceEvents"] if e["ph"] == "X" and e["name"] == "train"
        )
        assert train["ts"] == pytest.approx(2.0e6)
        assert train["dur"] == pytest.approx(1.0e6)

    def test_lane_metadata_and_ordering(self):
        doc = self._traced().to_chrome_trace()
        names = [
            e for e in doc["traceEvents"] if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        # cpu lanes sort before dma before gpu, matching the ASCII view.
        assert [m["args"]["name"] for m in names] == ["cpu:0", "cpu:1", "dma", "gpu"]
        assert [m["tid"] for m in names] == [0, 1, 2, 3]
        sort_events = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_sort_index"
        ]
        assert [m["args"]["sort_index"] for m in sort_events] == [0, 1, 2, 3]

    def test_metadata_precedes_complete_events(self):
        doc = self._traced().to_chrome_trace()
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert phases.index("X") > phases.index("M")
        assert "M" not in phases[phases.index("X") :]

    def test_span_hierarchy_survives_export(self):
        tracer = Tracer()
        with tracer.span("prepare", "cpu:0", 3):
            with tracer.span("sample", "cpu:0", 3):
                pass
        doc = tracer.to_chrome_trace()
        xs = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert xs["sample"]["args"]["parent_id"] == xs["prepare"]["args"]["span_id"]
        assert xs["sample"]["args"]["batch"] == 3

    def test_custom_pid(self):
        doc = self._traced().to_chrome_trace(pid=42)
        assert all(e["pid"] == 42 for e in doc["traceEvents"])

    def test_document_envelope(self):
        doc = self._traced().to_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["producer"] == "repro.telemetry.tracer"

    def test_empty_tracer_exports_empty_event_list(self):
        assert Tracer().to_chrome_trace()["traceEvents"] == []

    def test_write_chrome_trace_round_trip(self, tmp_path):
        tracer = self._traced()
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert doc == json.loads(json.dumps(tracer.to_chrome_trace()))
        assert len([e for e in doc["traceEvents"] if e["ph"] == "X"]) == 4


class TestCrossThreadNesting:
    """Span parenthood is per-thread: a span opened on one thread must not
    become the parent of spans opened concurrently on another."""

    def test_parent_ids_do_not_leak_across_threads(self):
        import threading

        tracer = Tracer()
        inside_outer = threading.Event()
        release_outer = threading.Event()

        def worker():
            inside_outer.wait(timeout=5.0)
            with tracer.span("sample", "cpu:1", 0):
                with tracer.span("slice", "cpu:1", 0):
                    pass

        thread = threading.Thread(target=worker)
        thread.start()
        with tracer.span("train", "gpu", 0):
            inside_outer.set()
            thread.join(timeout=5.0)

        events = {e.name: e for e in tracer.events}
        # Worker-thread root must be a root, not a child of the main
        # thread's still-open "train" span.
        assert events["sample"].parent_id == -1
        # Nesting *within* the worker thread is still tracked.
        assert events["slice"].parent_id == events["sample"].span_id
        assert events["train"].parent_id == -1
        assert events["sample"].thread != events["train"].thread

    def test_parallel_workers_each_get_their_own_stack(self):
        import threading

        tracer = Tracer()
        barrier = threading.Barrier(4, timeout=5.0)

        def worker(i):
            barrier.wait()
            with tracer.span("outer", f"cpu:{i}", i):
                with tracer.span("inner", f"cpu:{i}", i):
                    pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        outers = {e.batch: e for e in tracer.events if e.name == "outer"}
        inners = {e.batch: e for e in tracer.events if e.name == "inner"}
        assert len(outers) == len(inners) == 4
        for batch, outer in outers.items():
            assert outer.parent_id == -1
            assert inners[batch].parent_id == outer.span_id
        # Span ids are unique across all threads.
        ids = [e.span_id for e in tracer.events]
        assert len(ids) == len(set(ids))
