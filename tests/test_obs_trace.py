"""Tests for the request tracer: nesting, tags, no-op mode, slow log."""

import threading

import pytest

from repro.clock import SimulatedClock
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    render_span_tree,
)


class TestSpanNesting:
    def test_parenting_via_context_managers(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child-a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child-b"):
                pass
        assert [child.name for child in root.children] == ["child-a", "child-b"]
        assert root.children[0].children[0].name == "grandchild"
        assert tracer.roots == (root,)

    def test_durations_sum_consistently(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a"):
                sum(range(2000))
            with tracer.span("b"):
                sum(range(2000))
        children_ms = sum(child.duration_ms for child in root.children)
        assert root.duration_ms >= children_ms

    def test_clock_ms_uses_active_clock(self):
        clock = SimulatedClock(1000)
        tracer = Tracer(clock=clock)
        with tracer.span("op") as span:
            clock.advance(250)
        assert span.clock_ms == 250
        assert span.start_ms == 1000
        assert span.end_ms == 1250

    def test_current_span(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_tags_at_entry_and_after(self):
        tracer = Tracer()
        with tracer.span("op", node="n0") as span:
            span.tag(hits=3, misses=1)
        assert span.tags == {"node": "n0", "hits": 3, "misses": 1}

    def test_exception_marks_status_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                with tracer.span("boom"):
                    raise RuntimeError("nope")
        root = tracer.roots[0]
        assert root.status == "error:RuntimeError"
        assert root.children[0].status == "error:RuntimeError"

    def test_iter_and_find(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
            with tracer.span("leaf"):
                pass
        root = tracer.roots[0]
        assert len(list(root.iter_spans())) == 3
        assert len(root.find("leaf")) == 2

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()
        errors = []

        def worker(name):
            try:
                with tracer.span(name):
                    assert tracer.current().name == name
            except AssertionError as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
        ]
        with tracer.span("main"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # Worker roots never attach under this thread's open span.
            assert tracer.current().name == "main"
        assert not errors
        assert len(tracer.roots) == 5


class TestNullTracer:
    def test_span_is_shared_noop(self):
        a = NULL_TRACER.span("x", key=1)
        b = NULL_TRACER.span("y")
        assert a is b
        with a as span:
            assert span.tag(anything=1) is span
        assert NULL_TRACER.roots == ()
        assert NULL_TRACER.slow_log == ()
        assert NULL_TRACER.take_roots() == []
        assert NullTracer.enabled is False
        assert Tracer.enabled is True


class TestRootBookkeeping:
    def test_roots_ring_is_bounded(self):
        tracer = Tracer(max_roots=3)
        for index in range(5):
            with tracer.span(f"op-{index}"):
                pass
        assert [root.name for root in tracer.roots] == ["op-2", "op-3", "op-4"]

    def test_take_roots_drains(self):
        tracer = Tracer()
        with tracer.span("op"):
            pass
        roots = tracer.take_roots()
        assert len(roots) == 1
        assert tracer.roots == ()

    def test_root_durations_feed_registry(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        for _ in range(3):
            with tracer.span("client.read"):
                pass
        hist = registry.get("trace_root_ms", span="client.read")
        assert hist.count == 3

    def test_slow_log_records_rendered_tree(self):
        clock = SimulatedClock(0)
        tracer = Tracer(clock=clock, slow_threshold_ms=100.0, max_slow_log=2)
        with tracer.span("fast"):
            pass
        assert tracer.slow_log == ()
        for index in range(3):
            with tracer.span(f"slow-{index}", attempt=index):
                with tracer.span("inner"):
                    clock.advance(500)
        # Bounded to the most recent two, rendered as indented trees.
        assert len(tracer.slow_log) == 2
        assert "slow-2" in tracer.slow_log[-1]
        assert "\n  inner" in tracer.slow_log[-1]
        assert "attempt=2" in tracer.slow_log[-1]


class TestRendering:
    def test_render_span_tree_shape(self):
        clock = SimulatedClock(0)
        tracer = Tracer(clock=clock)
        with tracer.span("root", node="n0") as root:
            with tracer.span("child"):
                clock.advance(7)
        text = render_span_tree(root)
        lines = text.splitlines()
        assert lines[0].startswith("root ")
        assert "node=n0" in lines[0]
        assert lines[1].startswith("  child ")
        assert "(clock 7ms)" in lines[1]

    def test_render_includes_trace_id_on_roots_only(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child"):
                pass
        lines = render_span_tree(root).splitlines()
        assert f"trace={root.trace_id}" in lines[0]
        assert "trace=" not in lines[1]


class _PerfSimClock(SimulatedClock):
    """Simulated clock whose perf source is the simulated time too, so
    span *durations* are deterministic clock deltas in tests."""

    def perf_ms(self) -> float:
        return float(self.now_ms())


class TestTraceIds:
    def test_roots_get_sequential_ids_children_none(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            with tracer.span("child") as child:
                pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id == "t-00000001"
        assert b.trace_id == "t-00000002"
        assert child.trace_id is None

    def test_error_root_keeps_its_trace_id(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                with tracer.span("inner"):
                    raise RuntimeError("nope")
        assert tracer.roots[0].trace_id == "t-00000001"

    def test_null_tracer_has_no_trace_ids(self):
        span = NULL_TRACER.span("x")
        assert span.trace_id is None
        assert NULL_TRACER.current() is None


class TestExemplarToTraceLink:
    def test_max_bucket_exemplar_resolves_to_retained_trace(self):
        """The acceptance path: slow histogram bucket -> trace id ->
        tail-sampled span tree of that exact request."""
        from repro.obs.tail import TailSampler

        clock = _PerfSimClock(0)
        registry = MetricsRegistry()
        sampler = TailSampler(max_traces=8, registry=registry)
        tracer = Tracer(
            clock=clock, registry=registry, slow_threshold_ms=100.0,
            tail_sampler=sampler,
        )
        for duration in (5, 10, 250, 20):
            with tracer.span("client.read", duration=duration):
                with tracer.span("node.read"):
                    clock.advance(duration)

        hist = registry.get("trace_root_ms", span="client.read")
        trace_id, value = hist.max_exemplar()
        assert value == 250.0
        retained = sampler.get(trace_id)
        assert retained is not None
        assert sampler.reason(trace_id) == "slow"
        assert retained.tags["duration"] == 250
        assert retained.find("node.read")
        # The same request is the one in the slow log.
        assert len(tracer.slow_log) == 1
        assert f"trace={trace_id}" in tracer.slow_log[0]
        # Fast requests were offered but not retained.
        assert sampler.stats()["offered"] == 4
        assert len(sampler) == 1


class TestServedTags:
    def test_slow_log_distinguishes_cache_hit_from_leader(self):
        """A result-cache hit is tagged ``served=result_cache`` and the
        tag reaches the rendered slow-query log; the read that led —
        executed the query and installed the entry — carries no tag."""
        from repro.config import TableConfig
        from repro.core.query import SortType
        from repro.core.timerange import TimeRange
        from repro.server import IPSNode
        from repro.storage import InMemoryKVStore

        clock = _PerfSimClock(1_000_000)
        # Threshold 0: every request lands in the slow log.
        tracer = Tracer(clock=clock, slow_threshold_ms=0.0)
        node = IPSNode(
            "hot",
            TableConfig(name="served", attributes=("click",)),
            InMemoryKVStore(),
            clock=clock,
            tracer=tracer,
        )
        node.add_profile(1, 999_000, 1, 0, 7, {"click": 3})
        node.merge_write_table()
        window = TimeRange.absolute(0, 1_000_001)

        node.get_profile_topk(1, 1, 0, window, SortType.TOTAL, k=5)
        node.get_profile_topk(1, 1, 0, window, SortType.TOTAL, k=5)
        # Setup (add_profile/merge) also produced roots; the reads are
        # the last two.
        leader, hit = tracer.roots[-2], tracer.roots[-1]
        assert "served" not in leader.tags
        assert hit.tags["served"] == "result_cache"
        assert "served=" not in tracer.slow_log[-2]
        assert "served=result_cache" in tracer.slow_log[-1]
