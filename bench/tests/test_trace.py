"""The span tracer: self-time arithmetic, wrapping, and missing spans."""

import types

import pytest

from trace import Tracer


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer"):
        clock.tick(1.0)
        with tracer.span("child"):
            clock.tick(2.0)
            with tracer.span("grandchild"):
                clock.tick(4.0)
        with tracer.span("child"):
            clock.tick(8.0)
        clock.tick(16.0)
    assert tracer.self_times() == {"outer": 17.0, "child": 10.0, "grandchild": 4.0}
    assert tracer.durations("child") == [6.0, 8.0]
    assert tracer.parents == [-1, 0, 1, 0]


def test_wrap_times_calls_and_restore_puts_the_original_back():
    clock = FakeClock()
    tracer = Tracer(clock)
    module = types.SimpleNamespace(work=lambda seconds: clock.tick(seconds) or seconds)
    original = module.work
    tracer.wrap(module, "work", "layer.work")
    assert module.work(3.0) == 3.0
    with tracer.span("outer"):
        module.work(1.0)
    tracer.restore()
    assert module.work is original
    assert tracer.durations("layer.work") == [3.0, 1.0]
    assert tracer.self_times()["outer"] == 0.0


def test_wrap_names_a_span_from_the_arguments():
    tracer = Tracer(FakeClock())

    class Service:
        def apply(self, event):
            return event

    tracer.wrap(Service, "apply", lambda _self, event: f"ingest.{type(event).__name__}")
    Service().apply(1)
    Service().apply("x")
    tracer.restore()
    assert tracer.names == ["ingest.int", "ingest.str"]


def test_a_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.tick(1.0)
        raise ValueError("boom")

    holder = types.SimpleNamespace(call=boom)
    tracer.wrap(holder, "call", "boom")
    with pytest.raises(ValueError):
        holder.call()
    with tracer.span("after"):
        clock.tick(2.0)
    assert tracer.durations("boom") == [1.0]
    assert tracer.parents == [-1, -1]


def test_declared_spans_that_never_fired_are_missing_not_zero():
    tracer = Tracer(FakeClock())
    with tracer.span("fired"):
        pass
    summary = tracer.summary(["fired", "moved.call.site"])
    assert summary["missing"] == ["moved.call.site"]
    assert "moved.call.site" not in summary["spans"]
    assert summary["spans"]["fired"]["count"] == 1


def test_overhead_estimate_is_small_and_non_negative():
    tracer = Tracer()
    holder = types.SimpleNamespace(call=lambda: None)
    tracer.wrap(holder, "call", "noop")
    for _ in range(1000):
        holder.call()
    assert 0.0 <= tracer.overhead_frac(1.0) < 0.05


def test_write_round_trips(tmp_path):
    import json

    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("a"):
        clock.tick(1.0)
    tracer.write(tmp_path / "spans.json")
    payload = json.loads((tmp_path / "spans.json").read_text())
    assert payload["spans"] == [["a", 0.0, 1.0, -1]]
