"""Unit tests for random streams, the tracer and monitors."""

from __future__ import annotations

import pytest

from repro.obs.tracer import Tracer
from repro.sim.monitor import TimeSeriesMonitor
from repro.sim.randomness import RandomStreams


# ---------------------------------------------------------------------------
# RandomStreams
# ---------------------------------------------------------------------------

def test_same_seed_and_label_give_same_sequence():
    a = RandomStreams(7).stream("mac.node1")
    b = RandomStreams(7).stream("mac.node1")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_labels_give_different_sequences():
    streams = RandomStreams(7)
    a = streams.stream("mac.node1")
    b = streams.stream("mac.node2")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_different_seeds_give_different_sequences():
    a = RandomStreams(1).stream("x")
    b = RandomStreams(2).stream("x")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_stream_is_cached():
    streams = RandomStreams(3)
    assert streams.stream("phy") is streams.stream("phy")
    assert "phy" in streams


def test_fork_derives_independent_root():
    root = RandomStreams(9)
    fork_a = root.fork("run-a")
    fork_b = root.fork("run-b")
    assert fork_a.root_seed != fork_b.root_seed
    assert RandomStreams(9).fork("run-a").root_seed == fork_a.root_seed


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_tracer_disabled_records_nothing(sim):
    assert not sim.probe.enabled
    sim.probe.emit("mac", "data_tx", "node1", subframes=1, bytes=100)
    assert sim.tracer is None


def test_tracer_records_and_filters(traced_sim):
    traced_sim.probe.emit("mac", "data_tx", "node1", subframes=1, bytes=100)
    traced_sim.probe.emit("mac", "rts", "node2", dst="02:00:00:00:00:01")
    traced_sim.probe.emit("phy", "tx_start", "node1", kind="data")
    # Journey-only events are not traced.
    traced_sim.probe.emit("net", "forward", "node1", ttl=3)
    assert len(traced_sim.tracer.records) == 3
    assert len(traced_sim.tracer.filter(category="mac")) == 2
    assert len(traced_sim.tracer.filter(source="node1")) == 2
    assert len(traced_sim.tracer.filter(category="mac", event="rts")) == 1
    text = str(traced_sim.tracer.records[0])
    assert "mac.data_tx" in text


class _Seen:
    """A probe subscriber that keeps every event it is handed."""

    kinds = Tracer.kinds

    def __init__(self):
        self.events = []

    def on_probe(self, now, layer, kind, source, packet, detail, fields):
        self.events.append(fields["dst"])


def test_tracer_listener_invoked(traced_sim):
    """Any probe subscriber is invoked alongside the tracer."""
    seen = _Seen()
    traced_sim.probe.subscribe(seen)
    traced_sim.probe.emit("mac", "rts", "n", dst="d0")
    assert seen.events == ["d0"]
    assert [record.event for record in traced_sim.tracer.records] == ["rts"]


def test_tracer_max_records(sim):
    tracer = Tracer(max_records=2)
    sim.probe.subscribe(tracer)
    for i in range(5):
        sim.probe.emit("mac", "rts", "n", dst=f"d{i}")
    assert len(tracer.records) == 2
    assert tracer.dropped == 3


def test_tracer_overflow_still_reaches_listeners(sim):
    """Storage truncates at max_records; other subscribers see every event."""
    tracer = Tracer(max_records=1)
    seen = _Seen()
    sim.probe.subscribe(tracer)
    sim.probe.subscribe(seen)
    for i in range(4):
        sim.probe.emit("mac", "rts", "n", dst=f"e{i}")
    assert [record.fields["dst"] for record in tracer.records] == ["e0"]
    assert tracer.dropped == 3
    assert seen.events == ["e0", "e1", "e2", "e3"]
    tracer.clear()
    assert tracer.records == []
    assert tracer.dropped == 0


# ---------------------------------------------------------------------------
# Monitors
# ---------------------------------------------------------------------------

def test_time_series_monitor_statistics():
    series = TimeSeriesMonitor("sizes")
    for t, v in [(0.0, 2.0), (1.0, 4.0), (2.0, 6.0)]:
        series.record(t, v)
    assert series.count == 3
    assert series.mean() == pytest.approx(4.0)
    assert series.total() == pytest.approx(12.0)
    assert series.minimum() == 2.0
    assert series.maximum() == 6.0
    assert series.stddev() == pytest.approx(1.632993, rel=1e-5)


def test_time_series_monitor_empty():
    series = TimeSeriesMonitor()
    assert series.mean() == 0.0
    assert series.stddev() == 0.0
