"""Self-tests for the benchmark's layer tracer.

    python3 -m pytest perfbench -q

Each test installs the tracer on the real ``repro`` classes and restores
them on exit, so the tests can share a process with the rest of the suite.
"""

from __future__ import annotations

import gc
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (os.path.join(os.path.dirname(HERE), "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.channel.medium import WirelessChannel  # noqa: E402
from repro.core.policies import broadcast_aggregation  # noqa: E402
from repro.experiments import scenarios  # noqa: E402
from repro.sim.scheduler import Scheduler  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402
from repro.sim.timer import PeriodicTimer, Timer  # noqa: E402

from tracer import LayerTracer  # noqa: E402
from worker import GcMeter, fingerprint  # noqa: E402
from workloads import InstanceRegistry  # noqa: E402


class ManualClock:
    """A clock that moves only when a test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _in_layer(function, module: str):
    """Make a test function look as if ``module`` defined it."""
    function.__module__ = module
    return function


def _transfer(file_bytes: int = 30_000):
    registry = InstanceRegistry().install()
    try:
        result = scenarios.run_tcp_transfer(broadcast_aggregation(), hops=2,
                                            rate_mbps=1.3, file_bytes=file_bytes,
                                            seed=3)
        counters = registry.collect()
    finally:
        registry.uninstall()
    outputs = {"throughput_mbps": result.throughput_mbps,
               "completion_time": result.completion_time,
               "bytes_received": result.receiver.bytes_received}
    return outputs, counters


def test_uninstall_restores_every_patched_attribute():
    before = (Scheduler.__dict__["push"], WirelessChannel.__dict__["broadcast"],
              Simulator.__dict__["run"], scenarios.run_tcp_transfer)
    with LayerTracer():
        assert Scheduler.__dict__["push"] is not before[0]
        assert scenarios.run_tcp_transfer is not before[3]
    after = (Scheduler.__dict__["push"], WirelessChannel.__dict__["broadcast"],
             Simulator.__dict__["run"], scenarios.run_tcp_transfer)
    assert after == before


def test_channel_broadcast_from_a_mac_callback_is_charged_to_channel():
    with LayerTracer() as tracer:
        tracer.begin_op("transfer")
        _transfer()
        tracer.end_op()
    report = tracer.report()
    edges = report["edges"]
    into_broadcast = {e["parent"] for e in edges
                      if e["span"] == "channel:WirelessChannel.broadcast"}
    into_send = {e["parent"] for e in edges if e["span"] == "phy:Phy.send"}
    # The MAC transmits through Phy.send, which calls the channel: the
    # broadcast is its own span under the PHY, not part of the MAC's time.
    assert into_broadcast == {"phy:Phy.send"}
    assert into_send and all(parent.startswith("mac:") for parent in into_send)
    broadcast_self = sum(e["self_s"] for e in edges
                         if e["span"] == "channel:WirelessChannel.broadcast")
    assert broadcast_self > 0.0
    assert report["self_s"]["channel"] >= broadcast_self


def test_timer_callback_is_charged_to_its_owners_layer():
    clock = ManualClock()
    with LayerTracer(clock=clock) as tracer:
        sim = Simulator(seed=1)
        fired = []

        def on_timeout():
            fired.append(sim.now)
            clock.advance(5.0)

        def on_tick():
            clock.advance(2.0)
            if len(fired) >= 1:
                ticker.stop()

        Timer(sim, _in_layer(on_timeout, "repro.transport.tcp.connection")).start(1.0)
        ticker = PeriodicTimer(sim, 0.5, _in_layer(on_tick, "repro.mac.dcf"))
        ticker.start()
        tracer.begin_op("timers")
        sim.run()
        tracer.end_op()
    report = tracer.report()
    assert fired == [1.0]
    assert report["self_s"]["transport"] == 5.0
    assert report["self_s"]["mac"] == 2.0 * 2
    assert report["self_s"]["sim"] == 0.0
    assert not [name for name in report["calls"]
                if "Timer._fire" in name or "PeriodicTimer._tick" in name]
    assert report["coverage"] == 1.0


def test_gc_pause_is_taken_out_of_the_span_it_interrupted():
    clock = ManualClock()

    def pause_clock(phase, info):
        if phase == "start":
            clock.advance(3.0)

    with LayerTracer(clock=clock) as tracer:
        def build():
            clock.advance(1.0)
            gc.collect()

        gc.callbacks.append(pause_clock)  # runs after the tracer's callback
        try:
            tracer.begin_op("gc")
            tracer.span(build, "topology", "build")()
            tracer.end_op()
        finally:
            gc.callbacks.remove(pause_clock)
    report = tracer.report()
    assert report["self_s"]["topology"] == 1.0
    assert report["gc_s"] == 3.0
    assert report["wall_s"] == 4.0
    assert report["coverage"] == 1.0


def test_gc_meter_times_its_own_collections_without_counting_them():
    meter = GcMeter()
    try:
        meter.collect()
        assert meter.collections[2] == 0
        assert meter.pause_s > 0.0
        gc.collect()  # stands in for a collection the allocator triggered
        assert meter.collections[2] == 1
    finally:
        gc.callbacks.remove(meter._on_gc)


def test_traced_transfer_keeps_its_fingerprint():
    untraced = _transfer()
    with LayerTracer() as tracer:
        tracer.begin_op("transfer")
        traced = _transfer()
        tracer.end_op()
    assert traced == untraced
    assert fingerprint(*traced, events=0) == fingerprint(*untraced, events=0)
    assert tracer.report()["self_s"]["mac"] > 0.0
