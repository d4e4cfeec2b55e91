"""Integration tests for the PHY device and the shared wireless channel."""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import List

import pytest

from repro.channel import LogDistancePathLoss, Transmission, WirelessChannel
from repro.errors import ConfigurationError, PhyError
from repro.phy import FrameKind, Phy, PhyConfig, PhyFrame, PhyState, ReceptionResult
from repro.phy.rates import hydra_rate_table
from repro.sim import Event, Simulator

RATES = hydra_rate_table()
RATE_065 = RATES.by_mbps(0.65)
RATE_26 = RATES.by_mbps(2.6)


@dataclass
class StubSubframe:
    size_bytes: int


@dataclass
class RecordingListener:
    """Collects PHY callbacks for assertions."""

    received: List[ReceptionResult] = field(default_factory=list)
    tx_complete: List[PhyFrame] = field(default_factory=list)
    busy_transitions: List[str] = field(default_factory=list)

    def on_carrier_busy(self):
        self.busy_transitions.append("busy")

    def on_carrier_idle(self):
        self.busy_transitions.append("idle")

    def on_frame_received(self, result):
        self.received.append(result)

    def on_transmit_complete(self, frame):
        self.tx_complete.append(frame)


def build_pair(sim, spacing=2.5):
    channel = WirelessChannel(sim)
    tx = Phy(sim, channel, position=(0.0, 0.0), name="tx")
    rx = Phy(sim, channel, position=(spacing, 0.0), name="rx")
    tx_listener, rx_listener = RecordingListener(), RecordingListener()
    tx.attach_listener(tx_listener)
    rx.attach_listener(rx_listener)
    return channel, tx, rx, tx_listener, rx_listener


def data_frame(n_unicast=1, size=1464, rate=RATE_065, n_broadcast=0, bcast_size=160,
               bcast_rate=None):
    return PhyFrame.data(
        [StubSubframe(bcast_size) for _ in range(n_broadcast)],
        [StubSubframe(size) for _ in range(n_unicast)],
        unicast_rate=rate,
        broadcast_rate=bcast_rate,
    )


def test_link_snr_matches_paper_operating_point():
    sim = Simulator(seed=1)
    channel, tx, rx, *_ = build_pair(sim, spacing=2.5)
    assert channel.link_snr_db(tx, rx) == pytest.approx(25.0, abs=1.0)


def test_successful_unicast_delivery():
    sim = Simulator(seed=2)
    channel, tx, rx, tx_l, rx_l = build_pair(sim)
    frame = data_frame()
    duration = tx.send(frame)
    assert duration > 0
    assert tx.state is PhyState.TRANSMITTING
    sim.run()
    assert tx_l.tx_complete == [frame]
    assert len(rx_l.received) == 1
    result = rx_l.received[0]
    assert result.all_unicast_ok
    assert not result.collided
    assert result.snr_db == pytest.approx(25.0, abs=1.5)


def test_broadcast_and_unicast_portions_both_decoded():
    sim = Simulator(seed=3)
    _, tx, rx, _, rx_l = build_pair(sim)
    frame = data_frame(n_unicast=2, n_broadcast=3, bcast_rate=RATE_065, rate=RATE_26)
    tx.send(frame)
    sim.run()
    result = rx_l.received[0]
    assert result.broadcast_ok == [True, True, True]
    assert result.unicast_ok == [True, True]


def test_cannot_send_while_transmitting():
    sim = Simulator(seed=4)
    _, tx, _, _, _ = build_pair(sim)
    tx.send(data_frame())
    with pytest.raises(PhyError):
        tx.send(data_frame())


def test_carrier_sense_transitions_at_receiver():
    sim = Simulator(seed=5)
    _, tx, rx, _, rx_l = build_pair(sim)
    tx.send(data_frame())
    sim.run()
    assert rx_l.busy_transitions == ["busy", "idle"]
    assert not rx.carrier_busy


def test_overlapping_transmissions_collide():
    sim = Simulator(seed=6)
    channel = WirelessChannel(sim)
    a = Phy(sim, channel, position=(0.0, 0.0), name="a")
    b = Phy(sim, channel, position=(5.0, 0.0), name="b")
    victim = Phy(sim, channel, position=(2.5, 0.0), name="victim")
    listener = RecordingListener()
    victim.attach_listener(listener)
    # Both neighbours transmit at the same instant: equal power at the victim.
    sim.schedule(0.0, a.send, data_frame())
    sim.schedule(0.0, b.send, data_frame())
    sim.run()
    assert len(listener.received) == 2
    assert all(r.collided for r in listener.received)
    assert all(not r.all_unicast_ok for r in listener.received)
    assert victim.frames_collided == 2


def test_reception_lost_if_receiver_is_transmitting():
    sim = Simulator(seed=7)
    channel, tx, rx, _, rx_l = build_pair(sim)
    # rx starts its own (long) transmission just before tx's frame arrives.
    sim.schedule(0.0, rx.send, data_frame(size=4000))
    sim.schedule(0.001, tx.send, data_frame())
    sim.run()
    assert all(r.collided for r in rx_l.received)


def test_control_frame_reception():
    sim = Simulator(seed=8)
    _, tx, rx, _, rx_l = build_pair(sim)
    ack = PhyFrame.control_frame(FrameKind.ACK, StubSubframe(14), RATE_065)
    tx.send(ack)
    sim.run()
    assert len(rx_l.received) == 1
    assert rx_l.received[0].control_ok
    assert rx_l.received[0].frame.kind is FrameKind.ACK


def test_distant_node_does_not_decode_but_cs_threshold_applies():
    sim = Simulator(seed=9)
    channel = WirelessChannel(sim)
    tx = Phy(sim, channel, position=(0.0, 0.0), name="tx")
    # Far node: below reception threshold but possibly above carrier sense.
    far = Phy(sim, channel, position=(400.0, 0.0), name="far")
    far_listener = RecordingListener()
    far.attach_listener(far_listener)
    tx.send(data_frame())
    sim.run()
    # Nothing decodable should have been delivered as OK.
    assert all(not r.any_ok for r in far_listener.received) or far_listener.received == []


def test_channel_statistics_and_registration():
    sim = Simulator(seed=10)
    channel, tx, rx, *_ = build_pair(sim)
    assert len(channel.phys) == 2
    tx.send(data_frame())
    assert channel.busy
    sim.run()
    assert not channel.busy
    assert channel.total_transmissions == 1
    assert channel.total_airtime > 0
    channel.unregister(rx)
    assert len(channel.phys) == 1


def test_unregistered_phy_cannot_transmit():
    sim = Simulator(seed=11)
    channel = WirelessChannel(sim)
    other_channel = WirelessChannel(sim)
    phy = Phy(sim, other_channel, name="elsewhere")
    with pytest.raises(ConfigurationError):
        channel.broadcast(phy, data_frame(), 0.01, 8.9)


def test_unregister_mid_flight_stops_delivery():
    """A PHY detached while a frame is in flight must never hear its tail.

    Regression: unregister() used to leave the already-scheduled begin/end
    reception events pending, so the detached PHY finished decoding frames on
    a medium it was no longer attached to.
    """
    sim = Simulator(seed=20)
    channel, tx, rx, _, rx_l = build_pair(sim)
    duration = tx.send(data_frame())
    # Past the propagation delay: begin_reception has fired, end is pending.
    sim.run(until=duration / 2)
    assert rx.state is PhyState.RECEIVING
    channel.unregister(rx)
    assert rx.state is PhyState.IDLE
    assert not rx.carrier_busy
    sim.run()
    assert rx_l.received == []
    assert rx.frames_received == 0
    # The medium itself still retires the transmission normally.
    assert not channel.busy
    assert channel.total_transmissions == 1


def test_unregister_before_arrival_cancels_both_delivery_events():
    sim = Simulator(seed=21)
    channel, tx, rx, _, rx_l = build_pair(sim)
    tx.send(data_frame())
    # Not run yet: even begin_reception is still pending.
    channel.unregister(rx)
    sim.run()
    assert rx_l.received == []
    assert rx.frames_received == 0
    assert rx.state is PhyState.IDLE


def test_unregister_leaves_other_receivers_untouched():
    sim = Simulator(seed=22)
    channel = WirelessChannel(sim)
    tx = Phy(sim, channel, position=(0.0, 0.0), name="tx")
    leaver = Phy(sim, channel, position=(2.5, 0.0), name="leaver")
    stayer = Phy(sim, channel, position=(0.0, 2.5), name="stayer")
    stayer_l = RecordingListener()
    stayer.attach_listener(stayer_l)
    duration = tx.send(data_frame())
    sim.run(until=duration / 2)
    channel.unregister(leaver)
    sim.run()
    assert len(stayer_l.received) == 1
    assert stayer_l.received[0].all_unicast_ok
    assert leaver.frames_received == 0


@pytest.mark.parametrize("fraction", [0.0, 0.5])
def test_reregistered_phy_ignores_stale_deliveries(fraction):
    """Leaving and rejoining mid-frame must not resurrect the old deliveries.

    With ``fraction == 0.0`` both the begin and the end delivery are still
    queued when the PHY leaves; with ``0.5`` only the end is.  Either way
    they were scheduled under the old attach generation and are dropped.
    """
    sim = Simulator(seed=24)
    channel, tx, rx, _, rx_l = build_pair(sim)
    duration = tx.send(data_frame())
    sim.run(until=duration * fraction)
    channel.unregister(rx)
    channel.register(rx)
    assert rx.state is PhyState.IDLE
    assert not rx.carrier_busy
    sim.run(until=duration / 2 + duration * fraction / 2)
    assert rx.state is PhyState.IDLE
    assert not rx.carrier_busy
    sim.run()
    assert rx_l.received == []
    assert rx.frames_received == 0
    assert not rx.carrier_busy
    # Frames sent after rejoining reach it as usual.
    tx.send(data_frame())
    sim.run()
    assert len(rx_l.received) == 1
    assert rx_l.received[0].all_unicast_ok


def test_drained_run_retains_no_events():
    """Fired events are garbage unless a caller still holds one.

    Regression: the channel used to keep a handle for every delivery it had
    ever scheduled, which kept each fired event, its arguments and its
    transmission alive for the life of the channel.
    """
    sim = Simulator(seed=26)
    channel, tx, rx, _, rx_l = build_pair(sim)
    phys = [tx, rx]
    kept = sim.schedule(0.0, tx.position_at, 0.0)
    for _ in range(3):
        tx.send(data_frame())
        sim.run()
    assert len(rx_l.received) == 3
    gc.collect()
    survivors = [obj for obj in gc.get_objects()
                 if isinstance(obj, Event)
                 and getattr(obj.callback, "__self__", None) in phys]
    assert survivors == [kept]
    assert kept.fired and not kept.active


def test_end_reception_without_begin_raises():
    sim = Simulator(seed=27)
    _, tx, rx, _, _ = build_pair(sim)
    transmission = Transmission(sender=tx, frame=data_frame(), start_time=0.0,
                                duration=1e-3, power_dbm=8.9)
    with pytest.raises(PhyError, match="never began"):
        rx.end_reception(transmission, rx._attach_generation)


def test_end_reception_refuses_negative_carrier_count():
    sim = Simulator(seed=28)
    _, tx, rx, _, _ = build_pair(sim)
    transmission = Transmission(sender=tx, frame=data_frame(), start_time=0.0,
                                duration=1e-3, power_dbm=8.9)
    # Decodable but below the carrier-sense threshold: no carrier counted.
    rx.config.carrier_sense_threshold_dbm = -80.0
    rx.begin_reception(transmission, -85.0, rx._attach_generation)
    assert not rx.carrier_busy
    # Lowering the threshold mid-frame makes the end look sensed.
    rx.config.carrier_sense_threshold_dbm = -92.0
    with pytest.raises(PhyError, match="negative"):
        rx.end_reception(transmission, rx._attach_generation)


def test_link_budget_memo_matches_uncached_channel():
    """The per-link budget memo must be invisible in the numbers."""
    sim = Simulator(seed=23)
    observed = {}
    for memo in (True, False):
        channel = WirelessChannel(sim, link_budget_memo=memo)
        a = Phy(sim, channel, position=(0.0, 0.0), name="a")
        b = Phy(sim, channel, position=(2.5, 0.0), name="b")
        # Twice: the second call exercises the cache-hit path.
        first = channel.received_power_dbm(a, b, 8.9)
        assert channel.received_power_dbm(a, b, 8.9) == first
        # Moving an endpoint invalidates via the position equality check.
        b.position = (5.0, 0.0)
        moved = channel.received_power_dbm(a, b, 8.9)
        assert moved < first
        observed[memo] = (first, moved)
    assert observed[True] == observed[False]


def test_propagation_models_monotone_in_distance():
    log_model = LogDistancePathLoss()
    near = log_model.path_loss_db((0, 0), (1, 0))
    far = log_model.path_loss_db((0, 0), (10, 0))
    assert far > near


def test_aging_kills_tail_subframes_of_oversized_aggregates():
    """An aggregate far beyond the 120 Ksample ceiling loses its tail subframes."""
    sim = Simulator(seed=12)
    _, tx, rx, _, rx_l = build_pair(sim)
    # 8 KB of unicast at 0.65 Mbps is ~190 Ksamples: the last subframes must fail.
    frame = data_frame(n_unicast=6, size=1464, rate=RATE_065)
    tx.send(frame)
    sim.run()
    result = rx_l.received[0]
    assert result.unicast_ok[0] is True
    assert result.unicast_ok[-1] is False
    assert not result.all_unicast_ok
