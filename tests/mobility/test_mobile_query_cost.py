"""What a mobile frame and a waypoint query cost, and that the cost is invisible.

Waypoint models keep the time their generated trajectory reaches in a slot,
so a query inside it generates nothing; the channel positions a frame's
sender once, not once per receiver.  Neither may change a single position
or received power.
"""

from __future__ import annotations

import random

import pytest

from repro.channel.medium import WirelessChannel
from repro.mobility.models import RandomWalk, RandomWaypoint
from repro.phy import PhyFrame
from repro.phy.device import Phy
from repro.phy.rates import hydra_rate_table
from repro.sim.simulator import Simulator

AREA = (0.0, 0.0, 20.0, 20.0)
ORIGIN = (10.0, 10.0)
QUERY_TIMES = (5.0, 1.0, 5.0, 20.0)
_BEGIN_RECEPTION = Phy.begin_reception

MODEL_FACTORIES = {
    "waypoint": lambda: RandomWaypoint(AREA, speed_range=(1.0, 3.0), pause_time=0.4),
    "walk": lambda: RandomWalk(AREA, speed_range=(1.0, 3.0), leg_duration=1.5),
}


def _bound(factory):
    return factory().bind(random.Random(17), ORIGIN)


@pytest.mark.parametrize("kind", sorted(MODEL_FACTORIES))
def test_query_order_does_not_move_positions(kind):
    factory = MODEL_FACTORIES[kind]
    model = _bound(factory)
    answers = [model.position_at(time) for time in QUERY_TIMES]
    for time, answer in zip(QUERY_TIMES, answers):
        assert _bound(factory).position_at(time) == answer


@pytest.mark.parametrize("kind", sorted(MODEL_FACTORIES))
def test_frontier_slot_tracks_the_last_leg(kind):
    model = _bound(MODEL_FACTORIES[kind])
    assert model._frontier_time == 0.0
    model.position_at(5.0)
    legs = model.legs
    assert model._frontier_time == legs[-1].end_time >= 5.0
    # Queries inside the generated trajectory draw no new legs.
    model.position_at(1.0)
    model.position_at(legs[-1].end_time)
    assert model.legs == legs


class _CountingQueries:
    """Wraps one model's ``position_at`` and counts the calls."""

    def __init__(self, model) -> None:
        self.calls = 0
        self._inner = model.position_at
        model.position_at = self

    def __call__(self, time):
        self.calls += 1
        return self._inner(time)


def _frame() -> PhyFrame:
    subframe = type("Subframe", (), {"size_bytes": 200})()
    return PhyFrame.data([], [subframe], unicast_rate=hydra_rate_table().by_mbps(0.65))


def _mobile_broadcasts(monkeypatch, link_budget_memo: bool):
    """Two frames from one mobile PHY; sender queries and rx powers per frame."""
    sim = Simulator(seed=5)
    channel = WirelessChannel(sim, link_budget_memo=link_budget_memo)
    phys = [Phy(sim, channel, position=(4.0 * (i % 3), 4.0 * (i // 3)), name=f"n{i}")
            for i in range(6)]
    for phy in phys:
        phy.set_mobility(RandomWaypoint(AREA, speed_range=(2.0, 2.0)), stop_time=4.0)
    sender = phys[0]
    counter = _CountingQueries(sender.mobility)
    powers = []

    def recording_begin(self, transmission, rx_power_dbm, generation):
        powers.append((transmission.start_time, self.name, rx_power_dbm))
        return _BEGIN_RECEPTION(self, transmission, rx_power_dbm, generation)

    monkeypatch.setattr(Phy, "begin_reception", recording_begin)
    queries = []
    for when in (1.0, 2.5):
        sim.run(until=when)
        before = counter.calls
        channel.broadcast(sender, _frame(), 1e-3, sender.config.tx_power_dbm)
        queries.append(counter.calls - before)
    sim.run(until=4.0)
    return queries, powers


def test_broadcast_positions_its_sender_once_per_frame(monkeypatch):
    queries, powers = _mobile_broadcasts(monkeypatch, link_budget_memo=True)
    assert queries == [1, 1]
    assert powers  # someone heard each frame


def test_broadcast_powers_match_the_unmemoised_channel(monkeypatch):
    memo = _mobile_broadcasts(monkeypatch, link_budget_memo=True)
    plain = _mobile_broadcasts(monkeypatch, link_budget_memo=False)
    assert memo == plain
