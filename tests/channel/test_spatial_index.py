"""Property and lifecycle tests for the uniform-grid spatial index.

The grid's one load-bearing promise: its candidate list is a **superset** of
every registered PHY that could detect a frame — at any cell size, for any
placement, stationary or mid-flight, with or without shadowing.  The
differential suite (``tests/integration/test_spatial_determinism.py``) shows
whole runs agree; this file attacks the promise directly on random
placements, and pins the index's lifecycle invariants (purge on unregister,
re-bucketing on moves, no inheritance across id() recycling).
"""

from __future__ import annotations

import gc
import random

import pytest

from helpers.routing import connected_placement

from repro.channel.medium import SCAN_MAX_PHYS, WirelessChannel
from repro.channel.propagation import LogNormalShadowing
from repro.channel.spatial import UniformGridIndex
from repro.errors import ConfigurationError
from repro.phy.device import Phy, PhyConfig
from repro.phy.frame import FrameKind, PhyFrame
from repro.phy.rates import hydra_rate_table
from repro.sim.simulator import Simulator
from repro.topology.city import city_positions

TX_POWER_DBM = PhyConfig().tx_power_dbm
DETECT_FLOOR_DBM = PhyConfig().detect_floor_dbm

#: Cell sizes spanning much-smaller-than-range through much-larger (the
#: superset property must be independent of the cell size; the channel's own
#: index uses the fleet's max range, ~14.6 m for the default PHY).
CELL_SIZES_M = (2.0, 7.0, 14.6, 40.0)


def _build(sim, positions, propagation=None):
    channel = WirelessChannel(sim, propagation=propagation)
    phys = [Phy(sim, channel, position=position, name=f"phy{i + 1}")
            for i, position in enumerate(positions)]
    return channel, phys


def _grid(phys, cell):
    """A grid index of ``cell``-metre cells over ``phys``, built at t=0."""
    spatial = UniformGridIndex(cell)
    for phy in phys:
        spatial.register(phy, 0.0)
    return spatial


def _detectable_receivers(channel, sender, phys, now):
    """Brute force: every PHY whose exact received power clears its floor."""
    receivers = []
    for phy in phys:
        if phy is sender:
            continue
        power = channel.received_power_dbm(sender, phy, TX_POWER_DBM, time=now)
        if power >= phy.config.detect_floor_dbm:
            receivers.append(phy)
    return receivers


def _assert_superset_and_ordered(channel, spatial, phys, now):
    reach = channel._max_range_for(TX_POWER_DBM)
    assert reach is not None
    order = {id(phy): i for i, phy in enumerate(phys)}
    for sender in phys:
        candidates = spatial.candidates(sender.position_at(now), reach, now)
        candidate_ids = {id(phy) for phy in candidates}
        for receiver in _detectable_receivers(channel, sender, phys, now):
            assert id(receiver) in candidate_ids, (
                f"{receiver.name} can detect {sender.name} but the grid "
                f"pruned it (cell={spatial.cell_size_m})")
        ranks = [order[id(phy)] for phy in candidates]
        assert ranks == sorted(ranks), "candidates not in registration order"


# ---------------------------------------------------------------------------
# Superset property
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cell", CELL_SIZES_M)
def test_superset_on_random_connected_placements(cell):
    for trial in range(6):
        rng = random.Random(1000 + trial)
        positions = connected_placement(rng, 8, 24.0)
        sim = Simulator(seed=trial + 1)
        channel, phys = _build(sim, positions)
        _assert_superset_and_ordered(channel, _grid(phys, cell), phys, now=0.0)


@pytest.mark.parametrize("cell", (3.0, 14.6))
def test_superset_on_cluster_placements(cell):
    # Cluster cities are dense in spots and empty elsewhere — the worst case
    # for any index that assumed uniform occupancy.  Connectivity is
    # irrelevant to the property, so disconnected layouts are kept.
    for trial in range(4):
        rng = random.Random(2000 + trial)
        positions = city_positions(40, spacing_m=8.0, placement="clusters",
                                   cluster_count=4, cluster_sigma_m=10.0,
                                   rng=rng)
        sim = Simulator(seed=trial + 1)
        channel, phys = _build(sim, positions)
        _assert_superset_and_ordered(channel, _grid(phys, cell), phys, now=0.0)


def test_superset_under_shadowing_draws():
    # Shadowing can *lower* a link's loss by up to max_sigma_factor * sigma;
    # the index widens its cutoff by exactly that margin (draws are clamped),
    # so even the luckiest draw cannot make a pruned receiver detectable.
    for trial in range(4):
        rng = random.Random(3000 + trial)
        positions = [(rng.uniform(0.0, 120.0), rng.uniform(0.0, 120.0))
                     for _ in range(14)]
        sim = Simulator(seed=trial + 1)
        channel, phys = _build(
            sim, positions,
            propagation=LogNormalShadowing(sigma_db=6.0, coherence_time=0.5))
        spatial = _grid(phys, 10.0)
        # Evaluate at a few coherence epochs: each rolls fresh draws.
        for now in (0.0, 0.7, 1.3):
            _assert_superset_and_ordered(channel, spatial, phys, now=now)


class _Glide:
    """Minimal analytic mobility: constant velocity, no update events.

    Never copies its position into ``phy.position``, so the *only* way the
    index can see this PHY's motion is per-query revalidation against
    ``position_at(now)`` — exactly the code path under test.
    """

    def __init__(self, velocity):
        self.velocity = velocity
        self.origin = None
        self.phy = None

    def attach(self, phy):
        self.phy = phy
        self.origin = phy.position

    def start(self, stop_time=None):
        pass

    def position_at(self, time):
        return (self.origin[0] + self.velocity[0] * time,
                self.origin[1] + self.velocity[1] * time)


def test_superset_mid_flight_without_snapshot_updates():
    for trial in range(4):
        rng = random.Random(4000 + trial)
        positions = connected_placement(rng, 6, 20.0)
        sim = Simulator(seed=trial + 1)
        channel, phys = _build(sim, positions)
        for i, phy in enumerate(phys):
            if i % 2 == 1:
                phy.set_mobility(_Glide((rng.uniform(-4.0, 4.0),
                                         rng.uniform(-4.0, 4.0))))
        spatial = _grid(phys, 5.0)
        # Queries strictly after several cell-widths of travel: stale cells
        # everywhere unless revalidation works.
        for now in (0.0, 3.5, 9.25):
            _assert_superset_and_ordered(channel, spatial, phys, now=now)


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------

def test_move_across_cells_then_unregister_leaves_nothing_behind():
    sim = Simulator(seed=1)
    channel, (anchor, mover) = _build(sim, [(0.0, 0.0), (3.0, 3.0)])
    spatial = channel._ensure_spatial()
    assert spatial.stored_cell_of(mover) == (0, 0)
    # Static position reassignment must re-bucket through the setter hook.
    mover.position = (12.0, 17.0)
    assert spatial.stored_cell_of(mover) == spatial.cell_for((12.0, 17.0))
    spatial.audit()
    # Populate budget-cache rows for the doomed link, both directions.
    channel.received_power_dbm(mover, anchor, TX_POWER_DBM)
    channel.received_power_dbm(anchor, mover, TX_POWER_DBM)
    mover_id = id(mover)
    assert any(mover_id in key for key in channel._budget_cache)

    channel.unregister(mover)
    assert mover not in spatial
    assert spatial.stored_cell_of(mover) is None
    assert len(spatial) == 1
    spatial.audit()
    assert not any(mover_id in key for key in channel._budget_cache)


def test_mobile_entry_unregisters_cleanly_mid_flight():
    sim = Simulator(seed=2)
    channel, (anchor, rover) = _build(sim, [(0.0, 0.0), (2.0, 2.0)])
    rover.set_mobility(_Glide((6.0, 0.0)))
    spatial = channel._ensure_spatial()
    assert spatial.mobile_count == 1
    # A query at t=3 revalidates and re-buckets the rover into another cell.
    spatial.candidates((0.0, 0.0), 1.0, 3.0)
    assert spatial.stored_cell_of(rover) == spatial.cell_for((20.0, 2.0))
    channel.unregister(rover)
    assert spatial.mobile_count == 0
    assert rover not in spatial
    spatial.audit()


def test_reregistration_after_id_recycling_never_inherits():
    sim = Simulator(seed=3)
    channel, (anchor, ghost) = _build(sim, [(0.0, 0.0), (23.0, 23.0)])
    spatial = channel._ensure_spatial()
    ghost_cell = spatial.stored_cell_of(ghost)
    channel.received_power_dbm(ghost, anchor, TX_POWER_DBM)
    ghost_id = id(ghost)
    channel.unregister(ghost)
    del ghost
    gc.collect()
    # CPython routinely recycles the freed object's address for the next
    # same-shaped allocation; keep allocating until it does.  The property
    # under test is "no inheritance WHEN recycled", so bail out otherwise.
    fresh = None
    for attempt in range(512):
        candidate = Phy(sim, channel, position=(1.0, 1.0),
                        name=f"fresh{attempt}")
        if id(candidate) == ghost_id:
            fresh = candidate
            break
        channel.unregister(candidate)
        del candidate
        gc.collect()
    if fresh is None:
        pytest.skip("id() was not recycled within 512 allocations")
    assert spatial.stored_cell_of(fresh) == spatial.cell_for((1.0, 1.0))
    assert spatial.stored_cell_of(fresh) != ghost_cell
    assert not any(ghost_id in key and key != (ghost_id, ghost_id)
                   for key in channel._budget_cache), (
        "recycled id inherited budget-cache rows")
    spatial.audit()


def test_unregister_is_idempotent_and_audit_stays_clean():
    sim = Simulator(seed=4)
    channel, phys = _build(sim, [(0.0, 0.0), (6.0, 0.0), (0.0, 6.0)])
    spatial = channel._ensure_spatial()
    channel.unregister(phys[1])
    channel.unregister(phys[1])
    spatial.unregister(phys[1])
    assert len(spatial) == 2
    spatial.audit()


# ---------------------------------------------------------------------------
# The enumeration rule
# ---------------------------------------------------------------------------

def _one_frame_from_corner(node_count):
    """The channel after one frame from the corner of an 8 m lattice city."""
    sim = Simulator(seed=6)
    channel, phys = _build(sim, city_positions(node_count))
    frame = PhyFrame.control_frame(FrameKind.RTS, None,
                                   hydra_rate_table().by_mbps(0.65))
    channel.broadcast(phys[0], frame, 1e-3, TX_POWER_DBM)
    return channel


def test_channel_scans_up_to_scan_max_phys_and_uses_the_grid_above():
    at_limit = _one_frame_from_corner(SCAN_MAX_PHYS)
    assert at_limit._spatial is None
    assert at_limit.total_candidates == SCAN_MAX_PHYS - 1
    above = _one_frame_from_corner(SCAN_MAX_PHYS + 1)
    assert above._spatial is not None
    assert above.total_candidates < SCAN_MAX_PHYS


def test_cell_size_must_be_positive_and_finite():
    with pytest.raises(ConfigurationError):
        UniformGridIndex(0.0)
    with pytest.raises(ConfigurationError):
        UniformGridIndex(-3.0)
    with pytest.raises(ConfigurationError):
        UniformGridIndex(float("inf"))
