"""Differential proof that the spatial index changes speed, never bytes.

The channel enumerates a frame's candidate receivers by one rule: an
exhaustive scan while at most ``SCAN_MAX_PHYS`` PHYs are registered, a
uniform-grid lookup above that.  A detect-floor cull applied identically to
both enumerations decides who actually hears each frame.  If that contract
holds, a grid-indexed run is byte-for-byte identical to a full-scan run of
the same seed: same series, same metrics, same counters.  This file is the
differential harness that pins it, mirroring ``test_perf_determinism.py``'s
memo on/off pattern:

* every covered experiment family (stationary fig09, mobile-mesh rt02 and
  mob03, mobile + shadowing mob01) run twice, scan vs grid, each forced by
  the ``force`` fixture (it sets ``SCAN_MAX_PHYS`` in this process), compared
  via ``ExperimentResult.to_dict()`` — the full observable output;
* the default rule crossing its threshold on an 80-node scenario (grid
  engages) compared against a forced scan, so the switchover itself is
  proven byte-neutral;
* a city01 campaign above the threshold replicated across pool workers, so
  the grid engages through the real rule in fresh processes (where any
  ordering derived from ``id()`` or set iteration would come unstuck).
"""

from __future__ import annotations

import sys
from typing import Tuple

import pytest

from repro.campaign.runner import CampaignRunner
from repro.channel import medium
from repro.core.policies import broadcast_aggregation
from repro.experiments import (
    fig09_udp_flooding,
    mob01_flooding_mobility,
    mob03_mesh_routing,
    rt02_overhead_scaling,
)
from repro.net.flooding import FloodingSource
from repro.sim.simulator import Simulator
from repro.topology.city import populate_city
from repro.topology.mobile import MobileScenario

# Reduced parameter sets: one sweep point each, long enough for real
# contention, short enough that running every family twice stays cheap.
FIG09_PARAMS = {"rates_mbps": (0.65,), "flooding_intervals": (0.5,),
                "duration": 1.5}
MOB01_PARAMS = {"speeds_mps": (2.0,), "node_count": 5, "duration": 2.0,
                "flooding_interval": 0.25}
MOB03_PARAMS = {"speeds_mps": (2.0,), "grid_side": 2, "duration": 4.0,
                "warmup": 2.0, "include_no_aggregation": False}
RT02_PARAMS = {"flow_counts": (1,), "speeds_mps": (2.0,),
               "routings": ("aodv",), "duration": 5.0, "warmup": 2.0,
               "include_no_aggregation": False}

#: ``SCAN_MAX_PHYS`` values that force each enumeration on any world size.
FORCED_SCAN_MAX_PHYS = {"scan": sys.maxsize, "grid": 0}

CASES = [
    pytest.param(fig09_udp_flooding, FIG09_PARAMS, id="fig09-stationary"),
    pytest.param(rt02_overhead_scaling, RT02_PARAMS, id="rt02-aodv-mesh"),
    pytest.param(mob01_flooding_mobility, MOB01_PARAMS,
                 id="mob01-mobile-shadowing"),
    pytest.param(mob03_mesh_routing, MOB03_PARAMS, id="mob03-dsdv-mesh"),
]


@pytest.fixture
def force(monkeypatch):
    """``force("scan")`` or ``force("grid")`` pins this process's enumeration."""
    def pin(enumeration: str) -> None:
        monkeypatch.setattr(medium, "SCAN_MAX_PHYS",
                            FORCED_SCAN_MAX_PHYS[enumeration])
    return pin


@pytest.mark.parametrize("module, params", CASES)
def test_grid_indexed_run_is_byte_identical_to_full_scan(module, params, force):
    # to_dict() is the experiment's entire observable output (series points,
    # metrics, notes); equality here means no float anywhere differed.
    force("scan")
    scan = module.run(seed=3, **params).to_dict()
    force("grid")
    grid = module.run(seed=3, **params).to_dict()
    assert grid == scan


@pytest.mark.parametrize("module, params",
                         [pytest.param(fig09_udp_flooding, FIG09_PARAMS,
                                       id="fig09")])
def test_differential_runs_still_diverge_across_seeds(module, params, force):
    # Guard against the comparison degenerating into something seed-blind.
    force("grid")
    assert (module.run(seed=3, **params).to_dict()
            != module.run(seed=4, **params).to_dict())


def _city_flood_signature(seed: int) -> Tuple[str, bool]:
    """Full observable outcome of an 80-node flooding run, and grid use.

    80 nodes sits *above* ``SCAN_MAX_PHYS`` (64), so the default rule takes
    the grid path here — comparing it against a forced scan proves the
    switchover is byte-neutral exactly where it engages.
    """
    sim = Simulator(seed=seed)
    scenario = MobileScenario(sim, policy=broadcast_aggregation(),
                              unicast_rate_mbps=0.65, stop_time=1.0)
    nodes = populate_city(scenario, 80)
    flooders = []
    for node in nodes[::13]:
        flooder = FloodingSource(sim, node.network, node.ip, interval=0.2,
                                 payload_bytes=64)
        flooder.start()
        flooders.append(flooder)
    sim.run(until=1.0)
    grid_built = scenario.channel._spatial is not None
    return repr((
        [flooder.packets_sent for flooder in flooders],
        [node.network.stats.delivered_broadcast for node in nodes],
        [node.phy.frames_sent for node in nodes],
        [node.phy.frames_received for node in nodes],
        [node.phy.frames_collided for node in nodes],
    )), grid_built


def test_auto_threshold_crossing_is_byte_neutral(force):
    default, default_used_grid = _city_flood_signature(5)
    force("scan")
    scan, scan_used_grid = _city_flood_signature(5)
    assert default_used_grid and not scan_used_grid
    assert default == scan


def test_auto_signature_still_diverges_across_seeds():
    assert _city_flood_signature(5)[0] != _city_flood_signature(6)[0]


#: An 80-node city01 flooding campaign: above SCAN_MAX_PHYS, so every pool
#: worker takes the grid path through the real rule, not a monkeypatch.
CITY01_PARAMS = {"node_counts": (80,), "protocols": ("flooding",),
                 "flow_count": 6, "duration": 2.0, "warmup": 0.5}


def test_grid_campaign_across_pool_workers_matches_inline():
    # The grid index is rebuilt from scratch in every pool worker; candidate
    # order must come out identical there (registration order), or replicas
    # would diverge from the inline run.
    inline = CampaignRunner(jobs=1).run_campaign("city01", seeds=[1, 2],
                                                 overrides=CITY01_PARAMS)
    pooled = CampaignRunner(jobs=2).run_campaign("city01", seeds=[1, 2],
                                                 overrides=CITY01_PARAMS)
    for seed in (1, 2):
        replica = pooled.replicas[seed].to_dict()
        assert replica == inline.replicas[seed].to_dict()
        # A full scan would budget every other PHY (fraction 1.0).
        assert replica["metrics"]["candidates_fraction_max_n"] < 1.0
    assert pooled.aggregate.to_dict() == inline.aggregate.to_dict()
