"""Routing control overhead scaling: DSDV vs AODV vs static routes.

``rt01`` priced the proactive control plane against its beacon interval.
This experiment prices the **proactive/reactive trade-off** itself: DSDV
pays a fixed, always-on advertisement cost that is independent of traffic,
while AODV pays per *requested destination* — RREQ floods, RREP replies and
RERR repairs that scale with the number of active flows.  Static routes pay
nothing and repair nothing, anchoring both delivery and overhead.

Setup: a grid mesh (spacing below the ~12.5 m decodability limit) whose
nodes roam under random waypoint at the swept speed.  ``flow_count`` UDP CBR
flows run between deterministic, seed-sampled node pairs (the pair list is
prefix-nested and hop-balanced, so ``k`` flows are always a subset of
``k+1`` flows with a comparable mean path length).  Crucially the
**aggregate offered load is held constant**: each flow sends at
``1/(cbr_interval_s * flow_count)`` packets per second, so sweeping the flow
count changes only *how many destinations* the control plane must serve —
and how *sparse* each destination's traffic becomes — not how many data
bytes the mesh carries.  Those two are exactly the variables that separate
the protocols: AODV pays per destination (one expanding-ring flood each,
plus RERR repair under mobility), and once a flow's packet spacing exceeds
the ``route_lifetime`` its route cache expires between packets and *every*
packet pays a fresh discovery — the classic reactive-state-thrashing regime
that constant-load flow splitting drives the mesh into.

Reported per (routing, policy, speed) over the swept flow count:

* ``<routing> <policy> delivery @<speed>mps`` — aggregate end-to-end
  delivery ratio across all flows (received / sent);
* ``<routing> <policy> ctrl frac @<speed>mps`` — network-wide
  ``routing_overhead_fraction``: HELLO + DSDV/AODV bytes as a fraction of
  all transmitted MAC payload bytes, straight from ``mac.stats``.

How to read the comparison: AODV's fraction **grows** with the flow count
(every additional destination buys its own expanding-ring flood plus its
share of RERR/re-discovery as links churn), DSDV's stays **~flat** (its
beacons and full dumps are the same whether one pair or six pairs talk), and
static stays at exactly zero.  The crossing point — below it the reactive
protocol is cheaper, above it the proactive one — is the textbook result,
here measured through the paper's real MAC so NA/UA/BA aggregation policies
price the control packets differently.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.cbr import CbrSource, UdpSink
from repro.core.policies import (
    AggregationPolicy,
    broadcast_aggregation,
    no_aggregation,
    unicast_aggregation,
)
from repro.errors import ExperimentError
from repro.mobility.models import RandomWaypoint
from repro.net.discovery import HelloConfig
from repro.net.dynamic_routing import DsdvConfig
from repro.net.on_demand import AodvConfig
from repro.sim.simulator import Simulator
from repro.stats.results import ExperimentResult, Series
from repro.topology.mobile import MobileScenario, populate_grid

DEFAULT_FLOW_COUNTS = (1, 2, 4, 6)
DEFAULT_SPEEDS_MPS = (0.0, 2.0)
DEFAULT_ROUTINGS = ("static", "dsdv", "aodv")

#: Grid spacing: safely inside the ~12.5 m decodability limit, so adjacent
#: grid nodes are solid neighbors at the initial placement.
DEFAULT_GRID_SPACING_M = 8.0


def _grid_hops(pair: Tuple[int, int], grid_side: int) -> int:
    """Initial-placement hop distance of a flow (Manhattan on the grid)."""
    (row_a, col_a), (row_b, col_b) = (divmod(index - 1, grid_side)
                                      for index in pair)
    return abs(row_a - row_b) + abs(col_a - col_b)


def _sample_flows(node_indices: Sequence[int], flow_count: int, seed: int,
                  grid_side: int) -> List[Tuple[int, int]]:
    """Deterministic, prefix-nested, hop-balanced (source, destination) pairs.

    Drawn from a dedicated ``random.Random`` (independent of the simulator's
    streams), shuffled once, then greedily reordered so that every prefix's
    *mean hop distance* stays as close as possible to the population mean —
    the transit byte load is therefore comparable at every flow count, and
    the overhead fraction responds to the number of destinations rather than
    to which pair the shuffle happened to put first.  The ``k``-flow set is
    always a prefix of the ``k+1``-flow set and identical across
    routing/policy variants of the same seed.

    Each greedy pick depends only on the picks before it, so the loop stops
    after ``flow_count`` picks: the result equals the first ``flow_count``
    entries of the full greedy ordering.  Every pair's hop distance is
    computed once, and the cost is O(``flow_count`` × pairs) instead of
    O(pairs²) for ordering every pair.
    """
    pairs = [(a, b) for a in node_indices for b in node_indices if a != b]
    if flow_count > len(pairs):
        raise ExperimentError(
            f"cannot place {flow_count} distinct flows on {len(node_indices)} nodes")
    rng = random.Random(99991 * seed + 7)  # lint: disable=RPR001 -- param sampling seeded from the replica seed; runs before any simulator exists
    rng.shuffle(pairs)
    hops = [_grid_hops(pair, grid_side) for pair in pairs]
    target = sum(hops) / len(pairs)
    ordered: List[Tuple[int, int]] = []
    total_hops = 0
    for count in range(1, flow_count + 1):
        # min() keeps the first minimum, i.e. the earliest pair in shuffled
        # order among equally good ones.
        best = min(range(len(pairs)),
                   key=lambda i: abs((total_hops + hops[i]) / count - target))
        ordered.append(pairs.pop(best))
        total_hops += hops.pop(best)
    return ordered


def _install_grid_routes(network, flows: Sequence[Tuple[int, int]],
                         grid_side: int) -> None:
    """Static L-shaped (row-then-column) routes for each flow's forward path.

    The static baseline mirrors the paper's methodology: routes are named at
    build time from the *initial* grid coordinates and never change, so
    mobility decides whether each named hop still works.
    """
    def coords(index: int) -> Tuple[int, int]:
        return divmod(index - 1, grid_side)

    def index(row: int, col: int) -> int:
        return row * grid_side + col + 1

    for source, destination in flows:
        row, col = coords(source)
        dest_row, dest_col = coords(destination)
        path = [source]
        while row != dest_row:
            row += 1 if dest_row > row else -1
            path.append(index(row, col))
        while col != dest_col:
            col += 1 if dest_col > col else -1
            path.append(index(row, col))
        destination_ip = network.node(destination).ip
        for hop, next_hop in zip(path, path[1:]):
            network.node(hop).add_route(destination_ip, network.node(next_hop).ip)


def _run_once(policy: AggregationPolicy, routing: str, flow_count: int,
              speed: float, grid_side: int, grid_spacing_m: float,
              hello_interval: float, aodv_hello_interval: float,
              advertise_interval: float, route_lifetime: float,
              cbr_interval_s: float, cbr_payload_bytes: int, warmup: float,
              duration: float, rate_mbps: float, seed: int) -> Tuple[float, float]:
    """One mesh run; returns (aggregate delivery ratio, control fraction)."""
    sim = Simulator(seed=seed)
    config = None
    if routing == "dsdv":
        config = DsdvConfig(hello=HelloConfig(hello_interval=hello_interval),
                            advertise_interval=advertise_interval)
    elif routing == "aodv":
        # Near the RFC 3561 operating point: 1 s HELLOs and an expanding
        # ring that genuinely starts at TTL 1, so each requested destination
        # pays an escalating flood — the cost the experiment is designed to
        # expose.  The active-route lifetime sits between the per-flow
        # packet spacings at the two ends of the sweep, so splitting the
        # fixed load across more destinations pushes flows into the
        # rediscovery-per-packet regime.
        config = AodvConfig(hello=HelloConfig(hello_interval=aodv_hello_interval),
                            active_route_lifetime=route_lifetime,
                            ring_start_ttl=1, ring_ttl_increment=2)
    scenario = MobileScenario(sim, policy=policy, unicast_rate_mbps=rate_mbps,
                              stop_time=duration, routing=routing,
                              routing_config=config)
    model_factory = None
    if speed > 0:
        model_factory = lambda row, col, area: RandomWaypoint(
            area=area, speed_range=(speed, speed))
    populate_grid(scenario, grid_side, grid_spacing_m, model_factory)

    network = scenario.network
    node_indices = [node.index for node in network.nodes]
    flows = _sample_flows(node_indices, flow_count, seed, grid_side)
    if routing == "static":
        _install_grid_routes(network, flows, grid_side)

    # Constant aggregate offered load: each of the k flows sends at 1/k of
    # the base rate, so data bytes do not scale with the flow count.
    sinks: List[UdpSink] = []
    sources: List[CbrSource] = []
    for flow_index, (source_index, destination_index) in enumerate(flows):
        port = 9000 + flow_index
        sinks.append(UdpSink(network.node(destination_index), local_port=port))
        source = CbrSource(network.node(source_index),
                           network.node(destination_index).ip,
                           destination_port=port, local_port=port,
                           interval=cbr_interval_s * flow_count,
                           payload_bytes=cbr_payload_bytes)
        # Stagger the starts so k route discoveries do not collide at t=warmup.
        source.start(warmup + 0.05 * flow_index)
        sources.append(source)
    sim.run(until=duration)

    sent = sum(source.packets_sent for source in sources)
    received = sum(sink.packets_received for sink in sinks)
    delivery = received / sent if sent else 0.0
    payload = sum(node.mac_stats.payload_bytes_sent for node in network.nodes)
    control = sum(node.mac_stats.routing_bytes_sent for node in network.nodes)
    control_fraction = control / payload if payload else 0.0
    return delivery, control_fraction


def run(flow_counts: Sequence[int] = DEFAULT_FLOW_COUNTS,
        speeds_mps: Sequence[float] = DEFAULT_SPEEDS_MPS,
        routings: Sequence[str] = DEFAULT_ROUTINGS,
        grid_side: int = 3, grid_spacing_m: float = DEFAULT_GRID_SPACING_M,
        hello_interval: float = 0.5, aodv_hello_interval: float = 1.0,
        advertise_interval: float = 1.5, route_lifetime: float = 1.5,
        cbr_interval_s: float = 0.3, cbr_payload_bytes: int = 80,
        warmup: float = 3.0, duration: float = 16.0, rate_mbps: float = 0.65,
        include_no_aggregation: bool = True,
        include_unicast_aggregation: bool = False,
        seed: int = 1) -> ExperimentResult:
    """Sweep the flow count; report delivery and overhead per routing/policy/speed."""
    if grid_side < 2:
        raise ExperimentError("rt02 needs at least a 2x2 grid")
    if not flow_counts or any(count < 1 for count in flow_counts):
        raise ExperimentError("flow counts must be positive")
    if list(flow_counts) != sorted(set(flow_counts)):
        raise ExperimentError("flow counts must be strictly increasing")
    unknown = sorted(set(routings) - set(DEFAULT_ROUTINGS))
    if unknown:
        raise ExperimentError(
            f"unknown routing(s) {unknown}; valid: {sorted(DEFAULT_ROUTINGS)}")
    if warmup >= duration:
        raise ExperimentError("warmup must end before the run does")
    result = ExperimentResult(
        experiment_id="rt02",
        description="Control overhead scaling vs active flows: "
                    "DSDV vs AODV vs static (NA/UA/BA)",
    )
    variants = [("BA", broadcast_aggregation)]
    if include_unicast_aggregation:
        variants.insert(0, ("UA", unicast_aggregation))
    if include_no_aggregation:
        variants.insert(0, ("NA", no_aggregation))

    control_growth: Dict[str, Optional[float]] = {}
    for routing in routings:
        for label, policy_factory in variants:
            for speed in speeds_mps:
                suffix = f"{label} @{speed:g}mps"
                delivery_series = result.add_series(
                    Series(label=f"{routing} {suffix} delivery"))
                control_series = result.add_series(
                    Series(label=f"{routing} {suffix} ctrl frac"))
                for flow_count in flow_counts:
                    delivery, control = _run_once(
                        policy_factory(), routing=routing,
                        flow_count=flow_count, speed=speed,
                        grid_side=grid_side, grid_spacing_m=grid_spacing_m,
                        hello_interval=hello_interval,
                        aodv_hello_interval=aodv_hello_interval,
                        advertise_interval=advertise_interval,
                        route_lifetime=route_lifetime,
                        cbr_interval_s=cbr_interval_s,
                        cbr_payload_bytes=cbr_payload_bytes, warmup=warmup,
                        duration=duration, rate_mbps=rate_mbps, seed=seed)
                    delivery_series.add(flow_count, delivery)
                    control_series.add(flow_count, control)
                if routing not in control_growth:
                    # Headline metric from the first (policy, speed) variant:
                    # overhead change from the fewest to the most flows.
                    control_growth[routing] = (
                        control_series.y_values[-1] - control_series.y_values[0])

    for routing, growth in control_growth.items():
        result.add_metric(f"{routing}_ctrl_frac_growth", growth)
    if "aodv" in control_growth and "dsdv" in control_growth:
        result.add_metric("aodv_minus_dsdv_growth",
                          control_growth["aodv"] - control_growth["dsdv"])
    result.note("Aggregate offered load is constant across the sweep (per-flow "
                "rate is 1/k of the base rate), so the flow count varies only "
                "the number of destinations the control plane must serve and "
                "how sparse each destination's traffic is relative to the "
                "active-route lifetime.")
    result.note("Beyond the paper: the proactive/reactive trade-off measured "
                "through the real MAC — DSDV's beacons are flow-independent, "
                "AODV pays one expanding-ring discovery (plus RERR repair "
                "under mobility) per requested destination, static routes pay "
                "zero control bytes and never repair.")
    return result


#: Campaign registry hooks (see :mod:`repro.campaign.registry`).
EXPERIMENT_ID = "rt02"
#: Reduced sweep used by campaign runs unless ``--full`` is given.
FAST_PARAMS = {"flow_counts": (1, 6), "speeds_mps": (2.0,), "duration": 8.0,
               "warmup": 3.0, "include_no_aggregation": False}
