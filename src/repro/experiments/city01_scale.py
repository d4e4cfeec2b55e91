"""City scale: protocol degradation and medium cost as N grows to thousands.

This experiment family goes **beyond the paper**: Section 5's testbed tops
out at four nodes, while the reproduction's north star is replaying the
aggregation trade-offs at city scale.  ``city01`` builds an 8 m-spaced
lattice of 1,000–10,000 stationary nodes (see
:mod:`repro.topology.city`) and loads it with hundreds of concurrent local
UDP CBR flows, measuring how each way of moving packets degrades as the
city grows:

* ``flooding`` — one-hop broadcast dissemination from sources spread across
  the lattice (the paper's flooding workload, which does not rebroadcast):
  delivery ratio is *reached receivers / (N - 1)*, so it falls as 1/N — the
  textbook reason naive dissemination cannot scale;
* ``dsdv`` — the proactive control plane: every node beacons and advertises
  routes whether or not anyone talks to it, so control overhead grows with
  N even though the offered data load does not;
* ``aodv`` — the reactive control plane: discovery cost scales with the
  *flow* count (each local flow pays a bounded expanding-ring search), so
  overhead tracks traffic, not city size.

The experiment exists in tandem with the channel's spatial index: without it
every transmission budgets all N PHYs and a 2,000-node run is O(N) per
frame.  Each run therefore also reports the *candidates fraction* — link
budgets actually evaluated per transmission divided by (N - 1), straight
from the channel's ``candidates_considered`` counter.  Above the channel's
:data:`~repro.channel.medium.SCAN_MAX_PHYS` (64 PHYs) candidates come from
the grid index and the fraction collapses to the mean neighbourhood size
over N; at or below it the channel scans every PHY, the cheaper enumeration
on small worlds, and the fraction is exactly 1.0.  CI asserts the collapse
(``candidates_fraction_max_n``), which is the acceptance proof that indexed
broadcast is sub-O(N).

Reported per protocol over the swept node count:

* ``<protocol> delivery`` — delivered / offered (per potential receiver for
  flooding, end-to-end for the routed protocols);
* ``<protocol> ctrl frac`` — HELLO + routing bytes as a fraction of all MAC
  payload bytes (0 for flooding: no control plane);
* ``<protocol> cand frac`` — mean link budgets per transmission / (N - 1).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.apps.cbr import CbrSource, UdpSink
from repro.core.policies import AggregationPolicy, broadcast_aggregation
from repro.errors import ExperimentError
from repro.net.discovery import HelloConfig
from repro.net.dynamic_routing import DsdvConfig
from repro.net.flooding import FloodingSource
from repro.net.on_demand import AodvConfig
from repro.sim.simulator import Simulator
from repro.stats.results import ExperimentResult, Series
from repro.topology.city import (
    CITY_SPACING_M,
    assert_distinct,
    nearby_flow_pairs,
    populate_city,
    spread_indices,
)
from repro.topology.mobile import MobileScenario

DEFAULT_NODE_COUNTS = (500, 1000, 2000)
DEFAULT_PROTOCOLS = ("flooding", "dsdv", "aodv")


def _build_scenario(sim: Simulator, policy: AggregationPolicy, protocol: str,
                    node_count: int, spacing_m: float, placement: str,
                    rate_mbps: float, duration: float,
                    hello_interval: float) -> MobileScenario:
    routing = "static"
    config = None
    if protocol == "dsdv":
        routing = "dsdv"
        config = DsdvConfig(hello=HelloConfig(hello_interval=hello_interval))
    elif protocol == "aodv":
        routing = "aodv"
        # TTL-1 expanding ring: a local flow's discovery reaches its grid
        # neighbourhood, not the whole city.
        config = AodvConfig(hello=HelloConfig(hello_interval=hello_interval),
                            ring_start_ttl=1, ring_ttl_increment=2)
    scenario = MobileScenario(sim, policy=policy, unicast_rate_mbps=rate_mbps,
                              stop_time=duration, routing=routing,
                              routing_config=config)
    populate_city(scenario, node_count, spacing_m=spacing_m,
                  placement=placement)
    return scenario


def _run_once(protocol: str, node_count: int, flow_count: int,
              spacing_m: float, placement: str, flooding_interval: float,
              flooding_payload_bytes: int, cbr_interval: float,
              cbr_payload_bytes: int, hello_interval: float, warmup: float,
              duration: float, rate_mbps: float, seed: int) -> Tuple[float, float, float]:
    """One city run; returns (delivery, control fraction, candidates fraction)."""
    sim = Simulator(seed=seed)
    scenario = _build_scenario(sim, broadcast_aggregation(), protocol,
                               node_count, spacing_m, placement, rate_mbps,
                               duration, hello_interval)
    network = scenario.network

    flooders: List[FloodingSource] = []
    sources: List[CbrSource] = []
    sinks: List[UdpSink] = []
    if protocol == "flooding":
        for index in assert_distinct(spread_indices(node_count, flow_count)):
            node = network.node(index)
            flooder = FloodingSource(sim, node.network, node.ip,
                                     interval=flooding_interval,
                                     payload_bytes=flooding_payload_bytes)
            flooder.start()
            flooders.append(flooder)
    else:
        flows = nearby_flow_pairs(node_count, flow_count, seed)
        for flow_index, (source_index, destination_index) in enumerate(flows):
            port = 9000 + flow_index
            sinks.append(UdpSink(network.node(destination_index),
                                 local_port=port))
            source = CbrSource(network.node(source_index),
                               network.node(destination_index).ip,
                               destination_port=port, local_port=port,
                               interval=cbr_interval,
                               payload_bytes=cbr_payload_bytes)
            # Stagger the starts so hundreds of discoveries do not collide
            # at t=warmup (same idiom as rt02, scaled to the flow count).
            source.start(warmup + (0.5 * cbr_interval * flow_index) / flow_count)
            sources.append(source)
    sim.run(until=duration)

    if protocol == "flooding":
        sent = sum(flooder.packets_sent for flooder in flooders)
        received = sum(node.network.stats.delivered_broadcast
                       for node in network.nodes)
        potential = sent * (len(network.nodes) - 1)
        delivery = received / potential if potential else 0.0
    else:
        sent = sum(source.packets_sent for source in sources)
        received = sum(sink.packets_received for sink in sinks)
        delivery = received / sent if sent else 0.0
    payload = sum(node.mac_stats.payload_bytes_sent for node in network.nodes)
    control = sum(node.mac_stats.routing_bytes_sent for node in network.nodes)
    control_fraction = control / payload if payload else 0.0

    channel = scenario.channel
    per_tx_pool = channel.total_transmissions * (node_count - 1)
    candidates_fraction = (channel.total_candidates / per_tx_pool
                           if per_tx_pool else 0.0)
    return delivery, control_fraction, candidates_fraction


def run(node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
        protocols: Sequence[str] = DEFAULT_PROTOCOLS,
        flow_count: int = 200, spacing_m: float = CITY_SPACING_M,
        placement: str = "grid", flooding_interval: float = 0.5,
        flooding_payload_bytes: int = 64, cbr_interval: float = 0.5,
        cbr_payload_bytes: int = 160, hello_interval: float = 1.0,
        warmup: float = 1.0, duration: float = 6.0, rate_mbps: float = 0.65,
        seed: int = 1) -> ExperimentResult:
    """Sweep the city size; report delivery, overhead and medium cost per protocol."""
    if not node_counts or any(count < 9 for count in node_counts):
        raise ExperimentError("city01 needs node counts of at least 9 (a 3x3 city)")
    if list(node_counts) != sorted(set(node_counts)):
        raise ExperimentError("node counts must be strictly increasing")
    unknown = sorted(set(protocols) - set(DEFAULT_PROTOCOLS))
    if unknown:
        raise ExperimentError(
            f"unknown protocol(s) {unknown}; valid: {sorted(DEFAULT_PROTOCOLS)}")
    if warmup >= duration:
        raise ExperimentError("warmup must end before the run does")
    result = ExperimentResult(
        experiment_id="city01",
        description="city-scale delivery/overhead vs N "
                    "(flooding vs DSDV vs AODV, spatially indexed medium)",
    )
    candidates_at_max: Dict[str, float] = {}
    for protocol in protocols:
        delivery_series = result.add_series(Series(label=f"{protocol} delivery"))
        control_series = result.add_series(Series(label=f"{protocol} ctrl frac"))
        candidate_series = result.add_series(Series(label=f"{protocol} cand frac"))
        for node_count in node_counts:
            delivery, control, candidates = _run_once(
                protocol, node_count=node_count, flow_count=flow_count,
                spacing_m=spacing_m, placement=placement,
                flooding_interval=flooding_interval,
                flooding_payload_bytes=flooding_payload_bytes,
                cbr_interval=cbr_interval,
                cbr_payload_bytes=cbr_payload_bytes,
                hello_interval=hello_interval, warmup=warmup,
                duration=duration, rate_mbps=rate_mbps, seed=seed)
            delivery_series.add(node_count, delivery)
            control_series.add(node_count, control)
            candidate_series.add(node_count, candidates)
        candidates_at_max[protocol] = candidate_series.y_values[-1]

    max_n = max(node_counts)
    result.add_metric("max_node_count", float(max_n))
    # The sub-O(N) acceptance metric: across every protocol at the largest
    # city, the channel evaluated far fewer link budgets per transmission
    # than the N-1 a full scan would have (CI gates on this).
    result.add_metric("candidates_fraction_max_n",
                      max(candidates_at_max.values()))
    if "flooding" in candidates_at_max:
        flooding_delivery = result.get_series("flooding delivery")
        result.add_metric("flooding_delivery_drop",
                          flooding_delivery.y_values[0]
                          - flooding_delivery.y_values[-1])
    result.note("Beyond the paper: the evaluation testbed is four nodes; here "
                "the same MAC and aggregation policy serve a lattice city of "
                "thousands, which is only tractable because the channel's "
                "spatial index prunes each broadcast to the transmitter's "
                "neighbourhood (see repro.channel.spatial).")
    result.note("Flooding delivery is per potential receiver, so it decays "
                "as ~neighbourhood/N; DSDV pays control bytes for the whole "
                "city regardless of traffic; AODV pays per local flow.")
    return result


#: Campaign registry hooks (see :mod:`repro.campaign.registry`).
EXPERIMENT_ID = "city01"
#: Reduced sweep used by campaign runs unless ``--full`` is given.  DSDV is
#: excluded here on purpose: its city-wide advertisement tables are the
#: degradation *result*, priced at full parameters, not a smoke-test cost.
FAST_PARAMS = {"node_counts": (2000,), "protocols": ("flooding", "aodv"),
               "flow_count": 100, "duration": 2.0, "warmup": 0.5}
