"""Mobile-scenario builder.

The paper's topologies (:mod:`repro.topology.builders`) are frozen at build
time: stationary chains and stars with statically installed routes.
:class:`MobileScenario` goes beyond that setup — it wires
:mod:`repro.mobility` models to a :class:`~repro.topology.network.Network`,
so node positions (and with :class:`~repro.channel.propagation.LogNormalShadowing`,
link losses) change while traffic runs.

Typical use::

    sim = Simulator(seed=seed)
    scenario = MobileScenario(sim, policy=broadcast_aggregation(),
                              propagation=LogNormalShadowing(sigma_db=4.0),
                              stop_time=duration)
    anchor = scenario.add_node((10.0, 10.0))                      # stationary
    rover = scenario.add_node((5.0, 5.0),
                              RandomWaypoint(area=(0, 0, 20, 20),
                                             speed_range=(2.0, 2.0)))
    scenario.connect_chain(anchor.index, rover.index)
    network = scenario.network
    sim.run(until=duration)

Nodes added without a model stay stationary at zero overhead (no update
events, identical link-budget floats), which is what lets mobile scenarios
coexist with bit-for-bit reproduction of the paper's stationary experiments.

``routing="dsdv"`` swaps the statically installed routes for the proactive
control plane of :mod:`repro.net.dynamic_routing`: every node runs HELLO
neighbor discovery plus DSDV advertisements (started automatically, bounded
by ``stop_time``), and multi-hop paths repair themselves as nodes move.
``routing="aodv"`` runs the reactive counterpart
(:mod:`repro.net.on_demand`): no proactive advertisements — routes are
discovered by RREQ flooding the first time traffic asks for them and kept
alive only while data flows.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.channel.medium import WirelessChannel
from repro.channel.propagation import PropagationModel
from repro.core.policies import AggregationPolicy
from repro.errors import ConfigurationError
from repro.mobility.models import MobilityModel
from repro.node.hydra import HydraProfile, default_hydra_profile
from repro.node.node import Node, RoutingConfig, validate_routing_mode
from repro.sim.simulator import Simulator
from repro.topology.builders import _install_chain_routes
from repro.topology.network import Network


class MobileScenario:
    """Builds a :class:`Network` whose nodes may carry mobility models.

    Parameters mirror the static builders; ``stop_time`` bounds every model's
    position-update events so runs whose traffic drains do not keep the event
    queue alive to the horizon.
    """

    def __init__(self, sim: Simulator, policy: AggregationPolicy,
                 profile: Optional[HydraProfile] = None,
                 propagation: Optional[PropagationModel] = None,
                 unicast_rate_mbps: Optional[float] = None,
                 broadcast_rate_mbps: Optional[float] = None,
                 use_block_ack: bool = False,
                 channel: Optional[WirelessChannel] = None,
                 stop_time: Optional[float] = None,
                 routing: str = "static",
                 routing_config: Optional[RoutingConfig] = None) -> None:
        validate_routing_mode(routing)
        self.sim = sim
        self.policy = policy
        profile = profile or default_hydra_profile()
        if unicast_rate_mbps is not None:
            profile = profile.with_rates(unicast_rate_mbps, broadcast_rate_mbps)
        self.profile = profile
        self.use_block_ack = use_block_ack
        self.stop_time = stop_time
        self.routing = routing
        self.routing_config = routing_config
        if channel is not None and propagation is not None:
            raise ConfigurationError(
                "pass either an existing channel or a propagation model, not "
                "both: the channel's propagation would silently win")
        self.channel = channel or WirelessChannel(sim, propagation=propagation)
        self.network = Network(sim, self.channel)
        self._next_index = 1

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def add_node(self, position: Tuple[float, float],
                 model: Optional[MobilityModel] = None,
                 index: Optional[int] = None,
                 policy: Optional[AggregationPolicy] = None) -> Node:
        """Add one node at ``position``; ``model=None`` keeps it stationary."""
        if index is None:
            index = self._next_index
        node = Node(self.sim, self.channel, index=index, position=position,
                    policy=policy or self.policy, profile=self.profile,
                    neighbors=self.network.neighbors,
                    use_block_ack=self.use_block_ack,
                    routing=self.routing, routing_config=self.routing_config)
        self.network.add_node(node)
        self._next_index = max(self._next_index, index) + 1
        if model is not None:
            node.set_mobility(model, stop_time=self.stop_time)
        node.start_routing(stop_time=self.stop_time)
        return node

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def connect_chain(self, *indices: int) -> None:
        """Install static chain routes along ``indices`` (in path order).

        Under ``routing="static"`` this keeps the paper's assumption: routes
        name the intended forwarding path, and mobility determines whether
        each hop is currently usable.  Under ``routing="dsdv"`` or
        ``routing="aodv"`` routes are discovered, so installing static ones
        is a configuration error.
        """
        self._require_static("connect_chain")
        _install_chain_routes(self.network, list(indices))

    def connect_pair(self, a: int, b: int) -> None:
        """Install direct (single-hop) routes between two nodes."""
        self._require_static("connect_pair")
        node_a, node_b = self.network.node(a), self.network.node(b)
        node_a.add_route(node_b.ip, node_b.ip)
        node_b.add_route(node_a.ip, node_a.ip)

    def _require_static(self, operation: str) -> None:
        if self.routing != "static":
            raise ConfigurationError(
                f"{operation}() installs static routes, but this scenario uses "
                f"routing={self.routing!r}, which discovers routes by itself")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mobile_nodes(self) -> Sequence[Node]:
        """Nodes that carry a mobility model."""
        return [node for node in self.network.nodes if node.mobility is not None]

    @property
    def routers(self) -> Sequence["object"]:
        """The DSDV/AODV routers of all nodes (empty under static routing)."""
        return [node.router for node in self.network.nodes
                if node.router is not None]

    def run(self, until: Optional[float] = None) -> float:
        """Run the underlying simulator."""
        return self.network.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MobileScenario nodes={len(self.network)} "
                f"mobile={len(self.mobile_nodes)}>")


#: Factory deciding each grid slot's mobility:
#: ``factory(row, col, area) -> Optional[MobilityModel]``; ``area`` is the
#: grid's bounding box ``(x_min, y_min, x_max, y_max)``.
GridModelFactory = Callable[[int, int, Tuple[float, float, float, float]],
                            Optional[MobilityModel]]


def populate_grid(scenario: MobileScenario, grid_side: int, spacing_m: float,
                  model_factory: Optional[GridModelFactory] = None) -> List[Node]:
    """Add a ``grid_side`` × ``grid_side`` grid of nodes to ``scenario``.

    Nodes are added in row-major order (so node indices, and therefore all
    derived RNG streams, are deterministic); returns them in that order.
    Shared by the mesh-routing experiments (``mob03``, ``rt02``) so the grid
    geometry and mobility wiring cannot drift between them.
    """
    extent = (grid_side - 1) * spacing_m
    area = (0.0, 0.0, extent, extent)
    nodes: List[Node] = []
    for row in range(grid_side):
        for col in range(grid_side):
            model = model_factory(row, col, area) if model_factory else None
            nodes.append(scenario.add_node((col * spacing_m, row * spacing_m),
                                           model))
    return nodes
