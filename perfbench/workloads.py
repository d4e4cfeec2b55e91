"""The benchmark's workloads: operations, output checks and fingerprints.

A workload is a fixed, ordered list of operations.  Each operation is one
simulation run to completion through a public scenario runner; the seed is
passed to ``Simulator(seed=...)`` and to the runner's flow sampler.  An
operation returns its modelled outputs, which are checked and hashed.

Runners are looked up on their modules at call time, so a tracer installed
after import still sees the calls.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


class Operation(NamedTuple):
    """One simulation: ``call(seed)`` returns its outputs, ``check`` judges them.

    ``check(outputs, counters)`` returns ``None`` when the outputs are valid,
    else a one-line reason.
    """

    op_id: str
    call: Callable[[int], Dict[str, Any]]
    check: Callable[[Dict[str, Any], Dict[str, Any]], Optional[str]]


def _policies():
    from repro.core import policies

    return (("NA", policies.no_aggregation), ("UA", policies.unicast_aggregation),
            ("BA", policies.broadcast_aggregation))


# ---------------------------------------------------------------------------
# paper_tcp
# ---------------------------------------------------------------------------

def _tcp_transfer(factory, hops: int, rate: float, file_bytes: int):
    def call(seed: int) -> Dict[str, Any]:
        from repro.experiments import scenarios

        result = scenarios.run_tcp_transfer(factory(), hops=hops, rate_mbps=rate,
                                            file_bytes=file_bytes, seed=seed)
        return {
            "throughput_mbps": result.throughput_mbps,
            "completion_time": result.completion_time,
            "bytes_received": [result.receiver.bytes_received],
            "expected_bytes": [file_bytes],
        }
    return call


def _star(factory, rate: float, file_bytes: int):
    def call(seed: int) -> Dict[str, Any]:
        from repro.experiments import scenarios

        result = scenarios.run_star_tcp(factory(), rate_mbps=rate,
                                        file_bytes=file_bytes, seed=seed)
        return {
            "session_throughputs_mbps": result.session_throughputs_mbps,
            "completion_times": [r.completion_time for r in result.receivers],
            "bytes_received": [r.bytes_received for r in result.receivers],
            "expected_bytes": [file_bytes] * len(result.receivers),
        }
    return call


def _check_tcp(outputs: Dict[str, Any], counters: Dict[str, Any]) -> Optional[str]:
    received, expected = outputs["bytes_received"], outputs["expected_bytes"]
    if not received or any(got < want for got, want in zip(received, expected)):
        return f"transfer incomplete before the horizon: {received} of {expected} bytes"
    return _check_flows(counters)


def paper_tcp() -> List[Operation]:
    """Section 5's TCP experiments at paper size, plus the 1 MB transfers."""
    from repro.apps.file_transfer import PAPER_FILE_BYTES
    from repro.units import megabytes

    ops = []
    for hops in (2, 3):
        for rate in (0.65, 1.3, 1.95, 2.6):
            for label, factory in _policies():
                ops.append(Operation(f"chain{hops}-{rate:g}Mbps-{label}",
                                     _tcp_transfer(factory, hops, rate, PAPER_FILE_BYTES),
                                     _check_tcp))
    for label, factory in _policies():
        ops.append(Operation(f"star-0.65Mbps-{label}",
                             _star(factory, 0.65, PAPER_FILE_BYTES), _check_tcp))
    for label, factory in _policies():
        ops.append(Operation(f"chain2-1.3Mbps-1MB-{label}",
                             _tcp_transfer(factory, 2, 1.3, megabytes(1)), _check_tcp))
    return ops


# ---------------------------------------------------------------------------
# city_2000 and mobile_mesh
# ---------------------------------------------------------------------------

def _experiment_outputs(result) -> Dict[str, Any]:
    data = result.to_dict()
    return {"series": data["series"], "tables": data["tables"],
            "metrics": data["metrics"]}


def _check_deliveries(outputs: Dict[str, Any]) -> Optional[str]:
    for label, series in sorted(outputs["series"].items()):
        if label.endswith("delivery"):
            for value in series["y_values"]:
                if not 0.0 <= value <= 1.0:
                    return f"{label} delivery ratio {value} outside [0, 1]"
    return None


def _check_flows(counters: Dict[str, Any]) -> Optional[str]:
    if counters["flows"] == 0:
        return "no flow was started"
    if counters["idle_flows"]:
        return f"{counters['idle_flows']} of {counters['flows']} flows sent nothing"
    return None


def _city(protocol: str):
    def call(seed: int) -> Dict[str, Any]:
        from repro.experiments import city01_scale

        params = dict(city01_scale.FAST_PARAMS, protocols=(protocol,))
        return _experiment_outputs(city01_scale.run(seed=seed, **params))
    return call


def _check_city(outputs: Dict[str, Any], counters: Dict[str, Any]) -> Optional[str]:
    fraction = outputs["metrics"]["candidates_fraction_max_n"]
    if not fraction < 0.1:
        return f"candidates_fraction_max_n {fraction} is not below 0.1"
    return _check_deliveries(outputs) or _check_flows(counters)


def city_2000() -> List[Operation]:
    """city01 at its campaign size (FAST_PARAMS): one op per protocol."""
    from repro.experiments import city01_scale

    return [Operation(f"city01-{protocol}", _city(protocol), _check_city)
            for protocol in city01_scale.FAST_PARAMS["protocols"]]


#: rt02 as a 49-node roaming mesh: BA only, 6 flows, 12 sim-s, 3 s warmup.
MOBILE_MESH_PARAMS = {"flow_counts": (6,), "speeds_mps": (2.0,), "grid_side": 7,
                      "duration": 12.0, "warmup": 3.0,
                      "include_no_aggregation": False}


def _mesh(routing: str):
    def call(seed: int) -> Dict[str, Any]:
        from repro.experiments import rt02_overhead_scaling

        return _experiment_outputs(rt02_overhead_scaling.run(
            routings=(routing,), seed=seed, **MOBILE_MESH_PARAMS))
    return call


def _check_mesh(outputs: Dict[str, Any], counters: Dict[str, Any]) -> Optional[str]:
    return _check_deliveries(outputs) or _check_flows(counters)


def mobile_mesh() -> List[Operation]:
    """rt02 on a 7x7 random-waypoint mesh: one op per routing protocol."""
    return [Operation(f"rt02-{routing}", _mesh(routing), _check_mesh)
            for routing in ("dsdv", "aodv")]


WORKLOADS: Dict[str, Callable[[], List[Operation]]] = {
    "paper_tcp": paper_tcp,
    "city_2000": city_2000,
    "mobile_mesh": mobile_mesh,
}

#: The host speed probe's burst per workload, as (heap-loop steps, random byte
#: reads); see ``worker.SpeedProbe``.  Load from neighbouring machines slows
#: each workload as much as the part of the burst it resembles, measured by
#: interleaving both parts with repeated ops on a busy host: ``city_2000``'s
#: 146 MB object graph slows like the cache-missing reads (log-log slope
#: ~1.1, the heap loop ~0.6), ``mobile_mesh`` like the heap loop (slope 1.0,
#: the reads 1.7), and ``paper_tcp`` like an even mix of the two.  Each burst
#: takes ~3.6 ms at nominal speed.
PROBE_MIX: Dict[str, Tuple[int, int]] = {
    "paper_tcp": (4_000, 6_000),
    "city_2000": (0, 12_000),
    "mobile_mesh": (8_000, 0),
}


# ---------------------------------------------------------------------------
# Counters read from the layers' public stats objects
# ---------------------------------------------------------------------------

def _recording_init(original: Callable[..., None], sink: List[Any]) -> Callable[..., None]:
    def __init__(obj, *args, **kwargs):
        original(obj, *args, **kwargs)
        sink.append(obj)
    return __init__


class InstanceRegistry:
    """Remembers every instance of the stats-bearing classes built by an op.

    Hooks only ``__init__`` (a handful of calls per node, none per event), so
    untraced runs can read the layers' counters after the runner returns.
    """

    def __init__(self) -> None:
        from repro.apps.cbr import CbrSource
        from repro.apps.file_transfer import FileTransferSender
        from repro.channel.medium import WirelessChannel
        from repro.mac.stats import MacStatistics
        from repro.net.flooding import FloodingSource
        from repro.net.routing import ForwardingStatistics
        from repro.phy.device import Phy
        from repro.transport.tcp.connection import TcpConnection

        self.classes = {"channel": WirelessChannel, "phy": Phy, "mac": MacStatistics,
                        "net": ForwardingStatistics, "tcp": TcpConnection,
                        "cbr": CbrSource, "flooding": FloodingSource,
                        "ftp": FileTransferSender}
        self.instances: Dict[str, List[Any]] = {name: [] for name in self.classes}
        self._originals: List[Any] = []

    def install(self) -> "InstanceRegistry":
        for name, cls in self.classes.items():
            original = cls.__dict__["__init__"]
            self._originals.append((cls, original))
            cls.__init__ = _recording_init(original, self.instances[name])
        return self

    def uninstall(self) -> None:
        while self._originals:
            cls, original = self._originals.pop()
            cls.__init__ = original

    def collect(self) -> Dict[str, Any]:
        """Sum the counters of everything built since the last collect."""
        inst = self.instances
        channels, phys, macs = inst["channel"], inst["phy"], inst["mac"]
        tcps = inst["tcp"]
        sources = inst["cbr"] + inst["flooding"]
        senders = inst["ftp"]
        idle = sum(1 for s in sources if s.packets_sent == 0)
        idle += sum(1 for s in senders
                    if s.connection is None or s.connection.bytes_sent_total == 0)
        counters = {
            "channel_transmissions": sum(c.total_transmissions for c in channels),
            "channel_candidates": sum(c.total_candidates for c in channels),
            "channel_deliveries": sum(c.total_deliveries for c in channels),
            "phy_receptions": sum(p.frames_received for p in phys),
            "phy_collided": sum(p.frames_collided for p in phys),
            "mac_data_transmissions": sum(m.data_transmissions for m in macs),
            "mac_retransmissions": sum(m.retransmissions for m in macs),
            "mac_queue_drops": sum(m.queue_drops for m in macs),
            "mac_subframes": sum(m.unicast_subframes_sent + m.broadcast_subframes_sent
                                 for m in macs),
            "mac_payload_bytes": sum(m.payload_bytes_sent for m in macs),
            "mac_routing_bytes": sum(m.routing_bytes_sent for m in macs),
            "net_forwarded": sum(f.forwarded for f in inst["net"]),
            "tcp_segments": sum(t.segments_sent for t in tcps),
            "tcp_retransmitted": sum(t.retransmitted_segments for t in tcps),
            "tcp_timeouts": sum(t.timeouts for t in tcps),
            "flows": len(sources) + len(senders),
            "idle_flows": idle,
        }
        for sink in inst.values():
            sink.clear()
        return counters
