"""The probe is the only instrumentation path out of the protocol layers.

* Static: outside ``repro.obs`` (and the linter, whose fixtures name the old
  emitters) no layer calls an instrument directly or reads one off the
  simulator; every emission names its event with literal ``(layer, kind)``
  strings, and the subscribers' kind tables match the emitted kinds both
  ways, so an event cannot be traced but not counted by accident.
* Dynamic: an unobserved run subscribes nothing, emits nothing and builds no
  trace record or journey event, while an observed one builds both.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import pytest

import repro
from repro.campaign.registry import get_registry
from repro.core.policies import unicast_aggregation
from repro.experiments.scenarios import run_tcp_transfer
from repro.obs import journey as journey_module
from repro.obs import tracer as tracer_module
from repro.obs.capture import FrameCapture
from repro.obs.journey import JourneyRecorder
from repro.obs.metrics import METRIC_TABLE, MetricsRegistry
from repro.obs.probe import Probe
from repro.obs.session import observe
from repro.obs.tracer import Tracer
from repro.sim import simulator as simulator_module

SRC_REPRO = Path(repro.__file__).parent

#: ``receiver -> methods`` of the per-instrument calls the probe replaced.
INSTRUMENT_CALLS = {
    "tracer": {"emit", "record"},
    "metrics": {"inc", "observe"},
    "journey": {"begin", "record"},
}
INSTRUMENTS = ("tracer", "metrics", "journey", "capture")


def _layer_modules() -> Iterator[Tuple[str, ast.Module]]:
    for path in sorted(SRC_REPRO.rglob("*.py")):
        relative = path.relative_to(SRC_REPRO).as_posix()
        if relative.startswith(("obs/", "lint/")):
            continue
        yield relative, ast.parse(path.read_text(encoding="utf-8"))


def _tail(node: ast.expr) -> Optional[str]:
    """``self._journey`` -> ``journey``; ``sim`` -> ``sim``."""
    if isinstance(node, ast.Name):
        return node.id.lstrip("_")
    if isinstance(node, ast.Attribute):
        return node.attr.lstrip("_")
    return None


def _emit_sites() -> List[Tuple[str, int, ast.Call]]:
    sites = []
    for relative, tree in _layer_modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"
                    and _tail(node.func.value) == "probe"):
                sites.append((relative, node.lineno, node))
    return sites


def _emitted_kinds() -> Set[Tuple[str, str]]:
    kinds = set()
    for relative, line, call in _emit_sites():
        layer, kind = call.args[0], call.args[1]
        assert isinstance(layer, ast.Constant) and isinstance(kind, ast.Constant), \
            f"{relative}:{line}: emit with a non-literal layer or kind"
        kinds.add((layer.value, kind.value))
    return kinds


def test_layers_reach_instruments_only_through_the_probe():
    direct_calls, instrument_reads = [], []
    for relative, tree in _layer_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                receiver, method = _tail(node.func.value), node.func.attr
                if (method in INSTRUMENT_CALLS.get(receiver, ())
                        or (receiver == "capture" and method.startswith("record_"))):
                    direct_calls.append(f"{relative}:{node.lineno} "
                                        f"{receiver}.{method}")
            if (relative != "sim/simulator.py"
                    and isinstance(node, ast.Attribute)
                    and node.attr in INSTRUMENTS
                    and _tail(node.value) == "sim"):
                instrument_reads.append(f"{relative}:{node.lineno} sim.{node.attr}")
    assert not direct_calls, direct_calls
    assert not instrument_reads, instrument_reads


def test_every_guard_is_probe_enabled_around_one_emission():
    problems = []
    for relative, tree in _layer_modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.If):
                continue
            mentions = [m for m in ast.walk(node.test)
                        if isinstance(m, ast.Attribute) and m.attr == "enabled"
                        and _tail(m.value) == "probe"]
            if not mentions:
                continue
            emits = [c for stmt in node.body for c in ast.walk(stmt)
                     if isinstance(c, ast.Call)
                     and isinstance(c.func, ast.Attribute)
                     and c.func.attr == "emit"]
            if node.test is not mentions[0] or len(emits) != 1 or node.orelse:
                problems.append(f"{relative}:{node.lineno}")
    assert not problems, problems


def test_emission_sites_exist_in_every_emitting_layer():
    modules = {relative.split("/")[0] for relative, _, _ in _emit_sites()}
    assert {"phy", "mac", "net", "transport", "apps"} <= modules


def test_kind_tables_and_emission_sites_agree():
    emitted = _emitted_kinds()
    tables: Dict[str, Set[Tuple[str, str]]] = {
        "metrics": set(METRIC_TABLE),
        "tracer": set(Tracer.kinds),
        "journey": set(JourneyRecorder.kinds),
        "capture": set(FrameCapture.kinds),
    }
    # Every metric (and every other table entry) has an emission site...
    for name, kinds in tables.items():
        assert kinds <= emitted, (name, sorted(kinds - emitted))
    # ...and every emitted event feeds at least one subscriber.
    handled = set().union(*tables.values())
    assert emitted <= handled, sorted(emitted - handled)
    assert set(MetricsRegistry.kinds) == tables["metrics"]


def test_probe_routes_each_kind_to_its_subscribers_only(sim):
    tracer, metrics = Tracer(), MetricsRegistry()
    sim.probe.subscribe(tracer)
    sim.probe.subscribe(metrics)
    assert sim.probe.enabled
    sim.probe.emit("mac", "enqueue", "node1.mac", None, queue="ucast", bytes=10)
    sim.probe.emit("net", "forward", "node1.net", None, ttl=3)  # journeys only
    assert [(r.category, r.event, r.fields) for r in tracer.records] == [
        ("mac", "enqueue", {"queue": "ucast", "bytes": 10})]
    assert metrics.counter("mac.enqueued", node="node1.mac",
                           queue="ucast").value == 1
    assert len(metrics) == 1


@pytest.fixture
def allocations(monkeypatch):
    """Counts probe subscriptions, emissions, trace records and journey
    events, and collects every simulator created."""
    counts = {"subscribe": 0, "emit": 0, "TraceRecord": 0, "JourneyEvent": 0}
    simulators = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Probe, "subscribe", counting("subscribe", Probe.subscribe))
    monkeypatch.setattr(Probe, "emit", counting("emit", Probe.emit))
    monkeypatch.setattr(tracer_module, "TraceRecord",
                        counting("TraceRecord", tracer_module.TraceRecord))
    monkeypatch.setattr(journey_module, "JourneyEvent",
                        counting("JourneyEvent", journey_module.JourneyEvent))
    adopt = simulator_module.on_simulator_created

    def on_created(sim):
        simulators.append(sim)
        adopt(sim)

    monkeypatch.setattr(simulator_module, "on_simulator_created", on_created)
    return counts, simulators


def test_unobserved_fig09_subscribes_and_allocates_nothing(allocations):
    counts, simulators = allocations
    spec = get_registry().get("fig09")
    spec.run(seed=1, **dict(spec.resolve_params({}, fast=True)))
    assert simulators
    assert all(not sim.probe.enabled and not sim.probe.subscribers
               for sim in simulators)
    assert counts == {"subscribe": 0, "emit": 0, "TraceRecord": 0,
                      "JourneyEvent": 0}


def test_observed_run_allocates_through_the_same_counters(allocations):
    """Control for the test above: the counters do see an observed run."""
    counts, simulators = allocations
    with observe(trace=True, journey=True):
        run_tcp_transfer(unicast_aggregation(), file_bytes=5_000, seed=3)
    assert len(simulators) == 1 and simulators[0].probe.enabled
    assert counts["subscribe"] == 2
    assert counts["emit"] > 0
    assert counts["TraceRecord"] > 0
    assert counts["JourneyEvent"] > 0
