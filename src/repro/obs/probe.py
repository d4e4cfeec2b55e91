"""The probe: one emission point per simulator for every protocol event.

Each protocol event reports itself once, behind one guard::

    if self._probe.enabled:                  # self._probe caches sim.probe
        self._probe.emit("mac", "enqueue", self.name, packet,
                         queue="bcast", bytes=subframe.size_bytes)

``layer`` and ``kind`` name the event and ``source`` the emitting component
(``"node3.mac"``).  The keyword ``fields`` are exactly the event's trace
record fields; what a single subscriber needs travels outside them:
``packet`` is what a journey follows (a packet, or the frame, aggregate or
list carrying subframes) and ``detail`` anything else (the PHY frame, a
``ReceptionResult``, an exchange's retry count).

Subscribers declare the ``(layer, kind)`` pairs they handle in ``kinds`` and
receive them through ``on_probe(now, layer, kind, source, packet, detail,
fields)``: the :class:`~repro.obs.tracer.Tracer`, the
:class:`~repro.obs.metrics.MetricsRegistry` (``METRIC_TABLE``), the
:class:`~repro.obs.journey.JourneyRecorder` and the
:class:`~repro.obs.capture.FrameCapture`.  With none subscribed,
:attr:`Probe.enabled` stays false and an event costs an attribute test and
a branch.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Type, TypeVar

from repro.obs.metrics import Collector, MetricsRegistry

S = TypeVar("S")


class Probe:
    """Fans each emitted event out to the subscribers that handle its kind."""

    __slots__ = ("_sim", "enabled", "subscribers", "_routes")

    def __init__(self, sim: Any) -> None:
        self._sim = sim
        self.enabled = False
        self.subscribers: List[Any] = []
        self._routes: Dict[Tuple[str, str], List[Callable[..., None]]] = {}

    def subscribe(self, subscriber: Any) -> None:
        """Route the kinds ``subscriber`` declares to its ``on_probe``."""
        self.subscribers.append(subscriber)
        for key in subscriber.kinds:
            self._routes.setdefault(key, []).append(subscriber.on_probe)
        self.enabled = True

    def subscriber(self, cls: Type[S]) -> Optional[S]:
        """The first subscriber that is a ``cls``, or ``None``."""
        for subscriber in self.subscribers:
            if isinstance(subscriber, cls):
                return subscriber
        return None

    def register_collector(self, collector: Collector) -> None:
        """Hand a snapshot-time collector to the subscribed metrics registry
        (kept nowhere when there is none)."""
        metrics = self.subscriber(MetricsRegistry)
        if metrics is not None:
            metrics.register_collector(collector)

    def emit(self, layer: str, kind: str, source: str, /, packet: Any = None,
             detail: Any = None, **fields: Any) -> None:
        """Report one protocol event to every subscriber of ``(layer, kind)``."""
        handlers = self._routes.get((layer, kind))
        if handlers:
            now = self._sim.now
            for handler in handlers:
                handler(now, layer, kind, source, packet, detail, fields)
