"""Hierarchical metrics registry.

One :class:`MetricsRegistry` holds every metric of one simulator run.  Three
instrument kinds cover the repo's needs:

* :class:`Counter` — a monotonically increasing count (frames transmitted,
  exchanges failed);
* :class:`Gauge` — a point-in-time value (queue depth, totals harvested from
  an existing statistics object at snapshot time); and
* :class:`Histogram` — a fixed-bucket distribution (SNR, retries per
  exchange, frame airtime).

Metrics are identified by a dotted hierarchical name (``"phy.rx_frames"``)
plus a **label set** (``node="node3.phy", outcome="collided"``), so one
logical metric fans out per node / per layer / per outcome without ad-hoc
dict-of-dict counters.

The registry is a probe subscriber: :data:`METRIC_TABLE` declares which
counters and histograms each protocol event feeds, so no layer calls the
registry per event.  An observability session subscribes one registry per
simulator; without one nothing is allocated and nothing is stored.

Besides live instruments, layers may register **collectors** — callbacks run
at snapshot time that harvest an existing statistics object (e.g.
:class:`~repro.mac.stats.MacStatistics`) into gauges.  Collectors give full
per-node/per-layer export depth with zero per-event cost.

Snapshots are **deterministically ordered** (sorted by name, then by the
sorted label items), so two runs of the same seed serialize byte-identically
and snapshots can be compared with ``==``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

#: Default histogram bucket upper bounds (``+Inf`` is implicit).  Chosen to
#: be useful for the repo's common distributions (dB values, counts, small
#: durations); pass explicit ``bounds`` for anything else.
DEFAULT_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)

#: A resolved metric key: the dotted name plus the sorted label items.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _labels_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative; not checked on the hot path)."""
        self.value += amount


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = value

    def add(self, amount: float) -> None:
        """Adjust the gauge by ``amount`` (for up/down quantities)."""
        self.value += amount


class Histogram:
    """A fixed-bucket distribution with total count and sum."""

    __slots__ = ("bounds", "bucket_counts", "count", "total")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(sorted(bounds))
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        """Mean of the observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0


#: Signature of a snapshot-time collector: it receives the registry and sets
#: gauges (or increments counters) from state it already maintains.
Collector = Callable[["MetricsRegistry"], None]


#: A label value or an observed value: the name of an event field, or a
#: function of the event's ``(fields, detail)``.
Spec = Union[str, Callable[[Dict[str, Any], Any], Any]]


def _resolve(spec: Spec, fields: Dict[str, Any], detail: Any) -> Any:
    return fields[spec] if isinstance(spec, str) else spec(fields, detail)


def _const(value: str) -> Callable[[Dict[str, Any], Any], str]:
    return lambda fields, detail: value


class Feed:
    """A :data:`METRIC_TABLE` entry: count the event in counter ``name``, or
    with a ``value`` observe it in histogram ``name``.  Labelled
    ``node=<source>`` plus ``labels``."""

    __slots__ = ("name", "value", "labels")

    def __init__(self, name: str, value: Optional[Spec] = None,
                 **labels: Spec) -> None:
        self.name = name
        self.value = value
        self.labels = labels

    def __call__(self, registry: "MetricsRegistry", source: str,
                 fields: Dict[str, Any], detail: Any) -> None:
        labels = {label: _resolve(spec, fields, detail)
                  for label, spec in self.labels.items()}
        if self.value is None:
            registry.counter(self.name, node=source, **labels).inc()
        else:
            registry.histogram(self.name, node=source, **labels).observe(
                _resolve(self.value, fields, detail))


def _rx_outcome(fields: Dict[str, Any], result: Any) -> str:
    if fields["collided"]:
        return "collided"
    return "decoded" if result.any_ok else "undecoded"


#: ``(layer, kind) -> feeds`` of that probe event.  A frame going on the air
#: is one event (the PHY's ``tx_start``), which also yields the channel's
#: per-frame metrics.
METRIC_TABLE: Dict[Tuple[str, str], Tuple[Feed, ...]] = {
    ("phy", "tx_start"): (
        Feed("phy.tx_frames", kind="kind"),
        Feed("channel.transmissions", kind="kind"),
        Feed("channel.airtime_ms",
             lambda fields, frame: fields["duration"] * 1e3),
    ),
    ("phy", "rx_end"): (
        Feed("phy.rx_frames", kind="kind", outcome=_rx_outcome),
        Feed("phy.rx_snr_db", lambda fields, result: result.snr_db),
    ),
    ("mac", "queue_full"): (Feed("mac.queue_drops", kind="queue"),),
    ("mac", "enqueue"): (Feed("mac.enqueued", queue="queue"),),
    ("mac", "exchange_done"): (
        Feed("mac.exchanges", outcome=_const("success")),
        Feed("mac.exchange_retries", lambda fields, retries: retries),
    ),
    ("mac", "exchange_failed"): (
        Feed("mac.exchanges", outcome=_const("failure")),),
    ("discovery", "neighbor_up"): (
        Feed("discovery.neighbor_events", transition=_const("up")),),
    ("discovery", "neighbor_down"): (
        Feed("discovery.neighbor_events", transition=_const("down")),),
    ("dsdv", "update_tx"): (
        Feed("dsdv.updates", kind=lambda fields, detail: (
            "triggered" if fields["triggered"] else "periodic")),),
    ("aodv", "rreq_tx"): (Feed("aodv.control_tx", kind=_const("rreq")),),
}


class MetricsRegistry:
    """Registry of named, labelled instruments with deterministic export.

    As a probe subscriber it counts the events named in :data:`METRIC_TABLE`;
    collectors and direct ``counter(...)``/``gauge(...)``/``histogram(...)``
    use need no probe.
    """

    #: The probe events that feed an instrument.
    kinds = frozenset(METRIC_TABLE)

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}
        self._collectors: List[Collector] = []

    # ------------------------------------------------------------------
    # Instrument resolution
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        key = (name, _labels_key(labels))
        found = self._counters.get(key)
        if found is None:
            found = self._counters[key] = Counter()
        return found

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        key = (name, _labels_key(labels))
        found = self._gauges.get(key)
        if found is None:
            found = self._gauges[key] = Gauge()
        return found

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS,
                  **labels: Any) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use.

        ``bounds`` applies only at creation; later calls with different
        bounds reuse the existing instrument unchanged.
        """
        key = (name, _labels_key(labels))
        found = self._histograms.get(key)
        if found is None:
            found = self._histograms[key] = Histogram(bounds)
        return found

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge ``(name, labels)`` to ``value`` (collectors' helper)."""
        self.gauge(name, **labels).set(value)

    def on_probe(self, now: float, layer: str, kind: str, source: str,
                 packet: Any, detail: Any, fields: Dict[str, Any]) -> None:
        """Feed every instrument :data:`METRIC_TABLE` lists for the event."""
        for feed in METRIC_TABLE[layer, kind]:
            feed(self, source, fields, detail)

    # ------------------------------------------------------------------
    # Collectors
    # ------------------------------------------------------------------
    def register_collector(self, collector: Collector) -> None:
        """Run ``collector(registry)`` at every snapshot, so a layer exports
        statistics it already keeps (``MacStatistics``, forwarding counters)
        at no per-event cost; layers register through the probe."""
        self._collectors.append(collector)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Deterministically ordered JSON-compatible dump of every metric.

        Collectors run first (in registration order — construction order,
        which is deterministic) so harvested gauges are current.
        """
        for collector in self._collectors:
            collector(self)
        return {
            "counters": [
                {"name": name, "labels": dict(labels), "value": counter.value}
                for (name, labels), counter in sorted(self._counters.items())
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": gauge.value}
                for (name, labels), gauge in sorted(self._gauges.items())
            ],
            "histograms": [
                {
                    "name": name,
                    "labels": dict(labels),
                    "count": histogram.count,
                    "sum": histogram.total,
                    "buckets": [
                        {"le": bound, "count": count}
                        for bound, count in zip(
                            list(histogram.bounds) + ["+Inf"],
                            histogram.bucket_counts)
                    ],
                }
                for (name, labels), histogram in sorted(self._histograms.items())
            ],
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry instruments={len(self)}>"

