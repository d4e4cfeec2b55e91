"""Event tracing: the probe subscriber behind the timeline.

A :class:`Tracer` stores one :class:`TraceRecord` per traced probe event
(frame transmissions, MAC exchanges, routing control traffic).  An
observability session subscribes one per simulator when tracing is on;
:mod:`repro.obs.timeline` turns the records into a Perfetto timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass(slots=True)
class TraceRecord:
    """A single trace entry."""

    time: float
    source: str
    category: str
    event: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"{self.time * 1e3:10.3f}ms [{self.source}] {self.category}.{self.event} {extras}"


class Tracer:
    """Stores the traced probe events as :class:`TraceRecord` entries."""

    __slots__ = ("max_records", "records", "dropped")

    #: The probe events the timeline shows.  Events that only feed metrics
    #: or packet journeys (queue drops, aggregation, custody hand-offs) are
    #: not traced.
    kinds = frozenset({
        ("phy", "tx_start"), ("phy", "tx_end"), ("phy", "rx_end"),
        ("mac", "enqueue"), ("mac", "rts"), ("mac", "data_tx"),
        ("mac", "exchange_done"), ("mac", "exchange_failed"),
        ("discovery", "neighbor_up"), ("discovery", "neighbor_down"),
        ("dsdv", "update_tx"),
        ("aodv", "rreq_tx"), ("aodv", "rrep_tx"), ("aodv", "rerr_tx"),
        ("aodv", "discovery_complete"), ("aodv", "discovery_failed"),
    })

    def __init__(self, max_records: Optional[int] = None) -> None:
        self.max_records = max_records
        self.records: List[TraceRecord] = []
        #: Records not stored because :attr:`records` had reached
        #: ``max_records``; a non-zero value means the stored records are a
        #: truncated prefix of the stream.  Other subscribers still see every
        #: event.
        self.dropped = 0

    def on_probe(self, now: float, layer: str, kind: str, source: str,
                 packet: Any, detail: Any, fields: Dict[str, Any]) -> None:
        """Store one event, bounded by ``max_records``."""
        if self.max_records is None or len(self.records) < self.max_records:
            self.records.append(TraceRecord(now, source, layer, kind, fields))
        else:
            self.dropped += 1

    def filter(self, category: Optional[str] = None, event: Optional[str] = None,
               source: Optional[str] = None) -> List[TraceRecord]:
        """Return stored records matching the given category/event/source."""
        result = []
        for record in self.records:
            if category is not None and record.category != category:
                continue
            if event is not None and record.event != event:
                continue
            if source is not None and record.source != source:
                continue
            result.append(record)
        return result

    def clear(self) -> None:
        """Drop all stored records and reset the overflow counter."""
        self.records.clear()
        self.dropped = 0
