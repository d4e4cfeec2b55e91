"""Observability: metrics, timeline/pcap export, profiling, live progress.

The package is deliberately layered so the simulator core can depend on it
without cycles: nothing here imports from ``repro.sim`` (or any protocol
layer) at runtime.  ``repro.obs.cli`` pulls in the experiment registry and
is therefore *not* re-exported — import it explicitly.

* :mod:`repro.obs.probe` — the one emission point of every protocol event,
  which the instruments below (and :mod:`repro.obs.tracer`) subscribe to;
* :mod:`repro.obs.metrics` — hierarchical Counter/Gauge/Histogram registry
  with label sets, deterministic snapshots and the event -> metric table;
* :mod:`repro.obs.timeline` — Chrome trace-event (Perfetto) export of
  :class:`~repro.obs.tracer.Tracer` streams;
* :mod:`repro.obs.capture` — JSONL frame capture at the PHY/MAC boundary;
* :mod:`repro.obs.journey` — per-packet journey tracing with latency
  waterfalls and the packet-conservation audit;
* :mod:`repro.obs.profiler` — wall-clock-by-category hot-path profiler;
* :mod:`repro.obs.session` — the ambient :func:`~repro.obs.session.observe`
  context manager that wires all of the above into every simulator created
  inside it;
* :mod:`repro.obs.progress` — live per-job campaign progress reporting.
"""

from repro.obs.capture import FrameCapture
from repro.obs.journey import (
    JourneyRecorder,
    conservation_audit,
    flow_summaries,
    journey_waterfall,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import Probe
from repro.obs.profiler import HotPathProfiler
from repro.obs.progress import ProgressReporter
from repro.obs.session import ObsConfig, ObsSession, active_session, observe
from repro.obs.timeline import chrome_trace_document, export_chrome_trace
from repro.obs.tracer import TraceRecord, Tracer

__all__ = [
    "FrameCapture",
    "HotPathProfiler",
    "JourneyRecorder",
    "MetricsRegistry",
    "ObsConfig",
    "ObsSession",
    "Probe",
    "ProgressReporter",
    "TraceRecord",
    "Tracer",
    "active_session",
    "chrome_trace_document",
    "conservation_audit",
    "export_chrome_trace",
    "flow_summaries",
    "journey_waterfall",
    "observe",
]
