"""One pass over a workload, in the interpreter that runs this script.

``run.py`` starts one fresh interpreter per pass so that peak RSS is per pass
and process-global state (``TELEMETRY``, the MAC frame sequence counter)
never leaks between passes.  Imports happen before the clock starts.

    python3 perfbench/worker.py --workload paper_tcp --seed 1 [--trace FILE]

The last line of standard output is one JSON document: per-operation
results (outcome, event count, fingerprint, timings, layer counters) and the
pass totals.  With ``--trace FILE`` the layer tracer is installed first, its
full span report is written to FILE and a summary is added to the document.

Untraced passes also run ``SpeedProbe``: a fixed reference burst interleaved
with the simulation every ``SpeedProbe.INTERVAL_S``.  Its mean time over the
pass measures how fast the host ran meanwhile, and ``wall_s``/``setup_s``
are the host seconds rescaled to the probe's nominal speed (the raw ones are
``host_wall_s``/``host_setup_s``).  See "Host speed" in ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import resource
import signal
import sys
import time
import traceback
from typing import Any, Callable, Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def fingerprint(outputs: Optional[Dict[str, Any]], counters: Dict[str, Any],
                events: int) -> str:
    """sha256 over an operation's modelled outputs, counters and event count."""
    document = {"outputs": outputs, "counters": counters, "events": events}
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


class SpeedProbe:
    """A fixed reference burst, run from ``SIGALRM`` every ``INTERVAL_S``.

    The host is a share of a machine whose neighbours slow it by up to ~2x,
    changing within seconds.  Timing a reference before and after a pass
    cannot follow that; a burst every 0.15 s samples the slowdown over the
    same stretch of time the simulation ran in.  A burst has two parts, mixed
    per workload (``workloads.PROBE_MIX``): an interpreter-bound heap/list
    loop, and random byte reads over a 16 MiB buffer, which miss the 2 MiB
    L2 cache.  Neither allocates a collector-tracked object, so the collector
    runs at the same points as without the probe and fingerprints do not
    change.
    """

    INTERVAL_S = 0.15
    #: Seconds per heap-loop step and per byte read at the nominal host speed:
    #: about the fastest a 2-vCPU Xeon VM ran them (CPython 3.11.7).
    #: Rescaled figures are in seconds at this speed.
    NOMINAL_STEP_S = 450e-9
    NOMINAL_READ_S = 300e-9
    _BUFFER_BYTES = 1 << 24

    def __init__(self, heap_steps: int, reads: int) -> None:
        self.heap_steps = heap_steps
        self.reads = reads
        self.nominal_burst_s = (heap_steps * self.NOMINAL_STEP_S
                                + reads * self.NOMINAL_READ_S)
        self.seconds = 0.0
        self.bursts = 0
        self._heap = [i * 1e-3 for i in range(512)]
        self._table = [0] * 1024
        self._buffer = hashlib.shake_256(b"perfbench").digest(self._BUFFER_BYTES)

    def _burst(self) -> int:
        heap, table, buffer = self._heap, self._table, self._buffer
        now, acc = 0.0, 0
        for i in range(self.heap_steps):
            heapq.heappush(heap, now + (i * 7919 % 1000) * 1e-3)
            now = heapq.heappop(heap)
            key = i & 1023
            acc = (acc + table[key]) & 0xFFFF
            table[key] = acc
        index, mask = 12345, self._BUFFER_BYTES - 1
        for _ in range(self.reads):
            index = (index * 1103515245 + 12345 + acc) & mask
            acc = (acc + buffer[index]) & 0xFF
        return acc

    def _on_alarm(self, signum: int, frame: Any) -> None:
        start = time.perf_counter()
        self._burst()
        self.seconds += time.perf_counter() - start
        self.bursts += 1

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def buffer_mb(self) -> float:
        return len(self._buffer) / (1 << 20)

    def clock(self) -> float:
        """``perf_counter`` that stands still while a burst runs."""
        return time.perf_counter() - self.seconds

    def speed_factor(self) -> float:
        """Nominal over measured burst time: < 1 when the host ran slow."""
        if self.bursts == 0:
            return 1.0
        return self.nominal_burst_s * self.bursts / self.seconds


class RunClock:
    """Host seconds spent inside ``Simulator.run``, timed from outside."""

    def __init__(self, simulator_cls: type,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.seconds = 0.0
        original = simulator_cls.run
        run_clock = self

        def run(sim, *args, **kwargs):
            start = clock()
            try:
                return original(sim, *args, **kwargs)
            finally:
                run_clock.seconds += clock() - start

        simulator_cls.run = run


class GcMeter:
    """Collector pauses and collections per generation, from ``gc.callbacks``.

    It costs nothing per event, only per collection, so it runs in every
    pass.  ``collections`` counts the collections the allocator triggered;
    the worker's own end-of-op ``gc.collect()`` runs with ``explicit`` set and
    adds to ``pause_s`` only, since its count is fixed by the number of ops.
    """

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = [0, 0, 0]
        self.explicit = False
        self._started = 0.0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._started
        if not self.explicit:
            self.collections[info["generation"]] += 1

    def collect(self) -> None:
        self.explicit = True
        try:
            gc.collect()
        finally:
            self.explicit = False


def trace_summary(report: Dict[str, Any]) -> Dict[str, Any]:
    """The parts of a tracer report that feed per-layer metrics."""
    position_queries = sum(count for name, count in report["calls"].items()
                           if name.startswith("mobility:")
                           and name.endswith(".position_at"))
    summary = {key: report[key] for key in ("wall_s", "gc_s", "pushes",
                                             "cancellations", "coverage", "self_s")}
    summary["position_queries"] = position_queries
    return summary


def measure(workload: str, seed: int, trace_path: Optional[str] = None) -> Dict[str, Any]:
    """Run every operation of ``workload`` once; return the pass document."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.sim.simulator import Simulator
    from repro.sim.telemetry import TELEMETRY

    from workloads import PROBE_MIX, WORKLOADS, InstanceRegistry

    gc_meter = GcMeter()
    tracer = probe = None
    if trace_path is not None:
        from tracer import LayerTracer

        tracer = LayerTracer().install()
        clock = time.perf_counter
    else:
        probe = SpeedProbe(*PROBE_MIX[workload])
        clock = probe.clock
    registry = InstanceRegistry().install()
    run_clock = RunClock(Simulator, clock)
    operations = WORKLOADS[workload]()
    if probe is not None:
        probe.start()

    results = []
    totals: Dict[str, int] = {}
    wall = 0.0
    for op in operations:
        events_before = TELEMETRY.events
        run_before = run_clock.seconds
        if tracer is not None:
            tracer.begin_op(op.op_id)
        outputs = failure = None
        start = clock()
        try:
            outputs = op.call(seed)
        except Exception as exc:  # an op that raises is a failed op; go on
            failure = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        elapsed = clock() - start
        counters = registry.collect()
        # The op ends once its world is freed.  Without this, whether the
        # previous world is still uncollected garbage depends on where the
        # collector's thresholds fall, which moves peak RSS by ~15%.
        start = clock()
        gc_meter.collect()
        elapsed += clock() - start
        if tracer is not None:
            tracer.end_op()
        events = TELEMETRY.events - events_before
        if failure is None:
            failure = op.check(outputs, counters)
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
        wall += elapsed
        results.append({
            "op": op.op_id,
            "ok": failure is None,
            "failure": failure,
            "events": events,
            "fingerprint": fingerprint(outputs, counters, events),
            "wall_s": elapsed,
            "run_s": run_clock.seconds - run_before,
        })

    if probe is not None:
        probe.stop()
    setup = wall - sum(result["run_s"] for result in results)
    factor = probe.speed_factor() if probe is not None else 1.0
    document = {
        "workload": workload,
        "seed": seed,
        "ops": results,
        "wall_s": wall * factor,
        "setup_s": setup * factor,
        "host_wall_s": wall,
        "host_setup_s": setup,
        "probe": {"bursts": probe.bursts if probe else 0,
                  "burst_s": probe.seconds / probe.bursts if probe and probe.bursts else None,
                  "speed_factor": factor},
        "events": sum(result["events"] for result in results),
        "counters": totals,
        # The probe's buffer is the benchmark's, not the simulator's memory.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                        - (probe.buffer_mb() if probe is not None else 0.0)),
        "gc": {"pause_s": gc_meter.pause_s, "collections": gc_meter.collections},
    }
    if tracer is not None:
        tracer.uninstall()
        report = tracer.report()
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
        document["trace"] = trace_summary(report)
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="install the layer tracer and write its report here")
    args = parser.parse_args(argv)
    document = measure(args.workload, args.seed, args.trace)
    print(json.dumps(document, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
