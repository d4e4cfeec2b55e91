"""Repository benchmark: three workloads, timed end to end, traced per layer.

    python3 perfbench/run.py --workload paper_tcp --seed 1 --seconds 30 --trace 0

Run from anywhere; it finds ``src/`` next to this directory.  Each pass over
the workload runs in a fresh interpreter (``worker.py``), one at a time, and
passes repeat until ``--seconds`` is spent (at least ``MIN_PASSES``).

``--trace 0`` reports the end-to-end metrics: the median over passes of
``wall_s``, ``setup_s`` and ``peak_rss_mb``.  The two times are host seconds
rescaled to a nominal host speed by the worker's interleaved speed probe, so
that load from neighbouring machines does not move them; the raw host
seconds are in the record and the summary.  ``--trace 1`` runs one pass
under the layer tracer plus untraced passes for the rest of the time, and
reports the per-layer metrics.  Every pass must give the same per-operation
fingerprints, traced or not; otherwise ``correct`` is false.  Operations
whose output check fails are counted in ``failed``.

The last line of standard output is the JSON result.  A human-readable
summary (quartiles, sample counts, the host record, failed operations and
behaviour drift against ``fingerprints.json``) goes to standard error, and
the full record to ``perfbench/out/``.  See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "fingerprints.json")

#: Fewest untraced passes behind an end-to-end median.  Two, not more, so
#: that a run on a host slowed down twofold still ends near ``--seconds``.
MIN_PASSES = 2
#: Every run must end within this many seconds, passes included.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (median of three): the host's speed."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total = (total * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_record() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "calibration_s": calibrate(),
    }


def run_pass(workload: str, seed: int, deadline: float,
             trace_path: Optional[str] = None) -> Dict[str, Any]:
    """One pass in a fresh interpreter; returns the worker's document."""
    command = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    if trace_path is not None:
        command += ["--trace", trace_path]
    started = time.perf_counter()
    try:
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                   timeout=max(1.0, deadline - time.monotonic()),
                                   check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass of {workload} exceeded the deadline") from exc
    if completed.returncode != 0:
        raise BenchError(f"worker exited with {completed.returncode}")
    lines = completed.stdout.decode().strip().splitlines()
    try:
        document = json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError("worker printed no result") from exc
    document["process_s"] = time.perf_counter() - started
    return document


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def signature(document: Dict[str, Any]) -> List[Any]:
    return [(op["op"], op["events"], op["fingerprint"]) for op in document["ops"]]


def end_to_end(passes: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    spec = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
    return {name: dict(quartiles([p[name] for p in passes]), unit=unit)
            for name, unit in spec}


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(traced: Dict[str, Any],
              passes: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics: span times from the traced pass, the rest from untraced ones."""
    trace = traced["trace"]
    layers = trace["self_s"]
    counters = passes[0]["counters"]
    events = passes[0]["events"]
    untraced_wall = statistics.median(p["host_wall_s"] for p in passes)
    gc_pause = statistics.median(p["gc"]["pause_s"] for p in passes)
    gen2 = statistics.median(p["gc"]["collections"][2] for p in passes)
    us_per_event = statistics.median(
        _share(1e6 * (p["wall_s"] - p["setup_s"]), p["events"]) for p in passes)

    def self_s(layer: str) -> float:
        return layers.get(layer, 0.0)

    metrics = {
        "gc.pause_s": (gc_pause, "s"),
        "gc.gen2_collections": (gen2, "count"),
        "sim.pushes": (trace["pushes"], "count"),
        "sim.self_s": (self_s("sim"), "s"),
        "sim.events": (events, "count"),
        "sim.host_us_per_event": (us_per_event, "us"),
        "sim.cancelled_share": (_share(trace["cancellations"], trace["pushes"]), "ratio"),
        "channel.self_s": (self_s("channel"), "s"),
        "channel.transmissions": (counters["channel_transmissions"], "count"),
        "channel.candidates_per_tx": (_share(counters["channel_candidates"],
                                             counters["channel_transmissions"]), "count"),
        "channel.delivered_share": (_share(counters["channel_deliveries"],
                                           counters["channel_candidates"]), "ratio"),
        "topology.self_s": (self_s("topology"), "s"),
        "experiments.self_s": (self_s("experiments"), "s"),
        "phy.self_s": (self_s("phy"), "s"),
        "phy.receptions": (counters["phy_receptions"], "count"),
        "phy.collided_share": (_share(counters["phy_collided"],
                                      counters["phy_receptions"]), "ratio"),
        "mac.self_s": (self_s("mac"), "s"),
        "mac.data_transmissions": (counters["mac_data_transmissions"], "count"),
        "mac.retry_share": (_share(counters["mac_retransmissions"],
                                   counters["mac_data_transmissions"]), "ratio"),
        "mac.queue_drops": (counters["mac_queue_drops"], "count"),
        "core.self_s": (self_s("core"), "s"),
        "core.subframes_per_tx": (_share(counters["mac_subframes"],
                                         counters["mac_data_transmissions"]), "count"),
        "mobility.self_s": (self_s("mobility"), "s"),
        "mobility.position_queries": (trace["position_queries"], "count"),
        "net.self_s": (self_s("net"), "s"),
        "net.forwarded": (counters["net_forwarded"], "count"),
        "net.control_share": (_share(counters["mac_routing_bytes"],
                                     counters["mac_payload_bytes"]), "ratio"),
        "transport.self_s": (self_s("transport"), "s"),
        "transport.segments": (counters["tcp_segments"], "count"),
        "transport.retransmit_share": (_share(counters["tcp_retransmitted"],
                                              counters["tcp_segments"]), "ratio"),
        "transport.rto_timeouts": (counters["tcp_timeouts"], "count"),
        "apps.self_s": (self_s("apps"), "s"),
        "node.self_s": (self_s("node"), "s"),
        "trace.coverage": (trace["coverage"], "ratio"),
        "trace.overhead": (_share(traced["wall_s"], untraced_wall), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def drift(workload: str, seed: int, ops: List[Any]) -> Optional[List[str]]:
    """Ops whose fingerprint differs from the committed reference (None: no reference)."""
    if not os.path.isfile(REFERENCE):
        return None
    with open(REFERENCE, encoding="utf-8") as handle:
        recorded = json.load(handle).get(workload, {}).get(str(seed))
    if recorded is None:
        return None
    current = {op: [events, digest] for op, events, digest in ops}
    return sorted(op for op in set(recorded) | set(current)
                  if recorded.get(op) != current.get(op))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    budget_end = min(started + seconds, deadline)
    os.makedirs(OUT, exist_ok=True)
    host = host_record()
    traced = None
    if trace:
        trace_path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
        traced = run_pass(workload, seed, deadline, trace_path)
    passes: List[Dict[str, Any]] = []
    longest = 0.0
    minimum = 1 if trace else MIN_PASSES
    while len(passes) < minimum or time.monotonic() + longest <= budget_end:
        passes.append(run_pass(workload, seed, deadline))
        longest = max(longest, passes[-1]["process_s"])

    runs = passes + ([traced] if traced is not None else [])
    expected = signature(passes[0])
    deterministic = all(signature(p) == expected for p in runs)
    failures = sorted({f"{op['op']}: {op['failure']}"
                       for p in runs for op in p["ops"] if not op["ok"]})
    summary = end_to_end(passes)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "host": host,
        "deterministic": deterministic,
        # Every pass runs the same ops with the same fingerprints (else
        # ``correct`` is false), so one pass's counts stand for the run and do
        # not grow with the number of passes that fit into ``--seconds``.
        "attempted": len(passes[0]["ops"]),
        "failed": sum(1 for op in passes[0]["ops"] if not op["ok"]),
        "failures": failures,
        "drift": drift(workload, seed, expected),
        "end_to_end": summary,
        "host_seconds": {name: quartiles([p[name] for p in passes])
                         for name in ("host_wall_s", "host_setup_s")},
        "passes": [{key: p[key] for key in ("wall_s", "setup_s", "host_wall_s",
                                            "host_setup_s", "probe", "peak_rss_mb",
                                            "events", "process_s", "gc")}
                   for p in passes],
        "ops": passes[0]["ops"],
    }
    if traced is not None:
        record["per_layer"] = per_layer(traced, passes)
        record["trace_summary"] = traced["trace"]
        metrics = record["per_layer"]
    else:
        metrics = {name: {"value": row["median"], "unit": row["unit"]}
                   for name, row in summary.items()}
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    record["metrics"] = metrics
    return record


def report(record: Dict[str, Any]) -> None:
    """The human-readable summary, on standard error."""
    err = sys.stderr
    host = record["host"]
    print(f"host: nproc={host['nproc']} python={host['python']} "
          f"calibration_s={host['calibration_s']:.4f} {host['platform']}", file=err)
    for name, row in record["end_to_end"].items():
        print(f"{name}: median {row['median']:.4f} {row['unit']} "
              f"(q1 {row['q1']:.4f}, q3 {row['q3']:.4f}, n={row['n']})", file=err)
    factors = [p["probe"]["speed_factor"] for p in record["passes"]]
    print(f"host seconds before rescaling: wall median "
          f"{record['host_seconds']['host_wall_s']['median']:.4f} s, setup median "
          f"{record['host_seconds']['host_setup_s']['median']:.4f} s; speed factor "
          f"{min(factors):.3f}-{max(factors):.3f} over {len(factors)} pass(es)", file=err)
    print(f"operations: {record['attempted']} attempted, {record['failed']} failed",
          file=err)
    for failure in record["failures"]:
        print(f"  failed: {failure}", file=err)
    if not record["deterministic"]:
        print("fingerprints differ between passes of the same seed", file=err)
    if record["drift"] is None:
        print("behaviour drift: no reference fingerprints for this seed", file=err)
    elif record["drift"]:
        print(f"behaviour drift: {len(record['drift'])} op(s) differ from "
              f"fingerprints.json: {', '.join(record['drift'])}", file=err)
    else:
        print("behaviour drift: none (fingerprints match fingerprints.json)", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no simulator sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(record)
    print(json.dumps({"correct": record["deterministic"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
