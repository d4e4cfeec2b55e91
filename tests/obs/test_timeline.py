"""Unit tests for the Chrome trace-event exporter (repro.obs.timeline)."""

from __future__ import annotations

import json

from repro.obs.timeline import (
    chrome_trace_document,
    chrome_trace_events,
    export_chrome_trace,
)
from repro.obs.tracer import TraceRecord


def _record(time, source, category, event, **fields):
    return TraceRecord(time=time, source=source, category=category,
                       event=event, fields=fields)


def test_instant_events_with_node_and_lane_tracks():
    records = [
        _record(0.001, "node1.mac", "mac", "enqueue", queue="ucast"),
        _record(0.002, "node2.mac", "mac", "enqueue", queue="bcast"),
    ]
    events = chrome_trace_events(records)
    instants = [e for e in events if e["ph"] == "i"]
    assert len(instants) == 2
    assert instants[0]["ts"] == 1000.0  # microseconds
    assert instants[0]["args"] == {"queue": "ucast"}
    process_names = {e["args"]["name"] for e in events
                     if e["ph"] == "M" and e["name"] == "process_name"}
    thread_names = {e["args"]["name"] for e in events
                    if e["ph"] == "M" and e["name"] == "thread_name"}
    assert process_names == {"node1", "node2"}
    assert thread_names == {"mac"}
    # node1 and node2 are distinct processes
    assert instants[0]["pid"] != instants[1]["pid"]


def test_tx_start_end_pairs_become_duration_slices():
    records = [
        _record(0.010, "node1.phy", "phy", "tx_start", kind="data", bytes=500),
        _record(0.012, "node1.phy", "phy", "tx_end", kind="data"),
    ]
    events = chrome_trace_events(records)
    slices = [e for e in events if e["ph"] == "X"]
    assert len(slices) == 1
    (tx,) = slices
    assert tx["name"] == "tx"
    assert tx["ts"] == 10_000.0
    assert abs(tx["dur"] - 2000.0) < 1e-6
    assert tx["args"]["bytes"] == 500
    # The end record was folded into the slice, not emitted as an instant.
    assert not [e for e in events if e["ph"] == "i"]


def test_unmatched_tx_end_degrades_to_instant():
    events = chrome_trace_events([_record(0.5, "node1.phy", "phy", "tx_end")])
    assert [e["ph"] for e in events if e["name"] == "tx_end"] == ["i"]


def test_track_ids_are_deterministic_across_arrival_orders():
    records = [
        _record(0.001, "nodeB.phy", "phy", "rx_end"),
        _record(0.002, "nodeA.mac", "mac", "enqueue"),
    ]
    ids_forward = {(e["name"], e["args"]["name"]): (e["pid"], e.get("tid"))
                   for e in chrome_trace_events(records) if e["ph"] == "M"}
    ids_reversed = {(e["name"], e["args"]["name"]): (e["pid"], e.get("tid"))
                    for e in chrome_trace_events(records[::-1]) if e["ph"] == "M"}
    assert ids_forward == ids_reversed


def test_multi_sim_merge_prefixes_process_names():
    groups = [
        ("sim0/", [_record(0.001, "node1.phy", "phy", "rx_end")]),
        ("sim1/", [_record(0.001, "node1.phy", "phy", "rx_end")]),
    ]
    document = chrome_trace_document(groups)
    assert document["displayTimeUnit"] == "ms"
    names = {e["args"]["name"] for e in document["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert names == {"sim0/node1", "sim1/node1"}


def test_export_writes_valid_json(tmp_path):
    path = tmp_path / "timeline.json"
    count = export_chrome_trace(
        [("", [_record(0.001, "node1.phy", "phy", "tx_start"),
               _record(0.002, "node1.phy", "phy", "tx_end")])], str(path))
    document = json.loads(path.read_text())
    assert len(document["traceEvents"]) == count
    assert {e["ph"] for e in document["traceEvents"]} == {"M", "X"}
