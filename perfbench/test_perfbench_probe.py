"""Self-tests for the benchmark's host speed probe.

    python3 -m pytest perfbench -q

The probe interrupts the simulation from ``SIGALRM``, so it must leave the
simulation's behaviour and the collector's schedule exactly as they were.
"""

from __future__ import annotations

import gc
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (os.path.join(os.path.dirname(HERE), "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from test_perfbench_tracer import _transfer  # noqa: E402
from worker import SpeedProbe  # noqa: E402
from workloads import PROBE_MIX, WORKLOADS  # noqa: E402


def test_every_workload_has_a_probe_mix():
    assert set(PROBE_MIX) == set(WORKLOADS)
    for heap_steps, reads in PROBE_MIX.values():
        assert heap_steps >= 0 and reads >= 0 and heap_steps + reads > 0


def test_a_burst_allocates_no_collector_tracked_object():
    probe = SpeedProbe(4_000, 6_000)
    gc.disable()
    try:
        before = gc.get_count()
        probe._burst()
        assert gc.get_count() == before
    finally:
        gc.enable()


def test_probe_keeps_a_transfers_fingerprint_and_its_clock_skips_bursts():
    untraced = _transfer()
    probe = SpeedProbe(4_000, 6_000)
    probe.INTERVAL_S = 0.01
    probe.start()
    try:
        start_wall, start_clock = time.perf_counter(), probe.clock()
        probed = _transfer()
        wall, clock = time.perf_counter() - start_wall, probe.clock() - start_clock
    finally:
        probe.stop()
    assert probed == untraced
    assert probe.bursts > 0
    assert clock < wall
    assert probe.speed_factor() > 0.0
