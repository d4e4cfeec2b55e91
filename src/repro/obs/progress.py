"""Live campaign progress reporting.

:class:`~repro.campaign.runner.CampaignRunner` accepts an *observer* with
three optional callbacks — ``batch_started(batch)``, ``job_started(job)``
and ``job_finished(outcome)`` — invoked from the coordinating process as
jobs are submitted and complete.  :class:`ProgressReporter` is the CLI's
observer: it prints one line per job event with a running ``[done/total]``
counter, the per-job events/s measured by the worker's own
:class:`~repro.sim.telemetry.SimTelemetry` (carried back in the job result),
and an ETA extrapolated from the mean elapsed time of finished jobs divided
by the worker count.

The reporter only formats; it never touches simulation state, so it cannot
perturb determinism.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional


def _format_rate(events: int, seconds: float) -> str:
    if seconds <= 0.0 or events <= 0:
        return ""
    rate = events / seconds
    if rate >= 1e6:
        return f"{rate / 1e6:.1f}M ev/s"
    if rate >= 1e3:
        return f"{rate / 1e3:.0f}k ev/s"
    return f"{rate:.0f} ev/s"


def _format_eta(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


class ProgressReporter:
    """Streams per-job campaign status lines to ``emit`` (print by default)."""

    def __init__(self, emit: Optional[Callable[[str], None]] = None,
                 workers: int = 1,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.emit = emit if emit is not None else print
        self.workers = max(1, workers)
        self._clock = clock
        self.total = 0
        self.done = 0
        self.status_counts: Dict[str, int] = {}
        self.events = 0
        self.sim_seconds = 0.0
        self._elapsed_sum = 0.0
        self._elapsed_count = 0
        #: Clock reading at the first batch: the summary's rate divides the
        #: events of every batch by the wall time since then.
        self._first_batch_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Observer protocol (called by CampaignRunner)
    # ------------------------------------------------------------------
    def batch_started(self, batch: Any) -> None:
        """A batch of jobs is about to run."""
        self.total += len(batch)
        if self._first_batch_at is None:
            self._first_batch_at = self._clock()
        self.emit(f"running {len(batch)} job(s) on {self.workers} worker(s)")

    def job_started(self, job: Any) -> None:
        """A job left the queue and began executing."""
        self.emit(f"[{self.done}/{self.total}] {job.describe()}: started")

    def job_finished(self, outcome: Any) -> None:
        """A job completed (ran, cached, deduped, error or timeout)."""
        self.done += 1
        status = outcome.status
        self.status_counts[status] = self.status_counts.get(status, 0) + 1
        parts = [f"[{self.done}/{self.total}] {outcome.job.describe()}: {status}"]
        if status == "ran":
            self._elapsed_sum += outcome.elapsed
            self._elapsed_count += 1
            detail = f"in {outcome.elapsed:.2f}s"
            events = getattr(outcome, "events", 0)
            if events:
                self.events += events
                self.sim_seconds += getattr(outcome, "sim_seconds", 0.0)
                rate = _format_rate(events, outcome.elapsed)
                detail += f" ({events:,} events" + (f", {rate}" if rate else "") + ")"
            parts.append(detail)
        elif status in ("error", "timeout") and outcome.error:
            parts.append(f"({outcome.error.splitlines()[-1]})")
        eta = self.eta_seconds()
        if eta is not None and self.done < self.total:
            parts.append(f"| ETA {_format_eta(eta)}")
        self.emit(" ".join(parts))

    # ------------------------------------------------------------------
    # Derived figures
    # ------------------------------------------------------------------
    def eta_seconds(self) -> Optional[float]:
        """Remaining wall-clock estimate, or ``None`` before any job ran.

        Cached/deduped jobs are excluded from the mean — they finish in
        microseconds and would make the estimate wildly optimistic.
        """
        if not self._elapsed_count:
            return None
        remaining = self.total - self.done
        mean = self._elapsed_sum / self._elapsed_count
        return remaining * mean / self.workers

    def summary_line(self) -> str:
        """One-line recap: status mix plus aggregate worker throughput."""
        mix = ", ".join(f"{count} {status}" for status, count
                        in sorted(self.status_counts.items()))
        line = f"{self.done}/{self.total} job(s): {mix or 'none'}"
        if self.events:
            wall = self._clock() - self._first_batch_at
            rate = _format_rate(self.events, wall)
            line += (f"; {self.events:,} events / {self.sim_seconds:.1f} "
                     f"sim-s" + (f" ({rate})" if rate else ""))
        return line
