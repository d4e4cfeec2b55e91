"""Observer notifications, worker telemetry carry-back and ProgressReporter."""

from __future__ import annotations

from repro.campaign.cache import ResultCache
from repro.campaign.runner import CampaignJob, CampaignRunner, JobOutcome
from repro.obs.progress import ProgressReporter, _format_eta, _format_rate
from repro.sim.telemetry import TELEMETRY

#: Tiny fig07 sweep (same as test_runner_cache_cli) — fast real jobs.
TINY = {"rates_mbps": (0.65,), "sizes_kb": (2, 3), "duration": 1.5}


class RecordingObserver:
    """Captures every observer callback the runner fires, in order."""

    def __init__(self) -> None:
        self.calls = []

    def batch_started(self, batch) -> None:
        self.calls.append(("batch_started", len(batch)))

    def job_started(self, job) -> None:
        self.calls.append(("job_started", job.describe()))

    def job_finished(self, outcome) -> None:
        self.calls.append(("job_finished", outcome.job.describe(),
                           outcome.status, outcome.events))


class PartialObserver:
    """Only implements one callback; the runner must skip the others."""

    def __init__(self) -> None:
        self.finished = []

    def job_finished(self, outcome) -> None:
        self.finished.append(outcome.status)


# ---------------------------------------------------------------------------
# Runner → observer notifications
# ---------------------------------------------------------------------------

def test_inline_runner_notifies_and_carries_telemetry():
    observer = RecordingObserver()
    runner = CampaignRunner(jobs=1, observer=observer)
    outcome = runner.run_campaign("fig07", seeds=[1], overrides=TINY)
    assert observer.calls[0] == ("batch_started", 1)
    assert observer.calls[1] == ("job_started", "fig07[seed=1]")
    kind, describe, status, events = observer.calls[2]
    assert (kind, describe, status) == ("job_finished", "fig07[seed=1]", "ran")
    assert events > 0
    assert outcome.outcomes[0].events == events
    assert outcome.outcomes[0].sim_seconds > 0.0


def test_pool_runner_carries_worker_telemetry_back():
    before = TELEMETRY.snapshot()
    runner = CampaignRunner(jobs=2)
    outcome = runner.run_campaign("fig07", seeds=[1, 2], overrides=TINY)
    after = TELEMETRY.snapshot()
    # Each pooled job measured its own worker-process telemetry...
    assert all(o.events > 0 and o.sim_seconds > 0.0 for o in outcome.outcomes)
    # ...and the parent credited those remote events to its own accumulator.
    assert after[0] - before[0] >= sum(o.events for o in outcome.outcomes)


def test_cached_jobs_notify_with_zero_telemetry(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    CampaignRunner(jobs=1, cache=cache).run_campaign("fig07", seeds=[1],
                                                     overrides=TINY)
    observer = RecordingObserver()
    runner = CampaignRunner(jobs=1, cache=cache, observer=observer)
    runner.run_campaign("fig07", seeds=[1], overrides=TINY)
    assert ("job_finished", "fig07[seed=1]", "cached", 0) in observer.calls
    # Cached jobs never start executing.
    assert not any(call[0] == "job_started" for call in observer.calls)


def test_deduped_jobs_notify(tmp_path):
    observer = RecordingObserver()
    runner = CampaignRunner(jobs=1, observer=observer)
    job = CampaignJob("fig07", TINY, seed=1)
    outcomes = runner.run_jobs([job, job])
    assert [o.status for o in outcomes] == ["ran", "deduped"]
    statuses = [call[2] for call in observer.calls
                if call[0] == "job_finished"]
    assert statuses == ["ran", "deduped"]


def test_partial_observer_is_tolerated():
    observer = PartialObserver()
    runner = CampaignRunner(jobs=1, observer=observer)
    runner.run_campaign("fig07", seeds=[1], overrides=TINY)
    assert observer.finished == ["ran"]


# ---------------------------------------------------------------------------
# ProgressReporter
# ---------------------------------------------------------------------------

def _outcome(status="ran", elapsed=2.0, events=10_000, sim_seconds=4.0,
             error=""):
    return JobOutcome(job=CampaignJob("fig07", TINY, seed=1), status=status,
                      elapsed=elapsed, events=events, sim_seconds=sim_seconds,
                      error=error)


def _reporter(workers=1):
    lines = []
    clock = iter(float(i) for i in range(100))
    return ProgressReporter(emit=lines.append, workers=workers,
                            clock=lambda: next(clock)), lines


def test_reporter_lines_and_counts():
    reporter, lines = _reporter()
    reporter.batch_started([1, 2, 3])
    reporter.job_started(CampaignJob("fig07", TINY, seed=1))
    reporter.job_finished(_outcome())
    assert lines[0] == "running 3 job(s) on 1 worker(s)"
    assert lines[1] == "[0/3] fig07[seed=1]: started"
    assert lines[2].startswith("[1/3] fig07[seed=1]: ran in 2.00s "
                               "(10,000 events, 5k ev/s)")
    assert "| ETA" in lines[2]
    assert reporter.done == 1 and reporter.total == 3
    assert reporter.events == 10_000


def test_reporter_eta_excludes_cached_jobs_and_divides_by_workers():
    reporter, _ = _reporter(workers=2)
    reporter.batch_started([1, 2, 3, 4])
    reporter.job_finished(_outcome(status="cached", elapsed=0.0, events=0))
    assert reporter.eta_seconds() is None  # no "ran" sample yet
    reporter.job_finished(_outcome(elapsed=4.0))
    # 2 remaining x 4.0s mean / 2 workers
    assert reporter.eta_seconds() == 4.0


def test_reporter_error_line_shows_last_error_line():
    reporter, lines = _reporter()
    reporter.batch_started([1])
    reporter.job_finished(_outcome(status="error", events=0,
                                   error="Traceback...\nBoom: bad rate"))
    assert lines[-1] == "[1/1] fig07[seed=1]: error (Boom: bad rate)"


def test_reporter_summary_line_mixes_statuses():
    reporter, _ = _reporter()
    reporter.batch_started([1, 2, 3])
    reporter.job_finished(_outcome())
    reporter.job_finished(_outcome(status="cached", elapsed=0.0, events=0))
    reporter.job_finished(_outcome())
    summary = reporter.summary_line()
    assert summary.startswith("3/3 job(s): 1 cached, 2 ran")
    assert "20,000 events / 8.0 sim-s" in summary


def test_reporter_summary_rate_spans_every_batch():
    # Two back-to-back batches (as run-all submits them): the rate divides
    # the events of both by the wall time since the first batch started,
    # not since the last one did.
    now = [0.0]
    reporter = ProgressReporter(emit=lambda line: None, clock=lambda: now[0])
    reporter.batch_started([1])
    now[0] = 10.0
    reporter.job_finished(_outcome(elapsed=10.0, events=300_000))
    reporter.batch_started([2])
    now[0] = 20.0
    reporter.job_finished(_outcome(elapsed=10.0, events=300_000))
    summary = reporter.summary_line()
    assert "600,000 events" in summary
    assert summary.endswith("(30k ev/s)")


def test_format_helpers():
    assert _format_rate(0, 1.0) == ""
    assert _format_rate(500, 1.0) == "500 ev/s"
    assert _format_rate(5_000, 1.0) == "5k ev/s"
    assert _format_rate(2_000_000, 1.0) == "2.0M ev/s"
    assert _format_eta(30.0) == "30s"
    assert _format_eta(90.0) == "1.5m"
    assert _format_eta(7200.0) == "2.0h"
