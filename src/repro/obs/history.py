"""Benchmark run history and the regression sentinel.

The paper's core quantitative claim — Prairie-generated optimizers run
within a few percent of hand-coded Volcano — only stays true if someone
is watching.  This module is the someone:

* :class:`RunRecord` — one benchmark run's structured summary: git sha,
  timestamp, per-leg median seconds (the legs of
  ``benchmarks/bench_perf_search.py``), plus free-form metadata
  (python version, cpu count, mode).
* :func:`append_record` / :func:`load_history` — a JSON-lines store
  (``benchmarks/results/history.jsonl`` by convention), one record per
  line, append-only, so the bench trajectory accumulates across runs
  and survives in version control.
* :func:`check_regression` — compares a fresh run against the rolling
  history: for every *gated* leg, the current median is measured
  against the median of that leg over the last ``window`` history
  records; exceeding the leg's threshold flags a regression.  The CLI
  front-end is ``prairie-opt bench-check``, which exits non-zero on any
  flagged leg — the hook a CI pipeline or pre-merge script wires in.

Medians everywhere: per-leg values are medians across queries within a
run, and baselines are medians across runs, so one noisy query or one
loaded-machine run cannot flip the verdict by itself.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time
from dataclasses import dataclass, field

#: Default on-disk location of the run history, relative to the repo root.
DEFAULT_HISTORY_PATH = os.path.join("benchmarks", "results", "history.jsonl")

#: Per-leg fractional slowdown thresholds: a leg regresses when its
#: current median exceeds the rolling-history median by more than this
#: fraction.  Sub-millisecond legs (``cache_warm``) and deliberately
#: unbounded ones (``trace_on``) are reported but not gated — their
#: timings are dominated by clock granularity and tracer volume.
DEFAULT_THRESHOLDS: "dict[str, float]" = {
    "optimized": 0.20,
    "cache_cold": 0.20,
    "trace_off": 0.20,
    "batch_serial": 0.25,
    "batch_4workers": 0.30,
}

#: How many of the most recent history records form the rolling baseline.
DEFAULT_WINDOW = 5


def current_git_sha(repo_dir: "str | None" = None) -> str:
    """The checkout's HEAD sha, or ``"unknown"`` outside a git repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


@dataclass
class RunRecord:
    """One benchmark run, reduced to what regression checking needs."""

    git_sha: str
    generated_at: str
    mode: str
    repeats: int
    legs: "dict[str, float]"
    meta: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "git_sha": self.git_sha,
            "generated_at": self.generated_at,
            "mode": self.mode,
            "repeats": self.repeats,
            "legs": dict(self.legs),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        return cls(
            git_sha=data.get("git_sha", "unknown"),
            generated_at=data.get("generated_at", ""),
            mode=data.get("mode", ""),
            repeats=int(data.get("repeats", 0)),
            legs={k: float(v) for k, v in data.get("legs", {}).items()},
            meta=dict(data.get("meta", {})),
        )


def record_from_report(
    report: dict, git_sha: "str | None" = None
) -> RunRecord:
    """Reduce a ``bench_perf_search.py`` JSON report to a run record.

    Per-query legs collapse to the median across queries of each leg's
    best-of-repeats seconds; the batch throughput legs contribute their
    whole-batch elapsed seconds under their leg names.
    """
    legs: "dict[str, float]" = {}
    queries = report.get("queries", ())
    if queries:
        leg_names = queries[0].get("seconds", {}).keys()
        for leg in leg_names:
            values = [
                q["seconds"][leg] for q in queries if leg in q.get("seconds", {})
            ]
            if values:
                legs[leg] = statistics.median(values)
    for leg, data in report.get("batch", {}).get("legs", {}).items():
        if "elapsed_seconds" in data:
            legs[leg] = float(data["elapsed_seconds"])
    return RunRecord(
        git_sha=git_sha if git_sha is not None else current_git_sha(),
        generated_at=report.get(
            "generated_at", time.strftime("%Y-%m-%dT%H:%M:%S")
        ),
        mode=report.get("mode", ""),
        repeats=int(report.get("repeats", 0)),
        legs=legs,
        meta={
            key: report[key]
            for key in ("python", "benchmark")
            if key in report
        },
    )


def append_record(path: str, record: RunRecord) -> None:
    """Append one record to the JSON-lines history (creating dirs/file)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")


def load_history(path: str) -> "list[RunRecord]":
    """Every record in the history file, oldest first ([] if absent)."""
    if not os.path.exists(path):
        return []
    records: "list[RunRecord]" = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(RunRecord.from_dict(json.loads(line)))
    return records


@dataclass
class LegVerdict:
    """One leg's comparison against the rolling baseline."""

    leg: str
    current: float
    baseline: "float | None"
    threshold: "float | None"
    regressed: bool

    @property
    def gated(self) -> bool:
        return self.threshold is not None and self.baseline is not None

    @property
    def ratio(self) -> "float | None":
        if self.baseline is None or self.baseline <= 0:
            return None
        return self.current / self.baseline

    def describe(self) -> str:
        if self.baseline is None:
            return f"{self.leg:<16} {self.current:.6f}s  (no history baseline)"
        ratio = self.ratio
        ratio_text = f"{ratio:5.2f}x" if ratio is not None else "   ?  "
        if self.threshold is None:
            gate = "ungated"
        else:
            limit = f"<= {1.0 + self.threshold:.2f}x"
            gate = f"REGRESSED ({limit})" if self.regressed else f"ok ({limit})"
        return (
            f"{self.leg:<16} {self.current:.6f}s vs {self.baseline:.6f}s "
            f"{ratio_text}  {gate}"
        )


@dataclass
class CheckResult:
    """The sentinel's verdict over every leg of one run."""

    verdicts: "list[LegVerdict]"
    window: int

    @property
    def ok(self) -> bool:
        return not any(v.regressed for v in self.verdicts)

    @property
    def failures(self) -> "list[LegVerdict]":
        return [v for v in self.verdicts if v.regressed]


def check_regression(
    record: RunRecord,
    history: "list[RunRecord]",
    thresholds: "dict[str, float] | None" = None,
    window: int = DEFAULT_WINDOW,
) -> CheckResult:
    """Compare ``record`` against the rolling history.

    For every leg the record carries: the baseline is the median of
    that leg over the last ``window`` history records that have it; the
    leg regresses when ``current > baseline * (1 + threshold)``.  Legs
    without a threshold (or without any history) are reported ungated —
    an empty history always passes, which is what lets a fresh checkout
    bootstrap its trajectory with ``bench-check --append``.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    thresholds = (
        dict(DEFAULT_THRESHOLDS) if thresholds is None else dict(thresholds)
    )
    recent = history[-window:]
    verdicts: "list[LegVerdict]" = []
    for leg in sorted(record.legs):
        current = record.legs[leg]
        values = [r.legs[leg] for r in recent if leg in r.legs]
        baseline = statistics.median(values) if values else None
        threshold = thresholds.get(leg)
        regressed = (
            baseline is not None
            and threshold is not None
            and baseline > 0
            and current > baseline * (1.0 + threshold)
        )
        verdicts.append(
            LegVerdict(
                leg=leg,
                current=current,
                baseline=baseline,
                threshold=threshold,
                regressed=regressed,
            )
        )
    return CheckResult(verdicts=verdicts, window=window)
