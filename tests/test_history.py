"""Tests for the benchmark run-history store and the regression sentinel
(repro.obs.history + the ``prairie-opt bench-check`` CLI).

The sentinel's contract, straight from the acceptance criteria: given a
doctored benchmark report with a >20% slowdown on a gated leg it must
fail (non-zero CLI exit), and given the genuine report it must pass.
"""

import io
import json

import pytest

from repro.cli import main
from repro.obs.history import (
    DEFAULT_THRESHOLDS,
    RunRecord,
    append_record,
    check_regression,
    current_git_sha,
    load_history,
    record_from_report,
)


def make_report(scale=1.0, batch_scale=1.0):
    """A miniature bench_perf_search-shaped report, timings x ``scale``."""
    legs = {
        "optimized": 0.4,
        "cache_cold": 0.45,
        "cache_warm": 0.0001,
        "trace_off": 0.41,
        "trace_on": 0.5,
    }
    queries = []
    for qid, factor in (("Q1", 0.5), ("Q2", 1.0), ("Q3", 1.5)):
        queries.append(
            {
                "qid": qid,
                "seconds": {
                    leg: value * factor * scale for leg, value in legs.items()
                },
            }
        )
    return {
        "benchmark": "bench_perf_search",
        "mode": "quick",
        "repeats": 3,
        "python": "3.11",
        "generated_at": "2026-08-06T00:00:00",
        "queries": queries,
        "batch": {
            "legs": {
                "batch_serial": {"elapsed_seconds": 2.0 * batch_scale},
                "batch_4workers": {"elapsed_seconds": 0.8 * batch_scale},
            }
        },
    }


def make_record(scale=1.0, sha="cafe0001"):
    return record_from_report(make_report(scale), git_sha=sha)


class TestRunRecord:
    def test_record_from_report_takes_medians(self):
        record = make_record()
        # median across Q1/Q2/Q3 is the middle (factor 1.0) query
        assert record.legs["optimized"] == pytest.approx(0.4)
        assert record.legs["trace_on"] == pytest.approx(0.5)
        # batch legs contribute whole-batch elapsed seconds
        assert record.legs["batch_serial"] == pytest.approx(2.0)
        assert record.legs["batch_4workers"] == pytest.approx(0.8)
        assert record.mode == "quick"
        assert record.repeats == 3
        assert record.git_sha == "cafe0001"
        assert record.meta["python"] == "3.11"

    def test_round_trip_dict(self):
        record = make_record()
        clone = RunRecord.from_dict(record.as_dict())
        assert clone == record

    def test_current_git_sha_in_repo(self):
        sha = current_git_sha()
        assert sha == "unknown" or len(sha) == 40

    def test_current_git_sha_outside_repo(self, tmp_path):
        assert current_git_sha(str(tmp_path)) == "unknown"


class TestHistoryStore:
    def test_append_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "nested" / "history.jsonl")
        first = make_record(sha="a" * 40)
        second = make_record(scale=1.01, sha="b" * 40)
        append_record(path, first)
        append_record(path, second)
        history = load_history(path)
        assert history == [first, second]

    def test_load_missing_history_is_empty(self, tmp_path):
        assert load_history(str(tmp_path / "absent.jsonl")) == []

    def test_history_lines_are_json(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        append_record(path, make_record())
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert "git_sha" in record and "legs" in record


class TestCheckRegression:
    def test_identical_run_passes(self):
        history = [make_record() for _ in range(3)]
        result = check_regression(make_record(), history)
        assert result.ok
        assert result.failures == []

    def test_empty_history_passes(self):
        result = check_regression(make_record(), [])
        assert result.ok
        assert all(v.baseline is None for v in result.verdicts)

    def test_doctored_slowdown_fails(self):
        history = [make_record() for _ in range(3)]
        result = check_regression(make_record(scale=1.5), history)
        assert not result.ok
        failed = {v.leg for v in result.failures}
        # every gated per-query leg slowed 50% > its threshold
        assert {"optimized", "cache_cold", "trace_off"} <= failed

    def test_ungated_legs_never_fail(self):
        history = [make_record() for _ in range(3)]
        result = check_regression(make_record(scale=100.0), history)
        verdicts = {v.leg: v for v in result.verdicts}
        assert not verdicts["cache_warm"].regressed
        assert not verdicts["trace_on"].regressed
        assert "cache_warm" not in DEFAULT_THRESHOLDS
        assert "trace_on" not in DEFAULT_THRESHOLDS

    def test_within_threshold_passes(self):
        history = [make_record() for _ in range(3)]
        # 10% slower: inside every gated leg's threshold (>= 20%)
        result = check_regression(make_record(scale=1.10), history)
        assert result.ok

    def test_rolling_window_uses_recent_records(self):
        # old slow records fall outside the window; recent fast ones gate
        history = [make_record(scale=5.0) for _ in range(5)]
        history += [make_record() for _ in range(5)]
        result = check_regression(make_record(scale=1.5), history, window=5)
        assert not result.ok
        # widen the window to pull the slow era back in: median baseline
        # rises and the same run passes
        result = check_regression(make_record(scale=1.5), history, window=10)
        assert result.ok

    def test_custom_thresholds(self):
        history = [make_record() for _ in range(3)]
        result = check_regression(
            make_record(scale=1.06), history, thresholds={"optimized": 0.05}
        )
        assert not result.ok
        assert [v.leg for v in result.failures] == ["optimized"]

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            check_regression(make_record(), [], window=0)

    def test_verdict_describe_renders(self):
        history = [make_record()]
        result = check_regression(make_record(scale=1.5), history)
        text = "\n".join(v.describe() for v in result.verdicts)
        assert "REGRESSED" in text
        assert "ok (" in text


class TestBenchCheckCli:
    def run(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def write_report(self, tmp_path, name, **kwargs):
        path = tmp_path / name
        path.write_text(json.dumps(make_report(**kwargs)))
        return str(path)

    def seed_history(self, tmp_path, n=3):
        path = str(tmp_path / "history.jsonl")
        for _ in range(n):
            append_record(path, make_record())
        return path

    def test_genuine_report_exits_zero(self, tmp_path):
        bench = self.write_report(tmp_path, "bench.json")
        history = self.seed_history(tmp_path)
        code, output = self.run(
            ["bench-check", "--bench", bench, "--history", history]
        )
        assert code == 0
        assert "no gated leg regressed" in output

    def test_doctored_report_exits_nonzero(self, tmp_path):
        bench = self.write_report(tmp_path, "bench.json", scale=1.5)
        history = self.seed_history(tmp_path)
        code, output = self.run(
            ["bench-check", "--bench", bench, "--history", history]
        )
        assert code == 1
        assert "REGRESSION" in output

    def test_append_grows_history_on_pass(self, tmp_path):
        bench = self.write_report(tmp_path, "bench.json")
        history = self.seed_history(tmp_path)
        code, _ = self.run(
            ["bench-check", "--bench", bench, "--history", history, "--append"]
        )
        assert code == 0
        assert len(load_history(history)) == 4

    def test_append_skipped_on_failure(self, tmp_path):
        bench = self.write_report(tmp_path, "bench.json", scale=1.5)
        history = self.seed_history(tmp_path)
        code, _ = self.run(
            ["bench-check", "--bench", bench, "--history", history, "--append"]
        )
        assert code == 1
        assert len(load_history(history)) == 3

    def test_missing_history_bootstraps(self, tmp_path):
        bench = self.write_report(tmp_path, "bench.json")
        history = str(tmp_path / "fresh.jsonl")
        code, _ = self.run(
            ["bench-check", "--bench", bench, "--history", history, "--append"]
        )
        assert code == 0
        assert len(load_history(history)) == 1

    def test_threshold_override(self, tmp_path):
        bench = self.write_report(tmp_path, "bench.json", scale=1.06)
        history = self.seed_history(tmp_path)
        code, _ = self.run(
            [
                "bench-check",
                "--bench",
                bench,
                "--history",
                history,
                "--threshold",
                "optimized=5",
            ]
        )
        assert code == 1

    def test_malformed_threshold_rejected(self, tmp_path):
        bench = self.write_report(tmp_path, "bench.json")
        history = self.seed_history(tmp_path)
        code, _ = self.run(
            [
                "bench-check",
                "--bench",
                bench,
                "--history",
                history,
                "--threshold",
                "nonsense",
            ]
        )
        assert code == 2

    def test_checked_in_bench_passes_against_seed_history(self):
        """The repo ships BENCH_search.json and a history seeded from it:
        the sentinel must pass on its own checked-in data."""
        code, output = self.run(["bench-check"])
        assert code == 0, output
