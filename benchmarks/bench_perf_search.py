#!/usr/bin/env python
"""Hot-path benchmark for the Volcano search engine (BENCH_search.json).

Times every paper query (Q1–Q8) under five legs:

* ``optimized``  — the engine as it ships (its only search path);
* ``cache_cold`` — optimized, with a :class:`PlanCache` attached, first
  call (pays the search plus the cache store);
* ``cache_warm`` — the same optimizer asked the same query again (pure
  cache hit);
* ``trace_off``  — optimized, observability layer present but no tracer
  attached: measures the residual cost of the emit-hook guards; the
  report asserts the *across-query median* overhead stays under 2% of
  the ``optimized`` leg (when ``--repeats`` >= 3; fewer repeats leave
  too much scheduler noise to gate honestly);
* ``trace_on``   — optimized with a :class:`CountingTracer` receiving
  every event: the cost of actually observing, reported but not gated.

Plus two *batch throughput* legs over the whole Q1–Q8 batch
(:mod:`repro.parallel`): ``batch_serial`` (the oracle baseline) and
``batch_4workers`` (four process workers), reported as queries/second
with a scaling-efficiency column (speedup ÷ workers).  Batch plans and
costs must be bit-identical to serial — asserted every run.

The seed-equivalent ``baseline`` leg is no longer live code: the engine
has one search path.  ``speedup_optimized`` divides the *frozen*
quick-mode ``baseline`` median recorded in
``benchmarks/results/history.jsonl`` (record ``aa8440f``) by this run's
median ``optimized`` time, and is reported only in quick mode, whose
join counts that median was measured at.

All legs must agree on the best cost with the ``optimized`` leg — the
cache and tracing layers are pure performance and observability work, so
any divergence is a bug and aborts the run.  Legs are *interleaved*
across repeats (optimized, cold, warm, then again) and the per-leg
minimum is reported, which suppresses scheduler
noise far better than timing each leg in one block.  Overhead
percentages are the **median of per-repeat paired ratios**: each
traced timing is divided by the untraced timing of the same repeat
(load drift inflates both sides equally) and the median over repeats
is reported — minima systematically underestimate (picking the
luckiest pairing produced negative overheads in early reports), while
the median is an unbiased, outlier-robust estimate.

Standalone on purpose (argparse, not pytest-benchmark): CI runs
``--quick`` as a smoke test, and the checked-in ``BENCH_search.json`` is
produced by this script.

Usage::

    python benchmarks/bench_perf_search.py --quick
    python benchmarks/bench_perf_search.py --full --output BENCH_search.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.bench.harness import (  # noqa: E402
    ExperimentConfig,
    bench_environment,
    build_optimizer_pair,
)
from repro.bench.timing import time_callable  # noqa: E402
from repro.obs import NULL_TRACER, CountingTracer  # noqa: E402
from repro.obs.history import load_history  # noqa: E402
from repro.parallel import BatchItem, BatchOptimizer  # noqa: E402
from repro.volcano.explain import explain_plan  # noqa: E402
from repro.volcano.plancache import PlanCache  # noqa: E402
from repro.volcano.search import VolcanoOptimizer  # noqa: E402
from repro.workloads.queries import QUERIES, make_query_instance  # noqa: E402

QIDS = tuple(QUERIES)
LEGS = (
    "optimized",
    "cache_cold",
    "cache_warm",
    "trace_off",
    "trace_on",
)

#: Warm-cache calls are sub-millisecond; a single timing would be all
#: clock granularity, so the warm leg reports the best of this many.
WARM_CALLS = 5

#: Ceiling on the trace_off leg's overhead over the optimized leg, in
#: percent.  Gated on the *across-query median* of the per-query median
#: overheads, and only when repeats >= 3 (see run): an emit site doing
#: work outside its guard taxes every query, so it shifts the
#: across-query median; a single fast query's timing jitter (Q1 swings
#: several percent either way on a loaded box) cannot.
TRACE_OFF_MAX_OVERHEAD_PERCENT = 2.0

#: Worker count for the parallel batch leg.
BATCH_WORKERS = 4

#: Floor on the 4-worker process speedup over batch_serial.  Gated only
#: when the machine actually has that many cores (see measure_batch) —
#: process fan-out cannot beat serial on a single-core box, where the
#: honest numbers are still recorded but not asserted.
BATCH_MIN_SPEEDUP = 2.0

#: Importable factory spec handed to process-pool workers, which cannot
#: receive the ruleset itself (generated rulesets do not pickle).
BATCH_FACTORY = "repro.bench.harness:generated_ruleset"

#: The run history holding the frozen seed-equivalent ``baseline`` leg:
#: the last run (quick mode) made before that legacy search path was
#: deleted from the engine.
HISTORY_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results", "history.jsonl"
)
FROZEN_BASELINE_SHA = "aa8440f"


def frozen_baseline() -> dict:
    """The frozen quick-mode ``baseline`` median and where it came from."""
    for record in load_history(HISTORY_PATH):
        if record.git_sha.startswith(FROZEN_BASELINE_SHA) and record.mode == "quick":
            return {
                "median_seconds": record.legs["baseline"],
                "git_sha": record.git_sha,
                "generated_at": record.generated_at,
                "mode": record.mode,
                "source": "benchmarks/results/history.jsonl",
            }
    raise LookupError(
        f"no quick-mode record {FROZEN_BASELINE_SHA} in {HISTORY_PATH}"
    )


def measure_query(
    pair, qid: str, n_joins: int, repeats: int
) -> dict:
    """One (query, size) point: best-of-``repeats`` seconds per leg."""
    ruleset = pair.generated
    catalog, tree = make_query_instance(pair.schema, qid, n_joins, 0)

    fast_opt = VolcanoOptimizer(ruleset, catalog)
    cache = PlanCache()
    cached_opt = VolcanoOptimizer(ruleset, catalog, plan_cache=cache)
    null_traced_opt = VolcanoOptimizer(ruleset, catalog, tracer=NULL_TRACER)
    counting_tracer = CountingTracer()
    traced_opt = VolcanoOptimizer(ruleset, catalog, tracer=counting_tracer)

    best = {leg: float("inf") for leg in LEGS}
    costs = {}
    trace_off_ratios = []
    trace_on_ratios = []
    for _ in range(repeats):
        seconds, result = time_callable(lambda: fast_opt.optimize(tree), 1)
        optimized_seconds = seconds
        best["optimized"] = min(best["optimized"], seconds)
        costs["optimized"] = result.cost

        cache.invalidate()  # a genuinely cold start every repeat
        seconds, result = time_callable(lambda: cached_opt.optimize(tree), 1)
        best["cache_cold"] = min(best["cache_cold"], seconds)
        costs["cache_cold"] = result.cost
        assert result.stats.plan_cache_misses == 1

        seconds, result = time_callable(
            lambda: cached_opt.optimize(tree), WARM_CALLS
        )
        best["cache_warm"] = min(best["cache_warm"], seconds)
        costs["cache_warm"] = result.cost
        assert result.stats.plan_cache_hits == 1

        seconds, result = time_callable(
            lambda: null_traced_opt.optimize(tree), 1
        )
        best["trace_off"] = min(best["trace_off"], seconds)
        costs["trace_off"] = result.cost
        # Pair each traced timing with the untraced timing of the *same*
        # repeat: machine-load drift over the run inflates both sides of
        # the pair equally.  The median of these paired ratios is the
        # reported overhead — the minimum systematically underestimates
        # (it picks the one repeat where the traced leg got lucky, which
        # produced impossible negative overheads), while a single noisy
        # repeat cannot move the median.
        trace_off_ratios.append(seconds / optimized_seconds)

        seconds, result = time_callable(lambda: traced_opt.optimize(tree), 1)
        best["trace_on"] = min(best["trace_on"], seconds)
        costs["trace_on"] = result.cost
        trace_on_ratios.append(seconds / optimized_seconds)
        assert counting_tracer.total > 0

    reference = costs["optimized"]
    for leg, cost in costs.items():
        if abs(cost - reference) > 1e-9 * max(1.0, abs(reference)):
            raise AssertionError(
                f"{qid} n={n_joins}: leg {leg!r} found cost {cost}, "
                f"optimized found {reference} — caching and tracing must "
                f"not change the plan"
            )

    trace_off_overhead = 100.0 * (statistics.median(trace_off_ratios) - 1.0)
    trace_on_overhead = 100.0 * (statistics.median(trace_on_ratios) - 1.0)

    return {
        "qid": qid,
        "n_joins": n_joins,
        "cost": reference,
        "seconds": {leg: best[leg] for leg in LEGS},
        "speedup_warm_cache": best["optimized"] / best["cache_warm"],
        "trace_off_overhead_percent": trace_off_overhead,
        "trace_on_overhead_percent": trace_on_overhead,
        "trace_events": counting_tracer.total,
        "plan_cache": cache.stats(),
    }


def measure_batch(pair, config, repeats: int) -> dict:
    """Batch throughput over all of Q1–Q8: serial vs 4 process workers.

    Every repeat builds a fresh :class:`BatchOptimizer` (cold parent
    cache) so both legs pay the same search work; the fastest repeat per
    leg is reported.  Every single run's (label, cost, EXPLAIN) triple
    is checked against the serial reference — parallel fan-out must be
    bit-identical, not merely close.
    """
    items = []
    for qid in QIDS:
        n_joins = config.max_joins[QUERIES[qid].template]
        catalog, tree = make_query_instance(pair.schema, qid, n_joins, 0)
        items.append(
            BatchItem(tree=tree, catalog=catalog, label=f"{qid}/{n_joins}")
        )

    def signature(report):
        return [
            (r.label, r.cost, explain_plan(r.plan)) for r in report.results
        ]

    reference = None
    legs = {}
    for leg, batch_mode, workers in (
        ("batch_serial", "serial", 1),
        ("batch_4workers", "process", BATCH_WORKERS),
    ):
        best = None
        for _ in range(repeats):
            optimizer = BatchOptimizer(
                BATCH_FACTORY, ("oodb",), mode=batch_mode, workers=workers
            )
            report = optimizer.run(items)
            if reference is None:
                reference = signature(report)
            elif signature(report) != reference:
                raise AssertionError(
                    f"batch leg {leg!r} diverged from batch_serial — "
                    f"parallel results must be bit-identical"
                )
            if best is None or report.elapsed_seconds < best.elapsed_seconds:
                best = report
        legs[leg] = best

    serial_qps = legs["batch_serial"].queries_per_second
    parallel_qps = legs["batch_4workers"].queries_per_second
    speedup = parallel_qps / serial_qps if serial_qps else 0.0
    cpu_count = os.cpu_count() or 1
    # Two conditions for the floor to bind: the cores must exist, and
    # there must be at least two repeats (a single timing sample on a
    # shared machine cannot gate honestly).
    gated = cpu_count >= BATCH_WORKERS and repeats >= 2
    if gated and speedup < BATCH_MIN_SPEEDUP:
        raise AssertionError(
            f"batch_4workers speedup {speedup:.2f}x is below the "
            f"{BATCH_MIN_SPEEDUP}x floor despite {cpu_count} cores "
            f"being available"
        )

    return {
        "queries": len(items),
        "workers": BATCH_WORKERS,
        "cpu_count": cpu_count,
        "legs": {
            leg: {
                "mode": report.mode,
                "workers": report.workers,
                "elapsed_seconds": report.elapsed_seconds,
                "queries_per_second": report.queries_per_second,
                "merged_entries": report.merged_entries,
            }
            for leg, report in legs.items()
        },
        "speedup_4workers": speedup,
        # Fraction of linear scaling achieved: speedup / workers.
        "scaling_efficiency": speedup / BATCH_WORKERS,
        # The >= 2x floor only binds when the cores exist to meet it.
        "speedup_gated": gated,
    }


def run(mode: str, repeats: int, progress=print) -> dict:
    config = (
        ExperimentConfig.full() if mode == "full" else ExperimentConfig.quick()
    )
    points = []
    for qid in QIDS:
        n_joins = config.max_joins[QUERIES[qid].template]
        progress(f"{qid} (n={n_joins}) ...")
        point = measure_query(build_optimizer_pair("oodb"), qid, n_joins, repeats)
        progress(
            f"  optimized={point['seconds']['optimized']:.4f}s "
            f"warm={point['seconds']['cache_warm']:.6f}s "
            f"warm-speedup={point['speedup_warm_cache']:.0f}x "
            f"trace-off={point['trace_off_overhead_percent']:+.2f}% "
            f"trace-on={point['trace_on_overhead_percent']:+.2f}%"
        )
        points.append(point)
    progress(f"batch Q1-Q8 serial vs {BATCH_WORKERS} process workers ...")
    batch = measure_batch(build_optimizer_pair("oodb"), config, repeats)
    progress(
        f"  serial={batch['legs']['batch_serial']['queries_per_second']:.1f} q/s "
        f"4workers={batch['legs']['batch_4workers']['queries_per_second']:.1f} q/s "
        f"speedup={batch['speedup_4workers']:.2f}x "
        f"efficiency={batch['scaling_efficiency']:.0%} "
        f"(cpus={batch['cpu_count']})"
    )
    baseline = frozen_baseline()
    median_optimized = statistics.median(p["seconds"]["optimized"] for p in points)
    speedup_optimized = (
        baseline["median_seconds"] / median_optimized if mode == "quick" else None
    )
    median_trace_off = statistics.median(
        p["trace_off_overhead_percent"] for p in points
    )
    if repeats >= 3 and median_trace_off > TRACE_OFF_MAX_OVERHEAD_PERCENT:
        raise AssertionError(
            f"across-query median tracing-off overhead "
            f"{median_trace_off:.2f}% exceeds the "
            f"{TRACE_OFF_MAX_OVERHEAD_PERCENT}% ceiling — an emit site is "
            f"doing work outside its guard"
        )
    return {
        "benchmark": "bench_perf_search",
        "mode": mode,
        "repeats": repeats,
        "python": platform.python_version(),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "environment": bench_environment(),
        "legs": {
            "optimized": "the engine's only search path: rule index, fired "
            "bitmasks, descriptor fast paths, pure-helper memos",
            "cache_cold": "optimized + PlanCache attached, empty cache",
            "cache_warm": "optimized + PlanCache hit",
            "trace_off": "optimized + NullTracer attached (guard-check "
            "overhead only; across-query median gated < 2% when "
            "repeats >= 3)",
            "trace_on": "optimized + CountingTracer receiving every event",
            "batch_serial": "BatchOptimizer over Q1-Q8 in serial mode, "
            "cold parent cache (batch-throughput baseline)",
            "batch_4workers": "BatchOptimizer over Q1-Q8 fanned over 4 "
            "process workers (gated >= 2x over batch_serial when >= 4 "
            "cores are available and repeats >= 2)",
        },
        "frozen_baseline": {
            **baseline,
            "note": "seed-equivalent legacy search path, no longer in the "
            "engine; speedup_optimized divides this frozen across-query "
            "median by this run's median optimized seconds (quick mode "
            "only)",
        },
        "queries": points,
        "batch": batch,
        "summary": {
            "median_optimized_seconds": median_optimized,
            "speedup_optimized": speedup_optimized,
            "min_speedup_warm_cache": min(
                p["speedup_warm_cache"] for p in points
            ),
            "median_trace_off_overhead_percent": median_trace_off,
            "max_trace_off_overhead_percent": max(
                p["trace_off_overhead_percent"] for p in points
            ),
            "max_trace_on_overhead_percent": max(
                p["trace_on_overhead_percent"] for p in points
            ),
            "batch_speedup_4workers": batch["speedup_4workers"],
            "batch_scaling_efficiency": batch["scaling_efficiency"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--quick",
        action="store_true",
        help="small join counts (default; suitable as a CI smoke test)",
    )
    group.add_argument(
        "--full",
        action="store_true",
        help="paper-scale join counts (minutes)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="interleaved repeats per leg (per-leg minimum and "
        "median-of-paired-ratios overheads are reported; default 5)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="write the JSON report here (default: print to stdout)",
    )
    parser.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="append a run record (git sha + per-leg medians) to this "
        "JSON-lines history after a successful run; `prairie-opt "
        "bench-check` gates future runs against it",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    mode = "full" if args.full else "quick"
    report = run(mode, args.repeats, progress=lambda msg: print(msg, flush=True))
    payload = json.dumps(report, indent=2, sort_keys=False) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"wrote {args.output}")
    else:
        print(payload, end="")

    if args.history:
        from repro.obs.history import append_record, record_from_report

        record = record_from_report(report)
        append_record(args.history, record)
        print(f"appended run record ({record.git_sha[:12]}) -> {args.history}")

    speedup = report["summary"]["speedup_optimized"]
    warm = report["summary"]["min_speedup_warm_cache"]
    trace_off = report["summary"]["median_trace_off_overhead_percent"]
    trace_on = report["summary"]["max_trace_on_overhead_percent"]
    batch_speedup = report["summary"]["batch_speedup_4workers"]
    batch_efficiency = report["summary"]["batch_scaling_efficiency"]
    speedup_text = "n/a (full mode)" if speedup is None else f"{speedup:.2f}x"
    print(
        f"median speedup vs frozen seed baseline: {speedup_text}; "
        f"warm plan cache: {warm:.0f}x; "
        f"tracing overhead off/on: {trace_off:+.2f}%/{trace_on:+.2f}%; "
        f"batch 4-worker speedup: {batch_speedup:.2f}x "
        f"({batch_efficiency:.0%} of linear)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
