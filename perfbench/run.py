"""The repository benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload cold-mix --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs the same stream twice,
untraced and then traced, and reports the per-layer metrics.  Every
output is checked against the goldens in ``perfbench/golden``; any
mismatch, or a deterministic count that differs from an earlier run of
the same program, seed and size, makes the run exit 1.  The last line
of standard output is the result object; the lines before it are a
readable summary.  Details and spans go to ``perfbench/out/``.
See ``perfbench/README.md``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("cold-mix", "repeat-batch", "spec-to-rows"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", default=os.path.join(HERE, "golden"),
                        help="golden directory (the gate self-test points this at doctored copies)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit (one set-up sample)")
    return parser.parse_args(argv)


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def tail(sorted_values):
    """The highest ladder percentile with at least ten samples beyond it."""
    n = len(sorted_values)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            return p, percentile(sorted_values, p)
    return 50.0, percentile(sorted_values, 50.0)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, children


def code_fingerprint():
    """Hash of the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), HERE):
        for folder, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()[:16]


def measure(wl, recorder=None):
    """Run every op of the stream; returns {traced: (latencies, tally)}.

    With a recorder, each op runs twice, untraced and traced, in
    alternating order, so warm-up and drift fall on both sides of the
    tracing-overhead comparison alike.
    """
    from workloads import Tally

    modes = (False,) if recorder is None else (False, True)
    passes = {traced: ([], Tally()) for traced in modes}
    for i in range(wl.n_ops):
        for traced in (modes if i % 2 == 0 else modes[::-1]):
            latencies, tally = passes[traced]
            wl.attach(traced)
            # Start every op with empty young generations, so collections
            # that the previous op's check made due are not billed to it.
            gc.collect()
            if traced:
                recorder.op, recorder.active = i, True
            started = time.perf_counter()
            try:
                raw = wl.op(i)
            except Exception as exc:  # a failed op is counted, never fatal
                raw = exc
            ended = time.perf_counter()
            if traced:
                recorder.record("op", started, ended)
                recorder.op, recorder.active = None, False
            latencies.append(ended - started)
            tally.attempted += 1
            if isinstance(raw, Exception):
                tally.fail([f"op {i}: {type(raw).__name__}: {raw}"])
                continue
            problems = wl.check(i, raw, ended - started, tally)
            if problems:
                tally.fail(problems)
    for traced, (_, tally) in passes.items():
        wl.attach(traced)
        wl.end_pass(tally)
    return passes


def setup_probe(args):
    """Set-up time of a fresh process (imports included)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--golden", args.golden, "--setup-only"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def end_to_end(latencies, tally, setups, rss):
    ordered = sorted(latencies)
    tail_p, tail_v = tail(ordered)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "plans_per_s": (tally.plans / sum(latencies), "1/s"),
        "latency_p50_ms": (1000.0 * percentile(ordered, 50.0), "ms"),
        "latency_tail_ms": (1000.0 * tail_v, "ms"),
        "peak_rss_mb": (max(rss), "MB"),
        "gen_vs_hand_ratio": (tally.prov_s["gen"] / tally.prov_s["hand"], "ratio"),
    }, {
        "samples": len(ordered),
        "latencies_ms": [round(1000.0 * x, 3) for x in latencies],
        "tail_percentile": tail_p,
        "failed_frac": tally.failed / tally.attempted,
        "setup_samples_s": setups,
        "rss_process_mb": rss[0],
        "rss_largest_child_mb": rss[1],
    }


def per_layer(spans, plain, traced, tally):
    """Per-layer metrics from the traced pass and its spans."""
    from workloads import WORKERS

    tracing.self_times(spans)

    def total(name, **match):
        return sum(s["end"] - s["start"] for s in spans
                   if s["name"] == name and all(s.get(k) == v for k, v in match.items()))

    def self_of(name):
        return sum(s["self"] for s in spans if s["name"] == name)

    c = tally.counts.get
    tokens = {s["source"]: s["tokens"] for s in spans if s["name"] == "dsl.tokenize"}
    rules = {s["spec"]: s["rules"] for s in spans if s["name"] == "dsl.compile_spec"}
    ops = [s for s in spans if s["name"] == "op"]
    op_wall = sum(s["end"] - s["start"] for s in ops)
    batch_s = total("parallel.run")
    worker_optimize_s = sum(s["end"] - s["start"] for s in spans
                            if s["name"] == "search.optimize" and s["pid"] != os.getpid())
    lookups = c("plancache.hits", 0) + c("plancache.misses", 0)
    mexprs = c("memo.mexprs", 0)
    descriptors = c("memo.descriptors_shared", 0) + c("memo.descriptors_unique", 0)
    exec_s = total("engine.execute_plan")
    program = tally.program_spans
    values = {
        "dsl.parse_s": (total("dsl.parse_spec"), "s"),
        "dsl.compile_s": (self_of("dsl.compile_spec"), "s"),
        "dsl.tokens": (sum(tokens.values()), "count"),
        "dsl.rules": (sum(rules.values()), "count"),
        "p2v.translate_s": (total("p2v.translate"), "s"),
        "p2v.trans_rules": (c("p2v.trans_rules", 0), "count"),
        "p2v.impl_rules": (c("p2v.impl_rules", 0), "count"),
        "p2v.enforcers": (c("p2v.enforcers", 0), "count"),
        "workloads.instance_s": (total("workloads.make_query_instance"), "s"),
        "search.engine_init_s": (total("search.engine_init"), "s"),
        "search.optimize_s": (total("search.optimize", hit=False), "s"),
        "search.trans_considered": (c("search.trans_considered", 0), "count"),
        "search.trans_fired": (c("search.trans_fired", 0), "count"),
        "search.fire_ratio": (c("search.trans_fired", 0) / max(1, c("search.trans_considered", 0)), "ratio"),
        "search.impl_considered": (c("search.impl_considered", 0), "count"),
        "search.impl_succeeded": (c("search.impl_succeeded", 0), "count"),
        "search.enforcer_applied": (c("search.enforcer_applied", 0), "count"),
        "search.optimize_calls": (c("search.optimize_calls", 0), "count"),
        "search.winners_cached": (c("search.winners_cached", 0), "count"),
        "memo.groups": (c("memo.groups", 0), "count"),
        "memo.mexprs": (mexprs, "count"),
        "memo.fired_per_new_mexpr": (c("search.trans_fired", 0) / max(1, mexprs), "ratio"),
        "memo.descriptor_objects": (c("memo.descriptor_objects", 0), "count"),
        "memo.descriptors_shared_ratio": (c("memo.descriptors_shared", 0) / max(1, descriptors), "ratio"),
        "plancache.key_s": (total("plancache.key_for"), "s"),
        "plancache.probe_s": (program.get("plan_cache.probe", 0.0), "s"),
        "plancache.insert_s": (program.get("plan_cache.insert", 0.0), "s"),
        "plancache.hit_ratio": (c("plancache.hits", 0) / max(1, lookups), "ratio"),
        "plancache.hits": (c("plancache.hits", 0), "count"),
        "plancache.misses": (c("plancache.misses", 0), "count"),
        "plancache.stale": (c("plancache.stale", 0), "count"),
        "plancache.evictions": (c("plancache.evictions", 0), "count"),
        "plancache.snapshot_bytes": (tally.snapshot_bytes, "bytes"),
        "parallel.batch_s": (batch_s, "s"),
        "parallel.worker_busy_frac": (worker_optimize_s / (WORKERS * batch_s) if batch_s else 0.0, "ratio"),
        "parallel.snapshot_s": (program.get("plan_cache.snapshot", 0.0), "s"),
        "parallel.merge_s": (program.get("plan_cache.merge", 0.0), "s"),
        "parallel.merged_entries": (c("parallel.merged_entries", 0), "count"),
        "engine.db_build_s": (total("engine.database"), "s"),
        "engine.exec_s": (exec_s, "s"),
        "engine.rows": (c("engine.rows", 0), "count"),
        "engine.rows_per_s": (c("engine.rows", 0) / exec_s if exec_s else 0.0, "1/s"),
        "obs.events": (tally.events, "count"),
        "obs.trace_overhead_pct": (100.0 * (sum(traced) / sum(plain) - 1.0), "%"),
        "obs.unattributed_pct": (100.0 * sum(s["self"] for s in ops) / op_wall, "%"),
    }
    return values


def check_counts(wl, counts, fingerprint):
    """Compare the deterministic counts with an earlier run of the same
    code, workload, seed and size; record them when there is none."""
    path = os.path.join(OUT, "counts", f"{fingerprint}-{wl.name}-seed{wl.seed}-n{wl.n_ops}.json")
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        if earlier != counts:
            diff = sorted(k for k in set(earlier) | set(counts) if earlier.get(k) != counts.get(k))
            return [f"deterministic counts differ from an earlier run ({path}): {diff}"]
        return []
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
    return []


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "volcano", "search.py")):
        print(f"perfbench: the program is missing (no {os.path.join('src', 'repro')} next to perfbench/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds, args.golden)
    recorder = tracing.Recorder() if args.trace else None
    if recorder is not None:
        recorder.install()
        recorder.active = True
    wl.setup()
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if recorder is not None:
        recorder.active = False

    fingerprint = code_fingerprint()
    passes = measure(wl, recorder)
    plain, tally = passes[False]
    rss = peak_rss_mb()
    problems = list(tally.problems)
    problems += check_counts(wl, tally.counts, fingerprint)
    details = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "ops": wl.n_ops, "stream": wl.summary(), "program": fingerprint, "counts": tally.counts}
    if args.trace:
        recorder.uninstall()
        traced, traced_tally = passes[True]
        for op, event in traced_tally.worker_spans:
            recorder.absorb(op, event)
        problems += traced_tally.problems
        if traced_tally.counts != tally.counts:
            diff = sorted(k for k in set(tally.counts) | set(traced_tally.counts)
                          if tally.counts.get(k) != traced_tally.counts.get(k))
            problems.append(f"deterministic counts differ between the untraced and traced pass: {diff}")
        metrics = per_layer(recorder.spans, plain, traced, traced_tally)
        attempted = tally.attempted + traced_tally.attempted
        failed = tally.failed + traced_tally.failed
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"{wl.name}-seed{args.seed}-spans.jsonl"), "w") as fh:
            for span in recorder.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics, extra = end_to_end(plain, tally, setups, rss)
        details.update(extra)
        attempted, failed = tally.attempted, tally.failed
    correct = not problems and failed == 0
    details.update({"correct": correct, "problems": problems,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)

    print(f"{wl.name} seed={args.seed} ops={wl.n_ops} {wl.summary()}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    if not args.trace:
        print(f"  failed_frac        {details['failed_frac']:.4g} ratio ({failed}/{attempted} ops)")
        print(f"  latency samples    {details['samples']}, tail = p{details['tail_percentile']:g}")
        print(f"  peak rss           process {rss[0]:.1f} MB, largest child {rss[1]:.1f} MB")
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name:<30} {shown} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
