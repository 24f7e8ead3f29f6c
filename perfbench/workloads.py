"""The three workloads: set-up, the timed op, and the untimed check.

Each workload is one closed-loop client: op ``i + 1`` starts when op
``i`` has returned.  ``op`` is the only code inside the timer; ``check``
verifies every output against the goldens and folds the deterministic
work counts into a :class:`Tally`.  The size of a run is fixed by
``--seconds`` through each workload's nominal op cost on a 2-core
machine, so two commits always do identical work and a percentile
always falls at the same rank.
"""

from __future__ import annotations

import os
import pickle
import time

import goldens
import streams
from repro.bench.harness import build_optimizer_pair
from repro.engine import Database, execute_plan
from repro.obs.tracer import CountingTracer
from repro.optimizers import build_oodb_volcano, build_relational_volcano
from repro.optimizers.helpers import domain_helpers
from repro.parallel import BatchOptimizer
from repro.parallel.batch import BatchItem
from repro.prairie.dsl import compile_spec
from repro.prairie.translate import translate
from repro.volcano.search import VolcanoOptimizer
from repro.workloads.queries import make_query_instance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_FILES = {
    spec: os.path.join(ROOT, "examples", "specs", f"{spec}.prairie")
    for spec in streams.SPEC_QUERIES
}
HAND_CODED = {"oodb": build_oodb_volcano, "relational": build_relational_volcano}
PROVENANCES = ("gen", "hand")
#: Process workers of each repeat-batch optimizer.
WORKERS = 1


def compile_spec_file(path: str, helpers=None):
    with open(path) as fh:
        source = fh.read()
    name = os.path.splitext(os.path.basename(path))[0]
    return compile_spec(source, name=name, helpers=helpers or domain_helpers())


def build_pair(spec: str):
    """(P2V translation of the spec file, hand-coded Volcano rule set)."""
    return translate(compile_spec_file(SPEC_FILES[spec])), HAND_CODED[spec]()


def provenance_order(k: int) -> "tuple[str, str]":
    """Alternate which provenance runs first, so neither always runs warm."""
    return PROVENANCES if k % 2 == 0 else PROVENANCES[::-1]


class Tally:
    """Outcome of one pass: failures, work counts, per-provenance time."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: "list[str]" = []
        self.plans = 0
        self.counts: "dict[str, int]" = {}
        self.prov_s = {prov: 0.0 for prov in PROVENANCES}
        self.events = 0
        self.program_spans: "dict[str, float]" = {}
        self.worker_spans: "list[tuple[int, dict]]" = []
        self.translated: "dict[str, tuple[int, int, int]]" = {}
        self.snapshot_bytes = 0

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def add_search(self, stats) -> None:
        """Search-effort counts of one optimization; memo counts only
        for searches that built a memo (cache misses)."""
        self.plans += 1
        for name in ("trans_considered", "trans_fired", "impl_considered",
                     "impl_succeeded", "enforcer_applied", "optimize_calls",
                     "winners_cached"):
            self.add(f"search.{name}", getattr(stats, name))
        if not stats.plan_cache_hits:
            self.add("memo.groups", stats.groups)
            self.add("memo.mexprs", stats.mexprs)
            self.add("memo.descriptor_objects", stats.memo_descriptor_objects)
            self.add("memo.descriptors_shared", stats.descriptors_shared)
            self.add("memo.descriptors_unique", stats.descriptors_unique)

    def add_translation(self, result) -> None:
        """Rule counts of each distinct generated rule set."""
        volcano = result.volcano
        self.translated[volcano.name] = (
            len(volcano.trans_rules), len(volcano.impl_rules), len(volcano.enforcers)
        )
        for k, name in enumerate(("trans_rules", "impl_rules", "enforcers")):
            self.counts[f"p2v.{name}"] = sum(t[k] for t in self.translated.values())

    def fail(self, problems: "list[str]") -> None:
        self.failed += 1
        self.problems.extend(problems[: max(0, 20 - len(self.problems))])


class Workload:
    name = ""
    #: The program tracer attached to in-process optimizers (traced copy).
    tracer = None
    _traced_tracer = None

    def __init__(self, seed: int, seconds: int, golden_dir: str) -> None:
        self.seed = seed
        self.golden_dir = golden_dir
        self.n_ops = 0

    def load_goldens(self) -> None:
        self.golden_costs, self.golden_rows = goldens.load(self.golden_dir)

    def translations(self) -> list:
        """Translations made at set-up, counted into every pass."""
        return []

    def attach(self, traced: bool) -> None:
        """Switch to the untraced or the traced copy of the pass state.

        The traced copy has the program's own tracer attached; each copy
        sees the whole stream, so both do the same work.
        """
        if traced and self._traced_tracer is None:
            self._traced_tracer = CountingTracer()
        self.tracer = self._traced_tracer if traced else None

    def end_pass(self, tally: Tally) -> None:
        for result in self.translations():
            tally.add_translation(result)
        if self.tracer is not None:
            tally.events += self.tracer.total

    def summary(self) -> str:
        return ""


class ColdMix(Workload):
    """Op = one query optimized with no plan cache.  Every instance is
    optimized by both provenances, in alternating order."""

    name = "cold-mix"
    SWEEP_S = 40.0

    def __init__(self, seed, seconds, golden_dir) -> None:
        super().__init__(seed, seconds, golden_dir)
        self.sweeps = max(1, round(seconds / self.SWEEP_S))
        self.stream = streams.cold_mix(seed, self.sweeps)
        self.n_ops = 2 * len(self.stream)

    def setup(self) -> None:
        self.translation, hand = build_pair("oodb")
        self.rulesets = {"gen": self.translation.volcano, "hand": hand}
        schema = self.translation.volcano.schema
        self.inputs = {
            key: make_query_instance(schema, *key) for key in sorted(set(self.stream))
        }
        self.load_goldens()

    def translations(self) -> list:
        return [self.translation]

    def _which(self, i: int) -> "tuple[tuple, str]":
        k = i // 2
        return self.stream[k], provenance_order(k)[i % 2]

    def op(self, i: int):
        key, prov = self._which(i)
        catalog, tree = self.inputs[key]
        return VolcanoOptimizer(self.rulesets[prov], catalog, tracer=self.tracer).optimize(tree)

    def check(self, i: int, result, elapsed: float, tally: Tally) -> "list[str]":
        key, prov = self._which(i)
        tally.prov_s[prov] += elapsed
        where = f"{prov} {goldens.instance_key(*key)}"
        problems: "list[str]" = []
        goldens.check_result(
            self.golden_costs["oodb"][goldens.instance_key(*key)],
            prov, result.cost, result.stats, problems, where,
        )
        tally.add_search(result.stats)
        return problems

    def summary(self) -> str:
        return f"sweeps={self.sweeps} queries={len(self.stream)}"


class RepeatBatch(Workload):
    """Op = one ``BatchOptimizer.run()`` over a batch of the Zipf stream.

    Each provenance has its own long-lived process-mode optimizer with
    one worker and a 32-entry plan cache; every batch goes to both, in
    alternating order.  With two workers a batch waited on the slower of
    two processes sharing the host's two cores, and its latency followed
    the other load on the host (its p90 moved by up to 60% between runs).
    """

    name = "repeat-batch"
    BATCH_PAIR_S = 0.4
    FACTORIES = {
        "gen": "repro.bench.harness:generated_ruleset",
        "hand": "repro.bench.harness:hand_coded_ruleset",
    }

    def __init__(self, seed, seconds, golden_dir) -> None:
        super().__init__(seed, seconds, golden_dir)
        self.batches_n = max(10, round(seconds / self.BATCH_PAIR_S))
        self.stream = streams.repeat_batch(seed, self.batches_n)
        self.n_ops = 2 * self.batches_n

    def setup(self) -> None:
        self._optimizer_sets = {False: self._make_optimizers(trace=False)}
        self.optimizers = self._optimizer_sets[False]
        # The factories build (and cache) this pair in-process.
        self.translation = build_optimizer_pair("oodb").translation
        schema = self.translation.volcano.schema
        keys = sorted({key for batch in self.stream for key in batch})
        inputs = {key: make_query_instance(schema, *key) for key in keys}
        self.batches = [
            [
                BatchItem(tree=inputs[key][1], catalog=inputs[key][0],
                          label=goldens.instance_key(*key))
                for key in batch
            ]
            for batch in self.stream
        ]
        self.load_goldens()

    def _make_optimizers(self, trace: bool) -> dict:
        return {
            prov: BatchOptimizer(
                factory, ("oodb",), mode="process", workers=WORKERS,
                cache_max_entries=streams.CACHE_ENTRIES, trace=trace,
            )
            for prov, factory in self.FACTORIES.items()
        }

    def translations(self) -> list:
        return [self.translation]

    def attach(self, traced: bool) -> None:
        if traced not in self._optimizer_sets:
            self._optimizer_sets[traced] = self._make_optimizers(trace=traced)
        self.optimizers = self._optimizer_sets[traced]

    def _which(self, i: int) -> "tuple[int, str]":
        k = i // 2
        return k, provenance_order(k)[i % 2]

    def op(self, i: int):
        k, prov = self._which(i)
        return self.optimizers[prov].run(self.batches[k])

    def check(self, i: int, report, elapsed: float, tally: Tally) -> "list[str]":
        k, prov = self._which(i)
        tally.prov_s[prov] += elapsed
        problems: "list[str]" = []
        if len(report.results) != len(self.batches[k]):
            problems.append(f"batch {k} {prov}: {len(report.results)} results for {len(self.batches[k])} items")
        for item, result in zip(self.batches[k], report.results):
            goldens.check_result(
                self.golden_costs["oodb"][item.label], prov, result.cost,
                result.stats, problems, f"batch {k} {prov} {item.label}",
            )
            tally.add_search(result.stats)
            tally.add("plancache.hits", result.stats.plan_cache_hits)
            tally.add("plancache.misses", result.stats.plan_cache_misses)
        for worker in report.worker_cache_stats:
            tally.add("plancache.stale", worker["invalidations"])
            tally.add("plancache.evictions", worker["evictions"])
        tally.add("parallel.merged_entries", report.merged_entries)
        if report.trace is not None:
            tally.events += len(report.trace)
            for event in report.trace:
                if event["type"] == "bench_span":
                    tally.worker_spans.append((i, event))
                elif event["type"] == "span_end" and event["name"].startswith("plan_cache."):
                    name = event["name"]
                    tally.program_spans[name] = tally.program_spans.get(name, 0.0) + event["elapsed_s"]
        return problems

    def end_pass(self, tally: Tally) -> None:
        super().end_pass(tally)
        for prov, optimizer in self.optimizers.items():
            tally.add("plancache.evictions", optimizer.cache.stats()["evictions"])
            snapshot = optimizer.cache.snapshot(optimizer.ruleset, optimizer.factory_spec)
            tally.snapshot_bytes += len(pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL))

    def summary(self) -> str:
        return (f"batches={self.batches_n} batch_size={streams.BATCH_SIZE} "
                f"cache_entries={streams.CACHE_ENTRIES} mode=process workers={WORKERS}")


class SpecToRows(Workload):
    """Op = one rule-author iteration over the checked-in specs:
    compile_spec -> translate -> optimize a fixed set of cheap queries
    with the generated and the hand-coded rule set -> execute the
    generated plan on a Database built at set-up."""

    name = "spec-to-rows"
    ITERATION_S = 0.2

    def __init__(self, seed, seconds, golden_dir) -> None:
        super().__init__(seed, seconds, golden_dir)
        self.iterations = 5 * max(2, round(seconds / (5 * self.ITERATION_S)))
        self.stream = streams.spec_to_rows(seed, self.iterations)
        self.n_ops = self.iterations

    def setup(self) -> None:
        self.helpers = domain_helpers()
        self.sources = {}
        self.hand = {}
        self.inputs = {}
        for spec, path in SPEC_FILES.items():
            with open(path) as fh:
                self.sources[spec] = fh.read()
            schema = compile_spec(self.sources[spec], name=spec, helpers=self.helpers).schema
            self.hand[spec] = HAND_CODED[spec]()
            for qid, n in streams.SPEC_QUERIES[spec]:
                for i in streams.INSTANCES:
                    catalog, tree = make_query_instance(schema, qid, n, i)
                    self.inputs[(spec, qid, n, i)] = (catalog, tree, Database(catalog))
        self.load_goldens()

    def op(self, i: int):
        inst = self.stream[i]
        order = provenance_order(i)
        prov_s = {prov: 0.0 for prov in PROVENANCES}
        outputs = []
        translations = []
        for spec, source in self.sources.items():
            translation = translate(compile_spec(source, name=spec, helpers=self.helpers))
            translations.append(translation)
            rulesets = {"gen": translation.volcano, "hand": self.hand[spec]}
            for qid, n in streams.SPEC_QUERIES[spec]:
                catalog, tree, db = self.inputs[(spec, qid, n, inst)]
                results = {}
                for prov in order:
                    started = time.perf_counter()
                    results[prov] = VolcanoOptimizer(
                        rulesets[prov], catalog, tracer=self.tracer
                    ).optimize(tree)
                    prov_s[prov] += time.perf_counter() - started
                rows = execute_plan(results["gen"].plan, db)
                outputs.append(((spec, qid, n, inst), results, rows))
        return outputs, translations, prov_s

    def check(self, i: int, raw, elapsed: float, tally: Tally) -> "list[str]":
        outputs, translations, prov_s = raw
        for prov, seconds in prov_s.items():
            tally.prov_s[prov] += seconds
        for translation in translations:
            tally.add_translation(translation)
        problems: "list[str]" = []
        for (spec, qid, n, inst), results, rows in outputs:
            key = goldens.instance_key(qid, n, inst)
            for prov, result in results.items():
                goldens.check_result(
                    self.golden_costs[spec][key], prov, result.cost,
                    result.stats, problems, f"iteration {i} {prov} {spec} {key}",
                )
                tally.add_search(result.stats)
            golden = self.golden_rows[f"{spec}/{key}"]
            digest = goldens.rows_digest(rows)
            if len(rows) != golden["rows"] or digest != golden["digest"]:
                problems.append(
                    f"iteration {i} {spec} {key}: {len(rows)} rows digest {digest[:12]} "
                    f"!= golden {golden['rows']} rows {golden['digest'][:12]}"
                )
            tally.add("engine.rows", len(rows))
        return problems

    def summary(self) -> str:
        queries = sum(len(q) for q in streams.SPEC_QUERIES.values())
        return f"iterations={self.iterations} specs={len(SPEC_FILES)} queries_per_iteration={queries}"


WORKLOADS = {cls.name: cls for cls in (ColdMix, RepeatBatch, SpecToRows)}
