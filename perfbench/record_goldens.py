"""Regenerate ``golden/costs.json`` and ``golden/rows.json``.

    python3 perfbench/record_goldens.py

Costs: every instance any workload can draw is optimized by the
P2V-generated and the hand-coded rule set; the two must agree, and the
cost plus each provenance's memo size is recorded.  Rows: every
spec-to-rows query instance is evaluated by ``naive_evaluate``, the
rule-free oracle, and its row count and multiset digest are recorded.
The goldens are recorded rather than recomputed per run because the
oracle is far slower than execution on larger joins.  Takes about two
minutes.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import goldens  # noqa: E402
import streams  # noqa: E402
from repro.engine import Database, naive_evaluate  # noqa: E402
from repro.volcano.search import VolcanoOptimizer  # noqa: E402
from repro.workloads.queries import make_query_instance  # noqa: E402
from workloads import SPEC_FILES, build_pair, compile_spec_file  # noqa: E402


def record_costs(generated, hand, schema, instances) -> dict:
    out = {}
    for qid, n, i in instances:
        catalog, tree = make_query_instance(schema, qid, n, i)
        gen = VolcanoOptimizer(generated, catalog).optimize(tree)
        ref = VolcanoOptimizer(hand, catalog).optimize(tree)
        if not goldens.same_cost(gen.cost, ref.cost):
            raise SystemExit(f"{qid} n={n} i={i}: generated {gen.cost} != hand-coded {ref.cost}")
        out[goldens.instance_key(qid, n, i)] = {
            "cost": ref.cost,
            "gen": [gen.stats.groups, gen.stats.mexprs],
            "hand": [ref.stats.groups, ref.stats.mexprs],
        }
        print(f"  {qid} n={n} i={i} cost={ref.cost:.6g}", flush=True)
    return out


def main() -> None:
    oodb_instances = sorted(
        {(qid, n, i) for template, n in streams.COLD_CLASSES
         for qid in streams.VARIANTS[template] for i in streams.INSTANCES}
        | set(streams.batch_domain())
    )
    costs, rows = {}, {}
    for spec in streams.SPEC_QUERIES:
        generated, hand = build_pair(spec)
        instances = oodb_instances if spec == "oodb" else []
        instances += [
            (qid, n, i) for qid, n in streams.SPEC_QUERIES[spec] for i in streams.INSTANCES
        ]
        print(f"costs: {spec}", flush=True)
        costs[spec] = record_costs(
            generated.volcano, hand, generated.volcano.schema, sorted(set(instances))
        )
        # The spec file must compile to the same optimizer the pair uses.
        from_file = compile_spec_file(SPEC_FILES[spec])
        print(f"rows: {spec}", flush=True)
        for qid, n in streams.SPEC_QUERIES[spec]:
            for i in streams.INSTANCES:
                catalog, tree = make_query_instance(from_file.schema, qid, n, i)
                result = naive_evaluate(tree, Database(catalog))
                rows[f"{spec}/{goldens.instance_key(qid, n, i)}"] = {
                    "rows": len(result),
                    "digest": goldens.rows_digest(result),
                }
    for name, data in (("costs.json", costs), ("rows.json", rows)):
        with open(os.path.join(goldens.GOLDEN_DIR, name), "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
