"""Golden search outcomes: the engine's observable results, pinned.

``tests/golden/search_outcomes.json`` records, for a fixed set of
optimizations, everything a refactor of the search engine must keep
bit-identical: the winning cost, the non-verbose EXPLAIN text, the memo
size and the deterministic work counters.  The set covers Q1–Q8 at one
and two joins with both rule-set provenances (P2V-generated and
hand-coded), a three-way relational join, and two exploration budgets
that cut the search off part-way (so the order in which rules fire is
pinned too).

The fixture also records, for Q5 and Q7 at two joins with the generated
rule set, how many descriptor objects the memo retained when descriptor
interning could still be turned off; ``test_interning.py`` checks that
the always-interning engine retains fewer.  Regenerating keeps those
recorded values.

Regenerate (only when a change is *meant* to alter search outcomes)::

    PYTHONPATH=src python -m tests.test_search_outcomes
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.bench.harness import build_optimizer_pair
from repro.catalog.predicates import equals_attr
from repro.optimizers import costmodel
from repro.optimizers import helpers as domain_helpers
from repro.prairie import helpers as prairie_helpers
from repro.volcano.explain import explain
from repro.volcano.search import SearchOptions, VolcanoOptimizer
from repro.workloads.queries import make_query_instance
from repro.workloads.trees import TreeBuilder
from tests.conftest import small_relational_catalog

GOLDEN = pathlib.Path(__file__).parent / "golden" / "search_outcomes.json"

QUERIES = tuple(f"Q{i}" for i in range(1, 9))
JOINS = (1, 2)
PROVENANCES = ("generated", "hand")
BUDGETS = {
    "max_mexprs=40": {"max_mexprs": 40},
    "max_groups=12": {"max_groups": 12},
}

COUNTERS = (
    "groups",
    "mexprs",
    "trans_considered",
    "trans_fired",
    "impl_considered",
    "winners_cached",
    "descriptor_values_shared",
)


def case_ids() -> list[str]:
    ids = [
        f"oodb/{prov}/{qid}/n={n}"
        for prov in PROVENANCES
        for qid in QUERIES
        for n in JOINS
    ]
    ids.append("relational/generated/3-way-join")
    ids += [f"oodb/generated/Q5/n=2/{budget}" for budget in BUDGETS]
    return ids


def _ruleset(kind: str, provenance: str):
    pair = build_optimizer_pair(kind)
    return pair.generated if provenance == "generated" else pair.hand_coded


def _relational_join():
    pair = build_optimizer_pair("relational")
    catalog = small_relational_catalog()
    builder = TreeBuilder(pair.schema, catalog)
    tree = builder.join(
        builder.join(builder.ret("R1"), builder.ret("R2"), equals_attr("b1", "b2")),
        builder.ret("R3"),
        equals_attr("b2", "b3"),
    )
    return catalog, tree


def _clear_process_memos() -> None:
    """Empty the process-wide helper memos.

    Cached helpers hand back the same value object on every hit, which
    decides how many value slots the descriptor interner finds already
    shared; clearing first makes ``descriptor_values_shared`` independent
    of whatever ran earlier in the process.
    """
    costmodel._ROUND_MEMO.clear()
    domain_helpers._PURE_MEMO.clear()
    prairie_helpers._UNION_MEMO.clear()


def run_case(case_id: str):
    """Optimize one fixture case with a fresh engine and cold process
    memos; returns the result."""
    _clear_process_memos()
    parts = case_id.split("/")
    kind, provenance = parts[0], parts[1]
    ruleset = _ruleset(kind, provenance)
    options = SearchOptions(**BUDGETS[parts[4]]) if len(parts) > 4 else SearchOptions()
    if kind == "relational":
        catalog, tree = _relational_join()
    else:
        qid, n_joins = parts[2], int(parts[3].removeprefix("n="))
        catalog, tree = make_query_instance(ruleset.schema, qid, n_joins, 0)
    return VolcanoOptimizer(ruleset, catalog, options=options).optimize(tree)


def outcome(result) -> dict:
    stats = result.stats
    record = {"cost": result.cost, "explain": explain(result, verbose=False)}
    record.update((name, getattr(stats, name)) for name in COUNTERS)
    return record


def load() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case_id", case_ids())
def test_search_outcome_matches_golden(case_id):
    assert outcome(run_case(case_id)) == load()["cases"][case_id]


def test_fixture_covers_every_case():
    assert sorted(load()["cases"]) == sorted(case_ids())


def main() -> None:
    fixture = {
        "cases": {case_id: outcome(run_case(case_id)) for case_id in case_ids()},
        "uninterned_memo_descriptor_objects": load()[
            "uninterned_memo_descriptor_objects"
        ],
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(fixture['cases'])} cases to {GOLDEN}")


if __name__ == "__main__":
    main()
