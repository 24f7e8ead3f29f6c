"""Tests for query normalization and EXPLAIN output."""

import pytest

from repro.errors import SearchError
from repro.volcano.explain import explain, explain_memo, explain_plan
from repro.volcano.normalize import (
    enforcer_operator_names,
    normalize_query,
    optimize_normalized,
)
from repro.volcano.search import VolcanoOptimizer
from repro.workloads import make_query_instance
from repro.workloads.catalogs import make_experiment_catalog
from repro.workloads.trees import TreeBuilder
from repro.algebra.properties import DONT_CARE


@pytest.fixture()
def setup(schema, relational_volcano_generated):
    catalog = make_experiment_catalog(3, with_targets=False, instance=0)
    builder = TreeBuilder(schema, catalog)
    optimizer = VolcanoOptimizer(relational_volcano_generated, catalog)
    return builder, optimizer


class TestNormalizeQuery:
    def test_enforcer_operator_names(self, relational_volcano_generated):
        assert enforcer_operator_names(relational_volcano_generated) == {"SORT"}

    def test_plain_tree_passes_through(self, setup, relational_volcano_generated):
        builder, _ = setup
        tree = builder.ret("C1")
        stripped, required = normalize_query(tree, relational_volcano_generated)
        assert stripped is tree
        assert required == (DONT_CARE,)

    def test_root_sort_becomes_requirement(self, setup, relational_volcano_generated):
        builder, _ = setup
        tree = builder.sort(builder.ret("C1"), "a1")
        stripped, required = normalize_query(tree, relational_volcano_generated)
        assert stripped.op.name == "RET"
        assert required == ("a1",)

    def test_stacked_sorts_outermost_wins(self, setup, relational_volcano_generated):
        builder, _ = setup
        tree = builder.sort(builder.sort(builder.ret("C1"), "b1"), "a1")
        _stripped, required = normalize_query(tree, relational_volcano_generated)
        assert required == ("a1",)

    def test_interior_sort_rejected(self, setup, relational_volcano_generated):
        from repro.workloads.expressions import linear_join_predicate

        builder, _ = setup
        inner = builder.sort(builder.ret("C1"), "a1")
        tree = builder.join(inner, builder.ret("C2"), linear_join_predicate(1))
        with pytest.raises(SearchError):
            normalize_query(tree, relational_volcano_generated)

    def test_optimize_normalized_end_to_end(self, setup):
        builder, optimizer = setup
        tree = builder.sort(builder.ret("C1"), "a1")
        result = optimize_normalized(optimizer, tree)
        assert result.plan.descriptor["tuple_order"] == "a1"

    def test_normalized_matches_explicit_requirement(self, setup):
        builder, optimizer = setup
        sorted_tree = builder.sort(builder.ret("C1"), "a1")
        via_normalize = optimize_normalized(optimizer, sorted_tree)
        via_required = optimizer.optimize(builder.ret("C1"), required=("a1",))
        assert via_normalize.cost == pytest.approx(via_required.cost)


class TestExplain:
    @pytest.fixture()
    def result(self, schema, oodb_volcano_generated):
        catalog, tree = make_query_instance(schema, "Q5", 2, 0)
        return VolcanoOptimizer(oodb_volcano_generated, catalog).optimize(tree)

    def test_plan_lines_nested(self, result):
        text = explain_plan(result.plan)
        lines = text.splitlines()
        assert lines[0].startswith("-> ")
        assert any(line.startswith("  -> ") for line in lines)
        assert "(stored file)" in text

    def test_rows_and_cost_shown(self, result):
        text = explain_plan(result.plan)
        assert "rows≈" in text
        assert "cost=" in text

    def test_operator_arguments_shown(self, result):
        text = explain_plan(result.plan)
        assert "join on:" in text
        assert "filter:" in text

    def test_explain_total_cost(self, result):
        text = explain(result)
        assert f"total estimated cost: {result.cost:.2f}" in text

    def test_verbose_statistics(self, result):
        text = explain(result, verbose=True)
        assert "equivalence classes : 25" in text
        assert f"bindings considered : {result.stats.trans_considered}" in text
        assert "elapsed" in text

    def test_explain_memo_truncation(self, result):
        text = explain_memo(result, limit=3)
        assert text.count("\n") >= 2
        assert "more equivalence classes" in text

    def test_explain_memo_footer_states_hidden_count(self, result):
        """Truncation is explicit: the footer says exactly how many
        classes the limit hid, for every limit."""
        total = result.equivalence_classes
        for limit in (1, 3, total - 1):
            text = explain_memo(result, limit=limit)
            hidden = total - limit
            assert text.endswith(f"... ({hidden} more equivalence classes)")
            assert len(text.splitlines()) == limit + 1

    def test_explain_memo_no_footer_at_exact_limit(self, result):
        text = explain_memo(result, limit=result.equivalence_classes)
        assert "more equivalence classes" not in text

    def test_explain_memo_full(self, result):
        text = explain_memo(result, limit=None)
        assert "more equivalence classes" not in text
        assert text.count("g") >= result.equivalence_classes

    def test_explain_sorted_plan_shows_order(self, schema, relational_volcano_generated):
        catalog = make_experiment_catalog(2, with_targets=False, instance=0)
        builder = TreeBuilder(schema, catalog)
        result = VolcanoOptimizer(relational_volcano_generated, catalog).optimize(
            builder.ret("C1"), required=("a1",)
        )
        assert "order: a1" in explain_plan(result.plan)
