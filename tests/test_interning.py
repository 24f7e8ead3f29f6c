"""Tests for hash-consing of descriptors.

Covers :mod:`repro.algebra.interning` at the unit level (canonical
descriptors, value-slot sharing) and at the engine level: interning must
measurably shrink the memo's retained object count with **zero** change
to plans or costs.
"""

import pytest

from repro.algebra.descriptors import Descriptor
from repro.algebra.interning import DescriptorInterner
from repro.algebra.properties import DescriptorSchema, PropertyDef, PropertyType
from repro.bench.harness import build_optimizer_pair
from repro.volcano.search import VolcanoOptimizer
from repro.workloads.queries import make_query_instance
from tests import test_search_outcomes as golden

SCHEMA = DescriptorSchema(
    [
        PropertyDef("join_predicate", PropertyType.PREDICATE),
        PropertyDef("attributes", PropertyType.ATTRS),
        PropertyDef("num_records", PropertyType.FLOAT),
    ]
)
ARGS = ("join_predicate", "attributes")


def d(**values):
    return Descriptor(SCHEMA, values)


class TestDescriptorInterner:
    def test_equal_descriptors_share_one_canonical(self):
        interner = DescriptorInterner(SCHEMA)
        first = d(num_records=10.0)
        second = d(num_records=10.0)
        assert interner.canonical(first) is first
        assert interner.canonical(second) is first
        assert interner.hits == 1 and interner.inserts == 1

    def test_distinct_values_stay_distinct(self):
        interner = DescriptorInterner(SCHEMA)
        first = interner.canonical(d(num_records=1.0))
        second = interner.canonical(d(num_records=2.0))
        assert first is not second
        assert len(interner) == 2

    def test_list_vs_tuple_not_conflated(self):
        interner = DescriptorInterner(SCHEMA)
        as_list = d(attributes=["a", "b"])
        as_tuple = d(attributes=("a", "b"))
        assert interner.canonical(as_list) is as_list
        # Equal frozen projection, different raw value types: rejected.
        assert interner.canonical(as_tuple) is as_tuple
        assert interner.rejects == 1

    def test_table_bound_respected(self):
        interner = DescriptorInterner(SCHEMA, max_entries=1)
        interner.canonical(d(num_records=1.0))
        overflow = d(num_records=2.0)
        assert interner.canonical(overflow) is overflow
        assert len(interner) == 1 and interner.rejects == 1

    def test_value_slots_collapse_to_canonical_objects(self):
        """Two descriptors with different value *sets* still share the
        value objects they have in common — the hash-consing level where
        the real memo redundancy lives."""
        interner = DescriptorInterner(SCHEMA)
        first = d(attributes=["a", "b"], num_records=1.0)
        second = d(attributes=["a", "b"], num_records=2.0)
        interner.canonical(first)
        interner.canonical(second)
        assert second["attributes"] is first["attributes"]
        assert interner.values_shared >= 1

    def test_value_rewiring_preserves_equality_and_projection(self):
        interner = DescriptorInterner(SCHEMA)
        first = d(attributes=["a"], num_records=1.0)
        second = d(attributes=["a"], num_records=2.0)
        before = second.project(SCHEMA.names)
        interner.canonical(first)
        interner.canonical(second)
        assert second.project(SCHEMA.names) == before
        assert second["attributes"] == ["a"]


class TestEngineIntegration:
    @pytest.mark.parametrize("qname,joins", [("Q5", 2), ("Q7", 2)])
    def test_interning_changes_nothing_and_shrinks_memo(self, qname, joins):
        """The acceptance bar: the always-interning engine finds the
        golden plan, cost and memo while retaining fewer descriptor
        objects than an uninterned memo did (both recorded in
        ``tests/golden/search_outcomes.json``)."""
        fixture = golden.load()
        case_id = f"oodb/generated/{qname}/n={joins}"
        result = golden.run_case(case_id)
        assert golden.outcome(result) == fixture["cases"][case_id]
        assert result.stats.descriptor_values_shared > 0
        uninterned = fixture["uninterned_memo_descriptor_objects"][
            f"{qname}/n={joins}"
        ]
        assert result.stats.memo_descriptor_objects < uninterned

    def test_interning_counters_surface_via_metrics(self):
        from repro.obs import MetricsRegistry

        pair = build_optimizer_pair("oodb")
        catalog, tree = make_query_instance(pair.schema, "Q5", 2, 0)
        result = VolcanoOptimizer(pair.generated, catalog).optimize(tree)
        registry = MetricsRegistry()
        registry.record_search_stats(result.stats)
        counters = registry.counters()
        assert counters["search.descriptor_values_shared"] > 0
        assert counters["search.memo_descriptor_objects"] > 0
