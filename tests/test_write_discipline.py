"""The one write discipline: compiled actions never write a keyed descriptor.

Generated action code (:mod:`repro.prairie.compile`) writes properties
straight into a descriptor's ``_values`` dict.  That is sound only
because actions write fresh right-hand-side descriptors — default-
constructed or copied — before the memo keys them by their
argument-property projection.  A write into a descriptor the memo
already holds (a left-hand-side descriptor, or a hash-consed one shared
by many m-exprs) would leave its duplicate-elimination key stale.  These
tests re-derive every memo key from the live descriptor after the search
and fail on any difference, across Q1–Q8 at one and two joins with the
P2V rule sets of both oodb specifications (the Python-built one and the
checked-in DSL file) and, for contrast, the hand-coded rule set.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.optimizers.helpers import domain_helpers
from repro.prairie.dsl import compile_spec
from repro.prairie.translate import translate
from repro.volcano.search import VolcanoOptimizer
from repro.workloads.queries import make_query_instance

OODB_SPEC = pathlib.Path(__file__).parent.parent / "examples" / "specs" / "oodb.prairie"


@pytest.fixture(scope="module")
def dsl_generated():
    """The P2V rule set translated from the checked-in oodb DSL spec."""
    prairie = compile_spec(
        OODB_SPEC.read_text(), name="oodb", helpers=domain_helpers()
    )
    return translate(prairie).volcano


@pytest.mark.parametrize("provenance", ["python-spec", "dsl-spec", "hand-coded"])
@pytest.mark.parametrize("n_joins", [1, 2])
@pytest.mark.parametrize("qid", [f"Q{i}" for i in range(1, 9)])
def test_no_stale_projection(
    qid,
    n_joins,
    provenance,
    oodb_volcano_generated,
    oodb_volcano_hand,
    dsl_generated,
):
    ruleset = {
        "python-spec": oodb_volcano_generated,
        "dsl-spec": dsl_generated,
        "hand-coded": oodb_volcano_hand,
    }[provenance]
    catalog, tree = make_query_instance(ruleset.schema, qid, n_joins, 0)
    memo = VolcanoOptimizer(ruleset, catalog).optimize(tree).memo
    args = memo.argument_properties
    stale = [
        (key, mexpr.key(args))
        for key, mexpr in memo._index.items()
        if mexpr.key(args) != key
    ]
    assert not stale, f"{len(stale)} stale memo keys, first: {stale[0]}"
    assert memo.mexpr_count > 1
