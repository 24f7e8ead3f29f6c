"""The one write discipline: compiled actions never leave a stale projection.

Generated action code (:mod:`repro.prairie.compile`) writes properties
straight into a descriptor's ``_values`` dict and never invalidates its
projection cache.  That is sound only because actions write fresh
right-hand-side descriptors before anything projects them.  These tests
re-derive every cached projection the search meets from the live values
and fail on any difference, across Q1–Q8 at one and two joins with the
P2V rule sets of both oodb specifications (the Python-built one and the
checked-in DSL file) and, for contrast, the hand-coded rule set.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.algebra.descriptors import Descriptor
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


@pytest.fixture()
def checked_projections(monkeypatch):
    """Patch Descriptor.project so that, whenever the descriptor carries a
    cached projection, that projection is re-derived from the live values
    and compared — whether or not the call is a cache hit for the names
    asked.  (Search calls rarely hit: most descriptors are projected for
    one names tuple and then for another, so checking only hits would
    check next to nothing.)  Yields the list of cached entries checked.
    """
    original = Descriptor.project
    checked = []

    def project(self, names):
        cached = self._proj_cache
        if cached is not None:
            cached_names, cached_projection = cached
            object.__setattr__(self, "_proj_cache", None)
            recomputed = original(self, cached_names)
            assert recomputed == cached_projection, (
                f"stale projection cache for {cached_names!r}: cached "
                f"{cached_projection!r}, values give {recomputed!r}"
            )
            checked.append(cached_names)
        return original(self, names)

    monkeypatch.setattr(Descriptor, "project", project)
    return checked


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
    checked_projections,
):
    ruleset = {
        "python-spec": oodb_volcano_generated,
        "dsl-spec": dsl_generated,
        "hand-coded": oodb_volcano_hand,
    }[provenance]
    catalog, tree = make_query_instance(ruleset.schema, qid, n_joins, 0)
    VolcanoOptimizer(ruleset, catalog).optimize(tree)
    assert checked_projections, "no cached projection was checked"
