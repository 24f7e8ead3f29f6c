"""Cross-query plan caching for the Volcano search engine.

The search engine memoizes *within* one :meth:`VolcanoOptimizer.optimize`
call (the memo's winner tables), but every call starts from an empty
memo: a service optimizing the same — or structurally identical — query
twice repeats the whole search.  The :class:`PlanCache` closes that gap:
a bounded, LRU-evicting map from a query's *logical identity* to its
finished optimization result, shared across calls (and, if desired,
across optimizer instances over the same rule set).

Keying
------
Two optimization requests are interchangeable exactly when all of these
coincide:

* the **canonical tree fingerprint** — the operator tree's recursive
  shape including each node's argument-property projection (the same
  identity notion the memo's duplicate elimination uses, so two trees
  that would encode to the same memo groups share a fingerprint);
* the **required physical-property vector**;
* the **rule set** — the object itself: rule sets compare by identity,
  and the key's strong reference keeps a cached rule set alive, so its
  identity can never be reused by another;
* the **search options** (heuristics change which plan is found).

Validity
--------
One rule: an entry is valid against a catalog exactly when the
catalog's structural :meth:`~repro.catalog.schema.Catalog.state_token`
equals the token recorded at store time.  Any catalog mutation changes
the token, so plans computed against an older state are never served;
a catalog that crossed a process boundary (a new object with the same
content) still matches.  A token mismatch drops the entry and counts as
a *stale* miss.

Entries keep the plan, its cost, a :class:`MemoSummary` of the search
effort (never the memo itself: a memo is orders of magnitude bigger
than its plan) and the token.  Hits return a *fresh deep copy* of the
cached plan (callers may annotate or execute plans destructively).
Hit/miss counters are surfaced per-optimization through
:class:`~repro.volcano.search.SearchStats` and cumulatively through
:meth:`PlanCache.stats`.  :meth:`PlanCache.snapshot` /
:meth:`PlanCache.merge_snapshot` are the cache's portable form.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Union

from repro.algebra.expressions import Expression, StoredFileRef
from repro.catalog.schema import Catalog

PlanTree = Union[Expression, StoredFileRef]

DEFAULT_MAX_ENTRIES = 256


def tree_fingerprint(
    tree: PlanTree, argument_properties: "tuple[str, ...]"
) -> tuple:
    """A hashable canonical identity for an initialized operator tree.

    Mirrors :meth:`repro.volcano.memo.MExpr.key`: operator name plus the
    argument-property projection of the node's descriptor, recursively;
    stored files are identified by name alone.  Physical annotations
    (costs, orders) are deliberately excluded — they are outputs of
    optimization, not part of the query's identity.
    """
    if isinstance(tree, StoredFileRef):
        return ("file", tree.name)
    return (
        tree.op.name,
        tree.descriptor.project(argument_properties),
        tuple(
            tree_fingerprint(child, argument_properties)
            for child in tree.inputs
        ),
    )


def copy_plan(plan: PlanTree) -> PlanTree:
    """A deep copy of an access plan (fresh descriptors throughout)."""
    if isinstance(plan, StoredFileRef):
        return StoredFileRef(plan.name, plan.descriptor.copy())
    return plan.copy_tree()


@dataclass(frozen=True)
class MemoSummary:
    """What a plan-cache entry keeps of the memo that found its plan.

    A memo is an order of magnitude bigger than the plan it produced,
    but cache hits still report search-effort statistics.  The summary
    answers the two counters the engine reads (:attr:`group_count` /
    :attr:`mexpr_count`) and iterates as empty for tools that walk
    groups.
    """

    group_count: int
    mexpr_count: int
    groups: tuple = ()

    def stats(self) -> dict[str, int]:
        return {"groups": self.group_count, "mexprs": self.mexpr_count}

    @classmethod
    def of(cls, memo: Any) -> "MemoSummary":
        return cls(memo.group_count, memo.mexpr_count)


@dataclass(frozen=True)
class CachedPlan:
    """One plan-cache entry: the finished result and the
    :meth:`~repro.catalog.schema.Catalog.state_token` of the catalog it
    was computed against (see the module docstring's *Validity*)."""

    plan: PlanTree
    cost: float
    memo: MemoSummary
    catalog_token: tuple


@dataclass
class CacheSnapshot:
    """A picklable export of plan-cache entries for one rule set.

    Produced by :meth:`PlanCache.snapshot`, consumed by
    :meth:`PlanCache.merge_snapshot`.  ``entries`` holds
    ``(portable_key, CachedPlan)`` pairs whose keys carry the
    ``ruleset_tag`` string in place of the rule set object.
    """

    ruleset_tag: str
    entries: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)


class PlanCache:
    """A bounded LRU cache of finished optimizations.

    Thread-safe: a reentrant lock guards every lookup/store/evict, so
    one cache may back the batch optimizer's thread mode (many
    optimizer instances, one shared cache) without external
    coordination.  The optimizers themselves are still single-threaded
    objects — only the cache is shared.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, CachedPlan]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.merged_in = 0

    # -- keying ---------------------------------------------------------------

    @staticmethod
    def key_for(
        ruleset: Any,
        options: Any,
        tree: PlanTree,
        required: tuple,
    ) -> tuple:
        """The cache key for one optimization request (catalog-independent;
        catalog validity is checked per entry at lookup time)."""
        return (
            ruleset,
            options,
            required,
            tree_fingerprint(tree, ruleset.argument_properties),
        )

    # -- lookup / store -------------------------------------------------------

    def lookup(
        self, key: tuple, catalog: Catalog, emit=None
    ) -> "CachedPlan | None":
        """The valid entry for ``key``, or ``None`` (counts hit/miss).

        An entry whose catalog token differs from ``catalog``'s is
        discarded on sight and counts as a stale miss.  ``emit`` is an
        optional trace hook (``tracer.emit``): a ``plan_cache_hit`` or
        ``plan_cache_miss`` event is emitted per lookup, the miss
        carrying why (``"absent"`` or ``"stale"``).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                if emit is not None:
                    emit("plan_cache_miss", reason="absent")
                return None
            if entry.catalog_token != catalog.state_token():
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                if emit is not None:
                    emit("plan_cache_miss", reason="stale")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            if emit is not None:
                emit("plan_cache_hit", cost=entry.cost)
            return entry

    def store(
        self,
        key: tuple,
        plan: PlanTree,
        cost: float,
        memo: Any,
        catalog: Catalog,
        emit=None,
    ) -> CachedPlan:
        """Cache a finished optimization (evicting LRU past the bound).

        The entry keeps a :class:`MemoSummary` of ``memo``, not the memo
        itself.  The plan is copied on the way in, so later caller-side
        mutation of the returned plan cannot corrupt the cache.  ``emit``
        is the same optional trace hook :meth:`lookup` takes; a
        ``plan_cache_store`` event (plus one ``plan_cache_evict`` per
        displaced entry) is emitted.
        """
        entry = CachedPlan(
            copy_plan(plan), cost, MemoSummary.of(memo), catalog.state_token()
        )
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            if emit is not None:
                emit("plan_cache_store", cost=cost, entries=len(self._entries))
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                if emit is not None:
                    emit("plan_cache_evict", entries=len(self._entries))
        return entry

    # -- snapshot / merge (the batch optimizer's IPC surface) -----------------

    def snapshot(
        self,
        ruleset: Any,
        ruleset_tag: str,
        emit=None,
    ) -> CacheSnapshot:
        """Export this cache's entries for ``ruleset`` in portable form.

        Cache keys embed the rule set object, which cannot cross a
        process boundary (workers rebuild rule sets from a factory spec).
        The snapshot substitutes ``ruleset_tag`` — any string both sides
        agree names the rule set, conventionally the worker factory spec
        (``"module:attr"``).  Entries are exported as they are: they
        already hold nothing process-local.

        ``emit`` is an optional resolved trace hook: when given, the
        export is bracketed by a ``plan_cache.snapshot`` span so batch
        traces show the IPC serialization cost.
        """
        if emit is not None:
            emit("span_begin", name="plan_cache.snapshot")
            span_started = time.perf_counter()
        with self._lock:
            exported = [
                ((ruleset_tag,) + key[1:], entry)
                for key, entry in self._entries.items()
                if key[0] is ruleset
            ]
        result = CacheSnapshot(ruleset_tag=ruleset_tag, entries=exported)
        if emit is not None:
            emit(
                "span_end",
                name="plan_cache.snapshot",
                elapsed_s=time.perf_counter() - span_started,
                entries=len(exported),
            )
        return result

    def merge_snapshot(
        self, snapshot: "CacheSnapshot", ruleset: Any, emit=None
    ) -> int:
        """Fold a snapshot's entries in; returns how many were adopted.

        Portable keys are rebound to ``ruleset`` (the caller asserts the
        snapshot's tag names this rule set).  Entries already present
        locally win, keeping their place in the LRU order; adopted
        entries enter at the MRU end, evicting LRU past the bound as a
        normal store would.

        ``emit``, when given, brackets the merge in a
        ``plan_cache.merge`` span (see :meth:`snapshot`).
        """
        if emit is not None:
            emit("span_begin", name="plan_cache.merge")
            span_started = time.perf_counter()
        merged = 0
        with self._lock:
            for portable_key, entry in snapshot.entries:
                key = (ruleset,) + tuple(portable_key[1:])
                if key in self._entries:
                    continue
                self._entries[key] = entry
                self._entries.move_to_end(key)
                merged += 1
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.evictions += 1
            self.merged_in += merged
        if emit is not None:
            emit(
                "span_end",
                name="plan_cache.merge",
                elapsed_s=time.perf_counter() - span_started,
                merged=merged,
            )
        return merged

    # -- maintenance ----------------------------------------------------------

    def invalidate(self) -> int:
        """Drop every entry (e.g. after bulk catalog/statistics changes);
        returns how many were dropped.

        Per-catalog invalidation is automatic via catalog state tokens;
        this explicit hook exists for callers that mutate cost-relevant
        state the token cannot see (statistics refresh, helper
        reconfiguration).
        """
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict[str, int]:
        """Cumulative counters (across every optimizer using this cache)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "merged_in": self.merged_in,
            }

    def __repr__(self) -> str:
        return (
            f"PlanCache({len(self._entries)}/{self.max_entries} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )
