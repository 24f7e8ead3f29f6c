"""Hash-consing (interning) for descriptors.

The memo allocates one :class:`~repro.algebra.descriptors.Descriptor` per
memo expression even though most of them carry identical values (the
schema defaults, or one of a handful of argument combinations), and rule
actions rebuild equal predicate trees and attribute tuples over and over.
:class:`DescriptorInterner` maps descriptors to one canonical instance
per distinct value set and rewires value slots to canonical equal
objects, so the memo retains far fewer objects.  The search engine keeps
one interner per engine (:class:`~repro.volcano.search.VolcanoOptimizer`).
"""

from __future__ import annotations

from repro.algebra.descriptors import Descriptor

#: Soft cap per intern table.  Past it, candidates are returned
#: un-interned (correct, just not shared) so a pathological workload
#: cannot grow a table without bound.
DEFAULT_MAX_ENTRIES = 65536


class DescriptorInterner:
    """Canonical descriptor instances for one schema, keyed by value.

    ``canonical(d)`` returns the first descriptor ever seen with ``d``'s
    exact values (``d`` itself when new).  Canonical descriptors are
    shared — callers must treat them as immutable; every engine path
    that writes a descriptor copies it first, which is already the
    memo's contract.  The value key is the full-schema projection
    (hashable: list values frozen to tuples), double-checked against the
    raw value dict so a list-valued and a tuple-valued descriptor are
    never conflated.

    Whole-descriptor sharing is rare inside one memo (every m-expr's
    argument/stream combination tends to be distinct), so the interner
    also hash-conses at the granularity where the real redundancy lives:
    the *values* inside descriptors.  Rule actions rebuild the same
    predicate trees and attribute tuples over and over — a Q7 memo
    retains ~10k identity-distinct value objects that collapse to ~1.2k
    by value.  :meth:`canonical_values` rewires each slot of a
    descriptor's value dict to one canonical equal object.  This is
    exactly the aliasing ``Descriptor.copy()`` already creates (a flat
    dict copy shares value objects), and the engine's contract forbids
    in-place value mutation — all writes replace whole values — so the
    sharing is invisible to every reader.
    """

    __slots__ = (
        "schema",
        "max_entries",
        "hits",
        "inserts",
        "rejects",
        "values_shared",
        "values_unique",
        "_names",
        "_table",
        "_value_table",
    )

    def __init__(self, schema, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self.schema = schema
        self.max_entries = max_entries
        self._names = schema.names
        self._table: dict[tuple, Descriptor] = {}
        self._value_table: dict[tuple, object] = {}
        self.hits = 0      # canonical() returned an older, shared instance
        self.inserts = 0   # canonical() adopted the candidate as canonical
        self.rejects = 0   # value-dict mismatch or table full: not shared
        self.values_shared = 0  # value slots rewired to a canonical object
        self.values_unique = 0  # value slots that became the canonical

    def canonical(self, descriptor: Descriptor) -> Descriptor:
        key = descriptor.project(self._names)
        found = self._table.get(key)
        if found is not None:
            if found is descriptor:
                return descriptor
            if found._values == descriptor._values:
                self.hits += 1
                return found
            # Same frozen projection, different raw values (list vs
            # tuple).  Sharing would change what copy() hands to rule
            # actions, so keep the candidate private (its values can
            # still alias canonical objects).
            self.rejects += 1
            self.canonical_values(descriptor)
            return descriptor
        if len(self._table) >= self.max_entries:
            self.rejects += 1
            self.canonical_values(descriptor)
            return descriptor
        self._table[key] = descriptor
        self.inserts += 1
        self.canonical_values(descriptor)
        return descriptor

    def canonical_values(self, descriptor: Descriptor) -> int:
        """Rewire the descriptor's value slots to canonical equal objects.

        Returns the number of slots that now alias a pre-existing
        canonical object (the memory actually saved).  Keys carry the
        value's class so ``True``/``1`` and ``1``/``1.0`` never
        conflate; lists are keyed by their frozen tuple but the
        canonical object stays a list (readers see the same type).
        Unhashable values (nested lists, dicts) are left private.
        """
        shared = 0
        table = self._value_table
        values = descriptor._values
        if len(table) >= self.max_entries:
            return 0
        for name, value in values.items():
            cls = value.__class__
            try:
                key = (cls, tuple(value)) if cls is list else (cls, value)
                found = table.get(key)
            except TypeError:
                continue
            if found is None:
                table[key] = value
                self.values_unique += 1
            elif found is not value:
                values[name] = found
                shared += 1
        self.values_shared += shared
        return shared

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        self._table.clear()
        self._value_table.clear()
