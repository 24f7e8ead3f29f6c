"""Recorded reference outputs and the checks every run makes against them.

``golden/costs.json`` holds, per rule-set family and instance, the best
plan cost and the final memo size (groups, m-exprs) of each provenance.
``golden/rows.json`` holds, per spec-to-rows query instance, the row
count and a digest of the row multiset that ``naive_evaluate`` (the
rule-free oracle) returns.  ``record_goldens.py`` regenerates both.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import operator
import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
COST_RTOL = 1e-9


def instance_key(qid: str, n: int, instance: int) -> str:
    return f"{qid}/{n}/{instance}"


def rows_digest(rows) -> str:
    """Order-insensitive digest of a row multiset.

    Rows of one result share their columns, so each becomes a tuple in
    sorted-column order and the sorted tuples are hashed in one go.
    Values are ints, strings and tuples of them; ``marshal`` version 0
    writes those without back-references or interning, so equal values
    always give equal bytes.
    """
    columns = sorted(rows[0]) if rows else []
    if any(len(row) != len(columns) for row in rows):
        table = sorted(repr(sorted(row.items())) for row in rows)
    elif len(columns) == 1:
        table = sorted((row[columns[0]],) for row in rows)
    else:
        table = sorted(map(operator.itemgetter(*columns), rows))
    return hashlib.sha256(marshal.dumps((columns, table), 0)).hexdigest()


def load(golden_dir: str = GOLDEN_DIR) -> "tuple[dict, dict]":
    with open(os.path.join(golden_dir, "costs.json")) as fh:
        costs = json.load(fh)
    with open(os.path.join(golden_dir, "rows.json")) as fh:
        rows = json.load(fh)
    return costs, rows


def same_cost(a: float, b: float) -> bool:
    return abs(a - b) <= COST_RTOL * max(1.0, abs(b))


def check_result(golden: dict, provenance: str, cost: float, stats, problems: list, where: str) -> None:
    """Compare one optimization against its golden cost and memo size."""
    if not same_cost(cost, golden["cost"]):
        problems.append(f"{where}: cost {cost!r} != golden {golden['cost']!r}")
    memo = [stats.groups, stats.mexprs]
    if memo != golden[provenance]:
        problems.append(f"{where}: memo groups/mexprs {memo} != golden {golden[provenance]}")
