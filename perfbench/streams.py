"""Seeded input streams for the three workloads.

Everything here is pure Python over ``random.Random(seed)``: the same
seed always yields the same stream, and the program under test only
ever sees the trees and catalogs these descriptors are turned into.

An *instance* is ``(qid, n_joins, cardinality_instance)``, the triple
``repro.workloads.queries.make_query_instance`` takes.

Each stream is composed so that its reported percentiles are steady:
per-query optimize times cluster by (template, joins), and a stream
whose class mix changed from seed to seed would move a percentile from
one cluster to the next.  So the seed chooses order and which instance
is hot, never how many queries of each class run.
"""

from __future__ import annotations

import random

#: The with/without-index variant pair of each expression template.
VARIANTS = {"E1": ("Q1", "Q2"), "E2": ("Q3", "Q4"), "E3": ("Q5", "Q6"), "E4": ("Q7", "Q8")}
INSTANCES = range(5)

#: cold-mix: every tractable (template, joins) class.  Q7 at n=3 (~50 s)
#: is left out.
COLD_CLASSES = (
    [("E1", n) for n in range(1, 7)]
    + [("E2", n) for n in range(1, 4)]
    + [("E3", n) for n in range(1, 4)]
    + [("E4", n) for n in range(1, 3)]
)
#: cold-mix classes that run in both index variants; the rest alternate
#: variants by cardinality instance (instance i runs variant i % 2).
#: These cheap classes put as many samples below the E1 4-join cluster
#: as there are above it, so the median falls in the middle of that
#: cluster instead of at the edge of a wide one.  The variant is not
#: seeded: a three-join E2/E3 query costs 0.35-1.1 s depending on its
#: variant and instance, and a seeded choice moved the tail by 15%.
COLD_BOTH_VARIANTS = {("E1", n) for n in range(1, 5)}
#: The class the cold-mix median falls in, and how many times a sweep
#: runs each of its instances.  One pass gives only 20 samples, so the
#: median would follow a few ops and the host's speed at those moments;
#: repeats spread many samples over the whole run.  They also bring a
#: sweep to 400 ops, where the tail is p95 with 20 samples beyond it:
#: the ten E4 two-join ones and half of the E2/E3 three-join cluster,
#: so the tail falls in the middle of that cluster too.
COLD_MEDIAN_CLASS = ("E1", 4)
COLD_MEDIAN_REPEATS = 12

#: repeat-batch: classes whose search misses cost at most ~75 ms, so a
#: run holds enough batches for steady percentiles.  Listed in
#: popularity order (cheap and costly classes interleaved); the order is
#: fixed so that every seed puts the same cost mix at the hot head.
BATCH_CLASSES = (
    ("E1", 2), ("E2", 1), ("E1", 4), ("E3", 2), ("E1", 1),
    ("E4", 1), ("E1", 3), ("E2", 2), ("E1", 5), ("E3", 1),
)
BATCH_SIZE = 16
CACHE_ENTRIES = 32
ZIPF_S = 1.0

#: spec-to-rows: per spec, the cheap queries optimized and executed in
#: every iteration (all at one join; E1/E2 return thousands of rows).
SPEC_QUERIES = {
    "oodb": (("Q1", 1), ("Q3", 1)),
    "relational": (("Q1", 1), ("Q2", 1)),
}


def cold_mix(seed: int, sweeps: int) -> "list[tuple[str, int, int]]":
    """``sweeps`` sweeps, each in its own seeded order.  A sweep holds
    every class at all five cardinality instances, in both index
    variants for :data:`COLD_BOTH_VARIANTS` and in variant ``i % 2``
    otherwise, with the median class repeated."""
    rng = random.Random(seed)
    sweep = []
    for template, n in COLD_CLASSES:
        for i in INSTANCES:
            if (template, n) == COLD_MEDIAN_CLASS:
                sweep.extend((qid, n, i) for qid in VARIANTS[template]
                             for _ in range(COLD_MEDIAN_REPEATS))
            elif (template, n) in COLD_BOTH_VARIANTS:
                sweep.extend((qid, n, i) for qid in VARIANTS[template])
            else:
                sweep.append((VARIANTS[template][i % 2], n, i))
    stream = []
    for _ in range(sweeps):
        rng.shuffle(sweep)
        stream.extend(sweep)
    return stream


def batch_domain() -> "list[tuple[str, int, int]]":
    """The distinct instances repeat-batch draws from (100, over a
    32-entry cache).  Q1/Q2-style variant pairs share a tree but not a
    catalog, which is what produces stale cache entries."""
    return [
        (qid, n, i)
        for template, n in BATCH_CLASSES
        for qid in VARIANTS[template]
        for i in INSTANCES
    ]


def repeat_batch(seed: int, batches: int) -> "list[list[tuple[str, int, int]]]":
    """A Zipf-skewed stream cut into ``batches`` batches.

    Popularity ranks are dealt in tiers: tier k holds one instance of
    every class, in :data:`BATCH_CLASSES` order, so the hot head of the
    distribution has the same class mix under every seed.  Each rank
    appears its Zipf share of the stream exactly (largest remainder), so
    no seed draws an unusual mix.
    """
    rng = random.Random(seed)
    per_class = []
    for template, n in BATCH_CLASSES:
        # Cardinality instance k holds tiers 2k and 2k+1, one per index
        # variant: a tree's two variants sit in adjacent tiers, so how
        # often they invalidate each other's cache entry, and how costly
        # the hot instances are, is the same for every seed.  The seed
        # picks which variant leads and the order of requests.
        variants = list(VARIANTS[template])
        rng.shuffle(variants)
        per_class.append([(qid, n, i) for i in INSTANCES for qid in variants])
    ranking = [key for tier in zip(*per_class) for key in tier]
    total = batches * BATCH_SIZE
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranking))]
    shares = [total * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(shares)), key=lambda r: counts[r] - shares[r])
    for rank in by_remainder[: total - sum(counts)]:
        counts[rank] += 1
    # Systematic placement: a rank's requests are evenly spaced from a
    # seeded phase, so the spacing between a hot tree's two variants,
    # and with it the number of stale entries, hardly varies by seed.
    placed = []
    for key, count in zip(ranking, counts):
        draw = rng.random()
        if not count:  # a short stream leaves the coldest ranks out
            continue
        gap = total / count
        phase = draw * gap
        placed.extend((phase + j * gap, key) for j in range(count))
    placed.sort()
    draws = [key for _, key in placed]
    return [draws[b * BATCH_SIZE:(b + 1) * BATCH_SIZE] for b in range(batches)]


def spec_to_rows(seed: int, iterations: int) -> "list[int]":
    """One entry per iteration: the cardinality instance every query uses.

    The instances follow one seeded permutation, so any five consecutive
    iterations execute each instance once, and the result sizes alive
    together in one iteration are the same under every seed.
    """
    rng = random.Random(seed)
    order = list(INSTANCES)
    rng.shuffle(order)
    return [order[it % len(order)] for it in range(iterations)]
