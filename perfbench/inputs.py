"""Seeded inputs and independent arithmetic oracles for the benchmark.

Nothing here imports nsg: the inputs the program receives and the values
its outputs are checked against are computed by separate, plain code.
"""

from __future__ import annotations

import heapq
import random
from math import gcd

WORKLOADS = ("census", "gluing", "large-single")

CENSUS_GENUS = 12
# A007323: numerical semigroups of genus 0..12
A007323 = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592)
CENSUS_CI_COUNT = 53
# the only star failures among complete intersections, <2,q>, <3,4> and <3,5>,
# in the census's canonical (genus, generators) order
CENSUS_STAR_FAILURES = (
    (2, 3), (2, 5), (2, 7), (3, 4), (2, 9), (3, 5), (2, 11), (2, 13),
    (2, 15), (2, 17), (2, 19), (2, 21), (2, 23), (2, 25),
)
# sha256 of the genus-12 census NDJSON written by the unoptimised program;
# the records are canonically ordered, so every worker count must match it
CENSUS_NDJSON_SHA256 = "8495f9500bc78c42091c26e43ed159e5ea435027377a03cbb806bc849ab27493"

# every complete intersection of genus 1..8 (N itself excluded)
GLUING_DONORS = (
    (2, 3), (5, 6, 9), (4, 9, 10), (4, 7, 10), (4, 6, 13), (4, 6, 11),
    (4, 6, 9), (4, 6, 7), (4, 5), (4, 5, 6), (3, 8), (3, 7), (3, 5), (3, 4),
    (2, 5), (2, 7), (2, 9), (2, 11), (2, 13), (2, 15), (2, 17),
)
GLUING_SAMPLE = 500
GLUING_SCALES = 3  # lam and mu come from the first three non-generators

# (subcommand, generators); each input is used once per ladder
LARGE_SINGLE_LADDER = (
    ("info", (500, 999)),
    ("info", (1000, 1999)),
    ("presentation", (200, 201)),
    ("star", (300, 301)),
    ("classify", (400, 401)),
    ("ci-tree", (48, 60, 72, 80, 126, 315)),
    ("ci-tree", (110, 120, 176, 180, 210, 264, 495)),
    ("presentation", (96, 99, 165, 168, 240, 392)),
)


def apery(gens) -> list[int]:
    """Least element per residue mod min(gens), by Dijkstra."""
    m = min(gens)
    dist = [None] * m
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d != dist[r]:
            continue
        for a in gens:
            nd, nr = d + a, (r + a) % m
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return dist


def frobenius(gens) -> int:
    return max(apery(gens)) - min(gens)


def genus(gens) -> int:
    m = min(gens)
    return sum((w - r) // m for r, w in enumerate(apery(gens)))


def _non_generators(gens, count: int) -> list[int]:
    table, m = apery(gens), min(gens)
    out, n = [], 2
    while len(out) < count:
        if n >= table[n % m] and n not in gens:
            out.append(n)
        n += 1
    return out


def _star_fails(gens) -> bool:
    return len(gens) == 2 and (gens[0] == 2 or gens in ((3, 4), (3, 5)))


def gluing_pool() -> list[tuple]:
    """Every distinct gluing mu*S1 + lam*S2 of two donors, in canonical order.

    Candidates outside check_star_gluing's hypotheses (the left side fails
    the star condition and the sides are not both two-generated) are left
    out, so that no call is expected to raise.  Swapped candidates give the
    same semigroup; only the first is kept, so no gluing repeats a cached one.
    """
    pool, seen = [], set()
    for left in GLUING_DONORS:
        for right in GLUING_DONORS:
            if _star_fails(left) and not (len(left) == 2 and len(right) == 2):
                continue
            for lam in _non_generators(left, GLUING_SCALES):
                for mu in _non_generators(right, GLUING_SCALES):
                    if gcd(lam, mu) != 1:
                        continue
                    glued = tuple(sorted([mu * a for a in left] + [lam * b for b in right]))
                    if glued in seen:
                        continue
                    seen.add(glued)
                    pool.append((left, right, lam, mu, glued))
    return pool


def gluing_sample(rng: random.Random) -> list[tuple]:
    """GLUING_SAMPLE gluings from the pool, stratified by a cost proxy.

    The pool is sorted by e^2 * a_e, which tracks the cost of a gluing
    closely, and one gluing is dropped from each of len(pool) - GLUING_SAMPLE
    consecutive blocks.  Every seed then draws nearly the same mix of cheap
    and costly gluings, so the spread between seeds stays small.
    """
    pool = sorted(gluing_pool(), key=lambda c: (len(c[4]) ** 2 * c[4][-1], c[4]))
    drops = len(pool) - GLUING_SAMPLE
    edges = [len(pool) * k // drops for k in range(drops + 1)]
    dropped = {rng.randrange(edges[k], edges[k + 1]) for k in range(drops)}
    sample = [c for i, c in enumerate(pool) if i not in dropped]
    rng.shuffle(sample)
    return sample


def gluing_parts(items: list[dict], parts: int) -> list[list[int]]:
    """Split the sample into parts of near-equal cost, as lists of item indices.

    Items are ranked by the same cost proxy as in gluing_sample and dealt
    round-robin, so every part holds the same mix; each part keeps the
    sample's order.
    """
    def proxy(i):
        glued = items[i]["glued"]
        return len(glued) ** 2 * glued[-1], tuple(glued)

    rank = {i: r for r, i in enumerate(sorted(range(len(items)), key=proxy))}
    return [[i for i in range(len(items)) if rank[i] % parts == part] for part in range(parts)]


def make_inputs(workload: str, seed: int) -> dict:
    """The program's inputs for one workload; the same seed gives the same inputs."""
    rng = random.Random(seed)
    if workload == "census":
        # the census input is the genus bound alone; the seed does not change it
        return {"max_genus": CENSUS_GENUS, "jobs": 1}
    if workload == "gluing":
        items = []
        for left, right, lam, mu, glued in gluing_sample(rng):
            items.append({
                "left": left, "right": right, "lam": lam, "mu": mu, "glued": glued,
                "F": frobenius(glued), "F_left": frobenius(left), "F_right": frobenius(right),
            })
        return {"donors": GLUING_DONORS, "items": items}
    if workload == "large-single":
        ladder = list(LARGE_SINGLE_LADDER)
        rng.shuffle(ladder)
        return {"commands": [[cmd, list(gens)] for cmd, gens in ladder]}
    raise ValueError(f"unknown workload {workload!r}")
