"""Acceptance gate: the six headline guarantees, one verdict line each.

Each test prints PASS or FAIL for its criterion (visible under pytest -s or
on failure) and asserts the same condition.  The genus-15 census is computed
once and shared; everything is exact integer arithmetic, tolerance zero.
The same census also pins the census NDJSON bytes by their sha256.
"""

import hashlib
import io
import json
from collections import Counter
from math import gcd

import numpy as np
import pytest

from nsg import (
    a_invariant,
    ci_tree,
    enumerate_records,
    enumerate_semigroups,
    glue,
    extra_degree,
    make_semigroup,
    minimal_presentation,
    relation_degrees,
    small_exceptions,
    summarize,
    write_records,
)
from nsg.census import _line

from oracles import fiber_table, naive_frobenius, naive_semigroups

# A007323 (Bras-Amorós), genus 0..15; the gap-subset oracle covers 0..8
EXPECTED_COUNTS = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857]
ORACLE_GENUS = 8


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def census15():
    return enumerate_records(15)


def test_criterion_1_a_invariant_matches_gap_oracle(census15):
    # a_invariant reads the degrees off the gluing tree; the sum over the
    # measured presentation degrees keeps the presentation route checked too
    checked = 0
    bad = []
    for record in census15:
        if not record.is_ci:
            continue
        s = make_semigroup(list(record.generators))
        frob = naive_frobenius(record.generators)
        measured = sum(minimal_presentation(s).degrees) - sum(s.generators)
        if a_invariant(s) != frob or measured != frob:
            bad.append(record.generators)
        checked += 1
    ok = not bad and checked > 0
    assert report(
        "criterion 1 (a-invariant = Frobenius on CIs by tree and by presentation, genus <= 15)",
        ok,
        f"{checked} complete intersections checked, {len(bad)} disagreements",
    )


def test_criterion_2_star_exception_classification(census15):
    summary = summarize(census15, 15)
    expected = {(2, q) for q in range(3, 32, 2)} | {(3, 4), (3, 5)}
    found = set(summary.exceptions_found)
    ok = (
        found == expected
        and len(summary.exceptions_found) == 17
        and summary.counterexamples == ()
    )
    assert report(
        "criterion 2 (star failures are exactly the known list, genus <= 15)",
        ok,
        f"{len(found)} exceptions found, "
        f"{len(summary.counterexamples)} counterexamples, "
        f"set match: {found == expected}",
    )


def test_criterion_3_two_generated_margin_bound():
    checked = 0
    violations = []
    for m in range(2, 201):
        for n in range(m + 1, 201):
            if gcd(m, n) != 1:
                continue
            record = small_exceptions(m, n)
            checked += 1
            pattern = m == 2 or (m, n) in ((3, 4), (3, 5))
            if record.double_delta < -4 or record.is_exception != pattern:
                violations.append((m, n))
    ok = not violations
    assert report(
        "criterion 3 (margin >= -4 and exact exception set, pairs <= 200)",
        ok,
        f"{checked} coprime pairs checked, {len(violations)} violations",
    )


def _connected_under(facts, moves, powers):
    """Union-find closure of one fiber, given as coordinate tuples, under the moves."""
    count = len(facts)
    if count <= 1:
        return True
    A = np.array(facts, dtype=np.int64)
    keys = A @ powers
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    parent = list(range(count))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    components = count
    for l, r in moves:
        src = np.nonzero((A >= l).all(axis=1))[0]
        if src.size == 0:
            continue
        target_keys = (A[src] - l + r) @ powers
        pos = np.searchsorted(sorted_keys, target_keys)
        assert (sorted_keys[pos] == target_keys).all(), "move left the fiber"
        dst = order[pos]
        for i, j in zip(src.tolist(), dst.tolist()):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri
                components -= 1
        if components == 1:
            return True
    return components == 1


def test_criterion_4_presentations_generate_and_detect_ci():
    # fibers come from the oracle's bulk table, not from the library
    disconnected = []
    ci_mismatches = []
    wrong_size = []
    semigroups = 0
    fibers = 0
    for s in enumerate_semigroups(12):
        semigroups += 1
        pres = minimal_presentation(s)
        count_ci = len(pres.relations) == s.embedding_dim - 1
        tree_ci = ci_tree(s) is not None
        if count_ci != tree_ci:
            ci_mismatches.append(s.generators)
        if tree_ci and len(pres.relations) != s.embedding_dim - 1:
            wrong_size.append(s.generators)
        if not pres.relations:
            continue
        moves = [
            (
                np.array(rel.left.coords, dtype=np.int64),
                np.array(rel.right.coords, dtype=np.int64),
            )
            for rel in pres.relations
        ]
        moves += [(r, l) for l, r in moves]
        top = 3 * max(pres.degrees)
        base = top // s.multiplicity + 2
        powers = base ** np.arange(s.embedding_dim, dtype=np.int64)
        assert base ** s.embedding_dim < 2 ** 62
        table = fiber_table(s.generators, top)
        for n in range(2, top + 1):
            facts = table[n]
            if len(facts) > 1:
                fibers += 1
                if not _connected_under(facts, moves, powers):
                    disconnected.append((s.generators, n))
    ok = not disconnected and not ci_mismatches and not wrong_size and fibers == 123596
    assert report(
        "criterion 4 (presentations connect all fibers, CI routes agree, genus <= 12)",
        ok,
        f"{semigroups} semigroups, {fibers} nontrivial fibers closed, "
        f"{len(disconnected)} disconnected, {len(ci_mismatches)} CI mismatches",
    )


def _gluing_identities_hold(left, right, lam, mu):
    glued = glue(left, right, lam, mu)
    d = extra_degree(glued, left, right, lam, mu)
    frob_ok = glued.frobenius == d + mu * left.frobenius + lam * right.frobenius
    expected = Counter(mu * x for x in relation_degrees(left))
    expected += Counter(lam * x for x in relation_degrees(right))
    expected[d] += 1
    degrees_ok = Counter(relation_degrees(glued)) == expected
    # Delorme: a gluing is a complete intersection exactly when both sides are
    tree_ok = (ci_tree(glued) is not None) == (
        ci_tree(left) is not None and ci_tree(right) is not None
    )
    return glued, frob_ok and degrees_ok and tree_ok and d % (lam * mu) == 0


def test_criterion_5_gluing_identities_at_scale():
    goldens = [
        ((2, 3), (2, 3), 4, 5, (8, 10, 12, 15), 29),
        ((2, 3), (1,), 9, 2, (4, 6, 9), 11),
        ((2, 3), (1,), 5, 4, (5, 8, 12), 19),
    ]
    goldens_ok = True
    checked = 0
    for left_gens, right_gens, lam, mu, expect_gens, expect_frob in goldens:
        glued, ok = _gluing_identities_hold(
            make_semigroup(list(left_gens)), make_semigroup(list(right_gens)), lam, mu
        )
        checked += 1
        if not (
            ok
            and glued.generators == expect_gens
            and glued.frobenius == expect_frob
            and naive_frobenius(expect_gens) == expect_frob
        ):
            goldens_ok = False

    donors = [make_semigroup(list(s.generators)) for s in enumerate_semigroups(3)]
    failures = []
    for left in donors:
        lams = [v for v in range(2, 31) if v in left and v not in left.generators]
        for right in donors:
            mus = [v for v in range(2, 31) if v in right and v not in right.generators]
            per_pair = 0
            for lam in lams:
                for mu in mus:
                    if gcd(lam, mu) != 1:
                        continue
                    _, ok = _gluing_identities_hold(left, right, lam, mu)
                    checked += 1
                    per_pair += 1
                    if not ok:
                        failures.append((left.generators, right.generators, lam, mu))
                    if per_pair >= 9:
                        break
                if per_pair >= 9:
                    break
    ok = checked >= 500 and not failures and goldens_ok
    assert report(
        "criterion 5 (gluing degree and Frobenius identities, >= 500 cases)",
        ok,
        f"{checked} gluings checked, {len(failures)} identity failures, "
        f"worked goldens verified: {goldens_ok}",
    )


def test_criterion_6_census_counts_match_oracle(census15):
    tree_counts = [0] * len(EXPECTED_COUNTS)
    tree_sets = [set() for _ in range(ORACLE_GENUS + 1)]
    for record in census15:
        tree_counts[record.genus] += 1
        if record.genus <= ORACLE_GENUS:
            tree_sets[record.genus].add(record.generators)
    oracle_ok = True
    for genus in range(ORACLE_GENUS + 1):
        oracle = {gens for _, gens in naive_semigroups(genus)}
        if oracle != tree_sets[genus] or len(oracle) != EXPECTED_COUNTS[genus]:
            oracle_ok = False
    ok = tree_counts == EXPECTED_COUNTS and oracle_ok
    assert report(
        "criterion 6 (per-genus counts 0..15 match A007323, "
        "0..8 match the gap-subset oracle)",
        ok,
        f"tree counts {tree_counts}, oracle agreement: {oracle_ok}",
    )


# sha256 of `nsg verify --max-genus G --format json --out F` for G = 12, 15
NDJSON_SHA256 = {
    12: "8495f9500bc78c42091c26e43ed159e5ea435027377a03cbb806bc849ab27493",
    15: "0e5ab2aafbd0fb1e44a72575b4ba45b6b89f0fc4c9f40ec208220be877176fd5",
}


@pytest.mark.parametrize("bound", sorted(NDJSON_SHA256))
def test_census_ndjson_bytes_are_pinned(census15, bound):
    buffer = io.StringIO()
    write_records([r for r in census15 if r.genus <= bound], buffer)
    digest = hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()
    assert digest == NDJSON_SHA256[bound]


def test_census_lines_match_json_dumps(census15):
    # the writer's template against json.dumps of a dict built here, with
    # its default separators, for every record of genus <= 15
    for record in census15:
        doc = {
            "generators": list(record.generators),
            "genus": record.genus,
            "frobenius": record.frobenius,
            "embedding_dim": record.embedding_dim,
            "is_ci": record.is_ci,
            "star_verdict": record.star.verdict.value,
            "d_max": record.star.d_max,
            "exception": record.exception.value,
        }
        assert _line(record) == json.dumps(doc) + "\n"
