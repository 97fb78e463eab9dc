"""The star condition and the classification of its failures.

A complete intersection semigroup satisfies the star condition when
2 * F(S) > d_max, with d_max the largest minimal relation degree.  The
comparison is kept in doubled integers so no fractions ever appear, and
margin = 2F - d_max is its slack.  The verdict is undefined for N (which has
no relations) and for semigroups that are not complete intersections.

Among complete intersections the failures are completely classified: only
the two-generated semigroups <2, q>, <3, 4> and <3, 5> fail.  For e = 2,
margin(<a, b>) = ab - 2a - 2b = (a - 2)(b - 2) - 4 >= -4 (small_exceptions),
which is at most 0 exactly for those three patterns, and never 0.  For
e >= 3 the theorem below gives margin >= 2, as the paper claims for rings of
embedding dimension at least three.  So _classify, the one route from a
semigroup to its star report and tag (star_report, classify_exception,
hypotheses_report and census.record_for each make one call to it), tags by
generator pattern and complete intersection membership alone, never by the
margin; the census still compares every tag with its computed verdict
(summarize), the exhaustive half of the claim.

The margin recursion.  Let S = mu*S1 + lam*S2 be the root split of a gluing
tree (gluing module), with multiplicities m1, m2 and F(N) = -1.  Then
F = lam*mu + mu*F1 + lam*F2 (Delorme, 1976), and d_max = max(lam*mu,
mu*d1, lam*d2), a side's term left out when that side is N, which has no
relations (proof at gluing._ci_tree).  So margin(S) = 2F - d_max is the
minimum of the three terms

    T0 = 2F - lam*mu   = lam*mu + 2*mu*F1 + 2*lam*F2
    T1 = 2F - mu*d1    = mu*margin(S1) + 2*lam*(mu + F2)    (S1 != N)
    T2 = 2F - lam*d2   = lam*margin(S2) + 2*mu*(lam + F1)   (S2 != N)

With both sides N, S = <mu, lam> and T0 is the e = 2 identity above.

Theorem.  Every complete intersection with e >= 3 generators has
margin >= 2; more precisely T0 >= 4, and T1, T2 >= 2 where present.

Proof, by induction on e over the tree; e = e1 + e2 with e1, e2 >= 1, so
each side has fewer generators than S.  Facts used:
(a) a side other than N has m_i >= 2, so 1 is a gap and F_i >= 1;
(b) lam >= 2*m1 and mu >= 2*m2, since lam is an element of S1 other than 0
    and its minimal generators, hence a sum of two nonzero elements (as at
    ci_tree); so lam >= 4 when S1 != N, and mu >= 4 when S2 != N;
(c) a side other than N has margin >= -4: by the e = 2 identity, or by the
    induction hypothesis (margin >= 2) when it has three or more generators;
(d) gcd(lam, mu) = 1.
As e >= 3, at most one side is N.
  T0.  With S2 = N: T0 = lam*(mu - 2) + 2*mu*F1 >= 2*mu*F1 >= 4, by
    mu >= 2 and (a).  S1 = N is symmetric.  With neither side N, each
    summand is positive and T0 >= 16 + 8 + 8 by (a) and (b).
  T1, when S1 != N.  If S2 = N, then F2 = -1 and mu >= 2, so by (c)
    T1 >= -4*mu + 2*lam*(mu - 1), which grows with lam.  For mu = 2, lam
    is odd by (d) and lam >= 4 by (b), so lam >= 5 and T1 >= -8 + 10 = 2.
    For mu >= 3, lam >= 4 gives T1 >= 4*mu - 8 >= 4.  If S2 != N, then
    F2 >= 1 and lam, mu >= 4, so T1 >= -4*mu + 2*lam*(mu + 1) >=
    4*mu + 8 >= 24.
  T2, when S2 != N: the same with the sides swapped, since
    S = lam*S2 + mu*S1 exchanges T1 and T2 and leaves T0 as it is.
So margin(S) = min(T0, T1, T2) >= 2 > 0.  The bound 2 is reached, at
<4,5,6> = 2*<2,3> + 5*N, where T1 = 2 and T0 = 4.

A test computes the three terms at every tree node of the complete
intersections of genus <= 15 and of seeded gluings, with F from a
brute-force oracle, and checks each bound above and the recursion against
star_report.

check_star_gluing replays the paper's inductive argument on one concrete
gluing: under either hypothesis branch, every relation degree of the glued
semigroup must stay below twice its Frobenius number.  The branches are the
paper's; gluings outside them, such as glue(<2,3>, <4,6,9>, lam=5, mu=8) =
<16,20,24,30,45> with margin 116, are covered by the theorem, not by a
branch.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import gcd

from .core import NumericalSemigroup, _value_class
from .errors import HypothesesNotMetError, InvalidPairError
from .gluing import _below_ci_bound, ci_tree, glue

__all__ = [
    "EXCEPTION_TAGS",
    "ExceptionClass",
    "GluingBranch",
    "GluingStarReport",
    "HypothesisReport",
    "SmallExceptionRecord",
    "StarReport",
    "StarVerdict",
    "check_star_gluing",
    "classify_exception",
    "expected_verdict",
    "hypotheses_report",
    "small_exceptions",
    "star_report",
]


class StarVerdict(str, Enum):
    SATISFIED = "satisfied"
    FAILED = "failed"
    UNDEFINED = "undefined"


class ExceptionClass(str, Enum):
    SATISFIES = "satisfies"
    TWO_GENERATED_WITH_TWO = "two_generated_with_two"
    THREE_FOUR = "three_four"
    THREE_FIVE = "three_five"
    NOT_CI = "not_ci"
    UNDEFINED = "undefined"


EXCEPTION_TAGS = frozenset(
    {
        ExceptionClass.TWO_GENERATED_WITH_TWO,
        ExceptionClass.THREE_FOUR,
        ExceptionClass.THREE_FIVE,
    }
)


def expected_verdict(tag: ExceptionClass) -> StarVerdict:
    """The star verdict a tag promises.

    Exception tags promise failed, satisfies promises satisfied, and
    not_ci and undefined promise undefined.
    """
    if tag in EXCEPTION_TAGS:
        return StarVerdict.FAILED
    if tag is ExceptionClass.SATISFIES:
        return StarVerdict.SATISFIED
    return StarVerdict.UNDEFINED


@_value_class
class StarReport:
    """The star condition 2F > d_max; d_max and margin 2F - d_max are None when undefined."""

    frobenius: int
    d_max: int | None
    verdict: StarVerdict
    margin: int | None


@_value_class
class SmallExceptionRecord:
    """Twice F(<m, n>) minus its relation degree, and whether <m, n> fails star."""

    double_delta: int
    is_exception: bool


class GluingBranch(str, Enum):
    STAR_WITH_SMALL_PARTNER = "star_with_small_partner"
    STAR_WITH_STAR_PARTNER = "star_with_star_partner"
    BOTH_TWO_GENERATED = "both_two_generated"


@_value_class
class GluingStarReport:
    """The star check of one gluing: its branch, and 2F > d for each relation degree d."""

    branch: GluingBranch
    glued: NumericalSemigroup
    frobenius: int
    extra_degree: int
    degree_checks: tuple[tuple[int, bool], ...]
    passed: bool


@_value_class
class HypothesisReport:
    """Which hypothesis branch covers the semigroup ring, and whether it holds."""

    embedding_dim: int
    is_ci: bool
    star: StarReport
    branch: str
    holds: bool


def star_report(semigroup: NumericalSemigroup) -> StarReport:
    """Verdict on 2 * F(S) > d_max, with the margin 2F - d_max.

    Undefined for N and for non complete intersections; d_max and margin are
    then absent rather than computed from data the condition does not cover.
    The report is _classify's.
    """
    return _classify(semigroup)[0]


# enum members read on the census's per-record path, bound once: with
# Python 3.11.7 on a 2-core host reading ExceptionClass.NOT_CI costs about
# 120 ns (timeit), a module name 7 ns.  record_for reads _NOT_CI for every
# record; reading the member there and in _classify took the census
# benchmark's p50 from 2.27 to 2.72 us and its p90 from 2.86 to 3.99 us
# (seed 2001, 15 s runs, 2 pairs).  _undefined reads both on each cache
# miss, the first census record of each F; census._record_from_doc reads
# all four on every line it reads back.
_NOT_CI = ExceptionClass.NOT_CI
_UNDEFINED_TAG = ExceptionClass.UNDEFINED
_UNDEFINED_VERDICT = StarVerdict.UNDEFINED
_SATISFIED = StarVerdict.SATISFIED


@lru_cache(maxsize=1024)
def _undefined(frobenius: int) -> tuple[StarReport, ExceptionClass]:
    """_classify's pair for N (F = -1) or for a non complete intersection with this F.

    F = -1 only for N, as 1 is a gap of every other numerical semigroup.
    The pair and its report are immutable, so every census record with that
    F, built or read back, holds the same report instead of a new build,
    and _classify returns the pair without building one.
    """
    tag = _UNDEFINED_TAG if frobenius == -1 else _NOT_CI
    return StarReport(frobenius, None, _UNDEFINED_VERDICT, None), tag


def _classify(semigroup: NumericalSemigroup) -> tuple[StarReport, ExceptionClass]:
    """The star report and exception tag of one semigroup, by one route.

    N gets its undefined report and the tag undefined.  A semigroup with
    m < 2^(e-1) is no complete intersection (proof at gluing.ci_tree), so it
    gets the undefined report of its F and not_ci, both shared (_undefined),
    with no ci_tree call.  Every other semigroup takes one ci_tree call:
    without a tree it is no complete intersection either, and with one
    d_max is the last of the tree's degrees, stored ascending.

    The tag of a complete intersection comes from its generator pattern
    alone, never from the margin: its promised verdict (expected_verdict)
    is the computed one by the e = 2 identity and the e >= 3 theorem of the
    module docstring, and summarize compares the two for every census
    record, a check only while the tag is not read off the verdict.
    """
    e = semigroup.embedding_dim
    tree = None if e == 1 or _below_ci_bound(semigroup) else ci_tree(semigroup)
    if tree is None:
        return _undefined(semigroup.frobenius)
    d_max = tree.degrees[-1]
    margin = 2 * semigroup.frobenius - d_max
    verdict = StarVerdict.SATISFIED if margin > 0 else StarVerdict.FAILED
    report = StarReport(semigroup.frobenius, d_max, verdict, margin)
    if e == 2:
        a, b = semigroup.generators
        if a == 2:
            return report, ExceptionClass.TWO_GENERATED_WITH_TWO
        if (a, b) == (3, 4):
            return report, ExceptionClass.THREE_FOUR
        if (a, b) == (3, 5):
            return report, ExceptionClass.THREE_FIVE
    return report, ExceptionClass.SATISFIES


def classify_exception(semigroup: NumericalSemigroup) -> ExceptionClass:
    """Exception taxonomy tag, by generator pattern and CI decision alone.

    The tag is _classify's, read off the generator pattern, never off the
    verdict.
    """
    return _classify(semigroup)[1]


def small_exceptions(m: int, n: int) -> SmallExceptionRecord:
    """Margin record for the two-generated semigroup <m, n>.

    double_delta = m*n - 2m - 2n is twice F(<m, n>) minus the single relation
    degree m*n; it is at least -4, and nonpositive exactly for the exception
    patterns (2 in the pair, or {3,4}, or {3,5}).
    """
    if not (2 <= m < n):
        raise InvalidPairError(f"need 2 <= m < n, got ({m}, {n})")
    if gcd(m, n) != 1:
        raise InvalidPairError(f"gcd({m}, {n}) != 1")
    double_delta = m * n - 2 * m - 2 * n
    return SmallExceptionRecord(double_delta=double_delta, is_exception=double_delta <= 0)


def check_star_gluing(
    left: NumericalSemigroup,
    right: NumericalSemigroup,
    lam: int,
    mu: int,
) -> GluingStarReport:
    """Glue and verify that every relation degree stays below 2 * F.

    Applicable when left satisfies the star condition and right is generated
    by at most two elements or satisfies it too, or when both sides are
    two-generated: the paper's inductive branches.  Anything else raises
    HypothesesNotMetError; gluing errors propagate as they are.  Gluings no
    branch covers, such as <16,20,24,30,45> = 8*<2,3> + 5*<4,6,9>, still
    satisfy star by the theorem in the module docstring, which needs no
    branch.
    """
    glued = glue(left, right, lam, mu)
    left_star = star_report(left)
    if left_star.verdict is StarVerdict.SATISFIED:
        if right.embedding_dim <= 2:
            branch = GluingBranch.STAR_WITH_SMALL_PARTNER
        elif star_report(right).verdict is StarVerdict.SATISFIED:
            branch = GluingBranch.STAR_WITH_STAR_PARTNER
        else:
            raise HypothesesNotMetError(
                f"{left} satisfies star but {right} neither is small nor satisfies it"
            )
    elif left.embedding_dim == 2 and right.embedding_dim == 2:
        branch = GluingBranch.BOTH_TWO_GENERATED
    else:
        raise HypothesesNotMetError(
            f"no hypothesis branch covers gluing {left} with {right}"
        )
    # both sides are complete intersections on every branch, so glued is one
    # and has a tree (proof at ci_tree); lam * mu is its extra degree (proof
    # at gluing._ci_tree)
    frob = glued.frobenius
    degrees = ci_tree(glued).degrees
    checks = tuple([(deg, 2 * frob > deg) for deg in degrees])
    # the degrees are stored ascending, so every check passes when the last does
    return GluingStarReport(branch, glued, frob, lam * mu, checks, 2 * frob > degrees[-1])


def hypotheses_report(semigroup: NumericalSemigroup) -> HypothesisReport:
    """Which hypothesis route covers the semigroup ring, if any.

    Complete intersections with at most two generators qualify outright;
    from three generators on they rest on the star condition, which by the
    theorem in the module docstring every one of them satisfies, so holds
    is exactly is_ci.  Non complete intersections fall outside the setting
    entirely.
    """
    star, tag = _classify(semigroup)
    ci = tag is not _NOT_CI
    if not ci:
        branch = "not_complete_intersection"
    elif semigroup.embedding_dim < 3:
        branch = "small_embedding_dimension"
    else:
        branch = "star_condition"
    return HypothesisReport(
        embedding_dim=semigroup.embedding_dim,
        is_ci=ci,
        star=star,
        branch=branch,
        holds=ci,
    )
