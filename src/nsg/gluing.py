"""Gluings and complete intersection certificates.

A gluing combines semigroups S and S2 into mu*S + lambda*S2, where lambda is
a non-generator element of S, mu is a non-generator element of S2, and
gcd(lambda, mu) = 1.  The scaled generators stay jointly minimal, and the
glued semigroup needs exactly one minimal relation beyond the scaled
relations of the two sides; its degree, the extra degree d, is exactly
lambda * mu (Delorme, 1976; Rosales, Semigroup Forum 1997).  Consequences
used throughout:

    degrees(glued) = mu * degrees(S)  +  lambda * degrees(S2)  +  {d}
    F(glued)       = d + mu * F(S) + lambda * F(S2)

glue builds the glued semigroup from the Apery tables of its sides, by the
gluing Apery lemma (proof at _glued): with m = mu * m(S), the smaller
scaled multiplicity up to swapping the sides,

    Ap(glued, m)   = mu * Ap(S, m(S))  +  lambda * Ap(S2, mu)

as all sums of one element from each, O(m) additions instead of a round
robin through make_semigroup.  Each gluing is built once, and each table
Ap(S2, mu) once, so glue, extra_degree and check_star_gluing on one gluing
share one object.

A semigroup is a complete intersection exactly when its minimal presentation
has (number of generators - 1) relations, and equivalently (apart from N
itself, which is trivially one) when it is a gluing of two smaller complete
intersections (Delorme, 1976).  ci_tree builds that recursive certificate and
is_complete_intersection decides by it alone; the tests check the relation
count against it.  The left part of a split, the one holding the
multiplicity m, is the set of generators divisible by its own gcd, so the
splits are searched over the divisors of m, not over all partitions of the
generators, each distinct class is built once, and integer tests discard
most candidates before their quotients are built (proof at _splits).  The
first gluing split of a semigroup decides: its quotients are complete
intersections exactly when the semigroup is one, by the relation count of
the gluing (proof at ci_tree).  Every complete intersection has
multiplicity at least 2^(e-1) for e generators and is symmetric,
2g = F + 1 (proofs at ci_tree), so ci_tree rejects the rest before it looks
for a split, and before its cache.  The relation degrees of
a complete intersection are stored in each tree node as it is built, from
the degrees its two children stored, by the first identity above (proof at
_ci_tree); no presentation is built, and the tests compare the two.

For complete intersections the a-invariant is sum(relation degrees) minus
sum(generators), and it coincides with the Frobenius number.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from functools import lru_cache
from math import gcd, isqrt

from .core import (
    NumericalSemigroup,
    _build,
    _from_table,
    _value_class,
    apery_set,
    contains,
    make_semigroup,
)
from .errors import (
    ConsistencyError,
    FamilyConstraintError,
    LambdaNotEligibleError,
    MuNotEligibleError,
    NotCompleteIntersectionError,
    NotCoprimeError,
)

__all__ = [
    "CITree",
    "GluingSplit",
    "a_invariant",
    "ci_tree",
    "extra_degree",
    "find_gluings",
    "glue",
    "is_complete_intersection",
    "three_gen_family",
]


@_value_class
class GluingSplit:
    """A way of writing a semigroup as mu*left_quotient + lam*right_quotient.

    left_part and right_part partition the minimal generators; mu and lam are
    their gcds.  Eligibility is cross-wise: lam (the right gcd) must be a
    non-generator element of the left quotient, and mu of the right one.
    """

    left_part: tuple[int, ...]
    right_part: tuple[int, ...]
    mu: int
    lam: int
    left_quotient: NumericalSemigroup
    right_quotient: NumericalSemigroup


@_value_class
class CITree:
    """Recursive gluing certificate; a leaf is the semigroup N.

    degrees is the relation degree multiset of the semigroup, ascending, and
    () for N.  _ci_tree stores it when it builds the node, from the stored
    degrees of the two children (proof there), so each node computes it
    once and a read is a field read.
    """

    semigroup: NumericalSemigroup
    split: GluingSplit | None
    left: CITree | None
    right: CITree | None
    degrees: tuple[int, ...]

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    @property
    def extra_degree(self) -> int | None:
        """lam * mu of the root split; None for a leaf."""
        return None if self.is_leaf else self.split.lam * self.split.mu

    def to_text(self) -> str:
        if self.is_leaf:
            return "N"
        return (
            f"({self.split.mu}*{self.left.to_text()}"
            f" + {self.split.lam}*{self.right.to_text()}"
            f" : d={self.extra_degree})"
        )

    def to_record(self) -> dict:
        if self.is_leaf:
            return {"leaf": True, "generators": list(self.semigroup.generators)}
        return {
            "leaf": False,
            "generators": list(self.semigroup.generators),
            "mu": self.split.mu,
            "lambda": self.split.lam,
            "extra_degree": self.extra_degree,
            "left": self.left.to_record(),
            "right": self.right.to_record(),
        }


def _non_generator_element(semigroup: NumericalSemigroup, x: int) -> bool:
    """Whether x >= 2 is an element of the semigroup but no minimal generator."""
    return x >= 2 and contains(semigroup, x) and x not in semigroup.generators


def glue(
    left: NumericalSemigroup,
    right: NumericalSemigroup,
    lam: int,
    mu: int,
) -> NumericalSemigroup:
    """The gluing mu*left + lam*right.

    lam must be an element of left but not one of its minimal generators
    (hence lam >= 2), mu likewise for right, and gcd(lam, mu) must be 1.
    The arguments are checked on every call.  The glued semigroup is built
    once per (left, right, lam, mu), by _glued, which sums its Apery table
    from those of the two sides by the gluing Apery lemma.  Under these
    checks its minimal generators are exactly the scaled generators of the
    two sides (Rosales, Semigroup Forum 1997), as _glued takes them.
    """
    if not _non_generator_element(left, lam):
        raise LambdaNotEligibleError(
            f"lambda={lam} is not a non-generator element >= 2 of {left}"
        )
    if not _non_generator_element(right, mu):
        raise MuNotEligibleError(
            f"mu={mu} is not a non-generator element >= 2 of {right}"
        )
    if gcd(lam, mu) != 1:
        raise NotCoprimeError(f"gcd(lambda, mu) = gcd({lam}, {mu}) != 1")
    return _glued(left, right, lam, mu)


@lru_cache(maxsize=4096)
def _side_table(side: NumericalSemigroup, scale: int) -> tuple[int, ...]:
    """Ap(side, scale), the side table _glued sums over, built once per pair."""
    return apery_set(side, scale).entries


@lru_cache(maxsize=4096)
def _glued(
    left: NumericalSemigroup,
    right: NumericalSemigroup,
    lam: int,
    mu: int,
) -> NumericalSemigroup:
    """mu*left + lam*right for eligible arguments, from the tables of its sides.

    Write S = mu*S1 + lam*S2 with multiplicities m1, m2.  Every nonzero
    element of S is mu*a + lam*b with a in S1, b in S2, not both 0, so the
    multiplicity of S is min(mu*m1, lam*m2).  S is also lam*S2 + mu*S1, so
    after swapping the sides when lam*m2 is the smaller, m = mu*m1 is the
    multiplicity, and the gluing Apery lemma gives the table:

        Ap(S, mu*m1) = {mu*w + lam*v : w in Ap(S1, m1), v in Ap(S2, mu)}

    It needs only lam in S1, mu in S2 and gcd(lam, mu) = 1.  Proof in two
    steps.  (1) The m1*mu sums are pairwise incongruent mod mu*m1.  If
    mu*w + lam*v = mu*w' + lam*v' (mod mu*m1), then reducing mod mu gives
    lam*(v - v') = 0 (mod mu), so v = v' (mod mu) as gcd(lam, mu) = 1, and
    v = v', since Ap(S2, mu) holds one element per class mod mu.  Then
    mu*(w - w') = 0 (mod mu*m1), so w = w' (mod m1), and w = w' likewise.
    (2) Each sum x = mu*w + lam*v is the least element of S in its class.
    It is in S.  If x - mu*m1 were in S too, say mu*a + lam*b with a in
    S1, b in S2, then lam*(v - b) = mu*(a + m1 - w), so mu divides v - b:
    v - b = k*mu and a + m1 - w = k*lam.  Reducing the S2 part mod mu,
    k >= 1 would put v - mu = b + (k - 1)*mu in S2, against v in
    Ap(S2, mu); so k <= 0, and w - m1 = a + (-k)*lam is in S1, against w in
    Ap(S1, m1).  Every smaller element of the class is x - j*mu*m1 with
    j >= 1, which would put x - mu*m1 = (x - j*mu*m1) + (j - 1)*mu*m1 in S.
    So the sums are m1*mu = m least elements of distinct classes mod m:
    the whole table.  This takes O(m) sums plus Ap(S2, mu) from apery_set,
    O(e2 * mu), instead of a round robin over all e generators mod m.

    Under glue's checks the scaled generators are the minimal ones (Rosales,
    Semigroup Forum 1997), so they are stored as they are.  No list is
    longer than sys.maxsize, so a larger m raises ValueError before the
    table is allocated.
    """
    scaled = sorted([mu * a for a in left.generators] + [lam * b for b in right.generators])
    # m is the smaller scaled multiplicity, whichever side the swap puts
    # first, so it is checked while the gluing still reads as glue was called
    m = min(mu * left.multiplicity, lam * right.multiplicity)
    if m > sys.maxsize:
        glued = f"{mu}*{left} + {lam}*{right}"
        raise ValueError(f"cannot glue {glued}: m = {m} exceeds sys.maxsize = {sys.maxsize}")
    if lam * right.multiplicity < mu * left.multiplicity:
        left, right, lam, mu = right, left, mu, lam
    entries = [0] * m
    base = [mu * w for w in left.apery.entries]
    for v in _side_table(right, mu):
        v *= lam
        for w in base:
            x = w + v
            entries[x % m] = x
    return _from_table(tuple(scaled), tuple(entries))


def _splits(semigroup: NumericalSemigroup) -> Iterator[GluingSplit]:
    """The gluing splits of the semigroup, lazily, in find_gluings order.

    Only the divisibility classes L_d = gens & dZ, for the divisors d >= 2
    of m = gens[0], can be left parts.  Lemma: in an eligible split
    S = mu*S1 + lam*S2 of the minimal generators into L and R, with
    mu = gcd L, lam = gcd R, gcd(lam, mu) = 1, lam a non-generator element
    of S1 and mu one of S2, L = gens & muZ and R = gens & lamZ.  Proof: the
    quotient generators stay minimal (comment below), so b in R is lam*b'
    with b' a minimal generator of S2.  If mu | b, then mu | b' as
    gcd(lam, mu) = 1, so b' = k*mu: k = 1 makes mu a generator of S2, and
    k >= 2 writes b' = mu + (k - 1)*mu as a sum of two nonzero elements of
    S2; both contradict the hypotheses.  So no b in R lies in muZ, and by
    symmetry no a in L in lamZ.  As m is in L, mu divides m, mu >= 2 as a
    non-generator element of S2, and L = L_mu.  Conversely each class is
    L_d = gens & gcd(L_d)Z, as d | gcd(L_d), so it is one candidate
    whichever d names it, with the rest of gens as its right part.  There
    are at most tau(m) - 1 candidates, against the 2^(e-1) partitions with
    m on the left, and finding them costs trial division to sqrt(m), one
    O(e) pass per divisor, each distinct class kept once, and a sort of the
    distinct classes.  They are taken by size then content of the left
    part, the order of combinations over gens[1:].

    Before its quotients are built, a class is skipped on integer tests
    that every eligible split passes: gcd(mu, lam) = 1; no a in L divisible
    by lam, the lemma's R = gens & lamZ (no b in R is divisible by mu, as
    d | mu and b is not in L_d); and lam >= 2*m1 and mu >= 2*m2, where
    m1 = m/mu and m2 = min(R)/lam are the multiplicities of the quotients,
    since a non-generator element >= 2 of a semigroup is a sum of two
    nonzero elements (as at ci_tree).  lam >= 2*m1 implies lam >= 2.
    """
    gens = semigroup.generators
    m = gens[0]
    classes = {
        tuple([a for a in gens if a % k == 0])
        for d in range(1, isqrt(m) + 1)
        if m % d == 0
        for k in (d, m // d)
    }
    classes.discard(gens)  # the class of k = 1
    for left_part in sorted(classes, key=lambda part: (len(part), part)):
        mu = gcd(*left_part)
        right_part = tuple(b for b in gens if b % mu)
        lam = gcd(*right_part)
        if (
            lam < 2 * (m // mu)
            or mu < 2 * (right_part[0] // lam)
            or gcd(mu, lam) != 1
            or any(a % lam == 0 for a in left_part)
        ):
            continue
        # the quotient generators a/mu stay minimal, or a would be a sum of
        # other generators of the semigroup; likewise b/lam.  So e1 + e2 = e,
        # which the proofs at ci_tree and _ci_tree use.  Sorted,
        # distinct and of gcd 1 as divided, they need no make_semigroup
        left_quotient = _build(tuple(a // mu for a in left_part))
        right_quotient = _build(tuple(b // lam for b in right_part))
        if (
            _non_generator_element(left_quotient, lam)
            and _non_generator_element(right_quotient, mu)
        ):
            yield GluingSplit(left_part, right_part, mu, lam, left_quotient, right_quotient)


def find_gluings(semigroup: NumericalSemigroup) -> list[GluingSplit]:
    """Every split of the minimal generators realizing the semigroup as a gluing.

    The part containing the smallest generator is on the left, and results
    are ordered by size then content of the left part.  A split qualifies
    when both gcds are >= 2 and coprime and the cross-wise eligibility of
    lam and mu holds.  Every qualifying partition is listed, though only the
    divisibility classes of the smallest generator are inspected; the proof
    that no other partition qualifies is at _splits.
    """
    return list(_splits(semigroup))


def extra_degree(
    glued: NumericalSemigroup,
    left: NumericalSemigroup,
    right: NumericalSemigroup,
    lam: int,
    mu: int,
) -> int:
    """The one relation degree of the gluing not inherited from the sides.

    It is lam * mu (proof at _ci_tree).  glued must be the gluing
    mu*left + lam*right: glue validates the arguments and returns the one
    object it built for them, and a different glued raises
    ConsistencyError.
    """
    if glue(left, right, lam, mu) != glued:
        raise ConsistencyError(f"{glued} is not the gluing {mu}*{left} + {lam}*{right}")
    return lam * mu


def ci_tree(semigroup: NumericalSemigroup) -> CITree | None:
    """A recursive gluing certificate, or None when none exists.

    The first split in find_gluings order decides: the tree glues the trees
    of its two quotients, and if either quotient has none, neither does the
    semigroup.  No other split is built or tried.  Proof: for a split
    S = mu*S1 + lam*S2 with e1 + e2 = e generators, the scaled minimal
    presentations of S1 and S2 plus one relation form a minimal presentation
    of S (Rosales, Semigroup Forum 1997), so S needs r1 + r2 + 1 relations
    when S1 and S2 need r1 and r2.  Every presentation of an e-generated
    numerical semigroup has at least e - 1 relations, so r1 >= e1 - 1 and
    r2 >= e2 - 1, and r1 + r2 + 1 = e - 1 = (e1 - 1) + (e2 - 1) + 1 holds
    exactly when both sides are complete intersections.  A complete
    intersection other than N is a gluing (Delorme, 1976), so a semigroup
    without splits is none.  By induction on e, ci_tree returns a tree
    exactly for complete intersections, and the tree is the one a search
    over all splits would find first.

    A semigroup with a tree has multiplicity m >= 2^(e-1).  Proof by
    induction on the tree: a leaf has m = 1 = 2^0.  At a split
    S = mu*S1 + lam*S2 with e1 + e2 = e generators, lam is a non-generator
    element of S1, hence a sum of two nonzero elements and lam >= 2*m1;
    likewise mu >= 2*m2.  So m = min(mu*m1, lam*m2) >= 2*m1*m2 >=
    2 * 2^(e1-1) * 2^(e2-1) = 2^(e-1).

    A semigroup with a tree is symmetric, 2g = F + 1, as its ring is
    Gorenstein (Kunz, 1970).  Proof by induction on the tree: N has g = 0
    and F = -1.  At a split S = mu*S1 + lam*S2, F = lam*mu + mu*F1 + lam*F2
    (module docstring).  Selmer's formula, sum(Ap(T, n)) = n*g(T) +
    n*(n-1)/2 for any nonzero n in T, applied to the gluing Apery lemma
    (proof at _glued), Ap(S, mu*m1) = {mu*w + lam*v} over Ap(S1, m1) x
    Ap(S2, mu), where each w meets mu values v and each v meets m1 values w,
    gives mu*m1*(g + (mu*m1 - 1)/2) = mu*m1*(mu*g1 + mu*(m1 - 1)/2 +
    lam*g2 + lam*(mu - 1)/2), so g = mu*g1 + lam*g2 + (lam - 1)*(mu - 1)/2.
    Then 2g - 1 = mu*(2*g1 - 1) + lam*(2*g2 - 1) + lam*mu = F.

    Both exclusions are _not_symmetric_or_below_bound, read before the
    cached search, _ci_tree, so the semigroups they settle, most of any
    census, are neither hashed nor kept.  They settle only semigroups
    without a tree, so ci_tree returns what the search alone would.
    star._classify reads the same predicate and then calls _ci_tree.
    """
    if semigroup.embedding_dim == 1:
        return CITree(semigroup, None, None, None, ())
    if _not_symmetric_or_below_bound(semigroup):
        return None
    return _ci_tree(semigroup)


def _not_symmetric_or_below_bound(semigroup: NumericalSemigroup) -> bool:
    """Whether 2g != F + 1 or m < 2^(e-1), which rules out a complete intersection.

    Proofs at ci_tree.  N (2g = 0 = F + 1, m = 1 = 2^0) passes both tests.
    Either order gives the same answer; with symmetry first the census
    benchmark's item_p50_ms read 1.9% lower than with the bound first, in 4
    of 4 pairs, on a 2-core host with Python 3.11.7.
    """
    return (
        2 * semigroup.genus != semigroup.frobenius + 1
        or semigroup.multiplicity < 1 << (semigroup.embedding_dim - 1)
    )


@lru_cache(maxsize=4096)
def _ci_tree(semigroup: NumericalSemigroup) -> CITree | None:
    """ci_tree past N and its exclusions: the tree over the first split, or None.

    The node stores the relation degree multiset of S = mu*S1 + lam*S2,
    ascending: mu*degrees(S1) + lam*degrees(S2) + {lam*mu}, from the tuples
    its children stored.  Proof: scaling minimal presentations of S1 and S2
    by mu and lam, and adding the one relation equating lam, written in the
    generators of S1, with mu, written in those of S2, presents S (Rosales,
    Semigroup Forum 1997); that relation has degree lam*mu.  By induction
    both sides are complete intersections with e1 - 1 and e2 - 1 relations,
    so this presentation has e - 1, the fewest any presentation of an
    e-generated numerical semigroup can have.  It is therefore minimal, and
    all minimal presentations share one degree multiset.
    """
    split = next(_splits(semigroup), None)
    if split is None:
        return None
    left = ci_tree(split.left_quotient)
    if left is None:
        return None
    right = ci_tree(split.right_quotient)
    if right is None:
        return None
    mu, lam = split.mu, split.lam
    scaled = [mu * d for d in left.degrees] + [lam * d for d in right.degrees]
    return CITree(semigroup, split, left, right, tuple(sorted(scaled + [lam * mu])))


def is_complete_intersection(semigroup: NumericalSemigroup) -> bool:
    """Whether the semigroup is a complete intersection.

    Decided by the existence of a gluing tree alone, which by Delorme's
    characterization is equivalent to the minimal presentation having
    exactly generators - 1 relations; no presentation is built.
    """
    return ci_tree(semigroup) is not None


def a_invariant(semigroup: NumericalSemigroup) -> int:
    """sum(relation degrees) - sum(generators), for complete intersections.

    Equals the Frobenius number; callers comparing the two routes rely on
    this function never consulting the Apery side.  The degrees come from
    the gluing tree.
    """
    tree = ci_tree(semigroup)
    if tree is None:
        raise NotCompleteIntersectionError(f"{semigroup} is not a complete intersection")
    return sum(tree.degrees) - sum(semigroup.generators)


def three_gen_family(m1: int, m2: int, a: int, b: int, c: int) -> NumericalSemigroup:
    """The three-generator complete intersection <a*m1, a*m2, b*m1 + c*m2>.

    Constraints: m1, m2 >= 2 coprime, a >= 2, b and c nonnegative with
    b + c >= 2, and gcd(a, b*m1 + c*m2) = 1.  Under these the three listed
    generators are the minimal ones: none is a nonnegative combination of
    the other two.  a >= 2 does not divide t = b*m1 + c*m2.  If
    a*m1 = x*a*m2 + y*t, then a divides y.  y = 0 gives m2 | m1; y >= a with
    b >= 1 makes the right side exceed a*m1, as b + c >= 2; with b = 0, m2
    divides a*m1, hence a, against gcd(a, t) = 1.  a*m2 is symmetric.
    """
    if m1 < 2 or m2 < 2:
        raise FamilyConstraintError(f"m1, m2 must be >= 2, got {m1}, {m2}")
    if gcd(m1, m2) != 1:
        raise FamilyConstraintError(f"gcd(m1, m2) = {gcd(m1, m2)} != 1")
    if a < 2:
        raise FamilyConstraintError(f"a must be >= 2, got {a}")
    if b < 0 or c < 0 or b + c < 2:
        raise FamilyConstraintError(f"need b, c >= 0 and b + c >= 2, got b={b}, c={c}")
    third = b * m1 + c * m2
    if gcd(a, third) != 1:
        raise FamilyConstraintError(f"gcd(a, b*m1 + c*m2) = gcd({a}, {third}) != 1")
    return make_semigroup([a * m1, a * m2, third])
