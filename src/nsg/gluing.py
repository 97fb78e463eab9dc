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

A semigroup is a complete intersection exactly when its minimal presentation
has (number of generators - 1) relations, and equivalently (apart from N
itself, which is trivially one) when it is a gluing of two smaller complete
intersections (Delorme, 1976).  ci_tree builds that recursive certificate and
is_complete_intersection decides by it alone; the tests check the relation
count against it.  The first gluing split of a semigroup decides: its
quotients are complete intersections exactly when the semigroup is one, by
the relation count of the gluing (proof at ci_tree).  Every complete
intersection has multiplicity at least 2^(e-1) for e generators, so ci_tree
rejects the rest before it looks for a split.  The relation degrees of a
complete intersection are read off its tree by the first identity above;
no presentation is built, and the tests compare the two.

For complete intersections the a-invariant is sum(relation degrees) minus
sum(generators), and it coincides with the Frobenius number.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd

from .core import NumericalSemigroup, contains, make_semigroup
from .errors import (
    ConsistencyError,
    FamilyConstraintError,
    LambdaNotEligibleError,
    MuNotEligibleError,
    NotCompleteIntersectionError,
    NotCoprimeError,
)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CITree:
    """Recursive gluing certificate; a leaf is the semigroup N."""

    semigroup: NumericalSemigroup
    split: GluingSplit | None
    left: CITree | None
    right: CITree | None

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    @property
    def extra_degree(self) -> int | None:
        """lam * mu of the root split; None for a leaf."""
        return None if self.is_leaf else self.split.lam * self.split.mu

    @property
    def degrees(self) -> tuple[int, ...]:
        """The relation degree multiset of the semigroup, ascending.

        For S = mu*S1 + lam*S2 it is mu*degrees(S1) + lam*degrees(S2) +
        {lam*mu}, and () for N.  Proof: scaling minimal presentations of S1
        and S2 by mu and lam, and adding the one relation equating lam,
        written in the generators of S1, with mu, written in those of S2,
        presents S (Rosales, Semigroup Forum 1997); that relation has degree
        lam*mu.  By induction both sides are complete intersections with
        e1 - 1 and e2 - 1 relations, so this presentation has e - 1, the
        fewest any presentation of an e-generated numerical semigroup can
        have.  It is therefore minimal, and all minimal presentations share
        one degree multiset.
        """
        if self.is_leaf:
            return ()
        mu, lam = self.split.mu, self.split.lam
        scaled = [mu * d for d in self.left.degrees] + [lam * d for d in self.right.degrees]
        return tuple(sorted(scaled + [lam * mu]))

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
    The result's minimal generators are exactly the scaled generators of the
    two sides; that is verified, not assumed.
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
    scaled = [mu * a for a in left.generators] + [lam * b for b in right.generators]
    glued = make_semigroup(scaled)
    if glued.generators != tuple(sorted(scaled)):
        raise ConsistencyError(
            f"scaled generators {sorted(scaled)} are not minimal in {glued}"
        )
    return glued


def _splits(semigroup: NumericalSemigroup) -> Iterator[GluingSplit]:
    """The gluing splits of the semigroup, lazily, in find_gluings order."""
    gens = semigroup.generators
    # combinations come in lexicographic order of the sorted generators, so
    # the splits are already ordered by size then content of the left part
    for k in range(len(gens) - 1):
        for chosen in combinations(gens[1:], k):
            left_part = (gens[0], *chosen)
            right_part = tuple(b for b in gens[1:] if b not in chosen)
            mu = gcd(*left_part)
            lam = gcd(*right_part)
            if mu < 2 or lam < 2 or gcd(mu, lam) != 1:
                continue
            # the quotient generators a/mu stay minimal, or a would be a sum of
            # other generators of the semigroup; likewise b/lam.  So e1 + e2 = e,
            # which the proofs at ci_tree and CITree.degrees use
            left_quotient = make_semigroup([a // mu for a in left_part])
            right_quotient = make_semigroup([b // lam for b in right_part])
            if (
                _non_generator_element(left_quotient, lam)
                and _non_generator_element(right_quotient, mu)
            ):
                yield GluingSplit(
                    left_part=left_part,
                    right_part=right_part,
                    mu=mu,
                    lam=lam,
                    left_quotient=left_quotient,
                    right_quotient=right_quotient,
                )


def find_gluings(semigroup: NumericalSemigroup) -> list[GluingSplit]:
    """Every split of the minimal generators realizing the semigroup as a gluing.

    Each two-part partition is inspected once, with the part containing the
    smallest generator on the left; results are ordered by size then content
    of the left part.  A split qualifies when both gcds are >= 2 and the
    cross-wise eligibility of lam and mu holds.
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

    It is lam * mu (proof at CITree.degrees).  glued must be the gluing
    mu*left + lam*right: glue validates the arguments and rebuilds it, and a
    different glued raises ConsistencyError.
    """
    if glue(left, right, lam, mu) != glued:
        raise ConsistencyError(f"{glued} is not the gluing {mu}*{left} + {lam}*{right}")
    return lam * mu


@lru_cache(maxsize=4096)
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

    A semigroup with a tree has multiplicity m >= 2^(e-1), so one below that
    returns None without looking for a split.  Proof by induction on the
    tree: a leaf has m = 1 = 2^0.  At a split S = mu*S1 + lam*S2 with
    e1 + e2 = e generators, lam is a non-generator element of S1, hence a
    sum of two nonzero elements and lam >= 2*m1; likewise mu >= 2*m2.  So
    m = min(mu*m1, lam*m2) >= 2*m1*m2 >= 2 * 2^(e1-1) * 2^(e2-1) = 2^(e-1).
    """
    if semigroup.embedding_dim == 1:
        return CITree(semigroup=semigroup, split=None, left=None, right=None)
    if semigroup.multiplicity < 2 ** (semigroup.embedding_dim - 1):
        return None
    split = next(_splits(semigroup), None)
    if split is None:
        return None
    left = ci_tree(split.left_quotient)
    if left is None:
        return None
    right = ci_tree(split.right_quotient)
    if right is None:
        return None
    return CITree(semigroup=semigroup, split=split, left=left, right=right)


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
    generators really are the minimal generating set.
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
    expected = sorted({a * m1, a * m2, third})
    semigroup = make_semigroup([a * m1, a * m2, third])
    if semigroup.generators != tuple(expected) or semigroup.embedding_dim != 3:
        raise ConsistencyError(
            f"family member {expected} lost minimality: got {semigroup}"
        )
    return semigroup
