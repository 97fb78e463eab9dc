"""Exception types raised by the library.

Domain errors (bad input, unmet hypotheses) derive from NsgError so callers
can catch them uniformly.  ConsistencyError is different: two computations
of one fact disagreed.  Proven facts are not re-checked at run time, so it
is raised only by extra_degree, when the caller's glued is not the gluing
of the other arguments: bad input that no proof can rule out.  A test pins
that no other code raises it.
"""

__all__ = [
    "BoundTooLargeError",
    "ConsistencyError",
    "EmptyInputError",
    "FamilyConstraintError",
    "HypothesesNotMetError",
    "InvalidPairError",
    "LambdaNotEligibleError",
    "MalformedRecordError",
    "MuNotEligibleError",
    "NegativeElementError",
    "NotAnElementError",
    "NotCompleteIntersectionError",
    "NotCoprimeError",
    "NsgError",
]


class NsgError(Exception):
    """Base class for all domain errors."""


class EmptyInputError(NsgError):
    """No generators were supplied."""


class NotCoprimeError(NsgError):
    """gcd of the given integers is not 1."""


class NotAnElementError(NsgError):
    """A value required to lie in the semigroup does not."""


class NegativeElementError(NsgError):
    """A semigroup element argument was negative."""


class LambdaNotEligibleError(NsgError):
    """lambda must be a non-generator element >= 2 of the left semigroup."""


class MuNotEligibleError(NsgError):
    """mu must be a non-generator element >= 2 of the right semigroup."""


class NotCompleteIntersectionError(NsgError):
    """The operation is only defined for complete intersections."""


class FamilyConstraintError(NsgError):
    """A parameter of the three-generator family violates its constraints."""


class InvalidPairError(NsgError):
    """The pair must consist of coprime integers >= 2."""


class HypothesesNotMetError(NsgError):
    """No hypothesis branch of the gluing check applies to the inputs."""


class BoundTooLargeError(NsgError):
    """The requested genus bound exceeds the configured work ceiling."""


class MalformedRecordError(NsgError):
    """A census record line failed to parse or is missing fields."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same fact disagreed."""
