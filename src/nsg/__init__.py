"""Exact arithmetic for numerical semigroups.

Construction and membership, Apery sets, Frobenius numbers, minimal
presentations, gluings with complete intersection certificates, the star
condition on Frobenius versus relation degrees, and an exhaustive
genus-bounded census with a verification pipeline.

Each module lists its public names in its own __all__; the package
re-exports exactly those.
"""

from .census import *
from .core import *
from .errors import *
from .gluing import *
from .presentations import *
from .star import *

__version__ = "0.1.0"

__all__ = sorted(
    census.__all__
    + core.__all__
    + errors.__all__
    + gluing.__all__
    + presentations.__all__
    + star.__all__
)
