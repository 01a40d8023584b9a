"""Exception types shared across the package."""

import math


class OmegalabError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatchError(OmegalabError, ValueError):
    """Vector or partition lengths disagree where they must match."""


class DomainError(OmegalabError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class ParameterError(OmegalabError, ValueError):
    """A family parameter (q, t, theta, k, a) is out of range."""


class DegeneracyError(OmegalabError, ArithmeticError):
    """An eigenvalue collision or singular solve that exact arithmetic must not
    silently absorb."""


class TieError(OmegalabError, ValueError):
    """Tied coordinates where a strictly ordered vector is required.

    Callers decide whether to perturb; nothing in the library perturbs input
    silently.
    """


class CacheFormatError(OmegalabError, ValueError):
    """A cache file record that cannot be parsed."""


class CertificationError(OmegalabError, ArithmeticError):
    """A result failed its re-derivation and must not be reported."""


class OperatorRowError(OmegalabError, ArithmeticError):
    """An operator row leaves the dominance ideal or disagrees with its
    eigenvalue on the diagonal, so the triangular eigen-solve is unsound."""


def count_text(value: int) -> str:
    """An integer for an error message: in full up to 20 digits, else as
    its power of ten, so that a refusal stays short whatever it refuses
    (str() also refuses integers past 4300 digits)."""
    if abs(value) < 10 ** 20:
        return str(value)
    sign = "-" if value < 0 else ""
    return f"about {sign}10^{int(math.log10(abs(value)))}"
