"""Classical symmetric function families and Muirhead means.

Families are indexed by a partition lambda on n variables:

  monomial    m_lambda, the orbit sum itself
  elementary  e_lambda = prod_i e_{lambda_i} with e_k the k-th elementary
  powersum    p_lambda = prod_i p_{lambda_i} with p_k = sum x_j^k, p_0 = n

The Muirhead mean of lambda at x is m_lambda(x) / m_lambda(1, ..., 1); for
positive x it is monotone under majorization of the index.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DomainError
from .partitions import partition_key
from .sympoly import (FamilyValues, SymmetricPolynomial, _cleared,
                      monomial_eval, orbit_size)

FAMILIES = ("monomial", "elementary", "powersum")


def _elementary_k(k: int, n: int) -> SymmetricPolynomial:
    """e_k on n variables: sum of all squarefree degree-k monomials."""
    if k > n:
        raise DomainError(f"elementary degree {k} exceeds variable count {n}")
    if k == 0:
        return SymmetricPolynomial.one(n)
    key = (1,) * k + (0,) * (n - k)
    return SymmetricPolynomial(n, {key: Fraction(1)})


def _powersum_k(k: int, n: int) -> SymmetricPolynomial:
    """p_k on n variables; p_0 is the constant n."""
    if k == 0:
        return SymmetricPolynomial(n, {(0,) * n: Fraction(n)})
    key = (k,) + (0,) * (n - 1)
    return SymmetricPolynomial(n, {key: Fraction(1)})


def expand_classical(family: str, lam, n: int | None = None) -> SymmetricPolynomial:
    """Expansion of the named family member in the monomial basis, exactly.

    For the monomial family the index must fit in n rows (partition_key);
    product families accept indexes of any length (an index longer than n
    is fine, e.g. e_(1,1,1,1) on three variables).
    """
    lam = partition_key(lam)
    if n is None:
        n = len(lam)
    if family == "monomial":
        return SymmetricPolynomial.monomial(lam, n)
    if family == "elementary":
        out = SymmetricPolynomial.one(n)
        for part in lam:
            if part:
                out = out * _elementary_k(part, n)
        return out
    if family == "powersum":
        out = SymmetricPolynomial.one(n)
        for part in lam:
            out = out * _powersum_k(part, n)
        return out
    raise DomainError(f"unknown family {family!r}; expected one of {FAMILIES}")


def muirhead_eval(lam, x: Sequence) -> Fraction:
    """Normalized monomial mean m_lambda(x) / m_lambda(1,...,1)."""
    x = tuple(x)
    lam = partition_key(lam, len(x))
    return monomial_eval(lam, x) / orbit_size(lam)


class MuirheadValues(FamilyValues):
    """Muirhead means m_lambda(x) / m_lambda(1,...,1) as integer pairs
    (N, D) with D > 0: each point is cleared once in at(x), and each
    shape's one-term form and orbit size are built once, on the first point
    that asks for the shape."""

    __slots__ = ()

    _point = staticmethod(tuple)

    def _resolve(self, lam, n):
        lam = partition_key(lam, n)
        return SymmetricPolynomial.monomial(lam, n), orbit_size(lam)


def powersum_at(x: Sequence):
    """lambda -> p_lambda(x) as an integer pair (N, D) with D > 0.

    x is cleared once, here (x = X / d, _cleared), and each power sum
    p_k(X) is summed once, on the first shape that asks for it, with
    p_0 = n; then p_lambda(x) = prod p_{lambda_i}(X) / d^|lambda|.  lambda
    is a partition on len(x) variables (partition_key)."""
    X, d = _cleared(x)
    n = len(X)
    sums = {0: n}

    def value(lam) -> tuple[int, int]:
        key = partition_key(lam, n)
        num = 1
        for k in key:
            if k not in sums:
                sums[k] = sum(v ** k for v in X)
            num *= sums[k]
        return num, d ** sum(key)

    return value


def powersum_eval(lam, x: Sequence) -> Fraction:
    """p_lambda(x) as a product of power sums; zero parts contribute p_0 = n.
    The one-shape case of powersum_at, refusing in its order: x, then
    lambda."""
    return Fraction(*powersum_at(x)(lam))


def powersum_compare(lam, mu, x: Sequence) -> tuple[Fraction, Fraction, str]:
    """Evaluate p_lambda and p_mu at x and report which dominates.

    Returns (p_lambda(x), p_mu(x), sign) with sign one of '+', '-', '='
    meaning lambda's value is greater, smaller, or equal.
    """
    lhs = powersum_eval(lam, x)
    rhs = powersum_eval(mu, x)
    sign = "+" if lhs > rhs else ("-" if lhs < rhs else "=")
    return lhs, rhs, sign


def muirhead_gap(lam, mu, x: Sequence) -> Fraction:
    """Muirhead mean of lam minus that of mu at x; needs lam to majorize mu
    for the classical inequality to promise a nonnegative answer on positive x."""
    return muirhead_eval(lam, x) - muirhead_eval(mu, x)
