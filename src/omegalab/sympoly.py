"""Sparse symmetric polynomials over exact rationals, in the monomial basis.

A SymmetricPolynomial on n variables is a finite rational combination of
monomial symmetric polynomials m_lambda, stored as a dict from the sorted
exponent tuple (the partition, trailing zeros kept) to a nonzero Fraction.
m_lambda(x) sums x^eta over the distinct rearrangements eta of lambda, each
counted once.  Exact evaluation works in integers: the point is cleared of
denominators once, each orbit sum at the integer point is kept in one
bounded table shared by every polynomial evaluated there, and a single
division at the end gives the canonical Fraction.  A polynomial over a
rational scale is evaluated through its cleared form, integer coefficients
over one common denominator, which a caller can build once and keep.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (DimensionMismatchError, DomainError, ParameterError,
                     count_text)
from .partitions import partition_key

Exponent = tuple  # tuple[int, ...]


def distinct_permutations(seq: Sequence) -> Iterator[tuple]:
    """Distinct rearrangements of seq, each exactly once (Knuth's Algorithm L).

    Works on any orderable entries; yields tuples in increasing lexicographic
    order starting from sorted(seq).
    """
    a = sorted(seq)
    n = len(a)
    if n == 0:
        yield ()
        return
    while True:
        yield tuple(a)
        # largest j with a[j] < a[j+1]
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = n - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = reversed(a[j + 1:])


def orbit_size(lam: Sequence[int]) -> int:
    """Number of distinct rearrangements of lam, i.e. m_lambda(1,...,1)."""
    from math import factorial

    counts: dict = {}
    for p in lam:
        counts[p] = counts.get(p, 0) + 1
    size = factorial(len(tuple(lam)))
    for c in counts.values():
        size //= factorial(c)
    return size


class SymmetricPolynomial:
    """Rational combination of monomial symmetric polynomials, fixed n."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Exponent, Fraction] | None = None):
        if n < 1:
            raise DomainError("need n >= 1")
        self.n = n
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                c = Fraction(coeff)
                if c == 0:
                    continue
                key = partition_key(key)
                if len(key) != n:
                    raise DimensionMismatchError(
                        f"exponent {key} has length {len(key)}, expected {n}")
                clean[key] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, lam, n: int | None = None) -> "SymmetricPolynomial":
        key = partition_key(lam, n)
        return cls(len(key), {key: Fraction(1)})

    @classmethod
    def zero(cls, n: int) -> "SymmetricPolynomial":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "SymmetricPolynomial":
        return cls(n, {(0,) * n: Fraction(1)})

    # -- ring structure ----------------------------------------------------

    def _check_compatible(self, other: "SymmetricPolynomial"):
        if self.n != other.n:
            raise DimensionMismatchError(
                f"polynomials on {self.n} and {other.n} variables")

    def __add__(self, other: "SymmetricPolynomial") -> "SymmetricPolynomial":
        self._check_compatible(other)
        return poly_combine([(Fraction(1), self), (Fraction(1), other)])

    def __sub__(self, other: "SymmetricPolynomial") -> "SymmetricPolynomial":
        self._check_compatible(other)
        return poly_combine([(Fraction(1), self), (Fraction(-1), other)])

    def __mul__(self, other):
        if isinstance(other, SymmetricPolynomial):
            return poly_multiply(self, other)
        return poly_combine([(Fraction(other), self)])

    def __rmul__(self, other):
        return poly_combine([(Fraction(other), self)])

    def __neg__(self):
        return poly_combine([(Fraction(-1), self)])

    def __eq__(self, other):
        if isinstance(other, SymmetricPolynomial):
            return self.n == other.n and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, lam) -> Fraction:
        return self.terms.get(partition_key(lam, self.n), Fraction(0))

    def items(self):
        """Terms as (partition key, coefficient), heaviest key first."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def eval(self, x: Sequence) -> Fraction:
        return poly_eval(self, x)

    def __repr__(self):
        if not self.terms:
            return f"SymmetricPolynomial({self.n}, 0)"
        body = " + ".join(f"{c}*m{k}" for k, c in self.items())
        return f"SymmetricPolynomial({self.n}, {body})"


# bound on the shared table of integer orbit sums; the table is emptied
# when it reaches this many entries
MONOMIAL_MEMO_SIZE = 1 << 15
_MONOMIAL_MEMO: dict[tuple, int] = {}


def _cleared(x: Sequence) -> tuple[tuple[int, ...], int]:
    """(X, D) with X an integer vector, D > 0 minimal, and x = X / D."""
    xs = [v if type(v) in (int, Fraction) else Fraction(v) for v in x]
    d = math.lcm(*(v.denominator for v in xs))
    return tuple(v.numerator * (d // v.denominator) for v in xs), d


# ceiling on the rearrangements one orbit walk visits, in _orbit_sum and
# in poly_multiply.  At n = 100 a rearrangement takes about 11 us in an
# orbit sum and 18 us in a product, at n <= 20 some 2 to 4 us, so 2^22 of
# them take about a minute at n = 100; m_(1^6) at n = 100 has C(100, 6),
# about 1.2e9
MAX_ORBIT_TERMS = 1 << 22


def _check_walk(count: int, what: str):
    if count > MAX_ORBIT_TERMS:
        raise ParameterError(
            f"{what} walks {count_text(count)} rearrangements, past the "
            f"ceiling of {MAX_ORBIT_TERMS}")


def _orbit_sum(nu: Exponent, X: tuple):
    """m_nu(X) as a plain sum over the orbit: exact at an integer point,
    and the floating evaluation's loop at a floating one.  An orbit past
    MAX_ORBIT_TERMS is refused before the walk."""
    _check_walk(orbit_size(nu), "an orbit sum")
    total = 0
    for eta in distinct_permutations(nu):
        term = 1
        for xi, e in zip(X, eta):
            if e:
                term *= xi ** e
        total += term
    return total


def _cleared_form(terms: Mapping[Exponent, Fraction], scale=1) -> tuple:
    """p / scale, for p = sum c_nu m_nu over terms, as the cleared form
    that _form_sum adds up.

    With L the lcm of the coefficient denominators, top the largest degree
    and scale = a / b, p = sum (C_nu / L) m_nu for integers C_nu, and the
    form is (b, a * L, top, ((nu, C_nu, top - |nu|), ...)).  A zero scale
    is refused by the caller: the form's sum would divide by it.
    """
    degrees = [sum(nu) for nu in terms]
    top = max(degrees, default=0)
    lcm = math.lcm(*(c.denominator for c in terms.values()))
    return (scale.denominator, scale.numerator * lcm, top,
            tuple((nu, c.numerator * (lcm // c.denominator), top - deg)
                  for (nu, c), deg in zip(terms.items(), degrees)))


def _form_sum(form: tuple, X: tuple, d: int, table: dict = None) -> Fraction:
    """The value of a cleared form at x = X / d (_cleared), in integers
    with a single division at the end.

    m_nu(x) = m_nu(X) / d^|nu|, so p(x) / scale is b * sum C_nu m_nu(X)
    d^(top - |nu|) over a * L * d^top, and non-homogeneous polynomials need
    nothing extra.  m_nu(X) is read from table, keyed by (nu, X), and
    filled on a miss; None is the shared _MONOMIAL_MEMO.
    """
    if table is None:
        table = _MONOMIAL_MEMO
    b, den, top, terms = form
    num = 0
    for nu, c, drop in terms:
        key = (nu, X)
        m = table.get(key)
        if m is None:
            m = _orbit_sum(nu, X)
            if len(table) >= MONOMIAL_MEMO_SIZE:
                table.clear()
            table[key] = m
        if drop:
            m *= d ** drop
        num += c * m
    return Fraction(num * b, den * d ** top)


def monomial_eval(lam, x: Sequence) -> Fraction:
    """m_lambda(x): sum of x^eta over distinct rearrangements eta of lambda,
    which may be given in any order and is padded to the length of x."""
    x = tuple(x)
    parts = partition_key(sorted(lam, reverse=True), len(x))
    return _form_sum(_cleared_form({parts: Fraction(1)}), *_cleared(x))


def _point_for(p: SymmetricPolynomial, x: Sequence) -> tuple:
    x = tuple(x)
    if len(x) != p.n:
        raise DimensionMismatchError(
            f"point length {len(x)} vs polynomial on {p.n} variables")
    return x


def poly_eval(p: SymmetricPolynomial, x: Sequence) -> Fraction:
    """p(x), exact; the orbit sums are shared through the bounded memo."""
    return _form_sum(_cleared_form(p.terms), *_cleared(_point_for(p, x)))


def poly_eval_fresh(p: SymmetricPolynomial, x: Sequence) -> Fraction:
    """p(x) through a private, empty table: reads no shared memo."""
    return _form_sum(_cleared_form(p.terms), *_cleared(_point_for(p, x)), {})


def poly_eval_float(p: SymmetricPolynomial, x: Sequence) -> float:
    """Floating evaluation of an exact expansion at a floating point,
    through the orbit loop of exact evaluation."""
    xs = tuple(float(c) for c in _point_for(p, x))
    total = 0.0
    for nu, c in p.terms.items():
        total += float(c) * _orbit_sum(nu, xs)
    return total


def poly_combine(pairs: Iterable[tuple[Fraction, SymmetricPolynomial]]) -> SymmetricPolynomial:
    """Exact linear combination sum c_i * p_i with zero terms dropped."""
    pairs = list(pairs)
    if not pairs:
        raise DomainError("poly_combine needs at least one summand")
    n = pairs[0][1].n
    acc: dict[Exponent, Fraction] = {}
    for coeff, poly in pairs:
        if poly.n != n:
            raise DimensionMismatchError("mixed variable counts in combination")
        c0 = Fraction(coeff)
        if c0 == 0:
            continue
        for key, c in poly.terms.items():
            new = acc.get(key, Fraction(0)) + c0 * c
            if new == 0:
                acc.pop(key, None)
            else:
                acc[key] = new
    return SymmetricPolynomial(n, acc)


def poly_multiply(p: SymmetricPolynomial, q: SymmetricPolynomial) -> SymmetricPolynomial:
    """Product in the monomial basis: m_lam * m_mu collected from the
    orbit of mu alone.  The product commutes, so the factor whose orbits
    are the shorter walk is the one walked.  A walk past MAX_ORBIT_TERMS
    rearrangements in all is refused before it starts."""
    p._check_compatible(q)
    walk = len(p.terms) * sum(map(orbit_size, q.terms))
    swapped = len(q.terms) * sum(map(orbit_size, p.terms))
    if swapped < walk:
        p, q, walk = q, p, swapped
    _check_walk(walk, "the product")
    acc: dict[Exponent, Fraction] = {}
    for lam, c in p.terms.items():
        size = orbit_size(lam)
        for mu, d in q.terms.items():
            counts: dict[Exponent, int] = {}
            for beta in distinct_permutations(mu):
                nu = tuple(sorted(map(operator.add, lam, beta), reverse=True))
                counts[nu] = counts.get(nu, 0) + 1
            cd = c * d
            for nu, k in counts.items():
                # fixing the first exponent at lam counts each orbit pair
                # |O(lam)| times, and m_nu has |O(nu)| monomials
                acc[nu] = acc.get(nu, 0) + cd * (k * size // orbit_size(nu))
    return SymmetricPolynomial(p.n, acc)


# -- serialization -----------------------------------------------------------

# Exact values are written and read through Decimal, which has no digit
# limit: str() and int() refuse integers past 4300 decimal digits by default,
# and raising that limit (sys.set_int_max_str_digits) would raise it for the
# whole process.  Text under the limit is exactly what str() gives.
_RATIONAL_TEXT = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")

# ten times past the digit limit, 10**MAX_EXPONENT still takes milliseconds
MAX_EXPONENT = 10 * sys.int_info.default_max_str_digits
_EXPONENT_TEXT = re.compile(r"[eE]([+-]?[0-9_]+)\s*\Z")


def _decimal_text(v) -> str:
    """str(v) for an int or a Fraction of any size."""
    if isinstance(v, Fraction) and v.denominator != 1:
        return f"{Decimal(v.numerator)}/{Decimal(v.denominator)}"
    return str(Decimal(int(v)))


def _parse_rational(text: str) -> Fraction:
    """Fraction(text), with integer parts of any size.

    Fraction builds 10**exponent exactly, so 1e99999999999 would never
    return: an exponent of magnitude past MAX_EXPONENT is refused.  Written
    out in full, values of any length are read.
    """
    match = _RATIONAL_TEXT.fullmatch(text)
    if match is None:
        exponent = _EXPONENT_TEXT.search(text)
        if exponent and abs(int(exponent.group(1))) > MAX_EXPONENT:
            raise DomainError(f"exponent magnitude past {MAX_EXPONENT}")
        return Fraction(text)
    num, den = match.groups()
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


def serialize_poly(p: SymmetricPolynomial) -> str:
    """One line per term: 'lambda : coefficient', heaviest term first."""
    lines = []
    for key, coeff in p.items():
        lines.append(f"{','.join(str(e) for e in key)} : "
                     f"{_decimal_text(coeff)}")
    if not lines:
        lines.append(f"{','.join('0' for _ in range(p.n))} : 0")
    return "\n".join(lines) + "\n"


def parse_poly(text: str, n: int | None = None) -> SymmetricPolynomial:
    """Inverse of serialize_poly; n is inferred from the first key if omitted."""
    terms: dict[Exponent, Fraction] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise DomainError(f"malformed polynomial line {line!r}")
        left, right = line.split(":", 1)
        key = tuple(int(tok) for tok in left.strip().split(","))
        coeff = _parse_rational(right)
        if n is None:
            n = len(key)
        if coeff != 0:
            terms[key] = terms.get(key, Fraction(0)) + coeff
    if n is None:
        raise DomainError("no terms and no explicit n")
    return SymmetricPolynomial(n, terms)
