"""Sparse symmetric polynomials over exact rationals, in the monomial basis.

A SymmetricPolynomial on n variables is a finite rational combination of
monomial symmetric polynomials m_lambda, stored as a dict from the sorted
exponent tuple (the partition, trailing zeros kept) to a nonzero Fraction.
m_lambda(x) sums x^eta over the distinct rearrangements eta of lambda, each
counted once.  Exact evaluation works in integers: the point is cleared of
denominators once, and m_nu at the integer point comes from one table per
point, filled by peeling one variable at a time and shared by every
polynomial evaluated there; a single division at the end gives the
canonical Fraction.  The sum runs over the polynomial's cleared form,
integer coefficients over one common denominator, which each polynomial
builds from its terms on first evaluation and keeps; terms is not changed
after construction.  A caller that divides by a rational scale passes it
to the sum, which folds it into that one division.  The sum itself returns
the unreduced integer pair (numerator, positive denominator), which a
caller that only compares values (FamilyValues, the exact sweeps) compares
by cross-multiplying, with no Fraction built.  Floating evaluation is the
exact value at the floating point, rounded once.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (DegeneracyError, DimensionMismatchError, DomainError,
                     ParameterError, count_text)
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
    lam = tuple(lam)
    return math.factorial(len(lam)) // math.prod(
        math.factorial(lam.count(p)) for p in set(lam))


def _exponent_key(key, n: int) -> Exponent:
    """key as a partition of length exactly n (partition_key's checks)."""
    key = partition_key(key)
    if len(key) != n:
        raise DimensionMismatchError(
            f"exponent {key} has length {len(key)}, expected {n}")
    return key


class SymmetricPolynomial:
    """Rational combination of monomial symmetric polynomials, fixed n."""

    __slots__ = ("n", "terms", "_form")

    def __init__(self, n: int, terms: Mapping[Exponent, Fraction] | None = None):
        if n < 1:
            raise DomainError("need n >= 1")
        self.n = n
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                c = Fraction(coeff)
                if c != 0:
                    clean[_exponent_key(key, n)] = c
        self.terms = clean
        self._form = None

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

    @property
    def form(self) -> tuple:
        """The cleared form of the polynomial (_cleared_form), built on
        first use and kept."""
        if self._form is None:
            self._form = _cleared_form(self.terms)
        return self._form

    def eval(self, x: Sequence) -> Fraction:
        return poly_eval(self, x)

    def __repr__(self):
        if not self.terms:
            return f"SymmetricPolynomial({self.n}, 0)"
        body = " + ".join(f"{c}*m{k}" for k, c in self.items())
        return f"SymmetricPolynomial({self.n}, {body})"


# the shared tables of integer monomial values, one per cleared point X:
# _MONOMIAL_MEMO[X] maps nu to m_nu(X_1, ..., X_len(nu)).  _memo_entries
# counts the entries the memo holds: a fill into a private table, or into
# one the memo has dropped, is not counted.  A new point that finds it at
# MONOMIAL_MEMO_SIZE or more empties the memo first: the tables hold at
# most that many entries besides those filled since the last new point
MONOMIAL_MEMO_SIZE = 1 << 15
_MONOMIAL_MEMO: dict[tuple, dict] = {}
_memo_entries = 0


def _cleared(x: Sequence) -> tuple[tuple[int, ...], int]:
    """(X, D) with X an integer vector, D > 0 minimal, and x = X / D."""
    xs = [v if type(v) in (int, Fraction) else Fraction(v) for v in x]
    d = math.lcm(*(v.denominator for v in xs))
    return tuple(v.numerator * (d // v.denominator) for v in xs), d


# ceiling on the work of one walk or one fill: the rearrangements that
# poly_multiply walks, and the states that one monomial's fill (_fill)
# visits, checked when a form is built.  At n = 100 a rearrangement takes
# about 18 us in a product, and a state about 25 us and 0.6 KiB, so 2^22
# of either take one to two minutes, and a fill that many GiB.  m_(1^6)
# at n = 100 visits 7 * 95 = 665 states; 22 distinct parts and a zero,
# 2^23
MAX_ORBIT_TERMS = 1 << 22


def _check_walk(count: int, what: str):
    """ParameterError when count passes MAX_ORBIT_TERMS; what names the
    work, with {} where the count goes."""
    if count > MAX_ORBIT_TERMS:
        raise ParameterError(f"{what.format(count_text(count))}, past the "
                             f"ceiling of {MAX_ORBIT_TERMS}")


def _fill(nu: Exponent, X: tuple, table: dict) -> int:
    """m_nu(X_1, ..., X_len(nu)), read from table or put into it, with
    every sub-multiset of nu that the sum needs.

    Peeling the last variable, m_mu(X_1, ..., X_j) is the sum over the
    distinct entries p of mu of X_j^p m_{mu - p}(X_1, ..., X_{j-1}), and
    m_() = 1, so a fill visits at most prod(multiplicity + 1) keys over the
    distinct entries of nu, and recurses len(nu) calls deep.
    """
    m = table.get(nu)
    if m is None:
        m = 0 if nu else 1
        x = X[len(nu) - 1]
        for i, p in enumerate(nu):
            if not i or nu[i - 1] != p:
                m += x ** p * _fill(nu[:i] + nu[i + 1:], X, table)
        table[nu] = m
    return m


def _cleared_form(terms: Mapping[Exponent, Fraction]) -> tuple:
    """p = sum c_nu m_nu over terms as the cleared form that _form_sum adds
    up.

    With L the lcm of the coefficient denominators and top the largest
    degree, p = sum (C_nu / L) m_nu for integers C_nu, and the form is
    (L, top, ((nu, C_nu, top - |nu|), ...)).  A term whose fill would
    visit more than MAX_ORBIT_TERMS states is refused here, before any
    table is filled.
    """
    _check_walk(max((math.prod(nu.count(p) + 1 for p in set(nu))
                     for nu in terms), default=1),
                "a monomial's table fill visits {} states")
    degrees = [sum(nu) for nu in terms]
    top = max(degrees, default=0)
    lcm = math.lcm(*(c.denominator for c in terms.values()))
    return (lcm, top,
            tuple((nu, c.numerator * (lcm // c.denominator), top - deg)
                  for (nu, c), deg in zip(terms.items(), degrees)))


def _point_table(X: tuple) -> dict:
    """X's table in the shared _MONOMIAL_MEMO, made on first use; a new
    point that finds the memo at MONOMIAL_MEMO_SIZE entries or more
    empties it first."""
    global _memo_entries
    table = _MONOMIAL_MEMO.get(X)
    if table is None:
        if _memo_entries >= MONOMIAL_MEMO_SIZE:
            _MONOMIAL_MEMO.clear()
            _memo_entries = 0
        table = _MONOMIAL_MEMO[X] = {}
    return table


def _form_sum(form: tuple, X: tuple, d: int, scale=1,
              table: dict = None) -> tuple[int, int]:
    """p(x) / scale for the cleared form of p, at x = X / d (_cleared), as
    an integer pair (N, D) with D > 0 and p(x) / scale = N / D, unreduced.

    m_nu(x) = m_nu(X) / d^|nu|, so with scale = a / b, p(x) / scale is
    b * sum C_nu m_nu(X) d^(top - |nu|) over a * L * d^top, and
    non-homogeneous polynomials need nothing extra.  A zero scale is
    refused by the caller; a negative one flips both signs.  m_nu(X) is
    read from table and filled on a miss (_fill); None is X's table in the
    shared _MONOMIAL_MEMO.  A fill deeper than the interpreter's recursion
    limit (about 900 variables) raises ParameterError.  The entries a fill
    puts in a table the shared memo holds are counted, also when it is
    refused.
    """
    global _memo_entries
    if table is None:
        table = _point_table(X)
    held = len(table)
    lcm, top, terms = form
    num = 0
    try:
        for nu, c, drop in terms:
            num += c * _fill(nu, X, table) * d ** drop
    except RecursionError:
        raise ParameterError(
            f"a monomial table fill on {count_text(len(X))} variables "
            f"recurses past the interpreter's limit") from None
    finally:
        if len(table) != held and _MONOMIAL_MEMO.get(X) is table:
            _memo_entries += len(table) - held
    num *= scale.denominator
    den = scale.numerator * lcm * d ** top
    return (-num, -den) if den < 0 else (num, den)


def _form_value(form: tuple, X: tuple, d: int, scale=1,
                table: dict = None) -> Fraction:
    """_form_sum as a reduced Fraction."""
    return Fraction(*_form_sum(form, X, d, scale, table))


class FamilyValues:
    """Omega_lambda(x) = p_lambda(x) / c_lambda for one family at one
    parameter set, as integer pairs (N, D) with D > 0.

    A subclass checks a point (_point(x), returning it as a tuple) and
    resolves a shape on a point's variable count (_resolve(lam, n),
    returning p_lambda and its nonzero rational normalizer c_lambda).  A
    shape is resolved once per variable count, on the first point that asks
    for it, and its kept form and normalizer are held from then on, so a
    point pays no memo lookup per shape.  Shapes are held as given, so they
    must be hashable.
    """

    __slots__ = ("_shapes",)

    def __init__(self):
        self._shapes: dict[int, dict] = {}

    def at(self, x):
        """lambda -> Omega_lambda(x) as (N, D), with x checked and cleared
        once, here."""
        x = self._point(x)
        n = len(x)
        X, d = _cleared(x)
        shapes = self._shapes.setdefault(n, {})
        resolve = self._resolve
        table = _point_table(X)

        def value(lam) -> tuple[int, int]:
            nonlocal table
            got = shapes.get(lam)
            if got is None:
                p, c = resolve(lam, n)
                got = shapes[lam] = (p.form, c)
                # a normalizer evaluated on a miss may empty the memo
                table = _point_table(X)
            return _form_sum(got[0], X, d, got[1], table)

        return value


def monomial_eval(lam, x: Sequence) -> Fraction:
    """m_lambda(x): sum of x^eta over distinct rearrangements eta of lambda,
    which may be given in any order and is padded to the length of x."""
    x = tuple(x)
    parts = partition_key(sorted(lam, reverse=True), len(x))
    return _form_value(_cleared_form({parts: Fraction(1)}), *_cleared(x))


def _point_for(p: SymmetricPolynomial, x: Sequence) -> tuple:
    x = tuple(x)
    if len(x) != p.n:
        raise DimensionMismatchError(
            f"point length {len(x)} vs polynomial on {p.n} variables")
    return x


def poly_eval(p: SymmetricPolynomial, x: Sequence) -> Fraction:
    """p(x), exact, from p's kept form and x's shared table."""
    return _form_value(p.form, *_cleared(_point_for(p, x)))


def poly_eval_fresh(p: SymmetricPolynomial, x: Sequence) -> Fraction:
    """p(x) from a form built afresh from p.terms, through a private, empty
    table: reads neither p's kept form nor the shared memo."""
    return _form_value(_cleared_form(p.terms), *_cleared(_point_for(p, x)),
                       table={})


def poly_eval_float(p: SymmetricPolynomial, x: Sequence) -> float:
    """p(x) at a floating point, correctly rounded: each coordinate is
    taken as a double, an exact dyadic rational, and the exact value there
    (poly_eval) is rounded once.  A coordinate that is not finite raises
    DomainError, and a value past the double range DegeneracyError."""
    xs = [float(c) for c in _point_for(p, x)]
    if not all(map(math.isfinite, xs)):
        raise DomainError("need finite coordinates")
    try:
        return float(poly_eval(p, xs))
    except OverflowError:
        raise DegeneracyError("the value is past the floating range") from None


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
            acc[key] = acc.get(key, 0) + c0 * c
    # the constructor drops the terms that cancelled
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
    _check_walk(walk, "the product walks {} rearrangements")
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
    # the coefficients are Fractions already: each nonzero term's key is
    # checked once here, and none is wrapped again by the constructor
    poly = SymmetricPolynomial(n)
    poly.terms = {_exponent_key(key, n): c for key, c in terms.items() if c}
    return poly
