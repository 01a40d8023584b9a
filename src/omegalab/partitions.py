"""Integer partitions of fixed length and the majorization orders on them.

A partition here is a weakly decreasing tuple of nonnegative integers of an
explicit length n; trailing zeros are kept so that every object knows how many
variables it lives in.  Real vectors (tuples of Fractions or ints) are accepted
by the order predicates as well and are sorted internally.

partition_key is the one rule for a partition on n variables (Macdonald,
Symmetric Functions and Hall Polynomials, I.1): at most n parts, padded
with zeros to n.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .errors import DimensionMismatchError, DomainError, quoted

VectorLike = Union["Partition", Sequence]

PAIR_MODES = ("same-weight-comparable", "midpoint-integral", "weak-comparable")
# the modes whose pairs are the comparable pairs of an order (order_covers)
ORDER_MODES = ("same-weight-comparable", "weak-comparable")


def as_int_vector(v: Sequence) -> tuple[int, ...]:
    """Coerce to a tuple of exact ints; DomainError for an entry that is not
    an integer, of any kind (fractional, text, not finite, not a number)."""
    given = tuple(v)
    try:
        out = tuple(map(int, given))
    except (TypeError, ValueError, OverflowError):
        out = None
    if out != given:
        entry = next(g for g in given if not _is_integer(g))
        raise DomainError(f"expected an integer entry, got {quoted(entry)}")
    return out


def _is_integer(v) -> bool:
    """v == int(v), False where int(v) raises."""
    try:
        return int(v) == v
    except (TypeError, ValueError, OverflowError):
        return False


def partition_key(parts, n: int | None = None) -> tuple[int, ...]:
    """parts as a tuple of ints, padded with zeros to n entries if n is given.

    The entries must be integral, nonnegative and weakly decreasing
    (DomainError otherwise), and given n there may be at most n of them
    (DimensionMismatchError), trailing zeros included.  A Partition needs
    only the length rule: its parts were checked when it was built.
    """
    if isinstance(parts, Partition):
        key = parts.parts
    else:
        key = as_int_vector(parts)
        if any(a < b for a, b in zip(key, key[1:])):
            raise DomainError(f"parts not weakly decreasing: {key}")
        if key and key[-1] < 0:
            raise DomainError(f"negative part in partition {key}")
    if n is not None:
        if len(key) > n:
            raise DimensionMismatchError(
                f"partition {key} has more than n={n} parts")
        key += (0,) * (n - len(key))
    return key


class Partition:
    """Weakly decreasing tuple of nonnegative integers with explicit length."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        self.parts = partition_key(parts)

    @property
    def n(self) -> int:
        return len(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def pad(self, n: int) -> "Partition":
        """Same partition viewed in n >= len(self) variables."""
        return Partition(partition_key(self, n))

    def conjugate(self, length: int | None = None) -> "Partition":
        """Transpose of the Young diagram: lambda'_j = #{i : lambda_i >= j}.

        The result is padded with zeros to the given length (default: the
        larger of lambda_1 and the input length, so the zero partition maps
        to itself).
        """
        cols = [sum(1 for p in self.parts if p >= j)
                for j in range(1, (self.parts[0] if self.parts else 0) + 1)]
        if length is None:
            length = max(len(cols), len(self.parts))
        if len(cols) > length:
            raise DimensionMismatchError(
                f"conjugate of {self} needs at least {len(cols)} rows")
        cols += [0] * (length - len(cols))
        return Partition(cols)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({self.parts})"

    def __str__(self):
        return ",".join(str(p) for p in self.parts)


def _as_sorted_tuple(v: VectorLike):
    """Coerce to a decreasing tuple of exact numbers for order predicates."""
    if isinstance(v, Partition):
        return v.parts
    vals = tuple(Fraction(c) if not isinstance(c, int) else c for c in v)
    return tuple(sorted(vals, reverse=True))


def _check_same_length(a, b):
    if len(a) != len(b):
        raise DimensionMismatchError(
            f"length mismatch: {len(a)} vs {len(b)}")


def majorizes(a: VectorLike, b: VectorLike) -> bool:
    """True when a majorizes b: equal totals and a's prefix sums dominate.

    Both arguments are sorted decreasingly first, so real vectors may be
    passed in any order.  Comparisons are exact (ints / Fractions).
    """
    x, y = _as_sorted_tuple(a), _as_sorted_tuple(b)
    _check_same_length(x, y)
    if sum(x) != sum(y):
        return False
    px = py = 0
    for i in range(len(x) - 1):
        px += x[i]
        py += y[i]
        if px < py:
            return False
    return True


def weakly_majorizes(a: VectorLike, b: VectorLike) -> bool:
    """True when every prefix sum of a dominates that of b (totals included,
    but no equality of totals is required)."""
    x, y = _as_sorted_tuple(a), _as_sorted_tuple(b)
    _check_same_length(x, y)
    px = py = 0
    for i in range(len(x)):
        px += x[i]
        py += y[i]
        if px < py:
            return False
    return True


def contains(a: VectorLike, b: VectorLike) -> bool:
    """Entrywise containment of Young diagrams: b_i <= a_i for all i."""
    x, y = _as_sorted_tuple(a), _as_sorted_tuple(b)
    _check_same_length(x, y)
    return all(y[i] <= x[i] for i in range(len(x)))


def midpoint(a: Partition, b: Partition) -> Partition | None:
    """(a + b)/2 when it is an integer partition, else None."""
    _check_same_length(a, b)
    mid = []
    for p, q in zip(a, b):
        if (p + q) % 2:
            return None
        mid.append((p + q) // 2)
    # sum of weakly decreasing sequences is weakly decreasing
    return Partition(mid)


def partitions_of(weight: int, n: int, bound: int | None = None) -> Iterator[tuple]:
    """All weakly decreasing tuples of length n, entries <= bound, summing to
    weight, in lexicographically decreasing order."""
    if bound is None:
        bound = weight
    if n == 0:
        if weight == 0:
            yield ()
        return
    lo = -(-weight // n)  # smallest admissible leading part
    for head in range(min(weight, bound), lo - 1, -1):
        for tail in partitions_of(weight - head, n - 1, head):
            yield (head,) + tail


def enumerate_partitions(n: int, max_weight: int) -> list[Partition]:
    """All partitions with at most n parts and weight <= max_weight, ordered
    by weight then lexicographically decreasing."""
    if n < 1:
        raise DomainError("need n >= 1")
    if max_weight < 0:
        raise DomainError("need max_weight >= 0")
    out = []
    for w in range(max_weight + 1):
        out.extend(Partition(t) for t in partitions_of(w, n))
    return out


def enumerate_pairs(n: int, max_weight: int, mode: str) -> Iterator[tuple[Partition, Partition]]:
    """Deterministic, duplicate-free stream of partition pairs.

    Modes:
      same-weight-comparable: ordered (lambda, mu), equal weight,
          lambda majorizes mu, lambda != mu.
      midpoint-integral: unordered-canonical (lambda >= mu lexicographically),
          any weights, (lambda+mu)/2 entrywise integral; includes lambda == mu.
      weak-comparable: ordered (lambda, mu) with lambda weakly majorizing mu,
          weights each <= max_weight.

    Order: by (weight(lambda), lambda, weight(mu), mu) with partitions compared
    lexicographically decreasing within a weight, which makes the stream
    reproducible without a seed.
    """
    if mode not in PAIR_MODES:
        raise DomainError(f"unknown pair mode {mode!r}; expected one of {PAIR_MODES}")
    parts = enumerate_partitions(n, max_weight)
    if mode == "weak-comparable":
        for lam, mu in itertools.product(parts, parts):
            if weakly_majorizes(lam, mu):
                yield lam, mu
        return
    if mode == "midpoint-integral":
        for lam, mu in itertools.product(parts, parts):
            if lam.parts >= mu.parts and midpoint(lam, mu) is not None:
                yield lam, mu
        return
    by_weight: dict[int, list[Partition]] = {}
    for p in parts:
        by_weight.setdefault(p.weight, []).append(p)
    for w in sorted(by_weight):
        group = by_weight[w]
        for lam, mu in itertools.product(group, group):
            if lam != mu and majorizes(lam, mu):
                yield lam, mu


def _dominance_covered(lam: tuple) -> Iterator[tuple]:
    """The partitions that lam covers in dominance: lam - e_i + e_j with
    i < j that are partitions, where j = i + 1 or lam_i = lam_j + 2
    (Brylawski, Discrete Math. 6, 1973)."""
    n = len(lam)
    for i in range(n - 1):
        if not lam[i]:
            break  # zero rows have no box to give
        for j in range(i + 1, n):
            if j > i + 1 and lam[i] != lam[j] + 2:
                continue
            mu = list(lam)
            mu[i] -= 1
            mu[j] += 1
            # only rows i and j moved, so only their inner neighbours can
            # break the order
            if mu[i] >= mu[i + 1] and mu[j - 1] >= mu[j]:
                yield tuple(mu)


def order_covers(n: int, max_weight: int,
                 mode: str) -> tuple[list[tuple[Partition, Partition]], int]:
    """The cover pairs of the order that mode enumerates, and the number of
    its pairs, len(list(enumerate_pairs(n, max_weight, mode))), found
    without enumerating a pair.

    Modes (ORDER_MODES, each the pairs of a partial order):
      same-weight-comparable: (lambda, mu) with lambda covering mu in
          dominance (_dominance_covered).
      weak-comparable: those, plus (lambda, lambda - e_r) with r lambda's
          last nonzero row, counted from 0, where lambda_r = 1 or
          r = n - 1: the weak order steps down a weight only through its
          last row.

    Every comparable pair is joined by a chain of covers, so a transitive
    relation holds on every pair when it holds on every cover.  Covers come
    lambda by lambda, in enumerate_partitions order.  The pair count is a
    bitset closure: a shape's strict down-set is the union of its covered
    shapes' down-sets and bits, taken in (weight, lexicographic) order,
    which puts every shape after all those below it in both orders; the
    weak mode adds its pairs (lambda, lambda), one per shape.
    """
    if mode not in ORDER_MODES:
        raise DomainError(f"no covers for pair mode {mode!r}; expected one "
                          f"of {ORDER_MODES}")
    parts = enumerate_partitions(n, max_weight)
    weak = mode == "weak-comparable"
    covers = []
    for lam in parts:
        below = list(_dominance_covered(lam.parts))
        if weak and lam.weight:
            last = sum(1 for p in lam.parts if p) - 1
            if lam.parts[last] == 1 or last == n - 1:
                mu = list(lam.parts)
                mu[last] -= 1
                below.append(tuple(mu))
        covers.extend((lam, Partition(mu)) for mu in below)
    walk = sorted(parts, key=lambda p: (p.weight, p.parts))
    index = {p: i for i, p in enumerate(walk)}
    down = [0] * len(walk)
    for lam, mu in sorted(covers, key=lambda pair: index[pair[0]]):
        j = index[mu]
        down[index[lam]] |= down[j] | 1 << j
    count = sum(d.bit_count() for d in down)
    return covers, (count + len(parts) if weak else count)
