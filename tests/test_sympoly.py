"""Sparse symmetric polynomials in the monomial basis."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from omegalab import cache, sympoly
from omegalab.errors import (DegeneracyError, DimensionMismatchError,
                             DomainError, ParameterError)
from omegalab.macdonald import MacdonaldParams, lattice_point
from omegalab.jack import JackValues, jack_expand
from omegalab.lab import hunt_violation
from omegalab.partitions import Partition
from omegalab.sympoly import (SymmetricPolynomial, distinct_permutations,
                              monomial_eval, orbit_size, parse_poly,
                              poly_eval, poly_eval_float, poly_eval_fresh,
                              poly_multiply, serialize_poly)


def partition_keys(max_len=3, max_part=4):
    return (st.lists(st.integers(0, max_part), min_size=1, max_size=max_len)
            .map(lambda v: tuple(sorted(v, reverse=True))))


def rational_points(n, lo=-3, hi=3):
    coords = st.fractions(min_value=lo, max_value=hi, max_denominator=8)
    return st.tuples(*[coords] * n)


@given(partition_keys())
def test_distinct_permutations_match_orbit_size(key):
    perms = list(distinct_permutations(key))
    assert len(perms) == orbit_size(key)
    assert len(set(perms)) == len(perms)
    for p in perms:
        assert sorted(p, reverse=True) == list(key)


def test_orbit_size_is_the_multinomial():
    # 4!/(2! 1! 1!) = 12 rearrangements of (3,3,1,0)
    assert orbit_size((3, 3, 1, 0)) == 12
    assert orbit_size((2, 2, 2)) == 1
    assert orbit_size(()) == 1


@given(partition_keys())
def test_monomial_at_ones_counts_the_orbit(key):
    ones = (Fraction(1),) * len(key)
    assert monomial_eval(key, ones) == orbit_size(key)


def test_monomial_eval_example():
    # m_(2,1)(x, y) = x^2 y + x y^2
    assert monomial_eval((2, 1), (Fraction(3), Fraction(2))) == 18 + 12


@given(partition_keys(max_len=2, max_part=3),
       partition_keys(max_len=2, max_part=3))
def test_multiplication_commutes_with_evaluation(a, b):
    p = SymmetricPolynomial.monomial(a, 2)
    q = SymmetricPolynomial.monomial(b, 2)
    x = (Fraction(5, 3), Fraction(-1, 2))
    assert poly_multiply(p, q).eval(x) == p.eval(x) * q.eval(x)


def test_ring_operations():
    m20 = SymmetricPolynomial.monomial((2, 0), 2)
    m11 = SymmetricPolynomial.monomial((1, 1), 2)
    s = m20 + 2 * m11
    assert s.coefficient((1, 1)) == 2
    assert (s - s) == SymmetricPolynomial.zero(2)
    assert not SymmetricPolynomial.zero(2)
    # (m_1)^2 = m_2 + 2 m_11
    m1 = SymmetricPolynomial.monomial((1, 0), 2)
    assert poly_multiply(m1, m1) == m20 + 2 * m11
    with pytest.raises(DimensionMismatchError):
        m1 + SymmetricPolynomial.one(3)


def test_items_order_heaviest_first():
    p = (SymmetricPolynomial.monomial((1, 1), 2)
         + SymmetricPolynomial.monomial((2, 0), 2))
    assert [k for k, _ in p.items()] == [(2, 0), (1, 1)]


@given(partition_keys(max_len=3, max_part=4))
def test_serialize_parse_round_trip(key):
    p = SymmetricPolynomial.monomial(key, 3) * Fraction(-7, 3) \
        + SymmetricPolynomial.one(3)
    assert parse_poly(serialize_poly(p)) == p


def test_parse_poly_fixed_point():
    text = "2,0 : 1\n1,1 : 6/5\n"
    p = parse_poly(text)
    assert p.coefficient((1, 1)) == Fraction(6, 5)
    assert serialize_poly(p) == text


@given(partition_keys(max_len=2, max_part=3), rational_points(2))
def test_float_evaluation_tracks_exact(key, x):
    p = SymmetricPolynomial.monomial(key, 2)
    exact = float(p.eval(x))
    approx = poly_eval_float(p, tuple(float(v) for v in x))
    assert math.isclose(exact, approx, rel_tol=1e-12, abs_tol=1e-12)


# -- the integer-cleared evaluator against a plain Fraction loop ---------------


def reference_monomial(key, x):
    """m_key(x) term by term in Fraction arithmetic."""
    total = Fraction(0)
    for eta in distinct_permutations(key):
        term = Fraction(1)
        for xi, e in zip(x, eta):
            term *= Fraction(xi) ** e
        total += term
    return total


def reference_eval(p, x):
    return sum((c * reference_monomial(key, x) for key, c in p.terms.items()),
               Fraction(0))


@st.composite
def polynomials_and_points(draw, lo=-3, hi=3, max_denominator=8):
    """A polynomial of any degree mix (the zero polynomial included) on
    n in [1, 4] variables and a rational point with zeros and negatives."""
    n = draw(st.integers(1, 4))
    keys = st.lists(st.integers(0, 4), min_size=n, max_size=n).map(
        lambda v: tuple(sorted(v, reverse=True)))
    coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=30)
    terms = draw(st.dictionaries(keys, coeffs, max_size=6))
    coord = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=lo, max_value=hi,
                                   max_denominator=max_denominator))
    x = draw(st.tuples(*[coord] * n))
    return SymmetricPolynomial(n, terms), x


@given(polynomials_and_points())
def test_poly_eval_matches_fraction_reference(case):
    p, x = case
    expected = reference_eval(p, x)
    assert poly_eval(p, x) == expected
    # the second evaluation reads the shared table
    assert p.eval(x) == expected
    assert poly_eval_fresh(p, x) == expected


def test_poly_eval_fresh_ignores_a_corrupted_kept_form():
    # poly_eval and eval read the form the polynomial keeps; poly_eval_fresh
    # builds its own from the terms
    p = SymmetricPolynomial(2, {(2, 0): Fraction(1, 3),
                                (1, 1): Fraction(-2), (0, 0): Fraction(5)})
    x = (Fraction(1, 2), 3)
    value = reference_eval(p, x)
    lcm, top, terms = p.form
    p._form = (lcm, top, tuple((nu, c * 10 ** 9, drop)
                               for nu, c, drop in terms))
    assert poly_eval(p, x) == p.eval(x) == value * 10 ** 9
    assert poly_eval_fresh(p, x) == value


@given(polynomials_and_points())
def test_monomial_eval_matches_fraction_reference(case):
    p, x = case
    for key in p.terms:
        # any order of the exponents names the same orbit
        assert monomial_eval(key[::-1], x) == reference_monomial(key, x)


@given(polynomials_and_points(), st.data())
def test_evaluation_at_large_lattice_points(case, data):
    p, _ = case
    n = p.n
    label = tuple(sorted(data.draw(st.lists(st.integers(-20, 20), min_size=n,
                                            max_size=n)), reverse=True))
    x = lattice_point(label, MacdonaldParams(Fraction(2, 7), Fraction(5, 11),
                                             n, Fraction(3, 13))).coords
    assert poly_eval(p, x) == reference_eval(p, x)


def test_single_variable_and_zero_polynomial():
    p = SymmetricPolynomial(1, {(3,): Fraction(2, 3), (0,): Fraction(-1)})
    assert p.eval((Fraction(-3, 2),)) == Fraction(2, 3) * Fraction(-27, 8) - 1
    assert SymmetricPolynomial.zero(3).eval((1, 2, 3)) == 0
    assert monomial_eval((2,), (Fraction(-1, 5),)) == Fraction(1, 25)


def test_values_are_canonical_fractions():
    # 1/2 + 1/2 reduces to 1: the result never carries a stale denominator
    p = SymmetricPolynomial(2, {(1, 0): Fraction(1, 2)})
    value = p.eval((Fraction(1, 2), Fraction(3, 2)))
    assert value == 1 and value.denominator == 1
    assert monomial_eval((0, 0), (0.5, 0.25)) == 1


def test_monomial_eval_rejects_negative_exponents():
    with pytest.raises(DomainError):
        monomial_eval((1, -1), (Fraction(2), Fraction(3)))


def memo_entries():
    return sum(map(len, sympoly._MONOMIAL_MEMO.values()))


def test_shared_table_stays_bounded(monkeypatch):
    monkeypatch.setattr(sympoly, "MONOMIAL_MEMO_SIZE", 5)
    monkeypatch.setattr(sympoly, "_MONOMIAL_MEMO", {})
    monkeypatch.setattr(sympoly, "_memo_entries", 0)
    p = SymmetricPolynomial(2, {(2, 0): Fraction(1), (1, 1): Fraction(3),
                                (1, 0): Fraction(-2)})
    for i in range(1, 12):
        x = (Fraction(i, 7), Fraction(-i, 3))
        assert p.eval(x) == reference_eval(p, x)
        # a point's table holds the 7 sub-multisets of p's three terms
        assert len(sympoly._MONOMIAL_MEMO[sympoly._cleared(x)[0]]) == 7
        assert memo_entries() <= 5 + 7
    # the bound is on entries, not points: a table at the states ceiling
    # is not kept once per point
    monkeypatch.setattr(sympoly, "MAX_ORBIT_TERMS", 64)
    monkeypatch.setattr(sympoly, "MONOMIAL_MEMO_SIZE", 100)
    key = (6, 5, 4, 3, 2, 1)
    for i in range(1, 21):
        x = tuple(range(i, i + 6))
        assert monomial_eval(key, x) == reference_monomial(key, x)
        assert len(sympoly._MONOMIAL_MEMO[x]) == 64
        assert memo_entries() <= 100 + 64


# -- non-integral exponents are refused, not truncated --------------------------


def test_constructor_refuses_non_integral_exponents():
    with pytest.raises(DomainError):
        SymmetricPolynomial(2, {(2.9, 0.5): 1})
    # integral values of another type name the same key
    assert SymmetricPolynomial(2, {(2.0, Fraction(1)): 1}).terms == {(2, 1): 1}


def test_monomial_refuses_non_integral_exponents():
    with pytest.raises(DomainError):
        SymmetricPolynomial.monomial((2.5, 0))


def test_monomial_eval_refuses_non_integral_exponents():
    with pytest.raises(DomainError):
        monomial_eval((2.5, 1), (2, 3))


# -- the product against expand, convolve and collect ---------------------------


def reference_product(p, q):
    """p * q through the exponent-vector expansion: every orbit written out,
    the two expansions convolved, and each orbit read back at its sorted
    representative."""
    def expand(poly):
        return {eta: c for key, c in poly.terms.items()
                for eta in distinct_permutations(key)}

    grid: dict = {}
    for ea, ca in expand(p).items():
        for eb, cb in expand(q).items():
            e = tuple(i + j for i, j in zip(ea, eb))
            grid[e] = grid.get(e, Fraction(0)) + ca * cb
    return SymmetricPolynomial(p.n, {e: c for e, c in grid.items()
                                     if list(e) == sorted(e, reverse=True)})


@st.composite
def polynomial_pairs(draw):
    """Two polynomials of up to six terms each on the same n in [1, 4]."""
    n = draw(st.integers(1, 4))
    keys = st.lists(st.integers(0, 4), min_size=n, max_size=n).map(
        lambda v: tuple(sorted(v, reverse=True)))
    coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=30)
    return tuple(SymmetricPolynomial(n, draw(st.dictionaries(keys, coeffs,
                                                             max_size=6)))
                 for _ in range(2))


@given(polynomial_pairs())
def test_product_matches_the_expanded_reference(pair):
    p, q = pair
    assert poly_multiply(p, q) == reference_product(p, q)


def test_products_of_jack_expansions_match_the_expanded_reference():
    expansions = [jack_expand(lam, Fraction(1, 2))
                  for lam in [(3, 1, 0), (2, 2, 0), (2, 1, 1)]]
    for p in expansions:
        for q in expansions:
            assert poly_multiply(p, q) == reference_product(p, q)


def test_products_walk_the_smaller_orbit(monkeypatch):
    # the product commutes, so the factor with the shorter orbits is the
    # one walked: 1 * m_(1^5) on 100 variables walks the single
    # rearrangement of 1's exponent in either order, where walking the
    # orbit of m_(1^5) took C(100, 5) steps and was refused
    e5 = SymmetricPolynomial.monomial((1,) * 5, 100)
    one = SymmetricPolynomial.one(100)
    walks = []
    check = sympoly._check_walk

    def counted(count, what):
        walks.append(count)
        check(count, what)

    monkeypatch.setattr(sympoly, "_check_walk", counted)
    assert poly_multiply(one, e5) == poly_multiply(e5, one) == e5
    assert walks == [1, 1]


# -- floating evaluation: the exact value, rounded once --------------------------


@given(polynomials_and_points())
def test_float_evaluation_is_the_exact_value_rounded(case):
    p, x = case
    xs = tuple(float(v) for v in x)
    assert float.hex(poly_eval_float(p, xs)) == float.hex(
        float(poly_eval(p, [Fraction(v) for v in xs])))


def test_float_evaluation_refuses_what_a_double_cannot_hold():
    p = SymmetricPolynomial.monomial((3, 1), 2)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            poly_eval_float(p, (bad, 1.0))
    # (1e300)^3 * 1e10 is past the double range, though both coordinates
    # are finite doubles
    with pytest.raises(DegeneracyError):
        poly_eval_float(p, (1e300, 1e10))
    assert poly_eval_float(p, (-1e-300, 1e-300)) == 0.0


def test_orbit_walks_past_the_ceiling_are_refused(monkeypatch):
    monkeypatch.setattr(sympoly, "_MONOMIAL_MEMO", {})
    ceiling = sympoly.MAX_ORBIT_TERMS
    e5 = SymmetricPolynomial.monomial((1,) * 5, 100)
    count = math.comb(100, 5)
    assert count > ceiling
    with pytest.raises(ParameterError,
                       match=f"the product walks {count} rearrangements, "
                             f"past the ceiling of {ceiling}"):
        poly_multiply(e5, e5)
    # a fill visits prod(multiplicity + 1) states: 2^23 for 23 distinct
    # parts, refused when the form is built, before any table is filled
    parts = tuple(range(23, 0, -1))
    x = tuple(range(1, 24))
    with pytest.raises(ParameterError,
                       match=f"visits {2 ** 23} states, past the ceiling of "
                             f"{ceiling}"):
        monomial_eval(parts, x)
    assert sympoly._MONOMIAL_MEMO == {}
    p = SymmetricPolynomial.monomial(parts + (0,), 24)
    with pytest.raises(ParameterError):
        poly_eval_fresh(p, x + (0,))


def test_a_large_orbit_fills_a_small_table(monkeypatch):
    monkeypatch.setattr(sympoly, "_MONOMIAL_MEMO", {})
    # m_(1^6) at n = 100 has C(100, 6), about 1.2e9, rearrangements but
    # visits 7 * 95 = 665 states; its value is e_6(1, ..., 100), which the
    # recurrence e_k += x e_(k-1) gives independently
    x = tuple(range(1, 101))
    e = [1] + [0] * 6
    for v in x:
        for k in range(6, 0, -1):
            e[k] += v * e[k - 1]
    assert monomial_eval((1,) * 6, x) == e[6] == 18802604432559339700
    assert len(sympoly._MONOMIAL_MEMO[x]) == 665


# -- the peeling fill against a plain walk of the orbit -------------------------


@given(st.lists(st.integers(0, 4), min_size=1, max_size=6),
       st.data())
def test_the_fill_is_the_orbit_sum(parts, data):
    key = tuple(sorted(parts, reverse=True))
    X = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=len(key),
                                 max_size=len(key))))
    walk = 0
    for eta in distinct_permutations(key):
        term = 1
        for xi, e in zip(X, eta):
            term *= xi ** e
        walk += term
    table = {}
    assert sympoly._fill(key, X, table) == walk
    assert len(table) <= math.prod(key.count(p) + 1 for p in set(key))
    assert monomial_eval(key, X) == walk


# -- a fill deeper than the recursion limit ------------------------------------


def test_a_fill_past_the_recursion_limit_is_refused(monkeypatch):
    # the fill recurses once per variable: 900 variables evaluate, and 1200
    # pass the interpreter's limit, refused with the variable count
    monkeypatch.setattr(sympoly, "_MONOMIAL_MEMO", {})
    monkeypatch.setattr(sympoly, "_memo_entries", 0)
    assert monomial_eval((1,), range(1, 901)) == 900 * 901 // 2
    with pytest.raises(ParameterError, match="on 1200 variables"):
        monomial_eval((1,), range(1, 1201))
    assert sympoly._memo_entries == memo_entries()


def test_a_refused_fill_keeps_the_entry_count(monkeypatch):
    # m_(1,0,...) fills its 2400 entries at 1200 variables under a raised
    # limit; m_(2,0,...) at the same point under the default limit is
    # refused, and the point's entries stay counted
    monkeypatch.setattr(sympoly, "_MONOMIAL_MEMO", {})
    monkeypatch.setattr(sympoly, "_memo_entries", 0)
    x = range(1, 1201)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 1500)
    try:
        assert monomial_eval((1,), x) == 1200 * 1201 // 2
    finally:
        sys.setrecursionlimit(limit)
    assert sympoly._memo_entries == memo_entries() == 2400
    with pytest.raises(ParameterError, match="on 1200 variables"):
        monomial_eval((2,), x)
    assert sympoly._memo_entries == memo_entries()


def test_only_entries_the_memo_holds_are_counted(monkeypatch):
    # a certified hunt also fills private tables (poly_eval_fresh) for its
    # second derivation; they are dropped, so they are not counted.  With
    # no expansion memoized, the shared tables hold the point's entries and
    # the normalizers'
    monkeypatch.setattr(cache, "_MEMO", {})
    monkeypatch.setattr(sympoly, "_MONOMIAL_MEMO", {})
    monkeypatch.setattr(sympoly, "_memo_entries", 0)
    witness, probes = hunt_violation(Fraction(1, 2), Fraction(1, 3), n=3,
                                     max_weight=6)
    assert witness is not None and probes == 1
    assert sympoly._memo_entries == memo_entries() == 20
    p = SymmetricPolynomial(2, {(2, 1): Fraction(1)})
    assert poly_eval_fresh(p, (Fraction(5), Fraction(7))) == 25 * 7 + 49 * 5
    assert sympoly._memo_entries == memo_entries() == 20
    # nor is a fill into a table the memo has dropped: an evaluator made at
    # one point still fills that point's table after a new point empties
    # the memo (both shapes are resolved first, so no normalizer is
    # evaluated in between)
    monkeypatch.setattr(sympoly, "MONOMIAL_MEMO_SIZE", 1)
    values = JackValues(Fraction(1, 2))
    shapes = Partition((2, 1, 0)), Partition((3, 2, 1))
    omega = values.at((Fraction(7), Fraction(6), Fraction(1)))
    for lam in shapes:
        omega(lam)
    first = values.at((Fraction(3), Fraction(2), Fraction(1)))
    first(shapes[0])
    values.at((Fraction(5), Fraction(4), Fraction(1)))
    held = sympoly._memo_entries
    assert held == memo_entries()
    first(shapes[1])
    assert sympoly._memo_entries == memo_entries() == held
