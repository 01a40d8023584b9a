"""The triangular eigen-solve, its dominance ideals and the operator-row
tables that cold expansions share.

The reference below is the solver as it was before rows were shared: it
builds every row afresh for each lambda, calls the eigenvalue wherever it
needs one, and gathers each coefficient from every earlier row.  The
package's solver must give the same expansions exactly.  A second
reference is the scatter back-substitution in Fractions, as the solver was
before it kept integer numerators over one running denominator.
"""

import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from omegalab import cache, jack, macdonald
from omegalab.eigensolve import (dominance_ideal, is_dominance_minimum,
                                 solve_eigen_expansion)
from omegalab.errors import DomainError, OperatorRowError
from omegalab.jack import (_apply_jack_op, _jack_eigenvalue, _jack_scale,
                           jack_expand)
from omegalab.macdonald import (MacdonaldParams, _apply_macdonald_op,
                                _mac_eigenvalue, _mac_scale,
                                macdonald_expand)
from omegalab.partitions import majorizes, partitions_of
from omegalab.sympoly import SymmetricPolynomial, serialize_poly
from test_lab import run_optimized

THETAS = (Fraction(2, 3), Fraction(5))
QTS = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(2, 5), Fraction(3, 7)))


def reference_ideal(lam, n):
    return [nu for nu in partitions_of(sum(lam), n) if majorizes(lam, nu)]


def reference_solve(lam, n, apply_to_monomial, eigenvalue):
    """Gather back-substitution over fresh rows."""
    ideal = reference_ideal(lam, n)
    if len(ideal) == 1:
        return SymmetricPolynomial.monomial(lam, n)
    e_top = eigenvalue(lam)
    coeffs, rows = {}, {}
    for pos, nu in enumerate(ideal):
        if pos == 0:
            coeffs[nu] = Fraction(1)
        else:
            total = Fraction(0)
            for rho, c in coeffs.items():
                total += c * rows[rho].get(nu, Fraction(0))
            coeffs[nu] = total / (e_top - eigenvalue(nu))
        rows[nu] = apply_to_monomial(nu)
    return SymmetricPolynomial(n, coeffs)


def reference_mac_eigenvalue(nu, n, q, t):
    return sum(q ** nu[i] * t ** (n - 1 - i) for i in range(n))


def shapes(max_n, max_weight):
    return [(n, lam) for n in range(1, max_n + 1)
            for w in range(max_weight + 1) for lam in partitions_of(w, n)]


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(cache, "_MEMO", {})


@pytest.mark.parametrize("theta", THETAS)
def test_jack_expansions_match_the_reference_solver(theta, empty_memo):
    for n, lam in shapes(5, 8):
        expected = reference_solve(
            lam, n, lambda nu: _apply_jack_op(nu, n, theta),
            lambda nu: _jack_eigenvalue(nu, n, theta))
        assert jack_expand(lam, theta) == expected, (lam, theta)


@pytest.mark.parametrize("q, t", QTS)
def test_macdonald_expansions_match_the_reference_solver(q, t, empty_memo):
    for n, lam in shapes(4, 7):
        mp = MacdonaldParams(q, t, n)
        scale = _mac_scale(n, sum(lam), q, t)
        expected = reference_solve(
            lam, n, lambda nu: {mu: Fraction(c, scale) for mu, c in
                                _apply_macdonald_op(nu, n, q, t).items()},
            lambda nu: reference_mac_eigenvalue(nu, n, q, t))
        assert macdonald_expand(lam, mp) == expected, (lam, q, t)


def test_ideals_match_majorization():
    for n, lam in shapes(5, 9):
        assert dominance_ideal(lam, n) == reference_ideal(lam, n)


@pytest.mark.parametrize("lam, n", [((1, 2), 2), ((3, -1), 2), ((2, 1), 3),
                                    ((2, 1, 0), 2), ((Fraction(3, 2),
                                                      Fraction(1, 2)), 2)])
def test_non_partitions_have_no_ideal(lam, n):
    with pytest.raises(DomainError):
        dominance_ideal(lam, n)


@pytest.mark.parametrize("family", ["jack", "macdonald"])
def test_a_weight_block_builds_each_row_once(family, monkeypatch,
                                             empty_memo):
    n, w = 4, 7
    built = []
    module, name = ((jack, "_apply_jack_op") if family == "jack"
                    else (macdonald, "_apply_macdonald_op"))
    original = getattr(module, name)

    def counted(nu, *args):
        built.append(nu)
        return original(nu, *args)

    monkeypatch.setattr(module, name, counted)
    mp = MacdonaldParams(Fraction(1, 2), Fraction(1, 3), n)
    for lam in partitions_of(w, n):
        if family == "jack":
            jack_expand(lam, Fraction(2, 3))
        else:
            macdonald_expand(lam, mp)
    # every shape of the block lies in the ideal of (7, 0, 0, 0)
    assert Counter(built) == Counter(partitions_of(w, n))


def plant(family, nu, row):
    """Put row into the row table of nu's weight that the next solve reads;
    the parameters are theta = 2/3 and (q, t) = (1/2, 1/3) at n = 2."""
    if family == "jack":
        key = ("jack rows", 2, sum(nu), Fraction(2, 3))
    else:
        key = ("macdonald rows", (2, Fraction(1, 2), Fraction(1, 3)), sum(nu))
    cache._memoized(key, dict)[0][nu] = row


@pytest.mark.parametrize("family", ["jack", "macdonald"])
def test_a_table_row_with_a_wrong_diagonal_is_refused(family, empty_memo):
    if family == "jack":
        row = _apply_jack_op((2, 0), 2, Fraction(2, 3))
    else:
        row = _apply_macdonald_op((2, 0), 2, Fraction(1, 2), Fraction(1, 3))
    plant(family, (2, 0), {**row, (2, 0): row[(2, 0)] + 1})
    with pytest.raises(OperatorRowError, match="diagonal"):
        if family == "jack":
            jack_expand((2, 0), Fraction(2, 3))
        else:
            macdonald_expand((2, 0), MacdonaldParams(Fraction(1, 2),
                                                     Fraction(1, 3), 2))


def test_a_table_row_with_a_wrong_diagonal_is_refused_under_optimization():
    out, err = run_optimized("""
        from fractions import Fraction
        from omegalab import cache, errors, jack, macdonald

        th, q, t = Fraction(2, 3), Fraction(1, 2), Fraction(1, 3)
        for key, row, call in (
                (("jack rows", 2, 2, th), jack._apply_jack_op((2, 0), 2, th),
                 lambda: jack.jack_expand((2, 0), th)),
                (("macdonald rows", (2, q, t), 2),
                 macdonald._apply_macdonald_op((2, 0), 2, q, t),
                 lambda: macdonald.macdonald_expand(
                     (2, 0), macdonald.MacdonaldParams(q, t, 2)))):
            row[(2, 0)] += 1
            cache._memoized(key, dict)[0][(2, 0)] = row
            try:
                print("returned", call())
            except errors.OmegalabError as e:
                print(type(e).__name__)
    """)
    assert out == ["OperatorRowError"] * 2, err


def test_solver_reads_rows_without_changing_them():
    n, th = 4, Fraction(2, 3)
    rows = {nu: _apply_jack_op(nu, n, th) for nu in partitions_of(6, n)}
    before = {nu: dict(row) for nu, row in rows.items()}
    for lam in partitions_of(6, n):
        if len(dominance_ideal(lam, n)) > 1:
            solve_eigen_expansion(lam, n, rows.__getitem__,
                                  lambda nu: _jack_eigenvalue(nu, n, th))
    assert rows == before


def fraction_solve(lam, n, row, eigenvalue):
    """Scatter back-substitution with Fraction pending sums."""
    ideal = dominance_ideal(lam, n)
    e_top = Fraction(eigenvalue(lam))
    coeffs, pending = {}, {}
    for nu in ideal:
        if nu == lam:
            c = Fraction(1)
        else:
            c = pending.pop(nu, Fraction(0)) / (e_top - eigenvalue(nu))
        coeffs[nu] = c
        for mu, r in row(nu).items():
            if mu != nu:
                pending[mu] = pending.get(mu, Fraction(0)) + c * r
    return SymmetricPolynomial(n, coeffs)


def jack_case(n, w, theta):
    return ((lambda nu: _apply_jack_op(nu, n, theta)),
            (lambda nu: _jack_eigenvalue(nu, n, theta)),
            _jack_scale(theta))


def macdonald_case(n, w, q, t):
    return ((lambda nu: _apply_macdonald_op(nu, n, q, t)),
            (lambda nu: _mac_eigenvalue(nu, n, q, t)),
            _mac_scale(n, w, q, t))


@pytest.mark.parametrize("case, params, max_n, max_weight", [
    (jack_case, (Fraction(1, 3),), 6, 8),
    (jack_case, (Fraction(2, 3),), 6, 8),
    (jack_case, (Fraction(5),), 6, 8),
    (jack_case, (Fraction(7, 2),), 6, 8),
    (macdonald_case, (Fraction(1, 2), Fraction(1, 3)), 5, 7),
    (macdonald_case, (Fraction(9, 10), Fraction(1, 100)), 5, 7),
    (macdonald_case, (Fraction(2, 3), Fraction(3, 7)), 5, 7),
])
def test_integer_solve_is_the_fraction_back_substitution(case, params, max_n,
                                                         max_weight):
    # the same solve from the integer rows, from the rational rows (the
    # integer ones over their scale, which cancels in the solve), and by
    # Fraction back-substitution
    for n in range(1, max_n + 1):
        for w in range(max_weight + 1):
            row, eigenvalue, scale = case(n, w, *params)
            rows = {nu: row(nu) for nu in partitions_of(w, n)}
            rational = {nu: {mu: Fraction(c, scale) for mu, c in r.items()}
                        for nu, r in rows.items()}
            assert all(type(c) is int for r in rows.values()
                       for c in r.values())
            for lam in partitions_of(w, n):
                if is_dominance_minimum(lam):
                    continue
                solved = solve_eigen_expansion(lam, n, rows.__getitem__,
                                               eigenvalue)
                assert solved == fraction_solve(lam, n, rows.__getitem__,
                                                eigenvalue), (lam, params)
                assert solved == solve_eigen_expansion(
                    lam, n, rational.__getitem__,
                    lambda nu: Fraction(eigenvalue(nu), scale)), (lam, params)


def test_the_dominance_minimum_is_the_balanced_partition():
    for n in range(1, 8):
        for w in range(13):
            for lam in partitions_of(w, n):
                assert is_dominance_minimum(lam) == (
                    len(dominance_ideal(lam, n)) == 1), lam


@pytest.mark.parametrize("family", ["jack", "macdonald"])
def test_a_table_row_leaving_the_ideal_is_refused(family, empty_memo):
    # integer rows at n = 3: the row of (1, 1, 1) gains an entry at
    # (3, 0, 0), outside the ideal of (2, 1, 0)
    th, q, t = Fraction(2, 3), Fraction(1, 2), Fraction(1, 3)
    if family == "jack":
        key = ("jack rows", 3, 3, th)
        row = _apply_jack_op((1, 1, 1), 3, th)
    else:
        key = ("macdonald rows", (3, q, t), 3)
        row = _apply_macdonald_op((1, 1, 1), 3, q, t)
    cache._memoized(key, dict)[0][(1, 1, 1)] = {**row, (3, 0, 0): 1}
    with pytest.raises(OperatorRowError, match="leaves the dominance ideal"):
        if family == "jack":
            jack_expand((2, 1, 0), th)
        else:
            macdonald_expand((2, 1, 0), MacdonaldParams(q, t, 3))


def test_rational_rows_with_a_wrong_diagonal_are_refused():
    # the rows over their scale, one diagonal off by a third: refused
    # before the rows are put over one denominator
    n, th = 3, Fraction(2, 3)
    rows = {nu: {mu: Fraction(c, 3) for mu, c in
                 _apply_jack_op(nu, n, th).items()}
            for nu in partitions_of(3, n)}
    rows[(1, 1, 1)][(1, 1, 1)] += Fraction(1, 3)
    with pytest.raises(OperatorRowError, match="diagonal"):
        solve_eigen_expansion((3, 0, 0), n, rows.__getitem__,
                              lambda nu: Fraction(_jack_eigenvalue(nu, n, th),
                                                  3))


# sha256 of serialize_poly of every expansion below, in this order, one
# hash updated per expansion; recorded while the solve was still done in
# Fractions from rational rows
EXPANSION_DIGEST = ("e767f7e6619fa5322d4e9a6ba8ddfd13"
                    "8575d2298bc10a91235b61389b7fc0b5")


def test_expansions_match_the_pinned_digest(empty_memo):
    h = hashlib.sha256()
    for q, t in ((Fraction(1, 2), Fraction(1, 3)),
                 (Fraction(9, 10), Fraction(1, 100)),
                 (Fraction(2, 3), Fraction(3, 7))):
        mp = MacdonaldParams(q, t, 5)
        for w in range(9):
            for lam in partitions_of(w, 5):
                h.update(serialize_poly(macdonald_expand(lam, mp)).encode())
    for theta in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1),
                  Fraction(5), Fraction(7, 2)):
        for w in range(11):
            for lam in partitions_of(w, 6):
                h.update(serialize_poly(jack_expand(lam, theta)).encode())
    assert h.hexdigest() == EXPANSION_DIGEST
