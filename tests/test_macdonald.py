"""Macdonald expansions, the evaluation lattice, shifted polynomials, and
the binomial and inversion identities at fixed rational parameters."""

import itertools
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import omegalab
from omegalab import macdonald
from omegalab.cache import ExpansionCache, activate, cache_key, fetch
from omegalab.errors import (DimensionMismatchError, DomainError,
                             ParameterError)
from omegalab.macdonald import (MAX_ROW_STEPS, MacdonaldParams,
                                _alternant_terms, _apply_macdonald_op,
                                _expand_uncached, _mac_scale, binomial_check,
                                interpolation_node, inversion_check,
                                lattice_point, macdonald_expand,
                                omega_mac_eval, rational_power,
                                shifted_macdonald)
from omegalab.partitions import partitions_of
from omegalab.sympoly import SymmetricPolynomial, distinct_permutations

HALF_THIRD = MacdonaldParams(Fraction(1, 2), Fraction(1, 3), 2)


def rational_qt():
    f = st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10),
                     max_denominator=10)
    return st.tuples(f, f)


def test_params_validation():
    with pytest.raises(ParameterError):
        MacdonaldParams(Fraction(3, 2), Fraction(1, 3), 2)
    with pytest.raises(ParameterError):
        MacdonaldParams(Fraction(1, 2), Fraction(1, 3), 0)
    with pytest.raises(ParameterError):
        MacdonaldParams(Fraction(1, 2), Fraction(1, 3), 2, a=0)


def test_rational_power():
    assert rational_power(Fraction(1, 4), Fraction(1, 2)) == Fraction(1, 2)
    assert rational_power(Fraction(8, 27), Fraction(2, 3)) == Fraction(4, 9)
    with pytest.raises(ParameterError):
        rational_power(Fraction(1, 2), Fraction(1, 2))
    # roots are exact integer roots, even beyond float range
    assert rational_power(Fraction(3 ** 1000), Fraction(1, 2)) == 3 ** 500
    with pytest.raises(ParameterError):
        rational_power(Fraction(3 ** 1001), Fraction(1, 2))


def test_alternant_terms_match_the_definition():
    # every (eta, w delta) with eta + w delta strictly decreasing, from all
    # n! placements; the sign counts the pairs i < j with d_i < d_j
    for n in range(1, 5):
        for w in range(5):
            for nu in partitions_of(w, n):
                expected = []
                for eta in distinct_permutations(nu):
                    for d in itertools.permutations(range(n - 1, -1, -1)):
                        s = [e + v for e, v in zip(eta, d)]
                        if all(a > b for a, b in zip(s, s[1:])):
                            flips = sum(d[i] < d[j] for i in range(n)
                                        for j in range(i + 1, n))
                            kappa = tuple(v - (n - 1 - i)
                                          for i, v in enumerate(s))
                            expected.append((kappa, (-1) ** flips, eta, d))
                assert sorted(_alternant_terms(nu, n)) == sorted(expected)


def alternant_terms_reference(nu: tuple, n: int):
    """_alternant_terms as it was before each entry scanned only the values
    that can fit: every unplaced value at every entry, tested against the
    entry's bounds and for membership in the placed tuple."""
    for eta in distinct_permutations(nu):
        low = list(eta)
        for i in range(n - 2, -1, -1):
            low[i] = max(eta[i], low[i + 1] + 1)
        stack = [((), -1, 1)]
        while stack:
            d, prev, sign = stack.pop()
            i = len(d)
            if i == n:
                yield (tuple(eta[k] + d[k] - (n - 1 - k) for k in range(n)),
                       sign, eta, d)
                continue
            above = 0
            for v in range(n - 1, -1, -1):
                if v in d:
                    continue
                if (prev < 0 or eta[i] + v < prev) and eta[i] + v >= low[i]:
                    stack.append((d + (v,), eta[i] + v, -sign if above % 2
                                  else sign))
                above += 1


def test_alternant_walk_matches_the_full_scan(monkeypatch):
    # the same terms in the same order, signs included, for every shape
    # with n <= 7 and weight <= 7; and the same Kostka table on 20
    # variables, which the full scan built at O(n) per node
    for n in range(1, 8):
        for w in range(8):
            for nu in partitions_of(w, n):
                assert (list(_alternant_terms(nu, n))
                        == list(alternant_terms_reference(nu, n))), nu
    kostka = macdonald._kostka.__wrapped__
    table = kostka(20, 2)
    monkeypatch.setattr(macdonald, "_alternant_terms",
                        alternant_terms_reference)
    assert kostka(20, 2) == table


def test_rows_stay_polynomial_in_n():
    # the walk once grew as 2^n here: 29 s at n = 16
    p = macdonald_expand((2,), MacdonaldParams(Fraction(1, 2),
                                               Fraction(1, 3), 16))
    assert p.coefficient((2,)) == 1 and p.coefficient((1, 1)) == Fraction(6, 5)


def test_rows_past_the_ceiling_are_refused():
    # the Kostka table of weight 3 on 100 variables, before any walk
    steps = math.comb(102, 99) * (100 * 100 + 3)
    assert steps > MAX_ROW_STEPS
    with pytest.raises(ParameterError,
                       match=f"{steps} steps, past the ceiling of "
                             f"{MAX_ROW_STEPS}"):
        macdonald_expand((3,), MacdonaldParams(Fraction(1, 2),
                                               Fraction(1, 3), 100))


def test_the_row_ceiling_is_two_to_the_twenty_eighth(monkeypatch):
    # weight 3: the table on 68 variables is admitted (its walk is stubbed
    # out at its first step), the one on 69 is refused before any walk
    class Walked(Exception):
        pass

    def walk(*args):
        raise Walked

    monkeypatch.setattr(macdonald, "_alternant_terms", walk)
    kostka = macdonald._kostka.__wrapped__
    assert math.comb(70, 67) * (68 * 68 + 3) <= 2 ** 28
    with pytest.raises(Walked):
        kostka(68, 3)
    assert math.comb(71, 68) * (69 * 69 + 3) > 2 ** 28
    with pytest.raises(ParameterError, match="past the ceiling of 268435456"):
        kostka(69, 3)


def test_expansion_triangular_coefficient():
    # dominance-triangular with the known mixing coefficient
    # c = (1 + q)(1 - t)/(1 - q t) on the weight-2 ideal
    for q, t in ((Fraction(1, 2), Fraction(1, 3)),
                 (Fraction(2, 3), Fraction(1, 2)),
                 (Fraction(9, 10), Fraction(1, 2))):
        params = MacdonaldParams(q, t, 2)
        p = macdonald_expand((2, 0), params)
        expected = (1 + q) * (1 - t) / (1 - q * t)
        assert p.coefficient((2, 0)) == 1
        assert p.coefficient((1, 1)) == expected


def test_normalized_value_at_ones():
    # full chain at (q, t) = (1/2, 1/3): c = 6/5, P(t^delta) = 68/45,
    # P(1,1) = 16/5, ratio 36/17
    p = macdonald_expand((2, 0), HALF_THIRD)
    c = p.coefficient((1, 1))
    assert c == Fraction(6, 5)
    t_delta = (Fraction(1, 3), Fraction(1))
    principal = (Fraction(1, 9) + 1) + c * Fraction(1, 3)
    assert principal == Fraction(68, 45)
    value = omega_mac_eval((2, 0), HALF_THIRD, (1, 1))
    assert value == (2 + c) / principal == Fraction(36, 17)
    assert p.eval(t_delta) == principal


def test_equal_parameters_give_schur():
    # q = t collapses P to the Schur polynomial: s_(2,1) = m_21 + 2 m_111
    params = MacdonaldParams(Fraction(1, 2), Fraction(1, 2), 3)
    p = macdonald_expand((2, 1, 0), params)
    assert p.coefficient((2, 1, 0)) == 1
    assert p.coefficient((1, 1, 1)) == 2


@settings(deadline=None, max_examples=20)
@given(rational_qt())
def test_eigenfunction_property(qt):
    # D P = eigenvalue * P, re-checked directly from the operator action
    q, t = qt
    if q == t:
        return
    params = MacdonaldParams(q, t, 2)
    lam = (2, 0)
    p = macdonald_expand(lam, params)
    image = {}
    for key, coeff in p.terms.items():
        scale = _mac_scale(params.n, sum(key), q, t)
        for nu, c in _apply_macdonald_op(key, params.n, q, t).items():
            image[nu] = (image.get(nu, Fraction(0))
                         + coeff * Fraction(c, scale))
    eig = sum(q ** lam[i] * t ** (params.n - 1 - i) for i in range(2))
    for key, coeff in p.terms.items():
        assert image.get(key, Fraction(0)) == eig * coeff


def test_monic_and_dominance_support():
    params = MacdonaldParams(Fraction(2, 3), Fraction(1, 2), 3)
    p = macdonald_expand((3, 1, 0), params)
    assert p.coefficient((3, 1, 0)) == 1
    for key in p.terms:
        # support lives weakly below lambda in dominance order
        assert sum(key) == 4
        assert key[0] <= 3


def test_lattice_point_coordinates():
    point = lattice_point((1, 0), HALF_THIRD)
    assert point.coords == (Fraction(2), Fraction(1, 3))
    # the zero label is the principal specialization scaled by a
    scaled = MacdonaldParams(Fraction(1, 2), Fraction(1, 3), 2, a=Fraction(1, 2))
    assert lattice_point((0, 0), scaled).coords == (Fraction(1, 2), Fraction(1, 6))


def test_lattice_shift_rescales():
    base = lattice_point((2, 1), HALF_THIRD).coords
    shifted = lattice_point((3, 2), HALF_THIRD).coords
    q = HALF_THIRD.q
    assert shifted == tuple(v / q for v in base)


def test_lattice_label_validation():
    with pytest.raises(DomainError):
        lattice_point((0, 1), HALF_THIRD)
    with pytest.raises(DimensionMismatchError):
        lattice_point((1, 0, 0), HALF_THIRD)


def test_lattice_points_remain_decreasing():
    # negative labels are allowed and coordinates stay strictly decreasing
    for label in ((0, 0), (1, 0), (2, 2), (3, 1), (0, -2), (-1, -3)):
        coords = lattice_point(label, HALF_THIRD).coords
        assert coords[0] > coords[1] > 0


def test_inversion_identity():
    for lam in ((1, 0), (2, 0), (2, 1), (2, 2)):
        lhs, rhs, equal = inversion_check(lam, HALF_THIRD, (3, 2))
        assert equal, (lam, lhs, rhs)


def test_interpolation_node_layout():
    node = interpolation_node((1, 0), HALF_THIRD)
    # z_i = q^kappa_i t^(n-i): ((1/2)(1/3), 1)
    assert node == (Fraction(1, 6), Fraction(1))


def test_shifted_vanishing_and_normalization():
    params = HALF_THIRD
    mu = (2, 0)
    star = shifted_macdonald(mu, params)
    assert star.eval_label(mu) == 1
    for w in range(sum(mu) + 1):
        for kappa in partitions_of(w, params.n):
            if kappa != mu:
                assert star.eval_label(kappa) == 0, kappa


def test_shifted_eval_at_q_to_the_kappa_is_eval_label():
    # eval takes u and shifts it to z_i = u_i t^(n-i); at u = q^kappa that
    # is the grid point eval_label reads
    params = MacdonaldParams(Fraction(1, 2), Fraction(1, 3), 3)
    for mu in ((2, 1, 0), (2, 0, 0), (1, 1, 1)):
        star = shifted_macdonald(mu, params)
        assert star.degree == sum(mu)
        for w in range(star.degree + 2):
            for kappa in partitions_of(w, params.n):
                u = tuple(params.q ** k for k in kappa)
                assert star.eval(u) == star.eval_label(kappa), (mu, kappa)
        assert star.eval(tuple(params.q ** k for k in mu)) == 1


def test_shifted_symmetry_in_shifted_variables():
    star = shifted_macdonald((2, 1), HALF_THIRD)
    z = (Fraction(5, 7), Fraction(3, 2))
    assert star.eval_shifted(z) == star.eval_shifted((z[1], z[0]))


def test_binomial_residual_zero_smoke():
    for lam in ((1, 0), (2, 0), (2, 1)):
        assert binomial_check(lam, HALF_THIRD, (Fraction(7, 2), Fraction(1, 5))) == 0


def test_top_degree_of_interpolation_is_macdonald():
    # the weight-|mu| component of the shifted polynomial is P_mu itself
    mu = (2, 1)
    params = MacdonaldParams(Fraction(2, 3), Fraction(1, 2), 2)
    star = shifted_macdonald(mu, params)
    p = macdonald_expand(mu, params)
    top = {k: v for k, v in star.zpoly.terms.items() if sum(k) == sum(mu)}
    ratio = star.zpoly.coefficient(mu)
    assert ratio != 0
    for key, coeff in p.terms.items():
        assert top.get(key, Fraction(0)) == ratio * coeff


def test_cache_key_format():
    key = cache_key("macdonald", 2, (2, 0), q=Fraction(1, 2), t=Fraction(1, 3))
    assert key == "macdonald|n=2|lam=2,0|q=1/2|t=1/3"


def test_cache_round_trip(tmp_path):
    path = tmp_path / "expansions.txt"
    cache = ExpansionCache(str(path))
    p = _expand_uncached((2, 0), HALF_THIRD)
    key = cache_key("macdonald", 2, (2, 0), q=HALF_THIRD.q, t=HALF_THIRD.t)
    cache.put(key, p)
    reread = ExpansionCache(str(path))
    assert reread.get(key) == p
    # corrupt records are skipped with a warning, not trusted
    with open(path, "a") as fh:
        fh.write("garbage without a tab\n")
    with pytest.warns(UserWarning):
        tolerant = ExpansionCache(str(path))
    assert tolerant.get(key) == p


def test_cache_holds_rationals_past_the_digit_limit(tmp_path):
    # str() and int() refuse integers of more than 4300 decimal digits
    path = str(tmp_path / "expansions.txt")
    p = SymmetricPolynomial(2, {(2, 0): 10 ** 5000 + 3,
                                (1, 1): Fraction(-7, 10 ** 8999 + 1)})
    ExpansionCache(path).put("big|n=2", p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ExpansionCache(path).get("big|n=2") == p


WRITER = """
import os, sys, time
from omegalab.cache import ExpansionCache
from omegalab.sympoly import SymmetricPolynomial
path, go, worker = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = ExpansionCache(path)
while not os.path.exists(go):
    time.sleep(0.001)
for i in range(RECORDS):
    cache.put(f"long|worker={worker}|i={i}", SymmetricPolynomial(
        2, {(k, 0): 10 ** 4000 * k + 100 * i + worker for k in range(1, 6)}))
"""


def test_concurrent_writers_leave_whole_records(tmp_path):
    # each record is about 20 KiB, more than twice a default I/O buffer
    records, workers = 40, 4
    path, go = tmp_path / "shared.txt", tmp_path / "go"
    ExpansionCache(str(path))
    src = os.path.dirname(os.path.dirname(omegalab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    script = WRITER.replace("RECORDS", str(records))
    procs = [subprocess.Popen([sys.executable, "-c", script, str(path),
                               str(go), str(w)], env=env)
             for w in range(workers)]
    go.touch()
    assert all(proc.wait(timeout=120) == 0 for proc in procs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reread = ExpansionCache(str(path))
    assert len(reread) == records * workers
    for w in range(workers):
        for i in range(records):
            poly = reread.get(f"long|worker={w}|i={i}")
            assert poly.terms == {(k, 0): 10 ** 4000 * k + 100 * i + w
                                  for k in range(1, 6)}


def test_fetch_uses_active_cache(tmp_path):
    path = tmp_path / "cache.txt"
    direct = _expand_uncached((2, 1), HALF_THIRD)
    calls = []

    def compute():
        calls.append(1)
        return _expand_uncached((2, 1), HALF_THIRD)

    activate(ExpansionCache(str(path)))
    try:
        first = fetch("macdonald", 2, (2, 1), compute,
                      q=HALF_THIRD.q, t=HALF_THIRD.t)
        second = fetch("macdonald", 2, (2, 1), compute,
                       q=HALF_THIRD.q, t=HALF_THIRD.t)
    finally:
        activate(None)
    assert first == direct == second
    # the second call must come from the cache, not a recompute
    assert len(calls) == 1
    key = cache_key("macdonald", 2, (2, 1), q=HALF_THIRD.q, t=HALF_THIRD.t)
    assert ExpansionCache(str(path)).get(key) == direct


def test_expand_rejects_bad_dimensions():
    with pytest.raises(DimensionMismatchError):
        macdonald_expand((2, 0, 0), HALF_THIRD)
