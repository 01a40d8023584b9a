"""Point-bound exact evaluation: omega_jack_at and omega_mac_at against
fresh expansions, their refusals, what the sweeps and the hunt read from
the memo, and exact values pinned by digest."""

import hashlib
import json
from fractions import Fraction

import pytest

from omegalab import cache, jack, macdonald, sympoly
from omegalab.classical import expand_classical
from omegalab.errors import (CertificationError, DegeneracyError,
                             DimensionMismatchError, DomainError,
                             ParameterError)
from omegalab.jack import JackParam, jack_expand, omega_jack_at, omega_jack_eval
from omegalab.lab import (_json_value, _sample_points, check_log_convexity,
                          check_schur_convexity, find_witness, hunt_violation)
from omegalab.macdonald import (MacdonaldParams, lattice_point,
                                macdonald_expand, omega_mac_at,
                                omega_mac_eval)
from omegalab.partitions import Partition, majorizes, partitions_of
from omegalab.sampling import RationalSampler
from omegalab.sympoly import poly_eval_fresh

THETAS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1),
          Fraction(2), Fraction(5), "inf")
MAC_QT = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(9, 10), Fraction(1, 2)))
# criterion 11's parameter points
HUNT_QT = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(2, 3), Fraction(1, 2)),
           (Fraction(1, 3), Fraction(2, 3)), (Fraction(9, 10), Fraction(1, 2)),
           (Fraction(9, 10), Fraction(1, 100)))


def shapes(n, top=6):
    return [lam for w in range(top + 1) for lam in partitions_of(w, n)]


def points(n):
    """Two seeded rational points in [0, 5]^n and (n, ..., 1)."""
    sampler = RationalSampler(11, Fraction(0), Fraction(5))
    pts = [tuple(sorted(sampler.point(i, n), reverse=True)) for i in range(2)]
    return pts + [tuple(range(n, 0, -1))]


def mac_points(n, mp):
    """Two lattice points, then the off-lattice points of points(n)."""
    return [lattice_point(label, mp).coords
            for label in ((0,) * n, (2,) + (0,) * (n - 1))] + points(n)


def digest(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_jack_evaluator_is_the_fresh_quotient(n):
    ones = (Fraction(1),) * n
    for theta in THETAS:
        for x in points(n):
            omega = omega_jack_at(theta, x)
            for lam in shapes(n):
                if theta == "inf":
                    conj = Partition(lam).conjugate(max(lam[0], 1))
                    p = expand_classical("elementary", conj, n)
                else:
                    p = jack_expand(lam, theta)
                value = poly_eval_fresh(p, x) / poly_eval_fresh(p, ones)
                assert omega(lam) == value, (theta, lam, x)
                assert omega_jack_eval(lam, theta, x) == value


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_macdonald_evaluator_is_the_fresh_quotient(n):
    for q, t in MAC_QT:
        mp = MacdonaldParams(q, t, n)
        for x in mac_points(n, mp):
            omega = omega_mac_at(mp, x)
            for lam in shapes(n):
                p = macdonald_expand(lam, mp)
                value = (poly_eval_fresh(p, x)
                         / poly_eval_fresh(p, mp.t_delta()))
                assert omega(lam) == value, (q, t, lam, x)
                assert omega_mac_eval(lam, mp, x) == value


def raised(call):
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


def test_refusals_keep_their_type_and_message(monkeypatch):
    # theta first, then the point, then lambda, then the normalizer
    half = Fraction(1, 2)
    mp = MacdonaldParams(half, Fraction(1, 3), 3)
    assert raised(lambda: omega_jack_eval((1, 0), -1, (1, -1))) == (
        ParameterError, "need theta >= 0; got -1")
    assert raised(lambda: omega_jack_eval((1, 0), half, (1, Fraction(-1, 3)))
                  ) == (DomainError, "need nonnegative coordinates; got "
                                     "(Fraction(1, 1), Fraction(-1, 3))")
    assert raised(lambda: omega_jack_eval((1, 1, 1), half, (1, 2))) == (
        DimensionMismatchError, "partition (1, 1, 1) has more than n=2 parts")
    assert raised(lambda: omega_mac_eval((1, 0, 0), mp, (1, 2))) == (
        DimensionMismatchError, "point (1, 2) not of length 3")
    assert raised(lambda: omega_mac_eval((1, 2, 0), mp, (3, 2, 1))) == (
        DomainError, "parts not weakly decreasing: (1, 2, 0)")
    # a normalizer the family refuses, planted in the memo before any form
    # is built: every evaluation, one shape or a sweep row, refuses it
    monkeypatch.setattr(cache, "_MEMO", {})
    for theta in (half, "inf"):
        p, _ = jack._normalized((2, 1, 0), JackParam(theta))
        for key, entry in cache._MEMO.items():
            if entry[0] is p:
                entry[1] = Fraction(-3)
        message = (f"normalizer -3 of lambda=(2, 1, 0), "
                   f"theta={JackParam(theta)!r} at (1,...,1) is not positive")
        for call in (lambda: omega_jack_eval((2, 1), theta, (3, 2, 1)),
                     lambda: check_schur_convexity("jack", 3, 3, samples=2,
                                                   theta=theta)):
            assert raised(call) == (DegeneracyError, message)
    macdonald._normalized((2, 1, 0), mp)
    cache._MEMO[("macdonald", mp.key(), (2, 1, 0))][1] = Fraction(0)
    message = "P_(2, 1, 0) vanishes at t^delta for q=1/2, t=1/3"
    for call in (lambda: omega_mac_eval((2, 1), mp, (3, 2, 1)),
                 lambda: check_schur_convexity("macdonald-lattice", 3, 3,
                                               q=mp.q, t=mp.t, label_bound=1)):
        assert raised(call) == (DegeneracyError, message)


def test_hunt_refuses_a_corrupted_cleared_form(monkeypatch):
    # the lattice-only hunt finds nothing on sound values.  Scale the
    # cached form of Omega_(1,1) up a billion times: the hunt now sees
    # Omega_(2,0) < Omega_(1,1), and certification, which reads no form
    # and no memo entry, must refuse it
    mp = MacdonaldParams(Fraction(2, 5), Fraction(3, 7), 2)
    monkeypatch.setattr(cache, "_MEMO", {})
    hunt = lambda: hunt_violation(mp.q, mp.t, n=2, max_weight=2,
                                  lattice_only=True, label_bound=2)
    assert hunt()[0] is None
    entry = cache._MEMO[("macdonald", mp.key(), (1, 1))]
    b, den, top, terms = entry[2]
    entry[2] = (b * 10 ** 9, den, top, terms)
    with pytest.raises(CertificationError):
        hunt()


def test_sweeps_clear_each_point_once(monkeypatch):
    # with the memo warm, a sweep clears each point of denominators once,
    # however many shapes its row holds, and the lattice-only hunt once per
    # lattice point it visits
    monkeypatch.setattr(cache, "_MEMO", {})
    mp = MacdonaldParams(Fraction(1, 2), Fraction(1, 3), 3)
    lattice = [lattice_point(label, mp).coords
               for label in ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))]
    sweeps = (
        (lambda: check_schur_convexity("jack", 3, 5, samples=4, seed=2,
                                       theta=Fraction(1, 2)),
         _sample_points(4, 3, 0, 10, 2, as_float=False)),
        (lambda: check_log_convexity("macdonald-lattice", 3, 4, q=mp.q,
                                     t=mp.t, label_bound=1), lattice),
        (lambda: hunt_violation(mp.q, mp.t, n=3, max_weight=5,
                                lattice_only=True, label_bound=1), lattice))
    cleared = sympoly._cleared
    for sweep, expected in sweeps:
        sweep()
        seen = []

        def counted(x):
            seen.append(tuple(x))
            return cleared(x)

        monkeypatch.setattr(sympoly, "_cleared", counted)
        sweep()
        monkeypatch.setattr(sympoly, "_cleared", cleared)
        assert seen == [tuple(map(Fraction, x)) for x in expected]


# sha256 of exact outputs, recorded before the sweeps bound one evaluator
# per point: witness JSON, criterion 11's hunts with two lattice-only
# hunts and an n = 4 one, and grids of Omega values
PINNED = {
    "witnesses":
        "b4a1df174471270b58af414c42e92f51c7466ba72f9f64f74c62ceb3d7694c9c",
    "hunts":
        "62001249c6193055fccc0c0a7bd0e938cfbd13db689ee9dd634b0d5820a98416",
    "jack values":
        "b43416a5c8434763ee1a2b07b10c46f605323e269ade3a030e5c0d18e2469a1e",
    "macdonald values":
        "4c8e7dcd5666c1f8fcb807988290472570558340050900b64dfbc268e10819e8",
}


def pinned_witnesses():
    out = []
    for n in (3, 4):
        for w in range(7):
            for lam in partitions_of(w, n):
                for mu in partitions_of(w, n):
                    if majorizes(lam, mu):
                        continue
                    for family, kw in (("jack", {"theta": Fraction(1, 2)}),
                                       ("jack", {"theta": 2}),
                                       ("macdonald-lattice",
                                        {"q": Fraction(1, 2),
                                         "t": Fraction(1, 3)})):
                        wit = find_witness(lam, mu, family, **kw)
                        out.append([family, wit.to_json(),
                                    {k: _json_value(v)
                                     for k, v in wit.params.items()}])
    return out


def pinned_hunts():
    runs = [dict(q=q, t=t, n=n, max_weight=6, budget=100000, seed=0)
            for q, t in HUNT_QT for n in (2, 3)]
    runs += [dict(q=q, t=t, n=n, max_weight=6, lattice_only=True,
                  label_bound=2) for q, t in MAC_QT for n in (2, 3)]
    runs.append(dict(q=Fraction(1, 2), t=Fraction(1, 3), n=4, max_weight=8))
    out = []
    for kw in runs:
        witness, probes = hunt_violation(**kw)
        out.append([None if witness is None else witness.to_json(), probes])
    return out


def pinned_jack_values():
    return [str(omega_jack_eval(lam, theta, x))
            for n in (1, 2, 3, 4) for theta in THETAS
            for x in points(n) for lam in shapes(n)]


def pinned_macdonald_values():
    out = []
    for n in (1, 2, 3, 4):
        for q, t in MAC_QT:
            mp = MacdonaldParams(q, t, n)
            out += [str(omega_mac_eval(lam, mp, x))
                    for x in mac_points(n, mp) for lam in shapes(n)]
    return out


@pytest.mark.parametrize("name, values", [
    ("witnesses", pinned_witnesses), ("hunts", pinned_hunts),
    ("jack values", pinned_jack_values),
    ("macdonald values", pinned_macdonald_values)])
def test_exact_values_match_pinned_digest(name, values):
    assert digest(values()) == PINNED[name]
