"""The package's one in-process memo of expansions and normalizers, and the
checks between it and the disk cache."""

import tempfile
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from omegalab import cache
from omegalab.cache import ExpansionCache, activate, cache_key
from omegalab.errors import CacheFormatError
from omegalab.jack import jack_expand, omega_jack_eval
from omegalab.macdonald import (MacdonaldParams, _expand_uncached,
                                binomial_check, macdonald_expand,
                                omega_mac_eval)
from omegalab.partitions import partitions_of
from omegalab.sympoly import SymmetricPolynomial
from test_lab import run_optimized

HALF_THIRD = MacdonaldParams(Fraction(1, 2), Fraction(1, 3), 2)
KEY = "macdonald|n=2|lam=2,0|q=1/2|t=1/3"


def test_memo_stays_within_its_bound(monkeypatch):
    mp = MacdonaldParams(Fraction(1, 2), Fraction(1, 3), 3)
    x = (Fraction(3), Fraction(2), Fraction(1, 2))
    shapes = list(partitions_of(3, 3))

    def values():
        return ([omega_jack_eval(lam, theta, x)
                 for theta in (0, Fraction(2, 3), "inf") for lam in shapes]
                + [omega_mac_eval(lam, mp, x) for lam in shapes]
                + [binomial_check(lam, mp, x) for lam in shapes])

    monkeypatch.setattr(cache, "_MEMO", {})
    expected = values()
    sizes = []
    keys = set()
    memoized = cache._memoized

    def counted(*args):
        result = memoized(*args)
        sizes.append(len(cache._MEMO))
        keys.update(cache._MEMO)
        return result

    monkeypatch.setattr(cache, "MEMO_SIZE", 3)
    monkeypatch.setattr(cache, "_MEMO", {})
    monkeypatch.setattr(cache, "_memoized", counted)
    for _ in range(2):
        assert values() == expected
    assert max(sizes) == 3
    # the operator-row tables share the bound
    assert {key[0] for key in keys} >= {"jack rows", "macdonald rows"}


def test_memo_hit_reaches_no_disk_layer(monkeypatch, tmp_path):
    monkeypatch.setattr(cache, "_MEMO", {})
    calls = []
    fetch = cache.fetch

    def counted(*args, **kwargs):
        calls.append(args[:3])
        return fetch(*args, **kwargs)

    monkeypatch.setattr(cache, "fetch", counted)
    activate(ExpansionCache(str(tmp_path / "cache.txt")))
    try:
        first = macdonald_expand((2, 1), HALF_THIRD)
        second = macdonald_expand((2, 1), HALF_THIRD)
    finally:
        activate(None)
    assert first is second
    assert calls == [("macdonald", 2, (2, 1))]


def misfits():
    p = _expand_uncached((2, 0), HALF_THIRD)
    return [2 * p,                                      # m_(2,0) twice
            p + SymmetricPolynomial.monomial((1, 0)),   # outside the ideal
            SymmetricPolynomial(3, {(2, 0, 0): 1})]     # n = 3


@pytest.mark.parametrize("record", misfits())
def test_disk_record_that_misfits_its_key_is_recomputed(record, monkeypatch,
                                                        tmp_path):
    path = str(tmp_path / "cache.txt")
    ExpansionCache(path).put(KEY, record)
    monkeypatch.setattr(cache, "_MEMO", {})
    activate(ExpansionCache(path))
    try:
        with pytest.warns(UserWarning, match="recomputing"):
            got = macdonald_expand((2, 0), HALF_THIRD)
    finally:
        activate(None)
    p = _expand_uncached((2, 0), HALF_THIRD)
    assert got == p
    # the fresh record is appended and wins when the file is read again
    assert ExpansionCache(path).get(KEY) == p


@pytest.mark.parametrize("body", ["1,2: 1 ; 2,0: 1",      # not decreasing
                                  "2,0: 1 ; 1,1,0: 1"])   # wrong length
def test_record_with_a_bad_exponent_is_skipped(body, monkeypatch, tmp_path):
    # parse_poly checks each key itself and builds the polynomial without
    # the constructor's checks: a bad key still fails the record
    path = tmp_path / "cache.txt"
    good = "macdonald|n=2|lam=1,1|q=1/2|t=1/3\t1,1: 1\n"
    path.write_text(f"omegalab-cache v1\n{KEY}\t{body}\n{good}")
    with pytest.warns(UserWarning, match=r"cache\.txt:2: skipping corrupt"):
        disk = ExpansionCache(str(path))
    assert disk.get(KEY) is None and len(disk) == 1
    monkeypatch.setattr(cache, "_MEMO", {})
    activate(disk)
    try:
        assert macdonald_expand((2, 0), HALF_THIRD) == _expand_uncached(
            (2, 0), HALF_THIRD)
    finally:
        activate(None)


def test_keys_that_would_corrupt_the_format_raise(monkeypatch, tmp_path):
    path = str(tmp_path / "cache.txt")
    disk = ExpansionCache(path)
    record = 2 * _expand_uncached((2, 0), HALF_THIRD)
    for key in ("x\n" + KEY, "x\r" + KEY, "a\tb"):
        with pytest.raises(CacheFormatError):
            disk.put(key, record)
    with pytest.raises(CacheFormatError):
        cache_key("a|b", 2, (2, 0))
    assert len(ExpansionCache(path)) == 0
    monkeypatch.setattr(cache, "_MEMO", {})
    activate(ExpansionCache(path))
    try:
        assert macdonald_expand((2, 0), HALF_THIRD) == _expand_uncached(
            (2, 0), HALF_THIRD)
    finally:
        activate(None)


def test_keys_that_would_corrupt_the_format_raise_under_optimization(
        tmp_path):
    # python -O strips asserts; a record smuggled in after a line break
    # must still be refused
    out, err = run_optimized(f"""
        from fractions import Fraction
        from omegalab import errors, macdonald
        from omegalab.cache import ExpansionCache, activate, cache_key

        mp = macdonald.MacdonaldParams(Fraction(1, 2), Fraction(1, 3), 2)
        p = 2 * macdonald._expand_uncached((2, 0), mp)
        disk = ExpansionCache({str(tmp_path / "cache.txt")!r})
        for call in (lambda: disk.put("x\\n" + {KEY!r}, p),
                     lambda: cache_key("a|b", 2, (2, 0))):
            try:
                print("returned", call())
            except errors.CacheFormatError as e:
                print(type(e).__name__)
        activate(ExpansionCache(disk.path))
        print(macdonald.macdonald_expand((2, 0), mp)
              == macdonald._expand_uncached((2, 0), mp))
    """)
    assert out == ["CacheFormatError", "CacheFormatError", "True"], err



parameters = st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20),
                          max_denominator=20)


@st.composite
def expansions(draw):
    """(cache key, expansion call) for a drawn shape, family and parameter."""
    n = draw(st.integers(1, 4))
    lam = draw(st.sampled_from(list(partitions_of(draw(st.integers(0, 6)),
                                                  n))))
    if draw(st.booleans()):
        theta = draw(st.fractions(min_value=Fraction(1, 10), max_value=10,
                                  max_denominator=10))
        return (cache_key("jack", n, lam, theta=theta),
                lambda: jack_expand(lam, theta))
    q, t = draw(parameters), draw(parameters)
    mp = MacdonaldParams(q, t, n)
    return (cache_key("macdonald", n, lam, q=q, t=t),
            lambda: macdonald_expand(lam, mp))


@settings(max_examples=40, deadline=None)
@given(expansions())
def test_cold_disk_and_recomputed_expansions_agree(case):
    key, expand = case
    saved, prior = cache._MEMO, cache.active_cache()
    cache._MEMO = {}
    try:
        activate(None)
        cold = expand()
        with tempfile.TemporaryDirectory() as tmp:
            path, misfit_path = f"{tmp}/cache.txt", f"{tmp}/misfit.txt"
            activate(ExpansionCache(path))
            cache._MEMO.clear()
            assert expand() == cold
            # read back through a fresh object on the same file
            disk = ExpansionCache(path)
            assert disk.get(key) == cold
            activate(disk)
            cache._MEMO.clear()
            assert expand() == cold
            # a record that misfits its key is recomputed like a missing one
            ExpansionCache(misfit_path).put(key, 2 * cold)
            activate(ExpansionCache(misfit_path))
            cache._MEMO.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert expand() == cold
            assert any("recomputing" in str(w.message) for w in caught)
            assert ExpansionCache(misfit_path).get(key) == cold
        activate(None)
        cache._MEMO.clear()
        assert expand() == cold
    finally:
        cache._MEMO = saved
        activate(prior)
