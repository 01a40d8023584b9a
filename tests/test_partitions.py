"""Partition arithmetic, majorization orders, and pair enumeration."""

import contextlib
import io
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from omegalab.classical import (expand_classical, muirhead_eval, muirhead_gap,
                                powersum_compare, powersum_eval)
from omegalab.cli import run
from omegalab.errors import DimensionMismatchError, DomainError
from omegalab.heckman_opdam import (HOParams, QuadratureConfig,
                                    ho_jack_consistency)
from omegalab.jack import omega_jack_eval
from omegalab.macdonald import (MacdonaldParams, lattice_point,
                                macdonald_expand, omega_mac_eval,
                                shifted_macdonald)
from omegalab import partitions as partitions_module
from omegalab.partitions import (ORDER_MODES, Partition, contains,
                                 enumerate_pairs, enumerate_partitions,
                                 majorizes, midpoint, order_covers,
                                 partition_key, partitions_of,
                                 weakly_majorizes)
from omegalab.sympoly import SymmetricPolynomial, monomial_eval


def partitions(max_len=4, max_part=6):
    return (st.lists(st.integers(0, max_part), min_size=1, max_size=max_len)
            .map(lambda v: Partition(sorted(v, reverse=True))))


def test_construction_and_validation():
    p = Partition((3, 1, 0))
    assert p.parts == (3, 1, 0)
    assert p.weight == 4
    assert p.n == 3
    with pytest.raises(DomainError):
        Partition((1, 2))
    with pytest.raises(DomainError):
        Partition((2, -1))


def test_fractional_parts_are_refused():
    # int() would truncate (2.5, 1) to (2, 1) and evaluate the wrong shape
    for parts in ((2.5, 1), (2, Fraction(1, 2)), (3, 1.000001)):
        with pytest.raises(DomainError):
            Partition(parts)
    with pytest.raises(DomainError):
        omega_jack_eval((2.5, 1), 1, (2, 1))
    assert Partition((2.0, Fraction(1))).parts == (2, 1)


def test_pad_extends_with_zeros():
    assert Partition((2, 1)).pad(4).parts == (2, 1, 0, 0)
    assert Partition((2, 1)).pad(2).parts == (2, 1)
    with pytest.raises(DimensionMismatchError):
        Partition((2, 1)).pad(1)


def test_conjugate_small_cases():
    assert Partition((3, 1)).conjugate().parts == (2, 1, 1)
    assert Partition((2, 2)).conjugate().parts == (2, 2)
    # zero partition conjugates to a zero row of requested length
    assert Partition((0, 0)).conjugate(3).parts == (0, 0, 0)


@given(partitions())
def test_conjugate_is_an_involution(p):
    width = max(p.parts[0], p.n) if p.parts else p.n
    back = p.conjugate(width).conjugate(p.n)
    assert back.parts == p.parts


@given(partitions(max_len=3, max_part=5), partitions(max_len=3, max_part=5))
def test_conjugation_reverses_majorization(a, b):
    # lam majorizes mu iff the conjugate of mu majorizes the conjugate of lam
    if a.weight != b.weight:
        return
    width = max(a.parts[0] if a.parts else 0, b.parts[0] if b.parts else 0, 1)
    ac, bc = a.conjugate(width), b.conjugate(width)
    assert majorizes(a.pad(3), b.pad(3)) == majorizes(bc, ac)


def test_majorizes_classics():
    assert majorizes((2, 0), (1, 1))
    assert not majorizes((1, 1), (2, 0))
    assert majorizes((3, 1, 0), (2, 1, 1))
    # equal weight but incomparable in both directions
    assert not majorizes((4, 1, 1), (3, 3, 0))
    assert not majorizes((3, 3, 0), (4, 1, 1))
    # unequal totals never compare
    assert not majorizes((2, 0), (1, 0))


@given(partitions(max_len=3))
def test_majorization_is_reflexive(p):
    assert majorizes(p, p)
    assert weakly_majorizes(p, p)


@given(partitions(max_len=3, max_part=4), partitions(max_len=3, max_part=4),
       partitions(max_len=3, max_part=4))
def test_majorization_is_transitive(a, b, c):
    a, b, c = a.pad(3), b.pad(3), c.pad(3)
    if majorizes(a, b) and majorizes(b, c):
        assert majorizes(a, c)
    if weakly_majorizes(a, b) and weakly_majorizes(b, c):
        assert weakly_majorizes(a, c)


@given(partitions(max_len=3, max_part=4), partitions(max_len=3, max_part=4))
def test_majorization_is_antisymmetric(a, b):
    a, b = a.pad(3), b.pad(3)
    if majorizes(a, b) and majorizes(b, a):
        assert a.parts == b.parts


@given(partitions(max_len=4, max_part=4), partitions(max_len=4, max_part=4))
def test_containment_implies_weak_majorization(a, b):
    a, b = a.pad(4), b.pad(4)
    if contains(a, b):
        assert weakly_majorizes(a, b)


def test_weak_majorization_drops_weight_equality():
    assert weakly_majorizes((2, 1), (1, 1))
    assert not weakly_majorizes((1, 1), (2, 1))
    assert not majorizes((2, 1), (1, 1))


def test_midpoint():
    assert midpoint(Partition((2, 0)), Partition((0, 0))).parts == (1, 0)
    assert midpoint(Partition((2, 1)), Partition((2, 1))).parts == (2, 1)
    assert midpoint(Partition((2, 0)), Partition((1, 0))) is None
    with pytest.raises(DimensionMismatchError):
        midpoint(Partition((2, 0)), Partition((1, 1, 0)))


def test_partitions_of_counts():
    assert list(partitions_of(0, 2)) == [(0, 0)]
    assert list(partitions_of(3, 2)) == [(3, 0), (2, 1)]
    assert list(partitions_of(4, 2, bound=2)) == [(2, 2)]
    # classic table: partitions of 6 into at most 3 parts
    assert len(list(partitions_of(6, 3))) == 7


def test_enumerate_partitions_ordering_and_count():
    parts = enumerate_partitions(3, 6)
    assert len(parts) == 1 + 1 + 2 + 3 + 4 + 5 + 7
    weights = [p.weight for p in parts]
    assert weights == sorted(weights)
    assert parts[0].parts == (0, 0, 0)


def test_enumerate_pairs_same_weight_comparable():
    pairs = list(enumerate_pairs(2, 4, "same-weight-comparable"))
    assert (Partition((2, 0)), Partition((1, 1))) in pairs
    for lam, mu in pairs:
        assert lam.weight == mu.weight
        assert lam.parts != mu.parts
        assert majorizes(lam, mu)


def test_enumerate_pairs_midpoint_integral():
    pairs = list(enumerate_pairs(2, 2, "midpoint-integral"))
    # unequal weights allowed as long as the midpoint has integer entries
    assert (Partition((2, 0)), Partition((0, 0))) in pairs
    assert (Partition((1, 1)), Partition((1, 1))) in pairs
    for lam, mu in pairs:
        assert lam.parts >= mu.parts
        assert midpoint(lam, mu) is not None


def test_enumerate_pairs_weak_comparable():
    pairs = list(enumerate_pairs(2, 3, "weak-comparable"))
    assert (Partition((2, 1)), Partition((1, 1))) in pairs
    for lam, mu in pairs:
        assert weakly_majorizes(lam, mu)


def test_enumerate_pairs_is_deterministic():
    for mode in ("same-weight-comparable", "midpoint-integral",
                 "weak-comparable"):
        a = list(enumerate_pairs(3, 4, mode))
        b = list(enumerate_pairs(3, 4, mode))
        assert a == b
        assert len(set((l.parts, m.parts) for l, m in a)) == len(a)


def test_enumerate_pairs_rejects_unknown_mode():
    with pytest.raises(DomainError):
        list(enumerate_pairs(2, 2, "nonsense"))


def transitive_reduction(pairs) -> set:
    """The pairs (a, b), a != b, with no c strictly between them."""
    strict = {(a, b) for a, b in pairs if a != b}
    above = {}
    for a, b in strict:
        above.setdefault(a, set()).add(b)
    return {(a, b) for a, b in strict
            if not any((c, b) in strict for c in above[a] - {b})}


@pytest.mark.parametrize("mode", ORDER_MODES)
def test_order_covers_are_the_transitive_reduction_of_the_pairs(mode):
    for n in range(1, 7):
        for max_weight in range(9):
            pairs = list(enumerate_pairs(n, max_weight, mode))
            covers, count = order_covers(n, max_weight, mode)
            assert len(set(covers)) == len(covers)
            assert set(covers) == transitive_reduction(pairs)
            assert count == len(pairs)


def test_order_covers_refuse_what_enumerate_pairs_refuses():
    for n, max_weight in ((0, 3), (-1, 3), (2, -1)):
        for mode in ORDER_MODES:
            with pytest.raises(DomainError) as listed:
                list(enumerate_pairs(n, max_weight, mode))
            with pytest.raises(DomainError) as covered:
                order_covers(n, max_weight, mode)
            assert str(covered.value) == str(listed.value)
    for mode in ("nonsense", "midpoint-integral"):
        with pytest.raises(DomainError):
            order_covers(2, 2, mode)


# -- one length rule for a partition on n variables ---------------------------

X3 = (3, 2, 1)
MP3 = MacdonaldParams(Fraction(1, 2), Fraction(1, 3), 3)
POLY3 = SymmetricPolynomial(3, {(2, 1, 0): 3, (1, 1, 1): 6})


def cli_outcome(command, lam):
    """(exit code, stdout) of the command for --lambda lam on n = 3."""
    argv = {"expand": ["expand", "--family", "classical", "--n", "3"],
            "eval": ["eval", "--family", "jack", "--theta", "1/2", "--n",
                     "3", "--x", "3,2,1"]}[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(argv + ["--lambda", ",".join(map(str, lam))])
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


# every entry takes a partition for n = 3 variables, with its value at
# (2, 1, 0); monomial_eval sorts its exponents first, so an increasing
# input names the same orbit there
RULE_ENTRIES = {
    "partition_key": (lambda lam: partitions_module.partition_key(lam, 3),
                      (2, 1, 0)),
    "Partition.pad": (lambda lam: Partition(lam).pad(3).parts, (2, 1, 0)),
    "SymmetricPolynomial.coefficient": (POLY3.coefficient, 3),
    "SymmetricPolynomial.monomial": (
        lambda lam: SymmetricPolynomial.monomial(lam, 3),
        SymmetricPolynomial(3, {(2, 1, 0): 1})),
    "monomial_eval": (lambda lam: monomial_eval(lam, X3), 48),
    "expand_classical": (
        lambda lam: expand_classical("monomial", lam, 3),
        SymmetricPolynomial(3, {(2, 1, 0): 1})),
    "muirhead_eval": (lambda lam: muirhead_eval(lam, X3), 8),
    "muirhead_gap": (lambda lam: muirhead_gap(lam, (1, 1, 1), X3), 2),
    "powersum_eval": (lambda lam: powersum_eval(lam, X3), 252),
    "powersum_compare": (lambda lam: powersum_compare(lam, (1, 1, 1), X3),
                         (252, 216, "+")),
    "omega_jack_eval": (lambda lam: omega_jack_eval(lam, Fraction(1, 2), X3),
                        Fraction(38, 5)),
    "omega_mac_eval": (lambda lam: omega_mac_eval(lam, MP3, X3),
                       Fraction(63423, 689)),
    "macdonald_expand": (
        lambda lam: macdonald_expand(lam, MP3),
        SymmetricPolynomial(3, {(2, 1, 0): 1, (1, 1, 1): Fraction(38, 17)})),
    "shifted_macdonald": (lambda lam: shifted_macdonald(lam, MP3).mu,
                          (2, 1, 0)),
    "ho_jack_consistency": (
        lambda lam: ho_jack_consistency(lam, HOParams(1, 3),
                                        (0.5, 0.2, -0.4), QuadratureConfig(8))
        < 1e-12, True),
    "cli expand": (lambda lam: cli_outcome("expand", lam),
                   (0, "m(2,1,0): 1\n")),
    "cli eval": (lambda lam: cli_outcome("eval", lam), (0, "57\n")),
}

# input -> outcome: "value" is the entry's value at (2, 1, 0)
RULE_INPUTS = [
    ("short", (2, 1), "value"),
    ("exact", (2, 1, 0), "value"),
    ("zero tail", (2, 1, 0, 0), DimensionMismatchError),
    ("nonzero tail", (2, 1, 1, 1), DimensionMismatchError),
    ("non-integral", (2.5, 1, 0), DomainError),
    ("negative", (2, 1, -1), DomainError),
    ("increasing", (1, 2, 0), DomainError),
]


@pytest.mark.parametrize("entry", sorted(RULE_ENTRIES))
@pytest.mark.parametrize("name, lam, outcome", RULE_INPUTS,
                         ids=[name for name, _, _ in RULE_INPUTS])
def test_one_partition_rule(entry, name, lam, outcome):
    call, value = RULE_ENTRIES[entry]
    if entry == "monomial_eval" and name == "increasing":
        outcome = "value"
    if outcome == "value":
        assert call(lam) == value
    elif entry.startswith("cli "):
        assert call(lam) == (2, "")
    else:
        with pytest.raises(outcome):
            call(lam)


def test_an_entry_that_is_not_an_integer_is_refused_as_a_domain_error():
    mp = MacdonaldParams(Fraction(1, 2), Fraction(1, 3), 2)
    for bad in (float("nan"), float("inf"), "a", "2", None, 1.5,
                Fraction(3, 2), complex(1, 0)):
        for call in (lambda: Partition((bad,)),
                     lambda: partition_key((2, bad)),
                     lambda: lattice_point((bad, 0), mp),
                     lambda: omega_jack_eval((bad,), 1, (1,))):
            with pytest.raises(DomainError,
                               match="^expected an integer entry, got "):
                call()
    # integral values of other types are read as their ints
    assert Partition((2.0, Fraction(1))).parts == (2, 1)
    with pytest.raises(DomainError) as caught:
        Partition(("9" * 5000,))
    assert len(str(caught.value)) < 100
