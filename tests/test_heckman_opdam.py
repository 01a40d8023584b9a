"""Recursive-quadrature hypergeometric evaluation: determinant and
permanent oracles, structural identities, and the failure modes."""

import functools
import math
import os
import pathlib
import random
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omegalab import heckman_opdam
from omegalab.errors import (DegeneracyError, DomainError, ParameterError,
                             TieError)
from omegalab.heckman_opdam import (DETERMINANT_BOUND,
                                    DETERMINANT_MAX_VARIABLES, MAX_NODE_TERMS,
                                    MAX_NODES, MAX_PERMUTATION_TERMS,
                                    MIN_POSITIVE_K, R0, HOParams,
                                    QuadratureConfig, _f_rec,
                                    _ho_eval_and_gap, _ho_eval_batch, _log_m,
                                    _power_panels, _unit_gauss, _unit_jacobi,
                                    _unit_panels, ho_closed_forms,
                                    ho_direction_residual, ho_error_estimate,
                                    ho_eval, ho_jack_consistency)
from omegalab.partitions import partitions_of


def determinant_oracle(s, x):
    """Closed form at unit multiplicity: a ratio of determinants.

    Independent of the recursion; valid for distinct s and distinct x.
    """
    m = len(s)
    pre = 1.0
    for j in range(1, m):
        pre *= math.factorial(j)
    shift = math.exp((m - 1) / 2.0 * sum(x))
    det = float(np.linalg.det(np.array(
        [[math.exp(si * xj) for xj in x] for si in s])))
    vs = 1.0
    vx = 1.0
    for i in range(m):
        for j in range(i + 1, m):
            vs *= s[i] - s[j]
            vx *= math.exp(x[i]) - math.exp(x[j])
    return pre * shift * det / (vs * vx)


def test_params_validation():
    with pytest.raises(ParameterError):
        HOParams(-0.5, 2)
    with pytest.raises(ParameterError):
        HOParams(math.inf, 2)
    with pytest.raises(ParameterError):
        HOParams(1, 0)
    # a fractional count is refused, not truncated
    with pytest.raises(ParameterError):
        HOParams(1, 2.5)
    # a multiplicity that is not a number, or is out of floating range, is
    # refused as a parameter
    for k in ("x", None, 10 ** 400):
        with pytest.raises(ParameterError):
            HOParams(k, 2)
    assert HOParams(1, 2.0).n == 2
    assert HOParams(0, 3).rho == (1, 0, -1)


def test_multiplicity_below_the_floor_is_refused():
    # the node tables read k back from k - 1: at k = 1e-12 an n = 4 value
    # was 1.3e-4 off the k = 0 closed form, and near k = 1e-16 lgamma(0)
    # raised.  At the floor the value is still within 1e-6 of it
    for k in (1e-12, 1e-16, 5e-324):
        with pytest.raises(ParameterError, match="k = 0 or k >= 1e-10"):
            HOParams(k, 4)
    x, s = (0.9, 0.3, -0.2, -1.0), (2.5, 1.5, 0.25, -3.0)
    exact = ho_closed_forms(HOParams(0, 4), s, x)
    value = ho_eval(HOParams(MIN_POSITIVE_K, 4), s, x, QuadratureConfig(8))
    assert abs(value - exact) <= 1e-6 * exact


def test_quadrature_config_validation():
    with pytest.raises(ParameterError):
        QuadratureConfig(3)
    # the second argument is min_gap, so a rule name passed there is refused
    with pytest.raises(ParameterError):
        QuadratureConfig(16, "midpoint")
    for gap in (0, "x", None, math.nan, 10 ** 400):
        with pytest.raises(ParameterError):
            QuadratureConfig(16, min_gap=gap)
    for nodes in (4.7, math.inf, math.nan):
        with pytest.raises(ParameterError):
            QuadratureConfig(nodes)
    assert QuadratureConfig(8.0).nodes_per_dimension == 8
    cfg = QuadratureConfig(16, 1e-6).with_nodes(32)
    assert (cfg.nodes_per_dimension, cfg.min_gap) == (32, 1e-6)
    # the rule is fixed: no argument, and no instance, can set it
    with pytest.raises(TypeError):
        QuadratureConfig(16, 1e-8, "endpoint-substitution")
    with pytest.raises(AttributeError):
        cfg.singularity_rule = "endpoint-substitution"


def test_single_variable_is_exponential():
    p = HOParams(2, 1)
    assert ho_eval(p, (1.5,), (0.7,)) == math.exp(1.5 * 0.7)
    assert ho_closed_forms(p, (1.5,), (0.7,)) == math.exp(1.5 * 0.7)


def test_zero_multiplicity_is_symmetrized_exponential():
    p = HOParams(0, 3)
    s = (1.2, 0.4, -0.9)
    x = (0.8, 0.1, -0.5)
    perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    expected = sum(math.exp(sum(s[i] * x[p_] for i, p_ in enumerate(perm)))
                   for perm in perms) / 6
    assert math.isclose(ho_closed_forms(p, s, x), expected, rel_tol=1e-14)
    assert math.isclose(ho_eval(p, s, x), expected, rel_tol=1e-14)


def test_closed_forms_reject_generic_multiplicity():
    with pytest.raises(DomainError):
        ho_closed_forms(HOParams(1.5, 2), (1.0, -1.0), (0.5, 0.0))


def test_unit_multiplicity_matches_determinant():
    # the quadrature itself: ho_eval takes the determinant at k = 1
    cases = [
        (2, (1.0, -1.0), (math.log(2), 0.0)),
        (2, (2.5, -0.5), (0.9, -0.2)),
        (3, (2.0, 0.0, -1.0), (0.7, 0.2, -0.4)),
    ]
    for n, s, x in cases:
        value = at_one_point(_f_rec, 1.0, s, x, QuadratureConfig(48))
        assert math.isclose(value, determinant_oracle(s, x), rel_tol=1e-10)


def test_pinned_values_at_unit_multiplicity():
    p = HOParams(1, 2)
    assert math.isclose(ho_eval(p, (1, -1), (math.log(2), 0)),
                        3 * math.sqrt(2) / 4, rel_tol=1e-12)
    assert math.isclose(ho_eval(p, (1, -1), (math.log(4), 0)),
                        1.25, rel_tol=1e-12)


def test_four_variables_match_determinant():
    s = (2.5, 1.0, -0.5, -3.0)
    x = (1.1, 0.4, -0.3, -1.2)
    value = at_one_point(_f_rec, 1.0, s, x, QuadratureConfig(8))
    assert math.isclose(value, determinant_oracle(s, x), rel_tol=1e-6)


def test_value_at_origin_is_one():
    for k in (0, 0.5, 1, 2):
        for n in (2, 3):
            p = HOParams(k, n)
            s = tuple(2.0 - i for i in range(n))
            assert ho_eval(p, s, (0.0,) * n) == 1.0


def test_uniform_point_shortcut():
    p = HOParams(2, 3)
    s = (1.5, 0.0, -0.5)
    value = ho_eval(p, s, (0.4, 0.4, 0.4))
    assert math.isclose(value, math.exp(0.4 * sum(s)), rel_tol=1e-14)


def test_permutation_symmetry_in_both_arguments():
    p = HOParams(1.5, 3)
    s = (1.3, -0.2, -0.8)
    x = (0.9, 0.3, -0.6)
    base = ho_eval(p, s, x)
    assert ho_eval(p, (s[2], s[0], s[1]), x) == base
    assert ho_eval(p, s, (x[1], x[2], x[0])) == base


def test_diagonal_shift_identity():
    p = HOParams(1.5, 2)
    s = (2.5, -0.5)
    x = (0.9, -0.2)
    c = 0.3
    lhs = ho_eval(p, s, tuple(v + c for v in x))
    rhs = math.exp(c * sum(s)) * ho_eval(p, s, x)
    assert math.isclose(lhs, rhs, rel_tol=1e-10)


def test_tied_coordinates_raise():
    p = HOParams(1, 3)
    with pytest.raises(TieError):
        ho_eval(p, (1.0, 0.0, -1.0), (0.5, 0.5, 0.0))
    # fully uniform points are fine: the diagonal split handles them exactly
    assert ho_eval(p, (1.0, 0.0, -1.0), (0.5, 0.5, 0.5)) == 1.0


def test_batch_split_leaves_values_unchanged():
    # at k = 1/2 and 24 nodes the fifth point's lower box is near x_0, so
    # the n=3 level groups it apart on a 48 x 24 grid, and the leaf splits
    # its own rows (k >= 1, each level splits its own:
    # test_one_panel_batch_split_leaves_values_unchanged); the tied last point
    # stands for a node that rounded onto a shared endpoint
    cfg = QuadratureConfig(24)
    s = np.array([(1.3, 0.2, -0.9)])
    points = [(0.9, 0.3, -0.6), (0.5, 0.1, -0.2), (0.2, -0.3, -0.9),
              (1.0, -0.1, -0.4), (0.6, 0.5, -0.8), (0.3, 0.0, -1.0),
              (0.4, 0.4, -0.7)]
    for k in (0.5, 2.0):
        batch = _f_rec(k, s, [np.array(c) for c in zip(*points)], 0.0, 1.0,
                       cfg)[0]
        for value, x in zip(batch, points):
            alone = _f_rec(k, s, [np.array([v]) for v in x], 0.0, 1.0, cfg)[0]
            assert value == alone[0], (k, x)
        assert batch[-1] == 0.0
        # at two variables a point alone is a one-row node sum, which numpy
        # would add up pairwise rather than node by node
        pairs = [x[:2] for x in points[:-1]]
        batch = _f_rec(k, s[:, :2], [np.array(c) for c in zip(*pairs)], 0.0,
                       1.0, cfg)[0]
        for value, x in zip(batch, pairs):
            alone = _f_rec(k, s[:, :2], [np.array([v]) for v in x], 0.0, 1.0,
                           cfg)[0]
            assert value == alone[0], (k, x)


def test_one_panel_batch_split_leaves_values_unchanged():
    # a k >= 1 dimension holds one panel of m nodes, so it takes 48 nodes
    # to give the 48 x 48 grid per n=3 point that splits a batch of seven
    # points along rows at every level
    cfg = QuadratureConfig(48)
    s = np.array([(1.3, 0.2, -0.9), (2.0, 0.5, -1.5), (0.4, 0.0, -0.4)])
    points = [(0.9, 0.3, -0.6), (0.5, 0.1, -0.2), (0.2, -0.3, -0.9),
              (1.0, -0.1, -0.4), (0.6, 0.5, -0.8), (0.3, 0.0, -1.0),
              (0.4, 0.4, -0.7)]
    for k in (1.0, 2.0):
        batch = _f_rec(k, s, [np.array(c) for c in zip(*points)], 0.0, 1.0,
                       cfg)
        for i, x in enumerate(points):
            for row, sv in zip(batch, s):
                alone = _f_rec(k, sv[None], [np.array([v]) for v in x], 0.0,
                               1.0, cfg)[0]
                assert row[i] == alone[0], (k, x, sv)
        assert batch[:, -1].tolist() == [0.0] * len(s)


def test_node_near_an_outside_coordinate_is_continuous():
    # the last two coordinates are one ulp apart, as a level of the n=4
    # recursion below produces them; the first box's lowest node lies within
    # rounding of x_2, and its factor |e^x_3 - e^nu|^(k-1) must come from
    # the gap (x_2 - x_3) + dlo, not from two rounded exponentials.  Divided
    # by V(e^x), the value must be F at a nearby point, where F is smooth
    x = (0.275, -0.42499999999999993, -0.42500000000000004)
    s = (1.3, 0.2, -0.9)
    cfg = QuadratureConfig(16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = _f_rec(0.1, np.array([s]), [np.array([v]) for v in x], 0.0,
                       1.0, cfg)[0, 0]
    vandermonde = math.prod(math.exp(x[j]) * math.expm1(x[i] - x[j])
                            for i in range(3) for j in range(i + 1, 3))
    nearby = ho_eval(HOParams(0.1, 3), s, (0.275, -0.425 + 5e-5,
                                           -0.425 - 5e-5), cfg)
    assert math.isclose(value / vandermonde, nearby, rel_tol=1e-5)


def panel_nodes_reference(lo, hi, k, cfg, table="gauss-jacobi"):
    """One interlacing dimension's nodes, rebuilt on every call: from an
    uncached Gauss-Jacobi rule, the table of _unit_panels, or with
    table="power" from the power-mapped Gauss-Legendre rule, the table of
    _power_panels.

    lo and hi may be scalars or broadcastable arrays; the node axis is
    appended last.  Returns (tau, dlo, dhi, wts) with dlo = tau - lo and
    dhi = hi - tau taken from the map itself, and weights that absorb the
    affine and power-map Jacobians (the recursion's node table as it was
    before the node weights went into logs).  table="plain-gauss" gives
    the nodes of plain_gauss_panels instead.
    """
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    u, w = _unit_gauss(cfg.nodes_per_dimension)
    if table == "plain-gauss":
        length = hi - lo
        dlo = length * u
        return lo + dlo, dlo, length * u[::-1], length * w
    half = (hi - lo) / 2.0
    if table == "gauss-jacobi":
        # one panel; the rule's weight (1 - z^2)^(k-1) is divided out
        z, w = _unit_jacobi(cfg.nodes_per_dimension, k - 1.0)
        dlo = half * (1.0 + z)
        wts = half * (w / ((1.0 + z) * (1.0 - z)) ** (k - 1.0))
        return lo + dlo, dlo, half * (1.0 - z), wts
    g = u ** (1.0 / k)
    jac = (1.0 / k) * u ** (1.0 / k - 1.0)
    dlo = np.concatenate([half * g, half * (2.0 - g)], axis=-1)
    dhi = np.concatenate([half * (2.0 - g), half * g], axis=-1)
    wts = half * jac * w
    return lo + dlo, dlo, dhi, np.concatenate([wts, wts], axis=-1)


# floor for endpoint displacements in weighted_edges_reference
_TINY = 1e-300


def weighted_edges_reference(wts, elo, etau, dlo, dhi, k):
    """wts * (e^tau - e^lo)^(k-1) * (e^hi - e^tau)^(k-1), multiplied out
    as the recursion did before its node weights went into logs.

    e^tau - e^lo is written e^lo * expm1(dlo) so a node that rounds onto
    its endpoint still produces the true small difference instead of 0.
    The weight is folded in between the two factors: each near-endpoint
    factor is large exactly where wts is small, and the running product
    stays near unit scale instead of overflowing.
    """
    glo = elo * np.expm1(np.maximum(dlo, _TINY))
    ghi = etau * np.expm1(np.maximum(dhi, _TINY))
    return (wts * glo ** (k - 1.0)) * ghi ** (k - 1.0)


def node_tables(k):
    """The cached node tables the recursion uses at k, with the name
    panel_nodes_reference gives each: Gauss-Jacobi at every k, and the
    power map too for k < 1."""
    tables = [(_unit_panels, "gauss-jacobi")]
    if k < 1.0:
        tables.append((_power_panels, "power"))
    return tables


# the case ids of the table tests name the quadrature rule they check
@pytest.mark.parametrize("k", [0.1, 0.5, 1.0, 1.5, 2.0],
                         ids=lambda k: f"{k}-endpoint-substitution")
def test_cached_unit_panels_give_the_rebuilt_nodes_bitwise(k):
    # the offsets bitwise; the weights, which the table keeps as logs, to
    # rounding
    cfg = QuadratureConfig(6)
    lo = np.array([-0.7, 0.1, 0.3])
    hi = np.array([0.2, 0.1 + 1e-9, 2.9])
    width = (hi - lo)[:, None]
    for panels, table in node_tables(k):
        ab, logw, _ = panels(6, k)
        tau, dlo, dhi, wts = panel_nodes_reference(lo, hi, k, cfg, table)
        assert (width * ab[0]).tolist() == dlo.tolist(), table
        assert (width * ab[1]).tolist() == dhi.tolist(), table
        assert (lo[:, None] + width * ab[0]).tolist() == tau.tolist(), table
        np.testing.assert_allclose(np.exp(np.log(width) + logw), wts,
                                   rtol=1e-13, atol=0)


@pytest.mark.parametrize("m", [4, 8, 24, 128])
@pytest.mark.parametrize("k", [0.1, 0.7, 1.0, 1.5, 2.0, 5.0])
def test_gauss_jacobi_rule_integrates_even_moments(k, m):
    # m nodes are exact up to degree 2m - 1 against (1 - z^2)^(k-1), whose
    # even moments are B(j + 1/2, k); the odd ones vanish by symmetry
    z, w = _unit_jacobi(m, k - 1.0)
    assert z.size == m and (w > 0).all() and (np.abs(z) < 1).all()
    assert z.tolist() == (-z[::-1]).tolist()
    for j in range(m):
        want = math.exp(math.lgamma(j + 0.5) + math.lgamma(k)
                        - math.lgamma(j + 0.5 + k))
        got = float(np.sum(w * z ** (2 * j)))
        assert math.isclose(got, want, rel_tol=1e-12), j


@pytest.mark.parametrize("m", [4, 5, 8, 24, 64])
def test_gauss_jacobi_rule_at_alpha_minus_one_half_is_gauss_chebyshev(m):
    # k = 1/2, where the first off-diagonal entry of the Jacobi matrix in
    # its general form is 0/0; every call rebuilds the rule, so a
    # RuntimeWarning would fail the test
    z, w = _unit_jacobi(m, -0.5)
    i = np.arange(m, 0, -1)
    np.testing.assert_allclose(z, np.cos((2 * i - 1) * math.pi / (2 * m)),
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(w, math.pi / m, rtol=0, atol=1e-14)


@pytest.mark.parametrize("m", [4, 5, 8, 24, 64])
@pytest.mark.parametrize("k", [0.05, 0.1, 0.5, 1.0, 1.5, 2.0, 5.0],
                         ids=lambda k: f"endpoint-substitution-{k}")
def test_unit_panels_are_mirror_symmetric_bitwise(k, m):
    # the leaf and the levels take each node's upper edge factor from its
    # mirror's lower one: one power-mapped panel mirrors the other node for
    # node, and a single panel mirrors itself end to end
    for panels, table in node_tables(k):
        ab, logw, (lower, centre, upper) = panels(m, k)
        index = np.arange(logw.size)
        if table == "power":
            mirror = np.roll(index, m)
        else:
            mirror = index[::-1]
        assert ab[1].tobytes() == ab[0][mirror].tobytes(), table
        assert logw.tobytes() == logw[mirror].tobytes(), table
        # the table's slices say the same: lower and centre are the first
        # nodes, and the three cover every node once
        assert index[upper].tolist() == mirror[lower].tolist(), table
        assert mirror[centre].tolist() == index[centre].tolist(), table
        assert (lower.start, lower.stop) == (0, centre.start), table
        assert sorted(index[lower].tolist() + index[centre].tolist()
                      + index[upper].tolist()) == index.tolist(), table


# spectral vectors for the batch tests, cut to n coordinates; the third
# has tied entries, the last is unsorted
SPECTRA = [(1.3, 0.2, -0.9, -1.0), (2.0, 0.5, 0.5, -1.5),
           (0.0, 0.0, 0.0, 0.0), (3.5, -0.25, -1.0, -2.25),
           (-0.7, 1.1, 0.4, 0.2)]

# n = 3 vectors whose first two coordinates differ by 1, so the two-variable
# level below sees the same base-case exponent s0 + 1 - k - s1 for each,
# while its prefactor differs; a batch must not mix up their rows
SHARED_LEAF_EXPONENT = [(2.0, 1.0, 0.0), (2.0, 1.0, -1.0), (3.0, 2.0, 0.5)]


@pytest.mark.parametrize("n, nodes", [(2, 16), (3, 8), (4, 4)])
@pytest.mark.parametrize("k", [0.1, 0.5, 1.0, 1.5, 2.0])
def test_batched_values_equal_one_at_a_time_bitwise(n, nodes, k):
    p = HOParams(k, n)
    cfg = QuadratureConfig(nodes)
    svecs = [s[:n] for s in SPECTRA]
    if n == 3:
        svecs += SHARED_LEAF_EXPONENT
    # a near tie in s, which the k = 1 determinant leaves to the quadrature
    svecs.append((1.0, 1.0 - 1e-7, -0.5, -1.0)[:n])
    x = (0.9, 0.3, -0.6, -1.1)[:n]
    if k == 1.0:
        # the batch mixes vectors the determinant serves with vectors that
        # fall back
        served = []
        for s in svecs:
            try:
                served.append(ho_closed_forms(p, s, x) > 0)
            except DegeneracyError:
                served.append(False)
        assert any(served) and not all(served), served
    assert (_ho_eval_batch(p, svecs, x, cfg)
            == [ho_eval(p, s, x, cfg) for s in svecs])


def test_batched_rows_split_like_single_rows():
    # at 24 nodes an n=3 batch is split along rows at the leaf; the tied
    # last point gets 0 for every spectral vector
    cfg = QuadratureConfig(24)
    s = np.array([v[:3] for v in SPECTRA[:3]])
    points = [(0.9, 0.3, -0.6), (0.5, 0.1, -0.2), (1.0, -0.1, -0.4),
              (0.4, 0.4, -0.7)]
    x = [np.array(c) for c in zip(*points)]
    for k in (0.5, 2.0):
        batch = _f_rec(k, s, x, 0.0, 1.0, cfg)
        for row, sv in zip(batch, s):
            alone = _f_rec(k, sv[None], x, 0.0, 1.0, cfg)[0]
            assert row.tolist() == alone.tolist(), (k, sv)
        assert batch[:, -1].tolist() == [0.0] * len(s)


def test_batched_closed_forms_and_shortcuts_apply_per_s():
    svecs = [s[:3] for s in SPECTRA]
    cfg = QuadratureConfig(8)
    zero = HOParams(0, 3)
    x = (0.7, 0.1, -0.5)
    assert (_ho_eval_batch(zero, svecs, x, cfg)
            == [ho_closed_forms(zero, s, x) for s in svecs])
    p = HOParams(1.5, 3)
    uniform = (0.4, 0.4, 0.4)
    assert (_ho_eval_batch(p, svecs, uniform, cfg)
            == [math.exp(sum(sorted(s, reverse=True)) * 0.4) for s in svecs])
    with pytest.raises(TieError):
        _ho_eval_batch(p, svecs, (0.5, 0.5, 0.0), cfg)
    with pytest.raises(DomainError):
        _ho_eval_batch(p, svecs + [(1.0, 0.0)], x, cfg)


def test_small_multiplicity_at_four_variables_is_finite():
    # k = 0.05 puts nodes within an ulp of their endpoints, and some round
    # onto a coordinate outside their box
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = ho_eval(HOParams(0.05, 4), (1.3, 0.2, -0.9, -1),
                        (0.52, 0.44, -0.11, -1.0), QuadratureConfig(4))
    assert math.isfinite(value) and value > 0


def test_consistency_with_exact_expansions():
    for k in (0.5, 1, 2):
        p = HOParams(k, 2)
        for lam in ((1, 0), (2, 1)):
            gap = ho_jack_consistency(lam, p, (1.0, -1.0))
            assert gap <= 1e-9, (k, lam, gap)


@pytest.mark.parametrize("k, bound", [(0.5, 1e-3), (2, 1e-6)])
@pytest.mark.parametrize("lam", [(2, 1, 0, 0), (1, 1, 0, 0)])
def test_four_variables_match_exact_expansions(k, bound, lam):
    # criterion 09's bands for k = 1/2 and for integer k
    gap = ho_jack_consistency(lam, HOParams(k, 4), (0.9, 0.3, -0.2, -1.0),
                              QuadratureConfig(8))
    assert gap <= bound


def test_direction_residual_small():
    residual = ho_direction_residual(HOParams(1, 2), (1.0, -1.0),
                                     (0.8, -0.3), 1e-4)
    assert residual <= 1e-4


def test_direction_residual_rejects_bad_step():
    with pytest.raises(DomainError):
        ho_direction_residual(HOParams(1, 2), (1.0, -1.0), (0.8, -0.3), 0.0)


def test_error_estimate_is_tight_here():
    est = ho_error_estimate(HOParams(1, 2), (1.0, -1.0), (0.8, -0.3),
                            QuadratureConfig(16))
    assert 0.0 <= est <= 1e-8


def test_input_validation():
    p = HOParams(1, 2)
    with pytest.raises(DomainError):
        ho_eval(p, (1.0,), (0.5, 0.0))
    with pytest.raises(DomainError):
        ho_eval(p, (math.nan, 0.0), (0.5, 0.0))
    with pytest.raises(DomainError):
        ho_eval(p, (1.0, 0.0), (math.inf, 0.0))


@settings(deadline=None, max_examples=10)
@given(st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=0.2, max_value=1.5))
def test_positivity_on_a_strip(shift, gap):
    # values stay strictly positive for real spectral parameter
    value = ho_eval(HOParams(1.5, 2), (1.0 + shift, -0.5), (gap, 0.0),
                    QuadratureConfig(16))
    assert value > 0.0


def near_boxes(x, k):
    """Each point's near boxes, one bit per dimension, as the recursion
    reads them: for k < 1, box j is near where an outside coordinate lies
    closer than R0 times its width.  Taken point by point."""
    n = len(x)
    codes = []
    for i in range(x[0].size):
        code = 0
        for j in range(n - 1 if k < 1.0 else 0):
            reach = R0 * (x[j][i] - x[j + 1][i])
            if ((j > 0 and x[j - 1][i] - x[j][i] < reach)
                    or (j + 2 < n and x[j + 1][i] - x[j + 2][i] < reach)):
                code |= 1 << j
        codes.append(code)
    return np.array(codes, dtype=int)


def reference_f_rec(k, s, x, tilt, vpow, cfg, table="endpoint-substitution"):
    """_f_rec as it was before the two-variable leaf and the log weights:
    the generic level at every n >= 2, with weights and edge factors
    multiplied out, down to the one-variable base case, on the nodes of
    panel_nodes_reference's tables: per point and dimension, the power map
    on a near box and Gauss-Jacobi elsewhere, or table="plain-gauss" on
    every box."""
    count, n = s.shape
    if n == 1:
        return np.exp((s[:, 0] + tilt)[:, None] * x[0])
    strict = np.logical_and.reduce([x[j] > x[j + 1] for j in range(n - 1)])
    x = [v[strict] for v in x]
    near = near_boxes(x, k)
    value = np.empty((count, x[0].size))
    for code in np.unique(near):
        rows = near == code
        value[:, rows] = reference_level(k, s, [v[rows] for v in x], tilt,
                                         vpow, cfg, table, code)
    padded = np.zeros((count, strict.size))
    padded[:, strict] = value
    return padded


def reference_level(k, s, x, tilt, vpow, cfg, table, code):
    """reference_f_rec's level at strictly decreasing points x whose near
    boxes are the bits of code."""
    count, n = s.shape
    rows = x[0].size
    sn = s[:, -1]
    ex = [np.exp(v) for v in x]
    pref = (math.gamma(n * k) / math.gamma(k) ** n
            * np.exp((tilt + sn + k * (n - 1) / 2.0)[:, None] * sum(x)))
    expo = vpow + 1.0 - 2.0 * k
    if expo != 0.0:
        pref = pref * np.abs(math.prod(ex[i] - ex[j] for i in range(n)
                                       for j in range(i + 1, n))) ** expo
    nodes = [panel_nodes_reference(
        x[j + 1], x[j], k, cfg,
        table if table == "plain-gauss"
        else "power" if code >> j & 1 else "gauss-jacobi")
        for j in range(n - 1)]
    sizes = [tau.shape[-1] for tau, *_ in nodes]
    size = math.prod(sizes)
    shape = (rows,) + tuple(sizes)
    nu = []
    for j, (tau, dlo, dhi, wts) in enumerate(nodes):
        if k != 1.0:
            etau = np.exp(tau)
            wts = weighted_edges_reference(wts, ex[j + 1][:, None], etau,
                                           dlo, dhi, k)
            for i in range(n):
                if i not in (j, j + 1):
                    gap = np.abs(ex[i][:, None] - etau)
                    live = gap > 0.0
                    wts = np.where(live, wts * np.where(live, gap, 1.0)
                                   ** (k - 1.0), 0.0)
        dims = (rows,) + (1,) * j + (sizes[j],)
        grid = wts if j == 0 else grid[..., None] * wts.reshape(dims)
        nu.append(np.broadcast_to(tau.reshape(dims + (1,) * (n - 2 - j)),
                                  shape).reshape(-1))
    inner = reference_f_rec(k, s[:, :-1], nu, 1.0 - n * k / 2.0 - sn, 1.0,
                            cfg, table)
    return pref * np.sum(
        grid.reshape(rows, size) * inner.reshape(count, rows, size), axis=-1)


def at_one_point(f_rec, k, s, x, cfg):
    """f_rec's value for one spectral vector at one point."""
    return f_rec(k, np.array([s]), [np.array([v]) for v in x], 0.0, 0.0,
                 cfg)[0, 0]


@functools.lru_cache(maxsize=None)
def plain_gauss_panels(m, k):
    """A second node table with _unit_panels' layout: one Gauss-Legendre
    panel on the whole width at every k, its weights and the edge factors'
    endpoint behaviour left as they are.  u[::-1] is 1 - u without the
    rounding of the subtraction, so the table is mirror-symmetric bit for
    bit, as the leaf and the levels need."""
    u, w = _unit_gauss(m)
    half = m // 2
    mirror = (slice(0, half), slice(half, m - half),
              slice(m - 1, m - 1 - half, -1))
    ab = np.stack([u, u[::-1]])
    logw = np.log(w)
    ab.setflags(write=False)
    logw.setflags(write=False)
    return ab, logw, mirror


@pytest.mark.parametrize("table", ["plain-gauss", "endpoint-substitution"])
@pytest.mark.parametrize("k", [0.05, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0])
def test_leaf_matches_the_generic_level_and_base_case(k, table, monkeypatch):
    # the leaf and the levels read their nodes only through _unit_panels'
    # and _power_panels' tables, so they must match the reference on any
    # tables of their layout: the package's own, chosen per point and
    # dimension, and a plain Gauss-Legendre one in place of both, which puts
    # a single panel where the power table has two
    if table == "plain-gauss":
        monkeypatch.setattr(heckman_opdam, "_unit_panels", plain_gauss_panels)
        monkeypatch.setattr(heckman_opdam, "_power_panels",
                            plain_gauss_panels)
    reference = functools.partial(reference_f_rec, table=table)
    for n, nodes in ((2, 16), (3, 8), (4, 4)):
        cfg = QuadratureConfig(nodes)
        x = (0.9, 0.3, -0.2, -1.0)[:n]
        for s in ((1.3, 0.2, -0.9, -1.0), (2.5, 1.5, 0.25, -3.0)):
            assert math.isclose(
                at_one_point(_f_rec, k, s[:n], x, cfg),
                at_one_point(reference, k, s[:n], x, cfg),
                rel_tol=1e-12), (n, s)


@pytest.mark.parametrize("k", [0.01, 0.05])
@pytest.mark.parametrize("nodes", [4, 64])
def test_leaf_is_finite_wherever_the_reference_is(k, nodes):
    # box widths from just above min_gap to 60.  At k = 0.01 and 64 nodes
    # the reference's jacobian underflows to 0 against an edge factor that
    # overflows, so it gives nan on the widest boxes and warns (at n = 3 on
    # the widest only); the recursion, which adds the two in logs, must be
    # finite and quiet at every point
    cfg = QuadratureConfig(nodes)
    for width in (2e-8, 1e-3, 1.0, 60.0):
        for s, x in (((3.0, -1.0), (width / 2, -width / 2)),
                     ((3.0, 0.0, -1.0), (width / 2, 0.0, -width / 2))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = at_one_point(_f_rec, k, s, x, cfg)
            assert math.isfinite(value) and value > 0, (width, s)


def level_reference(k, s, x, tilt, vpow, logc, cfg):
    """_level as it was before each mirror pair's box-end edge factors were
    computed once: log m at both offsets of every node, on the same table
    per point and dimension as _level's."""
    count, n = s.shape
    sn = s[:, -1]
    gap = {(i, j): x[i] - x[j] for i in range(n) for j in range(i + 1, n)}
    logv = sum(x[i] + _log_m(d) for (i, _), d in gap.items())
    pref = (logc + (math.lgamma(n * k) - n * math.lgamma(k))
            + (tilt + sn + k * (n - 1) / 2.0)[:, None] * sum(x)
            + (vpow + 1.0 - 2.0 * k) * logv)
    near = near_boxes(x, k)
    value = np.empty((count, x[0].size))
    for code in np.unique(near):
        r = np.flatnonzero(near == code)
        tables = [(_power_panels if code >> j & 1 else _unit_panels)(
            cfg.nodes_per_dimension, k)[:2] for j in range(n - 1)]
        value[:, r] = level_nodes_reference(
            k, s, [v[r] for v in x], {key: d[r] for key, d in gap.items()},
            pref[:, r], tables, cfg)
    return value


def level_nodes_reference(k, s, x, gap, pref, tables, cfg):
    """level_reference's node sum on table tables[j] for dimension j."""
    count, n = s.shape
    rows = x[0].size
    sn = s[:, -1]
    sizes = [logw.size for _, logw in tables]
    size = math.prod(sizes)
    shape = (rows,) + tuple(sizes)
    nu = []
    for j, (ab, logw) in enumerate(tables):
        width = gap[j, j + 1][:, None]
        dlo, dhi = width * ab[0], width * ab[1]
        tau = x[j + 1][:, None] + dlo
        lw = np.log(width) + logw
        if k != 1.0:
            edges = (tau + _log_m(np.maximum(dlo, _TINY))
                     + x[j][:, None] + _log_m(np.maximum(dhi, _TINY)))
            for i in range(j):
                edges += x[i][:, None] + _log_m(gap[i, j][:, None] + dhi)
            for i in range(j + 2, n):
                edges += tau + _log_m(gap[j + 1, i][:, None] + dlo)
            lw += (k - 1.0) * edges
        dims = (rows,) + (1,) * j + (sizes[j],)
        grid = lw if j == 0 else grid[..., None] + lw.reshape(dims)
        nu.append(np.broadcast_to(tau.reshape(dims + (1,) * (n - 2 - j)),
                                  shape).reshape(-1))
    below = (pref[:, :, None] + grid.reshape(rows, size)).reshape(count, -1)
    inner = _f_rec(k, s[:, :-1], nu, 1.0 - n * k / 2.0 - sn, 1.0, cfg, below)
    return inner.reshape(count, rows, size).sum(axis=-1)


def leaf_reference(k, s, x0, x1, tilt, vpow, logc, cfg):
    """_leaf as it was before each mirror pair's box-end edge factors were
    computed once: expm1 at both offsets of every node, and one product
    per node."""
    ab, logw = _unit_panels(cfg.nodes_per_dimension, k)[:2]
    nodes = logw.size
    width = x0 - x1
    s0, s1 = s[:, 0], s[:, 1]
    if k == 1.0:
        terms = np.multiply.outer(s1 - s0, np.multiply.outer(ab[0], -width))
        node = logw[:, None]
    else:
        offsets = np.multiply.outer(ab.reshape(-1), -width)
        terms = np.multiply.outer(s1 - s0, offsets[:nodes])
        edges = np.expm1(offsets, out=offsets)
        node = np.multiply(edges[:nodes], edges[nodes:], out=edges[:nodes])
        np.maximum(node, _TINY, out=node)
        np.log(node, out=node)
        node *= k - 1.0
        node += logw[:, None]
    row = (np.log(width) + (math.lgamma(2.0 * k) - 2.0 * math.lgamma(k))
           + (vpow + 1.0 - 2.0 * k) * _log_m(width))
    row = (row + (tilt + s1 + (vpow - k / 2.0))[:, None] * x0
           + (tilt + s0 + k / 2.0)[:, None] * x1)
    row += logc
    terms += node
    terms += row[:, None, :]
    np.exp(terms, out=terms)
    if x0.size > 1:
        return terms.sum(axis=1)
    return functools.reduce(np.add, terms.transpose(1, 0, 2))


@pytest.mark.parametrize("m", [4, 5, 8])
@pytest.mark.parametrize("k", [0.05, 0.5, 1.0, 1.5, 2.0])
def test_mirror_paired_edge_factors_leave_values_bitwise(k, m, monkeypatch):
    # an odd m has a Gauss-Jacobi centre node, its own mirror; the n = 4
    # point has a near tie at each end
    cfg = QuadratureConfig(m)
    cases = [(n, s[:n], x[:n])
             for n, s, x in ((2, SPECTRA[0], (0.9, -0.6)),
                             (3, SPECTRA[3], (0.9, 0.3, -0.6)),
                             (4, SPECTRA[0], (0.997, 0.916, -0.719, -0.953)))]
    paired = [ho_eval(HOParams(k, n), s, x, cfg) for n, s, x in cases]
    monkeypatch.setattr(heckman_opdam, "_level", level_reference)
    monkeypatch.setattr(heckman_opdam, "_leaf", leaf_reference)
    unpaired = [ho_eval(HOParams(k, n), s, x, cfg) for n, s, x in cases]
    assert [v.hex() for v in paired] == [v.hex() for v in unpaired]


def hyp2f1_pfaff(a, b, c, d):
    """2F1(a, b; c; 1 - e^d) for d > 0, summed as a plain series after
    Pfaff's transformation (DLMF 15.8.1): (1 - z)^-b 2F1(c - a, b; c; w)
    with w = z / (z - 1) = 1 - e^-d in (0, 1)."""
    w = -math.expm1(-d)
    term = total = 1.0
    i = 0
    while i < 5 or abs(term) > 1e-17 * abs(total):
        term *= (c - a + i) * (b + i) / ((c + i) * (i + 1)) * w
        total += term
        i += 1
    return math.exp(-b * d) * total


def euler_oracle(k, s, x):
    """F_{k,s}(x1, x2) from Euler's integral (DLMF 15.6.1):
    exp((s2 + k/2)(x1 + x2) + c x2) 2F1(-c, k; 2k; 1 - e^(x1 - x2)),
    c = s1 - s2 - k, for x1 > x2."""
    (s1, s2), (x1, x2) = s, x
    c = s1 - s2 - k
    return (math.exp((s2 + k / 2) * (x1 + x2) + c * x2)
            * hyp2f1_pfaff(-c, k, 2 * k, x1 - x2))


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_two_variables_match_the_hypergeometric_oracle(k):
    # spectral vectors off the lattice lam + k * rho, which the exact Jack
    # comparison cannot reach
    cfg = QuadratureConfig(64)
    for s in ((1.3, -0.4), (0.37, 0.2), (2.71, -1.9), (-0.6, 0.45)):
        for x in ((0.9, -0.6), (1.0, -1.0), (0.25, 0.1), (2.2, 0.3)):
            value = ho_eval(HOParams(k, 2), s, x, cfg)
            assert math.isclose(value, euler_oracle(k, s, x),
                                rel_tol=1e-12), (s, x)


@pytest.mark.parametrize("nodes", [16, 64])
@pytest.mark.parametrize("k", [1.5, 2.5])
def test_half_integer_multiplicity_matches_the_hypergeometric_oracle(k, nodes):
    # the edge factors (e^nu - e^x2)^(k-1) are not polynomial here, so a
    # Gauss-Legendre rule converges only algebraically; the Gauss-Jacobi
    # panel takes their endpoint behaviour into its weight
    cfg = QuadratureConfig(nodes)
    for s in ((1.3, -0.4), (0.37, 0.2), (2.71, -1.9), (-0.6, 0.45)):
        for x in ((0.9, -0.6), (1.0, -1.0), (0.25, 0.1), (2.2, 0.3)):
            value = ho_eval(HOParams(k, 2), s, x, cfg)
            assert math.isclose(value, euler_oracle(k, s, x),
                                rel_tol=1e-12), (s, x)


@pytest.mark.parametrize("n, lam, bound", [(3, (2, 1, 0), 1e-10),
                                           (4, (2, 1, 0, 0), 1e-8)])
def test_half_integer_multiplicity_matches_exact_expansions(n, lam, bound):
    gap = ho_jack_consistency(lam, HOParams(1.5, n),
                              (0.9, 0.3, -0.2, -1.0)[:n], QuadratureConfig(8))
    assert gap <= bound


def test_small_multiplicity_on_a_wide_box_is_finite():
    # the generic level gave nan here: jac underflows to 0 where
    # (e^nu - e^x2)^(k-1) overflows.  Euler's integral at 40 digits gives
    # 4.744137004683850e51; 64 nodes resolve k = 0.01 to about 1e-3
    value = ho_eval(HOParams(0.01, 2), (3.0, -1.0), (30.0, -30.0))
    assert math.isclose(value, 4.744137004683850e51, rel_tol=2e-3)


def test_values_out_of_floating_range_raise():
    # F is near e^1600 at the first point and near 3e328 at the second
    cases = [(HOParams(0.5, 2), (3.0, -1.0), (400.0, -400.0)),
             (HOParams(0.05, 3), (1.0, 0.0, -1.0), (400.0, 0.0, -400.0))]
    for p, s, x in cases:
        with pytest.warns(RuntimeWarning), \
                pytest.raises(DegeneracyError) as caught:
            ho_eval(p, s, x, QuadratureConfig(8))
        message = str(caught.value)
        assert f"k={p.k}" in message and f"x={x}" in message
        assert "8 nodes" in message


@pytest.mark.parametrize("k, s, x", [
    # about 1.73e164, in floating range: the edge factors of the n = 3
    # level, multiplied out, overflowed against weights that underflow
    (0.05, (1.0, 0.0, -1.0), (200.0, 0.0, -200.0)),
    # the power map's offsets underflow to 0 from 64 nodes on, where the
    # multiplied-out factors gave 0 * inf
    (0.01, (3.0, 0.0, -1.0), (30.0, 0.0, -30.0))])
def test_small_multiplicity_on_a_wide_three_variable_box_converges(k, s, x):
    # finite and quiet at 16, 32 and 64 nodes, and the step from 32 to 64
    # nodes is within the gap from 16 to 32, ho_error_estimate at 16
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [ho_eval(HOParams(k, 3), s, x, QuadratureConfig(m))
                  for m in (16, 32, 64)]
    assert all(math.isfinite(v) and v > 0 for v in values), values
    assert abs(values[2] - values[1]) <= abs(values[1] - values[0]), values


def test_near_tie_keeps_its_digits_at_three_variables():
    # sum(x) = 0, so F = 1 + O(|x|^2); the Vandermonde and the edge factors
    # taken as differences of exponentials gave 1 + 4.7e-8
    value = ho_eval(HOParams(2, 3), (3.0, 0.0, -1.0), (1e-8, 0.0, -1e-8))
    assert abs(value - 1.0) <= 1e-13


@pytest.mark.parametrize("k", [0.5, 1.5, 2.0])
def test_near_tie_matches_exact_expansions(k):
    gap = ho_jack_consistency((2, 1, 0), HOParams(k, 3), (1e-8, 0.0, -1e-8),
                              QuadratureConfig(16))
    assert gap <= 1e-13


def test_small_multiplicity_on_a_wide_box_settles():
    # the power map on every box wandered by 3e-3 between 16 and 128 nodes
    # here; the Gauss-Jacobi panel settles to 1.15470332531215e51
    p = HOParams(0.01, 3)
    values = [ho_eval(p, (3, 0, -1), (30, 0, -30), QuadratureConfig(m))
              for m in (32, 64)]
    assert math.isclose(values[0], values[1], rel_tol=1e-10), values


# twelve points whose upper box is near x_2, twelve whose lower box is near
# x_0, and twelve far ones.  At 24 nodes the n = 3 level splits each group
# at _BATCH over its grid: 14 points for the far group's 24 x 24 grid, and 7
# for a near group's 48 x 24, so both near groups are split along rows
NEAR_AND_FAR = ([(1.0, 0.0, -0.05 - 0.002 * i) for i in range(12)]
                + [(0.05 + 0.002 * i, 0.0, -1.0) for i in range(12)]
                + [(1.0, 0.1 * i - 0.55, -1.0) for i in range(12)])


@pytest.mark.parametrize("n, nodes, points", [
    (3, 24, NEAR_AND_FAR),
    (4, 6, [(0.9, 0.3, -0.2, -1.0), (0.997, 0.916, -0.719, -0.953),
            (0.9, 0.3, 0.25, -1.0), (0.9, 0.85, -0.2, -0.21),
            (0.9, 0.3, -0.9, -1.0)])])
@pytest.mark.parametrize("k", [0.1, 0.5])
def test_near_and_far_points_in_one_batch_keep_their_values(n, nodes, points,
                                                            k):
    cfg = QuadratureConfig(nodes)
    x = [np.array(c) for c in zip(*points)]
    assert len(set(near_boxes(x, k).tolist())) >= 3
    s = np.array([v[:n] for v in SPECTRA[:3]])
    batch = _f_rec(k, s, x, 0.0, 1.0, cfg)
    for i, point in enumerate(points):
        alone = _f_rec(k, s, [np.array([v]) for v in point], 0.0, 1.0, cfg)
        assert batch[:, i].tolist() == alone[:, 0].tolist(), point


def test_far_boxes_take_one_gauss_jacobi_panel(monkeypatch):
    # no top-level box of this n = 4 point is near an outside coordinate, so
    # each of its dimensions takes m nodes, m^3 points for the level below.
    # There a point has at most one near box (two boxes cannot each have
    # the other within R0 of their width), and the leaf takes m nodes: the
    # leaf sums at most m^3 * 2m^2 * m = 2m^6 node terms.  Two power-mapped
    # panels on every dimension summed (2m)^6 = 64m^6
    m, k = 8, 0.5
    x = (0.9, 0.3, -0.2, -1.0)
    assert near_boxes([np.array([v]) for v in x], k).tolist() == [0]
    terms = []
    leaf = heckman_opdam._leaf

    def counted(k, s, x0, x1, tilt, vpow, logc, cfg):
        nodes = heckman_opdam._unit_panels(cfg.nodes_per_dimension, k)[1]
        terms.append(x0.size * nodes.size)
        return leaf(k, s, x0, x1, tilt, vpow, logc, cfg)

    monkeypatch.setattr(heckman_opdam, "_leaf", counted)
    ho_eval(HOParams(k, 4), (2.5, 1.5, 0.25, -3.0), x, QuadratureConfig(m))
    assert m ** 6 <= sum(terms) <= 2 * m ** 6


def unbuilt(*args):
    """A node-table builder that must not run."""
    raise AssertionError("a node table was built")


def test_work_ceilings_refuse_before_any_node_is_built(monkeypatch):
    assert QuadratureConfig(MAX_NODES).nodes_per_dimension == MAX_NODES
    for nodes in (MAX_NODES + 1, 10 ** 400):
        with pytest.raises(ParameterError, match=f"ceiling of {MAX_NODES}"):
            QuadratureConfig(nodes)
    monkeypatch.setattr(heckman_opdam, "_unit_panels", unbuilt)
    monkeypatch.setattr(heckman_opdam, "_power_panels", unbuilt)
    # five variables at the default 64 nodes: 64^10 node terms for k >= 1,
    # and 128^10 for k < 1, where every box might be near
    for k, terms in ((1.5, 64 ** 10), (0.5, 128 ** 10)):
        with pytest.raises(ParameterError) as caught:
            ho_eval(HOParams(k, 5), (4, 3, 2, 1, 0), (5, 4, 3, 2, 1))
        message = str(caught.value)
        assert f"{terms} node terms" in message, message
        assert f"ceiling of {MAX_NODE_TERMS}" in message, message
    # the error estimate's 2m pass: five vectors at n = 4, k = 1/2 and 8
    # nodes take 5 * 16^6 terms at m, below the ceiling, and 5 * 32^6 at
    # 2m, above it; the m pass must not run first
    with pytest.raises(ParameterError, match=f"{5 * 32 ** 6} node terms"):
        _ho_eval_and_gap(HOParams(0.5, 4), [(1.0, 0.0, -1.0, -2.0)] * 5,
                         (0.9, 0.3, -0.2, -1.0), QuadratureConfig(8))
    # k = 0 is a closed form and builds no nodes
    assert ho_eval(HOParams(0, 5), (4, 3, 2, 1, 0), (5, 4, 3, 2, 1)) > 0


@pytest.mark.parametrize("k", [0.5, 2.0])
def test_each_node_grid_is_split_by_its_builder(k, monkeypatch):
    # every _nodes call holds at most _BATCH grid elements per vector, or
    # one point's grid, and every part of the leaf at most _BATCH node terms
    # per vector, _LEAF_BATCH over all vectors, or one row: a one-vector
    # n = 4 evaluation and a seven-vector n = 3 batch (near groups at k = 1/2)
    nodes, leaf_rows = heckman_opdam._nodes, heckman_opdam._leaf_rows
    batch, leaf_batch = heckman_opdam._BATCH, heckman_opdam._LEAF_BATCH
    grids, parts = [], []

    def counted_nodes(k, s, x, gap, pref, tables, cfg):
        size = math.prod(t[1].size for t in tables)
        grids.append((x[0].size, size))
        assert x[0].size * size <= max(batch, size)
        return nodes(k, s, x, gap, pref, tables, cfg)

    def counted_leaf(k, s, x0, x1, tilt, vpow, logc, m):
        parts.append(x0.size)
        assert x0.size * m <= max(batch, m, leaf_batch // s.shape[0])
        return leaf_rows(k, s, x0, x1, tilt, vpow, logc, m)

    monkeypatch.setattr(heckman_opdam, "_nodes", counted_nodes)
    monkeypatch.setattr(heckman_opdam, "_leaf_rows", counted_leaf)
    ho_eval(HOParams(k, 4), (2.5, 1.5, 0.25, -3.0), (0.9, 0.3, -0.2, -1.0),
            QuadratureConfig(8))
    s = np.array([(1.3, 0.2, -0.9)] * 7)
    _f_rec(k, s, [np.array(c) for c in zip(*NEAR_AND_FAR)], 0.0, 1.0,
           QuadratureConfig(24))
    # the bounds were reached: some grid and some leaf part were split
    assert any(rows > 1 and rows * size > batch // 2 for rows, size in grids)
    assert max(parts) > 1 and len(parts) > len(grids)


def test_refusals_quote_bounded_counts():
    # a refused count is quoted in full only while it is short: 401 digits
    # of nodes, 100 variables at k = 3/2 (64^4950 node terms, which str()
    # could not print) and the k = 0 closed form's 13! terms
    for nodes in (10 ** 400, -(10 ** 400)):
        with pytest.raises(ParameterError) as caught:
            QuadratureConfig(nodes)
        assert "10^400" in str(caught.value)
        assert len(str(caught.value)) < 100
    x = tuple(range(100, 0, -1))
    with pytest.raises(ParameterError,
                       match=f"more than 10\\^30 node terms .* ceiling of "
                             f"{MAX_NODE_TERMS}") as caught:
        ho_eval(HOParams(1.5, 100), x, x)
    assert len(str(caught.value)) < 200
    with pytest.raises(ParameterError,
                       match=f"{math.factorial(13)} permutation terms .* "
                             f"ceiling of {MAX_PERMUTATION_TERMS}"):
        ho_eval(HOParams(0, 13), x[:13], x[:13])
    # the ceiling admits one vector at n = 11 and refuses it at n = 12
    assert math.factorial(11) <= MAX_PERMUTATION_TERMS < math.factorial(12)


def evenly_spaced(n, span=6.0):
    """n decreasing coordinates spread evenly over span, centred at 0."""
    return tuple(span / 2 - span * i / (n - 1) for i in range(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_unit_multiplicity_determinant_matches_exact_jack(n, monkeypatch):
    # on the lattice s = lam + rho, F at k = 1 is the normalized Schur
    # polynomial.  At these points the determinant serves every shape of
    # weight <= 3 (beta <= DETERMINANT_BOUND), so no node table is built,
    # and the default 64 nodes, which the quadrature's ceiling refuses from
    # n = 6 on, cost nothing
    monkeypatch.setattr(heckman_opdam, "_unit_panels", unbuilt)
    monkeypatch.setattr(heckman_opdam, "_power_panels", unbuilt)
    p, x = HOParams(1, n), evenly_spaced(n)
    for w in range(4):
        for lam in partitions_of(w, n):
            assert ho_jack_consistency(lam, p, x) <= 1e-12, lam


def off_lattice_points(seed=7):
    """Six seeded (s, x) per n = 2, 3, 4, decreasing, with s in [-3, 3]^n
    and x in [-1.5, 1.5]^n; the determinant serves all of them."""
    rng = random.Random(seed)
    return [(n, [tuple(sorted((rng.uniform(-a, a) for _ in range(n)),
                              reverse=True)) for a in (3.0, 1.5)])
            for n in (2, 3, 4) for _ in range(6)]


@pytest.mark.parametrize("n, nodes", [(2, 48), (3, 48), (4, 16)])
def test_unit_multiplicity_determinant_matches_the_quadrature(n, nodes):
    # the worst relative gap measured here was 1.4e-15, 7.9e-16 and 3.4e-15
    # at n = 2, 3 and 4 (16 nodes at n = 4: 48^6 node terms per vector are
    # past MAX_NODE_TERMS)
    for _, (s, x) in (c for c in off_lattice_points() if c[0] == n):
        closed = ho_closed_forms(HOParams(1, n), s, x)
        value = at_one_point(_f_rec, 1.0, s, x, QuadratureConfig(nodes))
        assert math.isclose(closed, value, rel_tol=1e-14), (s, x)
        assert ho_eval(HOParams(1, n), s, x) == closed


def test_clustered_points_fall_back_to_the_quadrature():
    # coordinates 1e-3 apart: beta is near 1e-9, so the determinant
    # refuses and the quadrature, which keeps near ties' digits, serves
    # (measured gaps to exact Jack: 6.7e-15 at most)
    p, x = HOParams(1, 4), (0.0015, 0.0005, -0.0005, -0.0015)
    for lam in ((2, 1, 0, 0), (1, 1, 0, 0), (3, 0, 0, 0)):
        s = tuple(float(l + r) for l, r in zip(lam, p.rho))
        with pytest.raises(DegeneracyError, match="beta="):
            ho_closed_forms(p, s, x)
        gap = ho_jack_consistency(lam, p, x, QuadratureConfig(8))
        assert gap <= 1e-13, (lam, gap)
    # ties in s or x have no determinant at all
    for s, x in (((1.0, 1.0, 0.0), (0.5, 0.0, -0.5)),
                 ((1.0, 0.0, -1.0), (0.5, 0.5, -0.5))):
        with pytest.raises(DegeneracyError, match="beta=inf"):
            ho_closed_forms(HOParams(1, 3), s, x)
    # beta bounds a relative error only for a normal double: F near e^-800
    # is left to the quadrature too
    with pytest.raises(DegeneracyError, match="outside the normal doubles"):
        ho_closed_forms(HOParams(1, 2), (1.5, -0.5), (-800.0, -801.0))


def lattice_points(seed=11, count=60):
    """Seeded (lam, x) at n = 3 and 4: lam of weight below 25, x rounded
    to 1e-3 in [-b, b]^n for b in {1, 3, 6, 10}, with one pair of
    neighbours moved to between 1e-3 and 1 apart."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        n = rng.choice((3, 4))
        lam = rng.choice(list(partitions_of(rng.randrange(25), n)))
        b = rng.choice((1.0, 3.0, 6.0, 10.0))
        x = sorted((round(rng.uniform(-b, b), 3) for _ in range(n)),
                   reverse=True)
        i = rng.randrange(n - 1)
        x[i + 1] = round(x[i] - 10 ** rng.uniform(-3, 0), 4)
        points.append((lam, tuple(sorted(x, reverse=True))))
    return points


def test_determinant_at_large_exponents_matches_exact_jack(monkeypatch):
    # the rows' exponents s_i (x_j - mean(x)) reach 40 to 150 here, and a
    # near tie in x leaves det A two close columns.  On the first three
    # points an elimination with partial pivoting put det A off by 17%,
    # 0.76% and 0.39%, though eps sum |A_ij| |(A^-1)_ji| was below 1e-13
    # there: its error is not relative to each entry, and an entry of A
    # may be 1e-60 of its row's largest.  The determinant serves every
    # point below (measured gaps to exact Jack: 1.2e-15 at most)
    monkeypatch.setattr(heckman_opdam, "_unit_panels", unbuilt)
    monkeypatch.setattr(heckman_opdam, "_power_panels", unbuilt)
    points = [((10, 5, 5, 2), (5.77, 5.178, -3.258, -4.062)),
              ((6, 6, 4, 2), (5.352, 5.2604, -5.373, -5.687)),
              ((7, 5, 4, 3), (8.113, 8.0048, -7.778, -9.576)),
              # weight 12 at n = 3 over a span of 6
              ((12, 0, 0), (3.0, 0.0, -3.0)),
              ((8, 4, 0), (3.0, 0.5, -3.0)),
              ((6, 4, 2), (2.0, 1.0, -4.0))]
    for lam, x in points + lattice_points():
        p = HOParams(1, len(lam))
        assert ho_jack_consistency(lam, p, x) <= DETERMINANT_BOUND, (lam, x)


def test_determinant_past_its_variable_ceiling_builds_nothing(monkeypatch):
    # past DETERMINANT_MAX_VARIABLES a k = 1 vector goes straight to the
    # quadrature's work ceiling, which refuses 5,000 distinct coordinates
    # at once; no matrix of the determinant is formed
    def unformed(*args):
        raise AssertionError("a determinant was formed")

    monkeypatch.setattr(heckman_opdam, "_harish_chandra_log", unformed)
    monkeypatch.setattr(heckman_opdam, "_unit_panels", unbuilt)
    monkeypatch.setattr(heckman_opdam, "_power_panels", unbuilt)
    for n in (DETERMINANT_MAX_VARIABLES + 1, 5000):
        x = tuple(float(i) for i in range(n))
        with pytest.raises(DegeneracyError, match="at most"):
            ho_closed_forms(HOParams(1, n), x, x)
        with pytest.raises(ParameterError, match="ceiling"):
            ho_eval(HOParams(1, n), x, x)


def test_work_ceiling_counts_only_the_vectors_the_quadrature_sums():
    # at n = 6 and the default 64 nodes one vector sums 64^15 node terms;
    # the determinant serves the first vector, so it is not refused, and
    # its error estimate is 0.  A tied s falls back and is refused as before
    p, x = HOParams(1, 6), evenly_spaced(6)
    s = tuple(float(r) for r in p.rho)
    assert _ho_eval_and_gap(p, [s], x) == [(ho_eval(p, s, x), 0.0)]
    tied = (2.0, 2.0, 1.0, 0.0, -1.0, -2.0)
    for call in (lambda: ho_eval(p, tied, x),
                 lambda: _ho_eval_and_gap(p, [s, tied], x)):
        with pytest.raises(ParameterError,
                           match=f"for 1 spectral vectors at n=6"):
            call()


@pytest.mark.parametrize("m", [4, 8, 24, 64, 512])
def test_gauss_legendre_rule_integrates_every_moment(m):
    # the integral of u^p over [0, 1] is 1/(p + 1), held to 1e-14 relative
    # up to 24 nodes.  From 64 nodes on the top moments miss 1e-14 (worst
    # 1.35e-14 at m = 64, p = 127, and 5.1e-14 at m = 512, p = 1017): a
    # node's own rounding, about eps/4 relative near u = 1, moves u^p by
    # some p eps/4, so no table of doubles holds every moment to 1e-14
    # there, and those are held to (p + 1) eps (numpy's leggauss table
    # misses that by 10x at 512 nodes)
    u, w = _unit_gauss(m)
    assert u.size == m and (w > 0).all() and ((0 < u) & (u < 1)).all()
    eps = np.finfo(float).eps
    for p in range(2 * m):
        got = math.fsum(w * u ** p) * (p + 1)
        bound = 1e-14 if m <= 24 else max(1e-14, (p + 1) * eps)
        assert abs(got - 1.0) <= bound, p


def test_no_path_imports_numpy_polynomial():
    # a fresh interpreter: a k = 1/2 box near an outside coordinate takes
    # the power-mapped Gauss-Legendre table, then a k = 1 evaluation
    code = textwrap.dedent("""
        import sys
        from omegalab import heckman_opdam as ho
        cfg = ho.QuadratureConfig(8)
        ho.ho_eval(ho.HOParams(0.5, 3), (1.3, 0.2, -0.9), (1.0, 0.0, -0.05),
                   cfg)
        assert ho._power_panels.cache_info().currsize > 0
        ho.ho_eval(ho.HOParams(1, 3), (1.3, 0.2, -0.9), (1.0, 0.0, -0.05),
                   cfg)
        print("numpy.polynomial" in sys.modules)
    """)
    src = pathlib.Path(heckman_opdam.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_error_estimate_tries_each_determinant_once(monkeypatch):
    # a vector the k = 1 determinant serves has one value in both passes
    # and gap 0, so one _ho_eval_and_gap tries each vector's determinant
    # once, served or not; only the near tie in s, which falls back, takes
    # the 2m pass and then the m pass.  Values are ho_eval's and
    # ho_error_estimate's bit for bit
    p, cfg = HOParams(1, 3), QuadratureConfig(8)
    x = (0.9, 0.3, -0.6)
    svecs = [tuple(float(a + r) for a, r in zip(lam, p.rho))
             for w in range(4) for lam in partitions_of(w, 3)]
    svecs.append((1.0, 1.0 - 1e-7, -0.5))
    expected = [(ho_eval(p, s, x, cfg), ho_error_estimate(p, s, x, cfg))
                for s in svecs]
    tried, passes = [], []
    determinant, quadrature = (heckman_opdam._harish_chandra,
                               heckman_opdam._ho_pass)

    def counted_determinant(s, x):
        tried.append(tuple(s))
        return determinant(s, x)

    def counted_pass(params, closed, x, cfg):
        passes.append((cfg.nodes_per_dimension, closed[0].count(None)))
        return quadrature(params, closed, x, cfg)

    monkeypatch.setattr(heckman_opdam, "_harish_chandra", counted_determinant)
    monkeypatch.setattr(heckman_opdam, "_ho_pass", counted_pass)
    assert _ho_eval_and_gap(p, svecs, x, cfg) == expected
    assert sorted(tried) == sorted(tuple(sorted(s, reverse=True))
                                   for s in svecs)
    assert passes == [(16, 1), (8, 1)]
    assert [gap for _, gap in expected[:-1]] == [0.0] * (len(svecs) - 1)


# worst relative gap |F_{k,s}(x) - F_{k,-s}(-x)| / F_{k,s}(x) over
# REFLECTION_KS and six seeded (s, x) per k, s in [-2, 2]^n and x in
# [-1.5, 1.5]^n, as measured: n = 3 gave 5.4e-3 at 4 nodes, 1.9e-5 at 8
# and 8.7e-15 at 24; n = 4 gave 1.6e-3 at 4 nodes and 3.5e-6 at 8.  Each
# bound is about twice its measured gap, the 24-node one a few hundred
# ulps, and none may be widened
REFLECTION_KS = (0.3, 0.5, 1.5, 2.0)
REFLECTION_BOUNDS = {(3, 8): 4e-5, (3, 24): 1e-13, (4, 8): 8e-6}


def reflection_gap(n, nodes):
    rng = random.Random(0)
    cfg = QuadratureConfig(nodes)
    worst = 0.0
    for k in REFLECTION_KS:
        p = HOParams(k, n)
        for _ in range(6):
            s = tuple(rng.uniform(-2, 2) for _ in range(n))
            x = tuple(rng.uniform(-1.5, 1.5) for _ in range(n))
            value = ho_eval(p, s, x, cfg)
            mirrored = ho_eval(p, tuple(-v for v in s), tuple(-v for v in x),
                               cfg)
            worst = max(worst, abs(value - mirrored) / value)
    return worst


@pytest.mark.parametrize("n, nodes", sorted(REFLECTION_BOUNDS))
def test_reflection_holds_to_its_bound(n, nodes):
    # F_{k,s}(x) = F_{k,-s}(-x), as F is symmetric in s and in x and the
    # reflection -w0 preserves the root system.  The quadrature does not
    # build this in (its boxes run the other way for -x), so it can fail
    assert reflection_gap(n, nodes) <= REFLECTION_BOUNDS[n, nodes]


@pytest.mark.parametrize("n", [3, 4])
def test_reflection_fails_on_a_four_node_rule(n):
    assert reflection_gap(n, 4) > REFLECTION_BOUNDS[n, 8]
