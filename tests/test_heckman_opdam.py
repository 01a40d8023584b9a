"""Recursive-quadrature hypergeometric evaluation: determinant and
permanent oracles, structural identities, and the failure modes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omegalab.errors import (DegeneracyError, DomainError, ParameterError,
                             TieError)
from omegalab.heckman_opdam import (_BATCH, HOParams, QuadratureConfig,
                                    _f_rec, _ho_eval_batch, _panel_nodes,
                                    _unit_gauss, _weighted_edges,
                                    ho_closed_forms, ho_direction_residual,
                                    ho_error_estimate, ho_eval,
                                    ho_jack_consistency)


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
    assert HOParams(1, 2.0).n == 2
    assert HOParams(0, 3).rho == (1, 0, -1)


def test_basis_index_out_of_range_raises():
    assert HOParams(1, 3).basis(2) == (0.0, 0.0, 1.0)
    for i in (-1, 3):
        with pytest.raises(DomainError):
            HOParams(1, 3).basis(i)


def test_quadrature_config_validation():
    with pytest.raises(ParameterError):
        QuadratureConfig(3)
    with pytest.raises(ParameterError):
        QuadratureConfig(16, "midpoint")
    with pytest.raises(ParameterError):
        QuadratureConfig(16, min_gap=0)
    for nodes in (4.7, math.inf, math.nan):
        with pytest.raises(ParameterError):
            QuadratureConfig(nodes)
    assert QuadratureConfig(8.0).nodes_per_dimension == 8
    assert QuadratureConfig(16).with_nodes(32).nodes_per_dimension == 32


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
        ho_closed_forms(HOParams(1, 2), (1.0, -1.0), (0.5, 0.0))


def test_unit_multiplicity_matches_determinant():
    cases = [
        (2, (1.0, -1.0), (math.log(2), 0.0)),
        (2, (2.5, -0.5), (0.9, -0.2)),
        (3, (2.0, 0.0, -1.0), (0.7, 0.2, -0.4)),
    ]
    for n, s, x in cases:
        value = ho_eval(HOParams(1, n), s, x, QuadratureConfig(48))
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
    value = ho_eval(HOParams(1, 4), s, x, QuadratureConfig(8))
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


def test_plain_gauss_warns_below_unit_multiplicity():
    cfg = QuadratureConfig(16, "plain-gauss")
    with pytest.warns(UserWarning):
        ho_eval(HOParams(0.5, 2), (1.0, -1.0), (1.0, 0.0), cfg)


def test_plain_gauss_warns_once_at_the_caller():
    cfg = QuadratureConfig(16, "plain-gauss")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ho_eval(HOParams(0.5, 3), (1.0, 0.0, -1.0), (0.7, 0.1, -0.5), cfg)
    assert len(caught) == 1
    assert caught[0].filename == __file__


def test_batch_split_leaves_values_unchanged():
    # 24 nodes per panel give a 48 x 48 grid per n=3 point, so a batch of
    # seven points is split along rows at every level; the tied last point
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


def test_node_on_an_outside_coordinate_gets_weight_zero():
    # the last two coordinates are one ulp apart, as a level of the n=4
    # recursion below produces them; the first box's lowest node rounds
    # onto x_2 and its factor |e^x_3 - e^nu|^(k-1) would be 0 ** -0.9
    x = (0.275, -0.42499999999999993, -0.42500000000000004)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = _f_rec(0.1, np.array([(1.3, 0.2, -0.9)]),
                       [np.array([v]) for v in x], 0.0, 1.0,
                       QuadratureConfig(16))[0]
    assert value[0] == 0.0


def panel_nodes_reference(lo, hi, k, cfg):
    """_panel_nodes rebuilt from the Gauss-Legendre rule on every call."""
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    u, w = _unit_gauss(cfg.nodes_per_dimension)
    if cfg.singularity_rule == "plain-gauss":
        length = hi - lo
        dlo = length * u
        return lo + dlo, dlo, length * (1.0 - u), length * w
    half = (hi - lo) / 2.0
    if k >= 1.0:
        dlo = np.concatenate([half * u, half * (1.0 + u)], axis=-1)
        dhi = np.concatenate([half * (2.0 - u), half * (1.0 - u)], axis=-1)
        wts = half * w
        return lo + dlo, dlo, dhi, np.concatenate([wts, wts], axis=-1)
    g = u ** (1.0 / k)
    jac = (1.0 / k) * u ** (1.0 / k - 1.0)
    dlo = np.concatenate([half * g, half * (2.0 - g)], axis=-1)
    dhi = np.concatenate([half * (2.0 - g), half * g], axis=-1)
    wts = half * jac * w
    return lo + dlo, dlo, dhi, np.concatenate([wts, wts], axis=-1)


@pytest.mark.parametrize("rule", ["plain-gauss", "endpoint-substitution"])
@pytest.mark.parametrize("k", [0.1, 0.5, 1.0, 1.5, 2.0])
def test_cached_unit_panels_give_the_rebuilt_nodes_bitwise(rule, k):
    cfg = QuadratureConfig(6, rule)
    lo = np.array([-0.7, 0.1, 0.3])
    hi = np.array([0.2, 0.1 + 1e-9, 2.9])
    for got, want in zip(_panel_nodes(lo, hi, k, cfg),
                         panel_nodes_reference(lo, hi, k, cfg)):
        assert got.tolist() == want.tolist()


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
    x = (0.9, 0.3, -0.6, -1.1)[:n]
    assert (_ho_eval_batch(p, svecs, x, cfg)
            == [ho_eval(p, s, x, cfg) for s in svecs])


def test_batched_rows_split_like_single_rows():
    # at 24 nodes an n=3 batch is split along rows at every level; the
    # tied last point gets 0 for every spectral vector
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


def reference_f_rec(k, s, x, tilt, vpow, cfg):
    """_f_rec as it was before the two-variable leaf: the generic level at
    every n >= 2, down to the one-variable base case."""
    count, n = s.shape
    if n == 1:
        return np.exp((s[:, 0] + tilt)[:, None] * x[0])
    per_dim = cfg.nodes_per_dimension * (
        1 if cfg.singularity_rule == "plain-gauss" else 2)
    size = per_dim ** (n - 1)
    step = max(1, _BATCH // size)
    if x[0].size > step:
        return np.concatenate([
            reference_f_rec(k, s, [v[i:i + step] for v in x], tilt, vpow, cfg)
            for i in range(0, x[0].size, step)], axis=1)
    strict = np.logical_and.reduce([x[j] > x[j + 1] for j in range(n - 1)])
    x = [v[strict] for v in x]
    rows = x[0].size
    sn = s[:, -1]
    ex = [np.exp(v) for v in x]
    pref = (math.gamma(n * k) / math.gamma(k) ** n
            * np.exp((tilt + sn + k * (n - 1) / 2.0)[:, None] * sum(x)))
    expo = vpow + 1.0 - 2.0 * k
    if expo != 0.0:
        pref = pref * np.abs(math.prod(ex[i] - ex[j] for i in range(n)
                                       for j in range(i + 1, n))) ** expo
    shape = (rows,) + (per_dim,) * (n - 1)
    nu = []
    for j in range(n - 1):
        tau, dlo, dhi, wts = _panel_nodes(x[j + 1], x[j], k, cfg)
        if k != 1.0:
            etau = np.exp(tau)
            wts = _weighted_edges(wts, ex[j + 1][:, None], etau, dlo, dhi, k)
            for i in range(n):
                if i not in (j, j + 1):
                    gap = np.abs(ex[i][:, None] - etau)
                    live = gap > 0.0
                    wts = np.where(live, wts * np.where(live, gap, 1.0)
                                   ** (k - 1.0), 0.0)
        dims = (rows,) + (1,) * j + (per_dim,)
        grid = wts if j == 0 else grid[..., None] * wts.reshape(dims)
        nu.append(np.broadcast_to(tau.reshape(dims + (1,) * (n - 2 - j)),
                                  shape).reshape(-1))
    inner = reference_f_rec(k, s[:, :-1], nu, 1.0 - n * k / 2.0 - sn, 1.0,
                            cfg)
    value = pref * np.sum(
        grid.reshape(rows, size) * inner.reshape(count, rows, size), axis=-1)
    padded = np.zeros((count, strict.size))
    padded[:, strict] = value
    return padded


def at_one_point(f_rec, k, s, x, cfg):
    """f_rec's value for one spectral vector at one point."""
    return f_rec(k, np.array([s]), [np.array([v]) for v in x], 0.0, 0.0,
                 cfg)[0, 0]


@pytest.mark.parametrize("rule", ["plain-gauss", "endpoint-substitution"])
@pytest.mark.parametrize("k", [0.05, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0])
def test_leaf_matches_the_generic_level_and_base_case(k, rule):
    for n, nodes in ((2, 16), (3, 8), (4, 4)):
        cfg = QuadratureConfig(nodes, rule)
        x = (0.9, 0.3, -0.2, -1.0)[:n]
        for s in ((1.3, 0.2, -0.9, -1.0), (2.5, 1.5, 0.25, -3.0)):
            assert math.isclose(
                at_one_point(_f_rec, k, s[:n], x, cfg),
                at_one_point(reference_f_rec, k, s[:n], x, cfg),
                rel_tol=1e-12), (n, s)


@pytest.mark.parametrize("k", [0.01, 0.05])
@pytest.mark.parametrize("nodes", [4, 64])
def test_leaf_is_finite_wherever_the_reference_is(k, nodes):
    # box widths from just above min_gap to 60.  At k = 0.01 and 64 nodes
    # the reference's jacobian underflows to 0 against an edge factor that
    # overflows, so it gives nan on the widest boxes and warns; the leaf
    # must then be finite where the reference is, and quiet
    cfg = QuadratureConfig(nodes)
    for width in (2e-8, 1e-3, 1.0, 60.0):
        for s, x in (((3.0, -1.0), (width / 2, -width / 2)),
                     ((3.0, 0.0, -1.0), (width / 2, 0.0, -width / 2))):
            with np.errstate(all="ignore"):
                expected = at_one_point(reference_f_rec, k, s, x, cfg)
            if math.isfinite(expected):
                value = at_one_point(_f_rec, k, s, x, cfg)
                assert math.isfinite(value), (width, s)


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


def test_small_multiplicity_on_a_wide_box_is_finite():
    # the generic level gave nan here: jac underflows to 0 where
    # (e^nu - e^x2)^(k-1) overflows.  Euler's integral at 40 digits gives
    # 4.744137004683850e51; 64 nodes resolve k = 0.01 to about 1e-3
    value = ho_eval(HOParams(0.01, 2), (3.0, -1.0), (30.0, -30.0))
    assert math.isclose(value, 4.744137004683850e51, rel_tol=2e-3)


def test_values_out_of_floating_range_raise():
    # F is near e^1600 at the first point; at the second the n = 3 level's
    # edge factors overflow against weights that underflow, giving nan
    cases = [(HOParams(0.5, 2), (3.0, -1.0), (400.0, -400.0)),
             (HOParams(0.05, 3), (1.0, 0.0, -1.0), (200.0, 0.0, -200.0))]
    for p, s, x in cases:
        with pytest.warns(RuntimeWarning), \
                pytest.raises(DegeneracyError) as caught:
            ho_eval(p, s, x, QuadratureConfig(8))
        message = str(caught.value)
        assert f"k={p.k}" in message and f"x={x}" in message
        assert "8 nodes" in message
