"""The inequality laboratory.

One sweep driver tests Schur-convexity and midpoint log-convexity of the
normalized families over enumerated partition pairs and sampled points;
each statement supplies its pair mode, shapes, sides and tolerance.  Beside
it: a constructive witness builder for non-majorizing pairs, and a budgeted
point-first hunter for off-lattice Macdonald violations.

Every exact family is compared with exact rational arithmetic, so a reported
violation is a theorem and an empty report is a finished finite check, not a
statistical statement.  The floating Heckman-Opdam family instead carries a
quadrature tolerance: margins inside the tolerance band are counted as
near-misses, never as violations.  Not every floating check can fail: the
quadrature is a positive-weight sum of exp<s, T> over its nodes, so it is
log-convex in s by construction, and the Heckman-Opdam log-convexity sweep
tests only rounding.  The order sweep can fail, as can the Jack
consistency and reflection checks on the quadrature itself.

Probes are pure functions of (pair, point), so sweeps are trivially
data-parallel; this implementation runs them in order and the report is the
single merge point.  The sweep loops over points outside and pairs inside:
at each point one family call evaluates every shape a pair compares, so the
floating family builds its quadrature tree once per point and node count,
the exact Jack and Macdonald families check and clear the point once
(omega_jack_at, omega_mac_at), and the row is dropped once that point's
pairs are compared.  Violations are still listed pair by pair, point by
point.

The hunt also runs points first, with one evaluator bound per point, but
evaluates each shape only when a pair first needs it.  It usually stops at
its first probe, and evaluating the whole row there first solves every
expansion up to max_weight: that made the off-lattice hunt at n=4,
max_weight 8 some 40 to 80 times slower.
"""

import itertools
import time
from collections import namedtuple
from fractions import Fraction

from . import macdonald
from ._version import __version__
from .classical import muirhead_eval, powersum_eval
from .errors import (CertificationError, DegeneracyError, DomainError,
                     ParameterError, TieError, count_text)
# ho_eval and ho_error_estimate stay bound for the benchmark tracer's patches
from .heckman_opdam import (HOParams, QuadratureConfig, _ho_eval_and_gap,
                            ho_error_estimate, ho_eval)
# omega_jack_eval and omega_mac_eval stay bound for the benchmark tracer's
# patches; the sweeps and the hunt bind one evaluator per point instead
from .jack import JackParam, omega_jack_at, omega_jack_eval
from .macdonald import (MacdonaldParams, lattice_point, omega_mac_at,
                        omega_mac_eval)
from .partitions import (Partition, enumerate_pairs, majorizes, midpoint,
                         partitions_of)
from .sampling import RationalSampler
from .sympoly import _decimal_text, poly_eval_fresh

FAMILIES = ("muirhead", "powersum", "jack", "macdonald-lattice",
            "heckman-opdam")
WITNESS_FAMILIES = ("muirhead", "powersum", "jack", "macdonald-lattice")

# find_witness doubles its ray/lattice parameter starting from 1 and gives
# up past this bound; the degree argument settles the guaranteed families
# long before.
PARAMETER_CEILING = 1 << 60

# sweeps and the hunt take at most this many variables: partitions are
# enumerated by one recursion per part (n = 2000 overflowed the stack), and
# sample points are drawn coordinate by coordinate (n = 10^400 grew past
# 1.2 GB before any pair was compared)
MAX_VARIABLES = 100

# relative machine-noise floor: added to every floating tolerance so
# exact-by-closed-form probes are not failed over last-bit rounding, and
# the least gap that counts as a near-miss
NOISE_FLOOR = 1e-12


def _json_value(v):
    # exact values travel as strings, floating values as JSON numbers, and
    # a witness's lattice label as "a,b"
    if isinstance(v, (Fraction, int)):
        return _decimal_text(v)
    if isinstance(v, float):
        return v
    if isinstance(v, tuple):
        return ",".join(map(_json_value, v))
    return str(v)


class Witness:
    """One certified inequality failure, or a constructed separation point.

    lhs is the side the theorem predicts to be larger (the lambda side),
    rhs the mu side; margin = rhs - lhs is positive exactly when the point
    witnesses a violation of lhs >= rhs.
    """

    __slots__ = ("family", "params", "lam", "mu", "x", "lhs", "rhs")

    def __init__(self, family, params, lam, mu, x, lhs, rhs):
        self.family = family
        self.params = dict(params)
        self.lam = Partition(lam)
        self.mu = Partition(mu)
        self.x = tuple(x)
        self.lhs = lhs
        self.rhs = rhs

    @property
    def margin(self):
        return self.rhs - self.lhs

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam.parts),
            "mu": list(self.mu.parts),
            "x": [_json_value(v) for v in self.x],
            "lhs": _json_value(self.lhs),
            "rhs": _json_value(self.rhs),
        }

    def __repr__(self):
        return (f"Witness({self.family}, lam={self.lam}, mu={self.mu}, "
                f"x={self.x}, lhs={self.lhs}, rhs={self.rhs})")


class InequalityReport:
    """Outcome of one sweep: counters plus the list of violation witnesses."""

    __slots__ = ("command", "family", "params", "n", "max_weight", "seed",
                 "pairs_checked", "samples", "violations", "near_misses",
                 "skipped", "elapsed_ms")

    def __init__(self, command, family, params, n, max_weight, seed,
                 pairs_checked, samples, violations, near_misses, skipped,
                 elapsed_ms):
        self.command = command
        self.family = family
        self.params = dict(params)
        self.n = n
        self.max_weight = max_weight
        self.seed = seed
        self.pairs_checked = pairs_checked
        self.samples = samples
        self.violations = list(violations)
        self.near_misses = near_misses
        self.skipped = skipped
        self.elapsed_ms = elapsed_ms

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "family": self.family,
            "params": {k: _json_value(v) for k, v in self.params.items()},
            "n": self.n,
            "max_weight": self.max_weight,
            "seed": self.seed,
            "pairs_checked": self.pairs_checked,
            "samples": self.samples,
            "violations": [w.to_json() for w in self.violations],
            "near_misses": self.near_misses,
            "skipped": self.skipped,
            "elapsed_ms": self.elapsed_ms,
            "version": __version__,
        }

    def __repr__(self):
        state = "passed" if self.passed else f"{len(self.violations)} violations"
        return (f"InequalityReport({self.command}, family={self.family}, "
                f"pairs={self.pairs_checked}, samples={self.samples}, {state})")


class _Family:
    """Evaluation strategy shared by the sweep driver.

    probe(lams, x) returns one (value, err) per partition: the normalized
    family member at x and its error estimate.  Exact families return a
    Fraction and err 0; the floating family returns floats, err from its
    quadrature, and evaluates every partition from one quadrature tree.
    """

    __slots__ = ("name", "params", "exact", "probe")

    def __init__(self, name, params, exact, probe):
        self.name = name
        self.params = params
        self.exact = exact
        self.probe = probe


def _exact_probe(bind):
    """An exact family's probe: bind(x) returns lam -> the value at x, so
    a family can check and clear x once per point, not once per shape."""
    def probe(lams, x):
        omega = bind(x)
        return [(omega(lam), 0) for lam in lams]
    return probe


def _make_family(family, n, *, theta=None, q=None, t=None, a=None, k=None,
                 cfg=None) -> _Family:
    if family == "muirhead":
        return _Family(family, {}, True, _exact_probe(
            lambda x: lambda lam: muirhead_eval(lam, x)))
    if family == "powersum":
        return _Family(family, {}, True, _exact_probe(
            lambda x: lambda lam: powersum_eval(lam, x)))
    if family == "jack":
        if theta is None:
            raise ParameterError("the jack family needs theta")
        th = JackParam(theta)
        label = "inf" if th.is_infinite else th.theta
        return _Family(family, {"theta": label}, True, _exact_probe(
            lambda x: omega_jack_at(th, x)))
    if family == "macdonald-lattice":
        if q is None or t is None:
            raise ParameterError("the macdonald-lattice family needs q and t")
        mp = MacdonaldParams(q, t, n, Fraction(1) if a is None else a)
        return _Family(family, {"q": mp.q, "t": mp.t, "a": mp.a}, True,
                       _exact_probe(lambda x: omega_mac_at(mp, x)))
    if family == "heckman-opdam":
        if k is None:
            raise ParameterError("the heckman-opdam family needs k")
        hop = HOParams(float(k), n)
        rho = tuple(float(r) for r in hop.rho)

        def probe(lams, x):
            return _ho_eval_and_gap(
                hop, [tuple(p + hop.k * r for p, r in zip(lam.parts, rho))
                      for lam in lams], x, cfg)

        return _Family(family, {"k": hop.k}, False, probe)
    raise ParameterError(f"unknown family {family!r}; expected one of {FAMILIES}")


def _check_variables(n):
    if n > MAX_VARIABLES:
        raise ParameterError(f"need n <= {MAX_VARIABLES} variables; got "
                             f"{count_text(n)}")


def _sample_points(samples, n, x_low, x_high, seed, as_float):
    """Deterministic shared sample set, each point sorted decreasing."""
    low = Fraction(x_low)
    high = Fraction(x_high)
    if low < 0:
        raise DomainError(f"sample range must be nonnegative; got low={low}")
    if as_float:
        # low >= 0, so every point below a top in floating range is in it
        try:
            float(high)
        except OverflowError:
            raise DomainError("x_high is out of floating range") from None
    sampler = RationalSampler(seed, low, high)
    points = []
    for i in range(samples):
        pt = tuple(sorted(sampler.point(i, n), reverse=True))
        points.append(tuple(float(v) for v in pt) if as_float else pt)
    return points


def _lattice_labels(n, label_bound):
    if label_bound < 0:
        raise DomainError(f"need label_bound >= 0; got {label_bound}")
    out = []
    for w in range(n * label_bound + 1):
        out.extend(partitions_of(w, n, label_bound))
    return out


def _evaluation_points(fam: _Family, n, samples, x_low, x_high, seed,
                       label_bound):
    """The x set for one sweep.

    The lattice family is evaluated exhaustively on the labeled lattice
    points with entries in [0, label_bound]; `samples`, `x_low` and `x_high`
    are ignored there.  Other families draw `samples` rational points from
    [x_low, x_high]^n (floated for the Heckman-Opdam family).
    """
    if fam.name == "macdonald-lattice":
        mp = MacdonaldParams(fam.params["q"], fam.params["t"], n,
                             fam.params["a"])
        return [lattice_point(lab, mp).coords
                for lab in _lattice_labels(n, label_bound)]
    return _sample_points(samples, n, x_low, x_high, seed,
                          as_float=not fam.exact)


def _resolved_params(fam: _Family, label_bound, x_low, x_high,
                     cfg: QuadratureConfig) -> dict:
    """Family parameters plus the sweep settings, echoed into the report."""
    params = dict(fam.params)
    if fam.name == "macdonald-lattice":
        params["label_bound"] = label_bound
    else:
        params["x_low"] = Fraction(x_low)
        params["x_high"] = Fraction(x_high)
    if fam.name == "heckman-opdam":
        params["nodes"] = (cfg or QuadratureConfig()).nodes_per_dimension
    return params


# lhs >= rhs over the pairs of one enumeration mode: shapes(lam, mu) lists
# the partitions probed per pair, sides(probes) and tolerance(probes) read
# their (value, err) probes; the tolerance is computed for floats only
_Statement = namedtuple("_Statement", "command mode shapes sides tolerance")


def _order_sides(probes):
    (lhs, _), (rhs, _) = probes
    return lhs, rhs


def _order_tolerance(probes):
    (_, el), (_, er) = probes
    return 10 * (el + er)


def _midpoint_sides(probes):
    (vl, _), (vm, _), (vc, _) = probes
    return vl * vm, vc * vc


def _midpoint_tolerance(probes):
    # the per-value estimates propagated to first order
    (vl, el), (vm, em), (vc, ec) = probes
    return 10 * (el * abs(vm) + em * abs(vl) + 2 * ec * abs(vc))


_SCHUR = _Statement("check schur", "same-weight-comparable",
                    lambda lam, mu: (lam, mu), _order_sides, _order_tolerance)
_LOGCONVEX = _Statement("check logconvex", "midpoint-integral",
                        lambda lam, mu: (lam, mu, midpoint(lam, mu)),
                        _midpoint_sides, _midpoint_tolerance)
_WEAK = _SCHUR._replace(command="check weak", mode="weak-comparable")


def _sweep(stmt: _Statement, family, n, max_weight, samples, seed, *,
           theta=None, q=None, t=None, a=None, k=None, label_bound=None,
           x_low, x_high, cfg: QuadratureConfig = None) -> InequalityReport:
    """Probe stmt at every (pair, point); exact families fail on lhs < rhs,
    the floating family on rhs - lhs past its tolerance plus noise.

    Points run outside, pairs inside.  Each pair's shapes are held as slots
    (indices) into one list of distinct shapes, which one family call
    evaluates per point; a tie there skips the point for every pair.
    Violations are gathered per pair, so the report lists them pair by
    pair, point by point.
    """
    start = time.monotonic()
    _check_variables(n)
    if samples < 0:
        raise DomainError(f"need samples >= 0; got {samples}")
    fam = _make_family(family, n, theta=theta, q=q, t=t, a=a, k=k, cfg=cfg)
    points = _evaluation_points(fam, n, samples, x_low, x_high, seed,
                                label_bound)
    pairs = list(enumerate_pairs(n, max_weight, stmt.mode))
    slots = {}
    pair_slots = [[slots.setdefault(shape, len(slots))
                   for shape in stmt.shapes(lam, mu)] for lam, mu in pairs]
    shapes = list(slots)
    found = [[] for _ in pairs]
    near_misses = skipped = 0
    for x in points if pairs else ():
        try:
            row = fam.probe(shapes, x)
        except TieError:
            skipped += len(pairs)
            continue
        for (lam, mu), slot, hits in zip(pairs, pair_slots, found):
            probes = [row[i] for i in slot]
            lhs, rhs = stmt.sides(probes)
            if fam.exact:
                failed = lhs < rhs
            else:
                gap = rhs - lhs
                noise = NOISE_FLOOR * (abs(lhs) + abs(rhs))
                failed = gap > stmt.tolerance(probes) + noise
                if not failed and gap > noise:
                    near_misses += 1
            if failed:
                hits.append(Witness(fam.name, fam.params, lam, mu, x, lhs,
                                    rhs))
    elapsed = int((time.monotonic() - start) * 1000)
    return InequalityReport(stmt.command, fam.name,
                            _resolved_params(fam, label_bound, x_low, x_high, cfg),
                            n, max_weight, seed, len(pairs), len(points),
                            [w for hits in found for w in hits], near_misses,
                            skipped, elapsed)


def check_schur_convexity(family, n, max_weight, samples=100, seed=0, *,
                          theta=None, q=None, t=None, a=None, k=None,
                          label_bound=4, x_low=0, x_high=10,
                          cfg: QuadratureConfig = None) -> InequalityReport:
    """Sweep Omega_lambda(x) >= Omega_mu(x) over comparable same-weight pairs.

    Pairs come from enumerate_pairs(same-weight-comparable), so lambda
    strictly majorizes mu in every probe.  Exact families compare Fractions;
    the Heckman-Opdam family uses the tolerance 10 * (sum of the two
    quadrature error estimates) plus a machine-noise floor, and counts
    sub-tolerance failures above the noise floor as near-misses.
    """
    return _sweep(_SCHUR, family, n, max_weight, samples, seed, theta=theta,
                  q=q, t=t, a=a, k=k, label_bound=label_bound, x_low=x_low,
                  x_high=x_high, cfg=cfg)


def check_log_convexity(family, n, max_weight, samples=100, seed=0, *,
                        theta=None, q=None, t=None, a=None, k=None,
                        label_bound=4, x_low=0, x_high=10,
                        cfg: QuadratureConfig = None) -> InequalityReport:
    """Sweep Omega_lambda(x) * Omega_mu(x) >= Omega_mid(x)^2 over midpoints.

    Pairs come from enumerate_pairs(midpoint-integral): any weights, integer
    entrywise midpoint, lambda = mu included (a trivial equality).  Witness
    lhs/rhs record the compared products.  Floating tolerance propagates the
    per-value quadrature estimates to first order; as in the order sweep,
    only failures above the noise floor count as near-misses.
    """
    return _sweep(_LOGCONVEX, family, n, max_weight, samples, seed,
                  theta=theta, q=q, t=t, a=a, k=k, label_bound=label_bound,
                  x_low=x_low, x_high=x_high, cfg=cfg)


def check_weak_majorization(theta, n, max_weight, samples=100, seed=0, *,
                            x_low=1, x_high=10) -> InequalityReport:
    """Sweep Omega_lambda >= Omega_mu over weakly comparable pairs, x >= 1.

    The weak order drops the equal-weight requirement, and the inequality
    needs every coordinate at least 1 (Omega_(1,0)(x) = mean(x) < 1 =
    Omega_(0,0)(x) below that box), so a sampler reaching under 1 is a
    domain error.
    """
    if Fraction(x_low) < 1:
        raise DomainError(f"weak majorization sweeps need x >= 1; "
                          f"got x_low={x_low}")
    return _sweep(_WEAK, "jack", n, max_weight, samples, seed, theta=theta,
                  x_low=x_low, x_high=x_high)


def _violated_prefix(lam: Partition, mu: Partition) -> int:
    """Smallest r with mu_1 + ... + mu_r > lam_1 + ... + lam_r."""
    run_l = run_m = 0
    for r, (p, q) in enumerate(zip(lam.parts, mu.parts), start=1):
        run_l += p
        run_m += q
        if run_m > run_l:
            return r
    raise AssertionError(f"no violated prefix: {lam} vs {mu}")


def find_witness(lam, mu, family, *, theta=None, q=None, t=None,
                 a=None) -> Witness:
    """Construct a point where Omega_mu exceeds Omega_lambda.

    Requires equal weights and lambda NOT majorizing mu (domain error
    otherwise).  Takes the smallest prefix r where mu's partial sum wins
    and doubles a parameter from 1: ray families (muirhead, powersum, jack)
    probe x = (T,...,T,1,...,1) with r leading T's; the macdonald-lattice
    family probes the lattice point labeled (K,...,K,0,...,0).  On the ray
    the mu side has strictly larger degree with nonnegative coefficients
    for the monomial-positive families, so doubling must succeed; the
    powersum family can genuinely fail the ray, and past the ceiling 2**60
    the search stops with a domain error rather than an unsound answer.
    """
    lam = Partition(lam)
    mu = Partition(mu)
    if lam.n != mu.n:
        width = max(lam.n, mu.n)
        lam = lam.pad(width)
        mu = mu.pad(width)
    if lam.weight != mu.weight:
        raise DomainError(f"witness construction needs equal weights; "
                          f"got {lam.weight} and {mu.weight}")
    if majorizes(lam, mu):
        raise DomainError(f"{lam} majorizes {mu}; no violation exists")
    if family not in WITNESS_FAMILIES:
        raise ParameterError(f"unknown witness family {family!r}; "
                             f"expected one of {WITNESS_FAMILIES}")
    n = lam.n
    r = _violated_prefix(lam, mu)
    fam = _make_family(family, n, theta=theta, q=q, t=t, a=a)
    if family == "macdonald-lattice":
        mp = MacdonaldParams(fam.params["q"], fam.params["t"], n,
                             fam.params["a"])

        def point(K):
            label = (K,) * r + (0,) * (n - r)
            return lattice_point(label, mp).coords, {"label": label}

        failure = (f"no lattice separation below label {PARAMETER_CEILING} "
                   f"for {lam} vs {mu}")
    else:
        def point(T):
            return ((Fraction(T),) * r + (Fraction(1),) * (n - r),
                    {"ray_length": r, "ray_value": T})

        failure = (f"no ray separation below {PARAMETER_CEILING} "
                   f"for {lam} vs {mu} under {family}")
    for value in (1 << e for e in range(PARAMETER_CEILING.bit_length())):
        x, where = point(value)
        (lhs, _), (rhs, _) = fam.probe([lam, mu], x)
        if rhs > lhs:
            return Witness(family, dict(fam.params, **where), lam, mu, x,
                           lhs, rhs)
    raise DomainError(failure)


def _certified_omega(lam: Partition, mp: MacdonaldParams, x) -> Fraction:
    """Omega recomputed from a fresh expansion, bypassing every cache: the
    evaluation uses a private table of orbit sums, never the shared one."""
    p = macdonald._expand_uncached(lam.parts, mp)
    denom = poly_eval_fresh(p, mp.t_delta())
    if denom == 0:
        raise DegeneracyError(f"P_{lam.parts} vanishes at t^delta for "
                              f"q={mp.q}, t={mp.t}")
    return poly_eval_fresh(p, x) / denom


def _hunt_points(n, seed):
    """Deterministic probe stream: all-ones, near-degenerate perturbations,
    a short ladder grid, then seeded random rationals.  Never repeats."""
    seen = set()

    def fresh(pt):
        pt = tuple(sorted((Fraction(v) for v in pt), reverse=True))
        if pt in seen or any(v <= 0 for v in pt):
            return None
        seen.add(pt)
        return pt

    one = Fraction(1)
    structured = [(one,) * n]
    for e in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8),
              Fraction(1, 16), Fraction(1, 64)):
        structured.append((one + e,) + (one,) * (n - 1))
        structured.append((one,) * (n - 1) + (one - e,))
        if n >= 2:
            structured.append((one + e,) + (one,) * (n - 2) + (one - e,))
            structured.append((one + e,) * (n - 1) + (one,))
    for pt in structured:
        got = fresh(pt)
        if got:
            yield got
    ladder = (Fraction(2), Fraction(3, 2), Fraction(1), Fraction(1, 2),
              Fraction(1, 4))
    for combo in itertools.combinations_with_replacement(ladder, n):
        got = fresh(combo)
        if got:
            yield got
    sampler = RationalSampler(seed, Fraction(1, 16), Fraction(4))
    i = 0
    while True:
        got = fresh(sampler.point(i, n))
        if got:
            yield got
        i += 1


def hunt_violation(q, t, n=2, max_weight=6, budget=100000, seed=0, *,
                   a=1, lattice_only=False, label_bound=4):
    """Search for Omega_lambda(x; q, t) < Omega_mu(x; q, t) with lambda > mu.

    Probes points first and comparable same-weight pairs inside, so the
    structured points (starting with all-ones, where the first violations
    live) meet every pair early.  A hit is certified by re-deriving both
    expansions from scratch before it is returned.  Returns (witness, probes)
    with witness None when the budget runs out, or when the search space is
    exhausted in lattice_only mode, where probing is restricted to the
    labeled lattice (entries in [0, label_bound]) on which the sweep theorem
    applies, so finding nothing there is the expected sanity outcome.  With
    no comparable pair (n = 1, or max_weight below 2) it returns (None, 0).

    budget counts (pair, point) probes.  Equal pairs are never probed, so
    equality can never be reported as a violation.
    """
    return _hunt(q, t, n, max_weight, budget, seed, a, lattice_only,
                 label_bound)[:2]


def _hunt(q, t, n, max_weight, budget, seed, a, lattice_only, label_bound):
    """hunt_violation's search: (witness, probes, enumerated pair count).

    With no pair to compare it returns at once: the off-lattice point stream
    never ends, and no probe would spend the budget.
    """
    _check_variables(n)
    if budget < 0:
        raise DomainError(f"need budget >= 0; got {budget}")
    mp = MacdonaldParams(q, t, n, a)
    pairs = list(enumerate_pairs(n, max_weight, "same-weight-comparable"))
    if lattice_only:
        points = iter([lattice_point(lab, mp).coords
                       for lab in _lattice_labels(n, label_bound)])
    else:
        points = _hunt_points(n, seed)
    probes = 0
    for x in points if pairs else ():
        omega = omega_mac_at(mp, x)
        values = {}
        for lam, mu in pairs:
            if probes >= budget:
                return None, probes, len(pairs)
            probes += 1
            for p in (lam, mu):
                if p not in values:
                    values[p] = omega(p)
            lhs, rhs = values[lam], values[mu]
            if lhs < rhs:
                # soundness: recompute both sides from fresh expansions
                for p, value in ((lam, lhs), (mu, rhs)):
                    if _certified_omega(p, mp, x) != value:
                        raise CertificationError(
                            f"Omega_{p}({x}) did not re-derive to {value}; "
                            "the witness is withheld")
                params = {"q": mp.q, "t": mp.t, "a": mp.a}
                witness = Witness("macdonald", params, lam, mu, x, lhs, rhs)
                return witness, probes, len(pairs)
    return None, probes, len(pairs)


def hunt_report(q, t, n=2, max_weight=6, budget=100000, seed=0, *,
                a=1, lattice_only=False, label_bound=4) -> InequalityReport:
    """hunt_violation wrapped in the common report shape.

    pairs_checked counts probes spent; samples counts enumerated pairs.
    """
    start = time.monotonic()
    witness, probes, pairs = _hunt(q, t, n, max_weight, budget, seed, a,
                                   lattice_only, label_bound)
    elapsed = int((time.monotonic() - start) * 1000)
    mp = MacdonaldParams(q, t, n, a)
    params = {"q": mp.q, "t": mp.t, "a": mp.a, "budget": budget,
              "mode": "lattice" if lattice_only else "off-lattice"}
    return InequalityReport("hunt", "macdonald", params, n, max_weight,
                            seed, probes, pairs,
                            [witness] if witness else [], 0, 0, elapsed)
