"""Command-line surface.

Subcommands: expand (monomial expansions), eval (exact evaluation),
majorize (order query), check (inequality sweeps), witness (constructive
separation), hunt (off-lattice violation search), ho (hypergeometric
quadrature: eval, verify, residual).

Exit codes: 0 = pass, order true, or empty violations; 1 = violations
found, order false, or a witness produced; 2 = usage or domain errors.
Global flags (--seed, --out, --cache, --quiet) are accepted after any
subcommand; --quiet suppresses all regular output so the exit code alone
carries the outcome.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from . import cache as cache_mod
from ._version import __version__
from .cache import ExpansionCache
from .classical import FAMILIES as CLASSICAL_BASES
from .classical import expand_classical
from .errors import OmegalabError, ParameterError
from .heckman_opdam import (HOParams, QuadratureConfig,
                            ho_direction_residual, ho_eval,
                            ho_jack_consistency)
from .jack import jack_expand
from .lab import (FAMILIES, WITNESS_FAMILIES, InequalityReport, Witness,
                  _check_variables, _json_value, check_log_convexity,
                  check_schur_convexity, check_weak_majorization,
                  find_witness, hunt_report)
from .macdonald import MacdonaldParams, macdonald_expand
from .partitions import Partition, majorizes
from .sympoly import _decimal_text, _parse_rational

CHECK_KINDS = ("schur", "logconvex", "weak", "muirhead")
HO_ACTIONS = ("eval", "verify", "residual")

# a value that starts with "-" and a digit or a point; argparse reads only
# plain numbers such as -1 or -1.5 as values, and "-1,1", "-1/2" or
# "-2.5E-3" as an unknown option
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _bad_argument(kind: str, text: str, reason: str):
    """The usage error for text, quoting a bounded prefix of it: arguments
    may be of any length, and an exception's own text repeats them whole."""
    shown = repr(text) if len(text) <= 40 else repr(text[:40]) + "..."
    return argparse.ArgumentTypeError(f"bad {kind} {shown}: {reason}")


def _partition_arg(text: str) -> Partition:
    clean = text.strip().strip("()[]")
    try:
        return Partition(int(tok) for tok in clean.split(",") if tok.strip())
    except ValueError as e:
        reason = ("parts not nonnegative and weakly decreasing"
                  if isinstance(e, OmegalabError)
                  else "not a comma-separated list of integers")
        raise _bad_argument("partition", text, reason)


def _rational_arg(text: str) -> Fraction:
    # integers and p/q of any length
    try:
        return _parse_rational(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        reason = ("zero denominator" if isinstance(e, ZeroDivisionError)
                  else str(e) if isinstance(e, OmegalabError)
                  else "not an integer, p/q or decimal")
        raise _bad_argument("rational", text, reason)


def _point_arg(text: str) -> tuple:
    return tuple(_rational_arg(tok) for tok in text.strip().strip("()[]").split(","))


def _real_arg(text: str) -> float:
    # decimals, integers, and p/q all accepted for the floating commands
    try:
        return float(_rational_arg(text))
    except OverflowError:
        raise _bad_argument("real", text, "out of floating range") from None


def _int_arg(text: str) -> int:
    # what int() reads; its own error repeats the text whole
    try:
        return int(text)
    except ValueError:
        raise _bad_argument("integer", text, "not a decimal integer within "
                            "int()'s digit limit") from None


def _real_point_arg(text: str) -> tuple:
    return tuple(_real_arg(tok) for tok in text.strip().strip("()[]").split(","))


def _theta_arg(text: str):
    text = text.strip()
    if text in ("inf", "oo"):
        return text
    return _rational_arg(text)


def _add_globals(p: argparse.ArgumentParser):
    # SUPPRESS keeps a flag given before the subcommand from being clobbered
    # by the subparser's default
    g = p.add_argument_group("global flags")
    g.add_argument("--seed", type=_int_arg, default=argparse.SUPPRESS,
                   help="sampler seed (default 0)")
    g.add_argument("--out", choices=("json", "table"),
                   default=argparse.SUPPRESS,
                   help="report format (default json)")
    g.add_argument("--cache", metavar="PATH", default=argparse.SUPPRESS,
                   help="append-only expansion cache file")
    g.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                   help="no output; exit code carries the outcome")


def _add_quadrature_flags(p: argparse.ArgumentParser):
    p.add_argument("--nodes", dest="nodes_per_dimension", type=_int_arg,
                   help="quadrature nodes per panel, 4 to 1024 (at most "
                        "512 for a heckman-opdam check, whose error "
                        "estimate doubles it): one panel per dimension, "
                        "two for a k < 1 box near an outside coordinate")
    p.add_argument("--min-gap", dest="min_gap", type=_real_arg,
                   help="tie threshold on coordinates")


def _given(ns, *names) -> dict:
    # every flag given, 0 included, goes to the callee, which refuses what
    # it must; the others keep its defaults
    return {name: getattr(ns, name) for name in names
            if getattr(ns, name) is not None}


def _quadrature_config(ns) -> QuadratureConfig | None:
    given = _given(ns, "nodes_per_dimension", "min_gap")
    return QuadratureConfig(**given) if given else None


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="omegalab",
        description="exact symmetric-function engine and inequality laboratory")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="cmd", required=True, metavar="COMMAND")

    p = sub.add_parser("expand", help="print a monomial expansion")
    p.add_argument("--family", required=True,
                   choices=("classical", "jack", "macdonald"))
    p.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--n", type=_int_arg,
                   help="number of variables (default: parts)")
    p.add_argument("--basis", choices=CLASSICAL_BASES, default="monomial",
                   help="classical family to expand")
    p.add_argument("--theta", type=_theta_arg, help="jack parameter")
    p.add_argument("--q", type=_rational_arg)
    p.add_argument("--t", type=_rational_arg)
    _add_globals(p)
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("eval", help="exactly evaluate an expansion")
    p.add_argument("--family", required=True,
                   choices=("classical", "jack", "macdonald"))
    p.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--n", type=_int_arg)
    p.add_argument("--basis", choices=CLASSICAL_BASES, default="monomial")
    p.add_argument("--theta", type=_theta_arg)
    p.add_argument("--q", type=_rational_arg)
    p.add_argument("--t", type=_rational_arg)
    p.add_argument("--x", type=_point_arg, required=True,
                   help="comma-separated rational coordinates")
    _add_globals(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("majorize", help="does a majorize b?")
    p.add_argument("a", type=_partition_arg)
    p.add_argument("b", type=_partition_arg)
    _add_globals(p)
    p.set_defaults(handler=_cmd_majorize)

    p = sub.add_parser("check", help="run an inequality sweep")
    p.add_argument("kind", choices=CHECK_KINDS)
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--max-weight", dest="max_weight", type=_int_arg,
                   required=True)
    p.add_argument("--samples", type=_int_arg, default=100)
    p.add_argument("--theta", type=_theta_arg)
    p.add_argument("--q", type=_rational_arg)
    p.add_argument("--t", type=_rational_arg)
    p.add_argument("--a", type=_rational_arg)
    p.add_argument("--k", type=_real_arg, help="heckman-opdam coupling")
    p.add_argument("--label-bound", dest="label_bound", type=_int_arg,
                   default=4)
    p.add_argument("--x-low", dest="x_low", type=_rational_arg)
    p.add_argument("--x-high", dest="x_high", type=_rational_arg)
    _add_quadrature_flags(p)
    _add_globals(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("witness", help="construct a separation point")
    p.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--mu", type=_partition_arg, required=True)
    p.add_argument("--family", required=True, choices=WITNESS_FAMILIES)
    p.add_argument("--theta", type=_theta_arg)
    p.add_argument("--q", type=_rational_arg)
    p.add_argument("--t", type=_rational_arg)
    p.add_argument("--a", type=_rational_arg)
    _add_globals(p)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("hunt", help="search for off-lattice violations")
    p.add_argument("--q", type=_rational_arg, required=True)
    p.add_argument("--t", type=_rational_arg, required=True)
    p.add_argument("--a", type=_rational_arg, default=Fraction(1))
    p.add_argument("--n", type=_int_arg, default=2)
    p.add_argument("--max-weight", dest="max_weight", type=_int_arg,
                   default=6)
    p.add_argument("--budget", type=_int_arg, default=100000)
    p.add_argument("--lattice-only", dest="lattice_only", action="store_true")
    p.add_argument("--label-bound", dest="label_bound", type=_int_arg,
                   default=4)
    _add_globals(p)
    p.set_defaults(handler=_cmd_hunt)

    p = sub.add_parser("ho", help="hypergeometric function by quadrature")
    p.add_argument("action", choices=HO_ACTIONS)
    p.add_argument("--k", type=_real_arg, required=True)
    p.add_argument("--s", type=_real_point_arg, help="spectral parameter")
    p.add_argument("--x", type=_real_point_arg, required=True)
    p.add_argument("--lambda", dest="lam", type=_partition_arg,
                   help="partition for verify")
    p.add_argument("--h", type=_real_arg, default=1e-4,
                   help="difference step for residual")
    p.add_argument("--tol", type=_real_arg,
                   help="fail (exit 1) when the gap exceeds this")
    p.add_argument("--perturb", type=_real_arg, metavar="EPS",
                   help="split tied coordinates by a trace-preserving shift")
    _add_quadrature_flags(p)
    _add_globals(p)
    p.set_defaults(handler=_cmd_ho)

    return top


def _expansion(ns):
    lam = ns.lam
    n = ns.n if ns.n is not None else lam.n
    _check_variables(n)
    lam = lam.pad(n)
    if ns.family == "classical":
        return expand_classical(ns.basis, lam, n)
    if ns.family == "jack":
        if ns.theta is None:
            raise ParameterError("the jack family needs --theta")
        return jack_expand(lam, ns.theta)
    if ns.theta is not None and ns.family == "macdonald":
        raise ParameterError("macdonald expansions take --q and --t, not --theta")
    if ns.q is None or ns.t is None:
        raise ParameterError("the macdonald family needs --q and --t")
    return macdonald_expand(lam, MacdonaldParams(ns.q, ns.t, n))


def _cmd_expand(ns, seed, out, quiet) -> int:
    p = _expansion(ns)
    if not quiet:
        for key, coeff in p.items():
            print(f"m({','.join(str(e) for e in key)}): "
                  f"{_decimal_text(coeff)}")
    return 0


def _cmd_eval(ns, seed, out, quiet) -> int:
    value = _expansion(ns).eval(ns.x)
    if not quiet:
        print(_decimal_text(value))
    return 0


def _cmd_majorize(ns, seed, out, quiet) -> int:
    width = max(ns.a.n, ns.b.n)
    result = majorizes(ns.a.pad(width), ns.b.pad(width))
    if not quiet:
        print("true" if result else "false")
    return 0 if result else 1


def _witness_line(w: Witness) -> str:
    x = ",".join(str(_json_value(v)) for v in w.x)
    return (f"lambda={w.lam} mu={w.mu} x=({x}) "
            f"lhs={_json_value(w.lhs)} rhs={_json_value(w.rhs)}")


def _emit_report(rep: InequalityReport, out: str, quiet: bool):
    if quiet:
        return
    if out == "json":
        print(json.dumps(rep.to_json()))
        return
    d = rep.to_json()
    params = ", ".join(f"{k}={v}" for k, v in d["params"].items())
    print(f"command:    {d['command']}")
    print(f"family:     {d['family']}  ({params})")
    print(f"sweep:      n={d['n']} max_weight={d['max_weight']} seed={d['seed']}")
    print(f"probes:     pairs={d['pairs_checked']} samples={d['samples']}")
    print(f"outcome:    violations={len(rep.violations)} "
          f"near_misses={d['near_misses']} skipped={d['skipped']}")
    for w in rep.violations:
        print(f"  violation: {_witness_line(w)}")
    print(f"elapsed_ms: {d['elapsed_ms']}  version: {d['version']}")


def _cmd_check(ns, seed, out, quiet) -> int:
    cfg = _quadrature_config(ns)
    common = dict(samples=ns.samples, seed=seed,
                  **_given(ns, "x_low", "x_high"))
    if ns.kind == "weak":
        if ns.theta is None:
            raise ParameterError("check weak needs --theta")
        rep = check_weak_majorization(ns.theta, ns.n, ns.max_weight,
                                      **common)
    else:
        family = "muirhead" if ns.kind == "muirhead" else ns.family
        if family is None:
            raise ParameterError(f"check {ns.kind} needs --family")
        driver = (check_log_convexity if ns.kind == "logconvex"
                  else check_schur_convexity)
        rep = driver(family, ns.n, ns.max_weight, **common,
                     theta=ns.theta, q=ns.q, t=ns.t, a=ns.a, k=ns.k,
                     label_bound=ns.label_bound, cfg=cfg)
    _emit_report(rep, out, quiet)
    return 0 if rep.passed else 1


def _cmd_witness(ns, seed, out, quiet) -> int:
    w = find_witness(ns.lam, ns.mu, ns.family,
                     theta=ns.theta, q=ns.q, t=ns.t, a=ns.a)
    if not quiet:
        if out == "json":
            print(json.dumps({
                "command": "witness",
                "family": w.family,
                "params": {k: _json_value(v) for k, v in w.params.items()},
                "witness": w.to_json(),
                "version": __version__,
            }))
        else:
            print(f"witness found: {_witness_line(w)} "
                  f"margin={_json_value(w.margin)}")
    return 1


def _cmd_hunt(ns, seed, out, quiet) -> int:
    rep = hunt_report(ns.q, ns.t, ns.n, ns.max_weight, ns.budget, seed,
                      a=ns.a, lattice_only=ns.lattice_only,
                      label_bound=ns.label_bound)
    _emit_report(rep, out, quiet)
    return 0 if rep.passed else 1


def _perturbed(x: tuple, cfg: QuadratureConfig | None, eps, quiet) -> tuple:
    """Split tied coordinates by eps times the staircase (n-1-2i)/2.

    The shift preserves the coordinate sum and widens every adjacent gap
    by eps, so a tied point moves to the nearest usable one.
    """
    if eps is None:
        return x
    gap = (cfg or QuadratureConfig()).min_gap
    xs = sorted(x, reverse=True)
    if all(xs[i] - xs[i + 1] >= gap for i in range(len(xs) - 1)):
        return x
    n = len(xs)
    moved = tuple(v + eps * (n - 1 - 2 * i) / 2 for i, v in enumerate(xs))
    if not quiet:
        print(f"perturbed x: ({','.join(repr(v) for v in moved)})")
    return moved


def _cmd_ho(ns, seed, out, quiet) -> int:
    cfg = _quadrature_config(ns)
    params = HOParams(ns.k, len(ns.x))
    x = _perturbed(ns.x, cfg, ns.perturb, quiet)
    if ns.action == "eval":
        if ns.s is None:
            raise ParameterError("ho eval needs --s")
        value = ho_eval(params, ns.s, x, cfg)
        if not quiet:
            print(repr(value))
        return 0
    if ns.action == "verify":
        if ns.lam is None:
            raise ParameterError("ho verify needs --lambda")
        gap = ho_jack_consistency(ns.lam, params, x, cfg)
        if not quiet:
            print(f"relative gap: {gap!r}")
        return 0 if ns.tol is None or gap <= ns.tol else 1
    if ns.s is None:
        raise ParameterError("ho residual needs --s")
    res = ho_direction_residual(params, ns.s, x, ns.h, cfg)
    if not quiet:
        print(f"direction residual: {res!r}")
    return 0 if ns.tol is None or res <= ns.tol else 1


def _value_options(parser: argparse.ArgumentParser) -> set:
    """Every option string, of parser and its subcommands, that takes a
    value."""
    out = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= _value_options(sub)
        elif action.nargs is None:
            out.update(action.option_strings)
    return out


def _join_negative_values(argv: list, options: set) -> list:
    """argv with each "--opt VALUE", VALUE a negative number or vector,
    passed on as "--opt=VALUE"; --opt may be a prefix of an option, as
    argparse allows.  Nothing after a bare "--" changes."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--":
            return out + argv[i:]
        if (tok.startswith("--") and i + 1 < len(argv)
                and _NEGATIVE_VALUE.match(argv[i + 1])
                and any(option.startswith(tok) for option in options)):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = parser.parse_args(_join_negative_values(argv,
                                                 _value_options(parser)))
    seed = getattr(ns, "seed", 0)
    out = getattr(ns, "out", "json")
    quiet = getattr(ns, "quiet", False)
    cache_path = getattr(ns, "cache", None)
    prior = cache_mod.active_cache()
    try:
        if cache_path:
            cache_mod.activate(ExpansionCache(cache_path))
        return ns.handler(ns, seed, out, quiet)
    except OmegalabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        cache_mod.activate(prior)


def main():
    raise SystemExit(run())
