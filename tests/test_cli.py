"""End-to-end command-line behavior: output formats, exit codes, and the
cache and perturbation flags."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import omegalab
from omegalab.cli import run
from omegalab.classical import muirhead_eval
from omegalab.jack import jack_expand
from omegalab.sympoly import _decimal_text, monomial_eval
from test_lab import run_optimized


def parse_expansion(text: str) -> dict:
    """Read 'm(2,0): 6/5' lines back into an exponent-to-coefficient map."""
    out = {}
    for line in text.strip().splitlines():
        head, coeff = line.split(":")
        assert head.startswith("m(") and head.endswith(")")
        key = tuple(int(tok) for tok in head[2:-1].split(","))
        out[key] = Fraction(coeff.strip())
    return out


def test_majorize_exit_codes(capsys):
    assert run(["majorize", "2,0", "1,1"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run(["majorize", "1,1", "2,0"]) == 1
    assert capsys.readouterr().out.strip() == "false"
    # different-length inputs are padded, not rejected
    assert run(["majorize", "2,1", "1,1,1"]) == 0


def test_bad_arguments_exit_two():
    with pytest.raises(SystemExit) as exc:
        run(["majorize", "2,x", "1,1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run(["no-such-command"])
    with pytest.raises(SystemExit):
        run(["check", "schur", "--family", "muirhead"])  # missing --n
    # a negative value does not make an unknown option known
    with pytest.raises(SystemExit) as exc:
        run(["ho", "eval", "--k", "1", "--bogus", "-1,1", "--x", "0,0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    ["ho", "eval", "--k", "1", "--s", "-1,1", "--x", "0,0"],
    ["ho", "eval", "--k", "1", "--s", "-1/2,0.5", "--x", "0,0"],
    ["ho", "eval", "--k", "1", "--s", "1,-1", "--x", "-0.5,-1"],
    ["eval", "--family", "classical", "--basis", "powersum", "--lambda", "2",
     "--x", "-2.5E-3"],
    # a prefix of --perturb, which argparse accepts for the option
    ["ho", "eval", "--k", "1", "--s", "1,-1", "--x", "0.5,0.5",
     "--pert", "-1e-3"],
])
def test_negative_values_need_no_equals_sign(args, capsys):
    assert run(args[:-2] + [f"{args[-2]}={args[-1]}"]) == 0
    expected = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == expected != ""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_module_entry_point_exits_like_run(flags, capsys):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        os.path.dirname(os.path.dirname(omegalab.__file__)),
        os.environ.get("PYTHONPATH")))))
    for args in (["majorize", "2,0", "1,1"], ["majorize", "1,1", "2,0"],
                 ["majorize", "2,x", "1,1"],
                 ["ho", "eval", "--k", "1", "--s", "-1,1", "--x", "0,0"]):
        try:
            code = run(args)
        except SystemExit as e:
            code = e.code
        out = capsys.readouterr().out
        proc = subprocess.run([sys.executable, *flags, "-m", "omegalab",
                               *args], env=env, capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (code, out), proc.stderr


def test_domain_errors_exit_two(capsys):
    # --theta belongs to the jack family, not to macdonald
    code = run(["expand", "--family", "macdonald", "--lambda", "2,0",
                "--q", "1/2", "--t", "1/3", "--theta", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_expand_output(capsys):
    assert run(["expand", "--family", "macdonald", "--lambda", "2,0",
                "--q", "1/2", "--t", "1/3"]) == 0
    terms = parse_expansion(capsys.readouterr().out)
    assert terms == {(2, 0): 1, (1, 1): Fraction(6, 5)}


def test_expand_eval_round_trip(capsys):
    args = ["--family", "jack", "--lambda", "3,1", "--theta", "1/2"]
    assert run(["expand"] + args) == 0
    terms = parse_expansion(capsys.readouterr().out)
    x = (Fraction(7, 2), Fraction(1, 3))
    by_hand = sum(c * monomial_eval(key, x) for key, c in terms.items())
    assert run(["eval"] + args + ["--x", "7/2,1/3"]) == 0
    assert Fraction(capsys.readouterr().out.strip()) == by_hand


def test_eval_pinned_value(capsys):
    assert run(["eval", "--family", "macdonald", "--lambda", "2,0",
                "--q", "1/2", "--t", "1/3", "--x", "4,1"]) == 0
    assert capsys.readouterr().out.strip() == "109/5"


def test_classical_basis_flag(capsys):
    # the index pads to (2,0) and the zero part contributes a factor p_0 = n
    assert run(["expand", "--family", "classical", "--basis", "powersum",
                "--lambda", "2", "--n", "2"]) == 0
    terms = parse_expansion(capsys.readouterr().out)
    assert terms == {(2, 0): 2}


def test_check_json_report(capsys):
    code = run(["check", "schur", "--family", "muirhead", "--n", "3",
                "--max-weight", "4", "--samples", "10", "--seed", "3"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["command"] == "check schur"
    assert data["family"] == "muirhead"
    assert data["seed"] == 3
    assert data["violations"] == []
    assert data["samples"] == 10


def test_check_table_format(capsys):
    code = run(["check", "weak", "--theta", "1", "--n", "2",
                "--max-weight", "3", "--samples", "5", "--out", "table"])
    assert code == 0
    text = capsys.readouterr().out
    assert "outcome:    violations=0" in text
    assert "family:     jack" in text


def test_check_muirhead_alias(capsys):
    code = run(["check", "muirhead", "--n", "2", "--max-weight", "3",
                "--samples", "5"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["family"] == "muirhead"


def test_witness_json_and_soundness(capsys):
    code = run(["witness", "--family", "muirhead",
                "--lambda", "1,1,0", "--mu", "2,0,0"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["command"] == "witness"
    w = data["witness"]
    assert list(w) == ["lambda", "mu", "x", "lhs", "rhs"]
    x = tuple(Fraction(v) for v in w["x"])
    assert muirhead_eval(tuple(w["lambda"]), x) == Fraction(w["lhs"])
    assert Fraction(w["lhs"]) < Fraction(w["rhs"])


def test_witness_comparable_pair_is_an_error(capsys):
    code = run(["witness", "--family", "muirhead",
                "--lambda", "2,0", "--mu", "1,1"])
    assert code == 2
    assert "majorizes" in capsys.readouterr().err


def test_hunt_finds_and_reports(capsys):
    code = run(["hunt", "--q", "1/2", "--t", "1/3", "--budget", "200",
                "--out", "table"])
    assert code == 1
    text = capsys.readouterr().out
    assert "violation:" in text
    assert "lhs=" in text


def test_hunt_lattice_only_passes(capsys):
    code = run(["hunt", "--q", "1/2", "--t", "1/3", "--lattice-only",
                "--label-bound", "2", "--max-weight", "4", "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_ho_eval_prints_value(capsys):
    code = run(["ho", "eval", "--k", "1", "--s", "1,-1",
                "--x", "1.3862943611198906,0"])
    assert code == 0
    assert abs(float(capsys.readouterr().out) - 1.25) < 1e-10


def test_ho_verify_tolerance_gate(capsys):
    base = ["ho", "verify", "--k", "1", "--lambda", "2,1", "--x", "1,-1"]
    assert run(base + ["--tol", "1e-6"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("relative gap:")
    assert run(base + ["--tol", "1e-30"]) == 1


def test_ho_residual(capsys):
    code = run(["ho", "residual", "--k", "1", "--s", "1,-1",
                "--x", "0.8,-0.3", "--tol", "1e-3"])
    assert code == 0
    assert capsys.readouterr().out.startswith("direction residual:")


def test_ho_perturb_splits_ties(capsys):
    # partial tie: two of three coordinates coincide
    base = ["ho", "eval", "--k", "1", "--s", "1,0,-1", "--x", "1,1,0"]
    assert run(base) == 2  # tied point is an error without the flag
    capsys.readouterr()
    assert run(base + ["--perturb", "1e-3"]) == 0
    out = capsys.readouterr().out
    assert "perturbed x:" in out
    assert run(base + ["--perturb", "1e-3", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_ho_uniform_point_needs_no_perturbation(capsys):
    # a fully tied point is fine: the diagonal split handles it exactly
    assert run(["ho", "eval", "--k", "1", "--s", "1,-1", "--x", "1,1"]) == 0
    assert float(capsys.readouterr().out) == 1.0


def test_missing_family_parameters(capsys):
    assert run(["expand", "--family", "jack", "--lambda", "2,0"]) == 2
    capsys.readouterr()
    assert run(["ho", "eval", "--k", "1", "--x", "1,0"]) == 2


def test_cache_is_transparent(tmp_path, capsys):
    args = ["eval", "--family", "macdonald", "--lambda", "2,1",
            "--q", "2/3", "--t", "1/2", "--x", "3,1"]
    assert run(args) == 0
    plain = capsys.readouterr().out
    path = str(tmp_path / "cache.txt")
    assert run(args + ["--cache", path]) == 0
    cold = capsys.readouterr().out
    assert run(args + ["--cache", path]) == 0
    warm = capsys.readouterr().out
    assert plain == cold == warm
    header, *records = open(path).read().splitlines()
    assert header == "omegalab-cache v1"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


HOSTILE = [
    ["check", "schur", "--family", "macdonald-lattice", "--q", "1/2",
     "--t", "1/3", "--n", "2", "--max-weight", "3", "--label-bound", "-1"],
    ["hunt", "--q", "1/2", "--t", "1/3", "--lattice-only",
     "--label-bound", "-1"],
    ["check", "schur", "--family", "muirhead", "--n", "0",
     "--max-weight", "3"],
    ["check", "schur", "--family", "muirhead", "--n", "2",
     "--max-weight", "3", "--samples", "-5"],
    ["check", "weak", "--theta", "1", "--n", "2", "--max-weight", "3",
     "--samples", "-2"],
    ["hunt", "--q", "1/2", "--t", "1/3", "--budget", "-3"],
]


# quadrature inputs whose reference value underflows to 0, so the relative
# gap or residual is undefined
UNDERFLOWING = [
    ["ho", "verify", "--k", "1", "--lambda", "1,0", "--x=-800,-801",
     "--tol", "1e-6"],
    ["ho", "residual", "--k", "1", "--s", "-1000", "--x", "1"],
]


def assert_exit_two(argvs, capsys):
    for argv in argvs:
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: "), argv


def assert_exit_two_under_optimization(argvs):
    # python -O strips asserts; each refusal must survive it
    out, err = run_optimized(f"""
        import contextlib, io
        from omegalab.cli import run
        for argv in {argvs!r}:
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = run(argv)
            print(code, stderr.getvalue().startswith("error: "))
    """)
    assert out == ["2", "True"] * len(argvs), err


def test_hostile_arguments_exit_two(capsys):
    assert_exit_two(HOSTILE, capsys)


def test_hostile_arguments_exit_two_under_optimization():
    assert_exit_two_under_optimization(HOSTILE)


def test_underflowing_quadrature_checks_exit_two(capsys):
    assert_exit_two(UNDERFLOWING, capsys)


def test_underflowing_quadrature_checks_exit_two_under_optimization():
    assert_exit_two_under_optimization(UNDERFLOWING)


# F is near e^1600 here; the quadrature used to print nan and exit 0
OUT_OF_RANGE = ["ho", "eval", "--k", "1/2", "--s", "3,-1", "--x", "400,-400"]


def test_quadrature_values_out_of_range_exit_two(capsys):
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert_exit_two([OUT_OF_RANGE], capsys)


def test_quadrature_values_out_of_range_exit_two_under_optimization():
    # numpy's overflow warning precedes the error line on stderr
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        os.path.dirname(os.path.dirname(omegalab.__file__)),
        os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-O", "-m", "omegalab",
                           *OUT_OF_RANGE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert "\nerror: F_{k,s}(x) is inf" in proc.stderr


# str() refuses integers of more than 4300 digits; each command prints
# exact values of any size
def test_eval_prints_values_past_the_digit_limit(capsys):
    assert run(["eval", "--family", "classical", "--basis", "powersum",
                "--lambda", "5000", "--x", "10"]) == 0
    assert capsys.readouterr().out == "1" + "0" * 5000 + "\n"


def test_expand_prints_coefficients_past_the_digit_limit(capsys):
    theta = 10 ** 5000
    assert run(["expand", "--family", "jack", "--lambda", "2,0",
                "--theta", "1e5000"]) == 0
    out = capsys.readouterr().out
    expected = dict(jack_expand((2, 0), Fraction(theta)).items())[(1, 1)]
    assert expected.numerator >= theta
    assert out.splitlines() == [
        "m(2,0): 1", f"m(1,1): {_decimal_text(expected)}"]


def test_witness_table_prints_values_past_the_digit_limit(capsys):
    assert run(["witness", "--family", "muirhead", "--lambda", "10000,10000",
                "--mu", "20000,0", "--out", "table"]) == 1
    line = capsys.readouterr().out
    lhs, rhs = 2 ** 10000, Fraction(2 ** 20000 + 1, 2)
    assert line == (f"witness found: lambda=10000,10000 mu=20000,0 x=(2,1) "
                    f"lhs={_decimal_text(lhs)} rhs={_decimal_text(rhs)} "
                    f"margin={_decimal_text(rhs - lhs)}\n")
    assert rhs.numerator >= 10 ** 6000


def expansion_lines(argv, capsys):
    assert run(argv) == 0
    return capsys.readouterr().out.splitlines()


def test_exact_arguments_of_any_length(capsys):
    # integers and p/q past the 4300-digit limit of int(), each read as the
    # same value as its short scientific form
    zeros = "0" * 5000
    jack = ["expand", "--family", "jack", "--lambda", "2,0", "--theta"]
    assert (expansion_lines(jack + ["1" + zeros], capsys)
            == expansion_lines(jack + ["1e5000"], capsys))
    assert (expansion_lines(jack + ["1/1" + zeros], capsys)
            == expansion_lines(jack + ["1e-5000"], capsys))
    mac = ["expand", "--family", "macdonald", "--lambda", "2,1", "--t", "1/3",
           "--q"]
    assert (expansion_lines(mac + ["1/1" + zeros], capsys)
            == expansion_lines(mac + ["1e-5000"], capsys))


def test_malformed_exact_argument_quotes_a_bounded_prefix(capsys):
    theta = ["expand", "--family", "jack", "--lambda", "2,0", "--theta"]
    lam = ["expand", "--family", "jack", "--theta", "1", "--lambda"]
    for argv, kind in (
            (theta + ["1x" + "0" * 5000], "bad rational"),
            (theta + ["1/" + "0" * 5000], "bad rational"),
            (theta + ["1/2/3"], "bad rational"),
            (lam + ["1" + "0" * 5000 + ",0"], "bad partition"),
            (lam + ["0," * 3000 + "1"], "bad partition")):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert kind in err and argv[-1][:40] in err
        assert len(err.splitlines()[-1]) < 200


def test_huge_exponent_is_refused_at_once():
    # Fraction(text) builds 10**exponent exactly; a subprocess bounds a hang
    out, err = run_optimized("""
        import contextlib, io
        from fractions import Fraction
        from omegalab import sympoly
        from omegalab.cli import run
        bound = sympoly.MAX_EXPONENT
        print(sympoly._parse_rational(f"1e{bound}") == 10 ** bound,
              sympoly._parse_rational(f"1e-{bound}")
              == Fraction(1, 10 ** bound))
        for theta in ("1e99999999999", "-2.5E-99999999999", f"1e{bound + 1}"):
            stderr = io.StringIO()
            try:
                with contextlib.redirect_stderr(stderr):
                    code = run(["expand", "--family", "jack", "--lambda",
                                "2,0", f"--theta={theta}"])
            except SystemExit as e:
                code = e.code
            print(code, "exponent" in stderr.getvalue())
    """, timeout=60)
    assert out == ["True", "True"] + ["2", "True"] * 3, err


def test_hunt_without_pairs_exits_zero():
    # no comparable pair at n = 1; a subprocess bounds a hang
    out, err = run_optimized("""
        import contextlib, io, json
        from omegalab.cli import run
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run(["hunt", "--q", "1/2", "--t", "1/3", "--n", "1",
                        "--budget", "5"])
        print(code, json.loads(stdout.getvalue())["pairs_checked"])
    """, timeout=60)
    assert out == ["0", "0"], err


def test_cache_keys_hold_parameters_past_the_digit_limit(monkeypatch, capsys,
                                                         tmp_path):
    from omegalab import cache
    argv = ["expand", "--family", "jack", "--lambda", "2,0", "--theta",
            "1e5000", "--cache", str(tmp_path / "cache.txt")]
    plain = expansion_lines(argv[:-2], capsys)
    for _ in range(2):  # computed and written, then read from the file
        monkeypatch.setattr(cache, "_MEMO", {})
        assert expansion_lines(argv, capsys) == plain
