"""End-to-end command-line behavior: output formats, exit codes, and the
cache and perturbation flags."""

import json
import os
import pathlib
import shlex
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


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list:
    """The argv of each line of the sh block under README "Command line"."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.splitlines() if line.strip()]
    assert commands and all(argv[0] == "omegalab" for argv in commands)
    return [argv[1:] for argv in commands]


def test_readme_examples_exit_as_documented(capsys):
    # witness and hunt report what they found with exit 1; the rest pass
    commands = readme_commands()
    assert len(commands) == 13
    for argv in commands:
        expected = 1 if argv[0] in ("witness", "hunt") else 0
        assert run(argv) == expected, argv
        captured = capsys.readouterr()
        assert captured.out and not captured.err, argv


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


def test_quadrature_rule_is_not_an_option():
    # endpoint-substitution is the only rule; argparse refuses the old flag
    with pytest.raises(SystemExit) as exc:
        run(["ho", "eval", "--k", "1/2", "--s", "1,0", "--x", "1,0",
             "--rule", "plain-gauss"])
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


def test_witness_json_keeps_parameters_past_the_digit_limit(capsys):
    digits = "7" * 5001
    assert run(["witness", "--lambda", "1,1", "--mu", "2,0", "--family",
                "jack", "--theta", digits]) == 1
    assert json.loads(capsys.readouterr().out)["params"] == {
        "theta": digits, "ray_length": "1", "ray_value": "2"}
    assert run(["witness", "--lambda", "1,1", "--mu", "2,0", "--family",
                "macdonald-lattice", "--q", "1/" + digits, "--t", "1/3"]) == 1
    params = json.loads(capsys.readouterr().out)["params"]
    assert params["q"] == "1/" + digits
    assert (params["t"], params["a"]) == ("1/3", "1")
    assert params["label"].split(",")[1] == "0"


def test_witness_json_params_keep_their_short_form(capsys):
    assert run(["witness", "--lambda", "1,1", "--mu", "2,0", "--family",
                "macdonald-lattice", "--q", "1/2", "--t", "1/3"]) == 1
    assert capsys.readouterr().out == (
        '{"command": "witness", "family": "macdonald-lattice", "params": '
        '{"q": "1/2", "t": "1/3", "a": "1", "label": "1,0"}, "witness": '
        '{"lambda": [1, 1], "mu": [2, 0], "x": ["2", "1/3"], "lhs": "2", '
        '"rhs": "13/4"}, "version": "%s"}\n' % omegalab.__version__)


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
    # at k = 1 Harish-Chandra's determinant gives this point to the last
    # bit (gap 0.0), so the gate is failed by a 4-node quadrature at k = 2,
    # whose gap is some 3.6e-4
    coarse = ["ho", "verify", "--k", "2", "--lambda", "2,1", "--x", "1,-1",
              "--nodes", "4"]
    assert run(coarse + ["--tol", "1e-6"]) == 1


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
    # a quadrature flag given as 0 is refused, not read as "use the default"
    ["ho", "eval", "--k", "1", "--s", "1,0", "--x", "1,0", "--nodes", "0"],
    ["ho", "eval", "--k", "1", "--s", "1,0", "--x", "1,0", "--min-gap", "0"],
    ["check", "schur", "--family", "heckman-opdam", "--k", "3/2", "--n", "2",
     "--max-weight", "2", "--nodes", "0"],
    # work past the quadrature's ceilings is refused before it starts: a
    # 401-digit and a 100,000-node rule, and 64^10 node terms at n = 5
    # (k = 3/2: at k = 1 the determinant would serve that point)
    ["ho", "eval", "--k", "1", "--s", "1,0", "--x", "1,0",
     "--nodes", "1" + "0" * 400],
    ["ho", "eval", "--k", "1", "--s", "1,0", "--x", "1,0",
     "--nodes", "100000"],
    ["ho", "eval", "--k", "3/2", "--s", "4,3,2,1,0", "--x", "5,4,3,2,1"],
    # a count too long to print (64^4950 node terms at 100 variables; its
    # tied s leave it to the quadrature at k = 1), and the k = 0 closed
    # form's 13! permutation terms, hours of work
    ["ho", "eval", "--k", "1", "--s", ",".join(["1"] * 100),
     "--x", ",".join(str(i) for i in range(100))],
    ["ho", "eval", "--k", "0", "--s", ",".join(["1"] * 13),
     "--x", ",".join(str(i) for i in range(13))],
    # 5,000 distinct coordinates at k = 1: past the determinant's ceiling of
    # DETERMINANT_MAX_VARIABLES, so refused by the quadrature's before any
    # array is built (the determinant would have formed 5,000 x 5,000)
    ["ho", "eval", "--k", "1", "--s", ",".join(str(i) for i in range(5000)),
     "--x", ",".join(str(i) for i in range(5000))],
    # more variables than a sweep or the hunt takes: n = 2000 overflowed
    # the partition recursion, and a 401-digit n drew coordinates without end
    ["check", "schur", "--family", "muirhead", "--n", "2000",
     "--max-weight", "2", "--samples", "1"],
    ["check", "schur", "--family", "muirhead", "--n", "1" + "0" * 400,
     "--max-weight", "2", "--samples", "1"],
    ["hunt", "--q", "1/2", "--t", "1/3", "--n", "1" + "0" * 400],
    # a sample range past floating range, and a multiplicity below the floor
    ["check", "schur", "--family", "heckman-opdam", "--k", "1", "--n", "2",
     "--max-weight", "2", "--x-high", "1e400"],
    ["ho", "eval", "--k", "1e-12", "--s", "1,0", "--x", "1,0"],
    # expand and eval take the sweeps' variable ceiling: a 30-digit n ended
    # in an OverflowError, n = 10^8 did not return, and a 200-part partition
    # sets n = 200 itself
    ["expand", "--family", "classical", "--lambda", "2",
     "--n", "1" + "0" * 29],
    ["eval", "--family", "classical", "--lambda", "2", "--n", "100000000",
     "--x", "1"],
    ["expand", "--family", "classical", "--lambda", ",".join(["1"] * 200)],
    # work past its ceilings, refused before it starts: a monomial with 23
    # distinct parts, whose table fill would visit 2^23 states, a product
    # walking the C(100, 5) rearrangements of e_5, and the Kostka table of
    # weight 3 on 100 variables
    ["eval", "--family", "classical", "--lambda",
     ",".join(str(i) for i in range(23, 0, -1)),
     "--x", ",".join(str(i) for i in range(1, 24))],
    ["expand", "--family", "classical", "--basis", "elementary", "--lambda",
     "5,5", "--n", "100"],
    ["expand", "--family", "macdonald", "--lambda", "3", "--q", "1/2", "--t",
     "1/3", "--n", "100"],
    # floating values past the double range: e^800 itself, and
    # Omega_(3,1)(e^300, 1) near e^1200
    ["ho", "verify", "--k", "1/2", "--lambda", "1,0", "--x", "800,0"],
    ["ho", "verify", "--k", "2", "--lambda", "3,1", "--x", "300,0"],
    # node exponents past the double range, refused by the finite check
    # with no numpy warning before the error line
    ["ho", "eval", "--k", "1/2", "--s", "1e308,0", "--x", "1,0"],
    ["ho", "residual", "--k", "1/2", "--s", "1e308,0", "--x", "1,0"],
]


def test_a_large_orbit_is_evaluated(capsys):
    # m_(1^6) at n = 100 walks C(100, 6), about 1.2e9, rearrangements, but
    # its table fill visits 7 * 95 = 665 states; the value is e_6(1..100)
    assert run(["eval", "--family", "classical", "--lambda", "1,1,1,1,1,1",
                "--n", "100",
                "--x", ",".join(str(i) for i in range(1, 101))]) == 0
    assert capsys.readouterr().out == "18802604432559339700\n"

# arguments that argparse refuses (exit 2) with a bounded error: reals out
# of floating range, and integers past int()'s digit limit
HO = ["ho", "eval", "--k", "1", "--s", "1,0", "--x", "1,0"]
BAD_FLAGS = [
    ["ho", "eval", "--k", "1e400", "--s", "1,0", "--x", "1,0"],
    ["check", "schur", "--family", "heckman-opdam", "--k", "1e400", "--n",
     "2", "--max-weight", "2"],
    ["ho", "eval", "--k", "1", "--s", "1e400,0", "--x", "1,0"],
    ["ho", "eval", "--k", "1", "--s", "1,0", "--x", "1e400,0"],
    ["ho", "residual", "--k", "1", "--s", "1,0", "--x", "1,0", "--h",
     "1e400"],
    ["ho", "verify", "--k", "1", "--lambda", "1,0", "--x", "1,0", "--tol",
     "1e400"],
    HO + ["--perturb", "1e400"],
    HO + ["--min-gap", "1e400"],
    HO + ["--nodes", "1" + "0" * 5000],
    ["check", "schur", "--family", "muirhead", "--n", "1" + "0" * 5000,
     "--max-weight", "2"],
    ["hunt", "--q", "1/2", "--t", "1/3", "--budget", "1" + "0" * 5000],
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
        assert len(captured.err) < 250, argv


def assert_exit_two_under_optimization(argvs):
    # python -O strips asserts; each refusal must survive it
    out, err = run_optimized(f"""
        import contextlib, io
        from omegalab.cli import run
        for argv in {argvs!r}:
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = run(argv)
            print(code, stderr.getvalue().startswith("error: "),
                  len(stderr.getvalue()) < 250)
    """)
    assert out == ["2", "True", "True"] * len(argvs), err


def test_hostile_arguments_exit_two(capsys):
    assert_exit_two(HOSTILE, capsys)


def test_hostile_arguments_exit_two_under_optimization():
    assert_exit_two_under_optimization(HOSTILE)


def test_bad_flags_exit_two_with_a_bounded_error(capsys):
    for argv in BAD_FLAGS:
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        last = captured.err.splitlines()[-1]
        assert captured.out == "" and len(captured.err) < 1000, argv
        assert "out of floating range" in last or "bad integer" in last, argv
        assert len(last) < 200, argv


def test_bad_flags_exit_two_under_optimization():
    out, err = run_optimized(f"""
        import contextlib, io
        from omegalab.cli import run
        for argv in {BAD_FLAGS!r}:
            stderr = io.StringIO()
            try:
                with contextlib.redirect_stderr(stderr):
                    run(argv)
            except SystemExit as e:
                print(e.code, len(stderr.getvalue()) < 1000)
    """)
    assert out == ["2", "True"] * len(BAD_FLAGS), err


def test_elementary_expansion_walks_the_smaller_orbit(capsys):
    # e_5 on 100 variables is the single term m_(1^5); the product that
    # builds it walked the C(100, 5) rearrangements of e_5 and exited 2
    assert run(["expand", "--family", "classical", "--basis", "elementary",
                "--lambda", "5", "--n", "100"]) == 0
    parts = ",".join(["1"] * 5 + ["0"] * 95)
    assert capsys.readouterr().out == f"m({parts}): 1\n"


def test_min_gap_takes_a_fraction(capsys):
    # F_{1,(1,0)}(1, 0) = e^(1/2), from Harish-Chandra's determinant: the
    # float nearest e^(1/2), where the quadrature printed 1.6487212707001262
    assert run(HO + ["--min-gap", "1/1000"]) == 0
    assert capsys.readouterr().out == "1.6487212707001282\n"


def test_sweep_node_ceiling_names_the_error_estimate(capsys):
    # the sweeps' error estimate doubles --nodes; 600 is refused quoting the
    # count given and the most the estimate takes, not the doubled 1200
    argv = ["check", "schur", "--family", "heckman-opdam", "--k", "2",
            "--n", "2", "--max-weight", "2", "--nodes", "600"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the error estimate doubles the node "
                            "count, so it takes at most 512 nodes per "
                            "panel; got nodes_per_dimension=600\n")


def test_underflowing_quadrature_checks_exit_two(capsys):
    assert_exit_two(UNDERFLOWING, capsys)


def test_underflowing_quadrature_checks_exit_two_under_optimization():
    assert_exit_two_under_optimization(UNDERFLOWING)


# F is near e^1600 here; the quadrature used to print nan and exit 0
OUT_OF_RANGE = ["ho", "eval", "--k", "1/2", "--s", "3,-1", "--x", "400,-400"]


def test_quadrature_values_out_of_range_exit_two(capsys):
    # the suite turns RuntimeWarning into an error, so this also shows that
    # numpy's overflow in the leaf's exponential stays silent
    assert_exit_two([OUT_OF_RANGE], capsys)


def test_quadrature_values_out_of_range_exit_two_under_optimization():
    # the error line is the whole of stderr: no numpy warning precedes it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        os.path.dirname(os.path.dirname(omegalab.__file__)),
        os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-O", "-m", "omegalab",
                           *OUT_OF_RANGE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error: F_{k,s}(x) is inf"), proc.stderr


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
