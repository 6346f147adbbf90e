"""Session grammar, command dispatch, exit codes, determinism."""

import subprocess
import sys

import pytest

from dbrackets import FreeAlgebra
from dbrackets.cli import main, run_text
from dbrackets.parsing import (_MAX_NESTING, ParseError, format_session,
                               parse_poly, parse_session, parse_tensor2)

from helpers import two_gen


VDB_SESSION = """\
algebra { gens: x, y }
bimodule { kind: outer }
bracket { <x,x> = x (x) 1 - 1 (x) x ; <y,y> = y (x) 1 - 1 (x) y ; <x,y> = 0 }
check poisson
"""

TWISTED_SESSION = """\
algebra { gens: x, y }
bimodule { kind: outer ; alpha: x -> y, y -> x ; beta: x -> y, y -> x }
bracket { <x,x> = y (x) 1 - 1 (x) y ; <y,y> = x (x) 1 - 1 (x) x }
check poisson
"""


# -- expression grammar --------------------------------------------------------

def test_parse_poly_basic():
    A = two_gen()
    x, y = A.gen("x"), A.gen("y")
    assert parse_poly(A, "x*y - 2*y^2 + 1/2") == \
        x * y - (y ** 2).scale(2) + A.one().scale("1/2")
    assert parse_poly(A, "(x + y)^2") == (x + y) ** 2
    assert parse_poly(A, "-x") == -x


def test_parse_tensor_examples():
    A = two_gen()
    x, y = A.gen("x"), A.gen("y")
    one = A.one()
    assert parse_tensor2(A, "1 (x) 1") == A.unit2()
    assert parse_tensor2(A, "x (x) 1 - 1 (x) x") == A.t2(x, one) - A.t2(one, x)
    assert parse_tensor2(A, "x*y (x) 1 - 1 (x) y") == \
        A.t2(x * y, one) - A.t2(one, y)
    assert parse_tensor2(A, "0") == A.zero2()
    assert parse_tensor2(A, "3/2*x (x) y") == A.t2(x, y).scale("3/2")


def test_tensor_separator_always_wins():
    # with a generator literally named x, "(x)" is still the separator
    A = two_gen()
    assert parse_tensor2(A, "x (x) x") == A.t2(A.gen("x"), A.gen("x"))


def test_parse_errors_carry_location():
    A = two_gen()
    with pytest.raises(ParseError) as err:
        parse_poly(A, "x + * y")
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError):
        parse_poly(A, "z + 1")  # undeclared generator
    with pytest.raises(ParseError):
        parse_tensor2(A, "x (x) y + x")  # missing separator in second term


# -- sessions -------------------------------------------------------------------

def test_parse_session_autofills_reversed_pairs():
    spec = parse_session("algebra { gens: x, y }\n"
                         "bracket { <x,y> = 1 (x) 1 }\n")
    assert spec.bracket.entry("x", "y") == spec.algebra.unit2()
    assert spec.bracket.entry("y", "x") == -spec.algebra.unit2()
    assert spec.bimodule.kind.value == "outer"  # defaulted


def test_parse_session_rejects_bad_diagonal():
    with pytest.raises(ParseError):
        parse_session("algebra { gens: x }\nbracket { <x,x> = x (x) 1 }\n")


def test_parse_session_rejects_conflicting_pair():
    text = ("algebra { gens: x, y }\n"
            "bracket { <x,y> = 1 (x) 1 ; <y,x> = 1 (x) 1 }\n")
    with pytest.raises(ParseError):
        parse_session(text)


def test_session_roundtrip():
    spec = parse_session(TWISTED_SESSION + "jacobiator x y y\n")
    text = format_session(spec)
    assert parse_session(text) == spec


def test_run_poisson_session():
    out, code = run_text(VDB_SESSION)
    assert code == 0
    assert "Poisson" in out


def test_run_twisted_session_fails_with_witness():
    out, code = run_text(TWISTED_SESSION)
    assert code == 1
    assert "NotPoisson" in out and "defect" in out


def test_run_malformed_session_usage_error():
    out, code = run_text("algebra { gens: x }\nbracket { <x,y> = 1 (x) }\n")
    assert code == 2
    assert out.startswith("error:")


def test_run_unknown_command_usage_error():
    out, code = run_text("algebra { gens: x }\nfrobnicate\n")
    assert code == 2


def test_run_deterministic():
    text = (VDB_SESSION + "check antisym\nrep induce 2\n"
            "rep tensor 2 --convention vdb x y\n")
    out1, _ = run_text(text)
    out2, _ = run_text(text)
    assert out1 == out2


def test_weak_poisson_command():
    text = ("algebra { gens: x, y }\n"
            "bimodule { kind: right }\n"
            "bracket { <x,y> = 1 (x) 1 }\n"
            "check weak-poisson --sigma 12\n")
    out, code = run_text(text)
    assert code == 0 and "WeakPoisson((12),(12))" in out


def test_swap_commuting_command():
    text = ("algebra { gens: x, y }\n"
            "bimodule { kind: inner }\n"
            "check swap-commuting --degree 2\n")
    out, code = run_text(text)
    assert code == 0 and "holds" in out


def test_rep_commands():
    text = (VDB_SESSION.replace("check poisson\n", "")
            + "rep induce 2\nrep jacobi 2\nrep trace-bracket 2 x x*x\n"
            + "rep tensor 2 --convention tensor x y\n")
    out, code = run_text(text)
    assert code == 0
    assert "{x[1,1], x[1,2]}" in out
    assert "Jacobi identity holds" in out


def test_jacobiator_command_output():
    text = (TWISTED_SESSION.replace("check poisson\n", "")
            + "jacobiator x y y\n")
    out, code = run_text(text)
    assert code == 0
    assert "jacobiator(x, y, y) = -1 (x) y (x) 1 + y (x) 1 (x) 1" in out


def test_kv_format():
    out, code = run_text(VDB_SESSION, fmt="kv")
    assert code == 0
    assert "verdict=Poisson" in out and "status=ok" in out
    # machine format is deterministic too
    assert run_text(VDB_SESSION + "rep induce 2\n", fmt="kv") == \
        run_text(VDB_SESSION + "rep induce 2\n", fmt="kv")


def test_session_ybe_and_gradient_commands(tmp_path):
    rfile = tmp_path / "r.txt"
    rfile.write_text("1 2 1 2 1\n")
    text = (f"algebra {{ gens: x }}\n"
            f"ybe check {rfile}\n"
            "gradient classify --family monomial --gen x1 --degree 2\n")
    out, code = run_text(text)
    assert code == 0
    assert "cybe defect: 0" in out and "verdict: Poisson" in out


def test_gradient_classify_rejects_degree_bound(capsys):
    code = main(["gradient", "classify", "--family", "sum-power",
                 "--degree", "3", "--degree-bound", "2"])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown option --degree-bound\n"


def test_gradient_classify_rejects_stray_arguments(capsys):
    code = main(["gradient", "classify", "foo", "--family", "sum-power",
                 "--degree", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: gradient classify takes no positional arguments\n"


def test_cli_entrypoint_subprocess(tmp_path):
    session = tmp_path / "s.txt"
    session.write_text(VDB_SESSION)
    proc = subprocess.run([sys.executable, "-m", "dbrackets.cli", "run",
                           str(session)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Poisson" in proc.stdout

    proc = subprocess.run([sys.executable, "-m", "dbrackets.cli", "ybe",
                           "standard", "2"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["1 1 1 1 1/2", "1 2 2 1 1",
                                        "2 2 2 2 1/2"]

    proc = subprocess.run([sys.executable, "-m", "dbrackets.cli", "gradient",
                           "classify", "--poly", "x1*x2"],
                          capture_output=True, text=True)
    assert proc.returncode == 2  # not fully non-commutative: usage error

    proc = subprocess.run([sys.executable, "-m", "dbrackets.cli", "run",
                           "missing-file.txt"], capture_output=True, text=True)
    assert proc.returncode == 2


def test_ybe_entry_jacobi_command(tmp_path):
    rfile = tmp_path / "bad.txt"
    rfile.write_text("1 2 2 1 1\n")
    out, code = run_text(f"algebra {{ gens: x }}\nybe entry-jacobi {rfile}\n")
    assert code == 1 and "FAILS" in out


def test_failing_jacobi_reports_name_entry_variables():
    plain, code = run_text("algebra { gens: x }\nybe entry-jacobi --standard 2\n")
    assert code == 1
    assert ("Jacobi identity FAILS at (v[1,1], v[1,2], v[2,1]) "
            "with defect v[1,1] - v[2,2]") in plain.splitlines()
    kv, code = run_text("algebra { gens: x }\nybe entry-jacobi --standard 2\n",
                        fmt="kv")
    assert code == 1 and "defect=v[1,1] - v[2,2]" in kv.splitlines()
    session = ("algebra { gens: x, y }\nbimodule { kind: right }\n"
               "bracket { <x,x> = x (x) y - y (x) x ; "
               "<x,y> = x (x) 1 + 1 (x) y }\nrep jacobi 2\n")
    defect = "x[1,2]*y[2,1] - x[2,1]*y[1,2]"
    plain, code = run_text(session)
    assert code == 1 and plain.splitlines()[1].endswith(f"with defect {defect}")
    kv, code = run_text(session, fmt="kv")
    assert code == 1 and f"max_defect={defect}" in kv.splitlines()


LONG_WORD_SESSION = """\
algebra { gens: x, y }
bimodule { kind: right }
bracket { <x,y> = 1 (x) 1 }
rep trace-bracket 1 x^1500 y
"""


def test_long_word_session_runs():
    out, code = run_text(LONG_WORD_SESSION)
    assert code == 0
    assert out.splitlines()[1].endswith("} = 1500*x[1,1]^1499")


def test_internal_failure_exits_3(monkeypatch, capsys):
    import dbrackets.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "is_poisson", boom)
    assert run_text(VDB_SESSION) == \
        ("error: internal failure (RuntimeError): boom\n", 3)
    monkeypatch.setattr(cli, "standard_r", boom)
    assert cli.main(["ybe", "standard", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal failure (RuntimeError): boom\n"


@pytest.mark.parametrize("command, message", [
    ("check poisson --degree 0", "degree_bound must be >= 1"),
    ("check poisson --degree -2", "degree_bound must be >= 1"),
    ("check weak-poisson --sigma 12 --degree 0", "degree_bound must be >= 1"),
    ("check antisym --degree -1", "degree_bound must be >= 1"),
    ("rep jacobi 0", "matrix size must be >= 1"),
    ("rep jacobi -1", "matrix size must be >= 1"),
    ("rep induce -1", "matrix size must be >= 1"),
])
def test_vacuous_bounds_are_usage_errors(command, message):
    assert run_text(VDB_SESSION.replace("check poisson", command)) == \
        (f"error: {message}\n", 2)


def _nested(depth, name):
    return "(" * depth + name + ")" * depth


def test_parenthesis_nesting_is_bounded(capsys):
    def session(depth):
        return VDB_SESSION.replace("<x,y> = 0",
                                   f"<x,y> = {_nested(depth, 'y')} (x) y")

    assert run_text(session(_MAX_NESTING)) == run_text(session(0))
    column = VDB_SESSION.splitlines()[2].index("<x,y> = 0") + 9
    for depth in (_MAX_NESTING + 1, 4 * _MAX_NESTING):
        assert run_text(session(depth)) == (
            f"error: line 3, column {column + _MAX_NESTING}: "
            f"parentheses nested more than {_MAX_NESTING} deep\n", 2)
    assert main(["gradient", "classify", "--poly",
                 _nested(_MAX_NESTING, "x1")]) == 0
    capsys.readouterr()
    assert main(["gradient", "classify", "--poly",
                 _nested(6 * _MAX_NESTING, "x1")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: line 1, column {_MAX_NESTING + 1}: "
        f"parentheses nested more than {_MAX_NESTING} deep\n")


@pytest.mark.parametrize("fmt", ["plain", "kv"])
def test_failing_command_keeps_earlier_output(fmt):
    text = VDB_SESSION + "check antisym\njacobiator x y z\n"
    done, code = run_text(VDB_SESSION + "check antisym\n", fmt)
    assert code == 0
    assert run_text(text, fmt) == (
        done + "error: line 6, column 16: undeclared generator 'z'\n", 2)


def test_argument_parse_errors_point_into_the_session():
    session = VDB_SESSION + "check antisym\n"
    for command, column in (("jacobiator x y (y", 18),
                            ('jacobiator x y "(y"', 19),
                            ("  rep trace-bracket 2 x '(y'", 28)):
        out, code = run_text(session + command + "\n")
        assert code == 2
        assert out.splitlines()[-1] == \
            f"error: line 6, column {column}: expected ')', found ''"
    out, code = run_text(session + "jacobiator x y "
                         + _nested(_MAX_NESTING + 1, "y") + "\n")
    assert code == 2
    assert out.splitlines()[-1] == (
        f"error: line 6, column {16 + _MAX_NESTING}: "
        f"parentheses nested more than {_MAX_NESTING} deep")
