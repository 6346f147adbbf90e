"""Session grammar, command dispatch, exit codes, determinism."""

import contextlib
import io
import itertools
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dbrackets import (AlgEndo, Bimodule, DoubleBracket, FreeAlgebra,
                       family_polynomial)
from dbrackets.cli import main, run_text
from dbrackets.freealg import MAX_TERMS, MAX_WORD_LENGTH
from dbrackets.parsing import (_LINE_BREAKS, _MAX_NESTING, ParseError,
                               SessionSpec, parse_poly, parse_session,
                               parse_tensor2)

from helpers import format_session, two_gen


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
    with pytest.raises(ParseError, match=r"^line 2, column 9: <y,x> would"):
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


def test_rep_refuses_a_ring_above_the_variable_bound():
    out, code = run_text(VDB_SESSION.replace("check poisson\n", "")
                         + "rep induce 2\nrep jacobi 50\n")
    assert code == 2
    lines = out.splitlines()
    assert lines[-1] == ("error: Rep(A, 50) of 2 generator(s) has 5000 "
                         "entry variables, above the largest, 32")
    assert sum(line.startswith("error:") for line in lines) == 1
    assert "{x[1,1], x[1,2]}" in out  # the output of rep induce 2 is kept


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


def test_gradient_classify_rejects_zero_denominators(capsys):
    code = main(["gradient", "classify", "--family", "linear",
                 "--coeffs", "1,1/0,2,3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: zero denominator in --coeffs 1,1/0,2,3\n"


@pytest.mark.parametrize("coeffs, message", [
    ("0.5,1,1,1", "unexpected character '.'"),
    ("1,1e400,2,3", "expected 'EOF', found 'e400'"),
    ("1,,2,3", "expected 'NUMBER', found ''"),
    ("1,2/-3,2,3", "expected 'NUMBER', found '-'"),
    ("1,\u0661,2,3", "unexpected character '\u0661'"),
])
def test_gradient_classify_coeffs_take_only_grammar_rationals(
        capsys, coeffs, message):
    code = main(["gradient", "classify", "--family", "linear",
                 "--coeffs", coeffs])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} in --coeffs {coeffs}\n"


def test_gradient_classify_coeffs_accept_signed_fractions(capsys):
    assert main(["gradient", "classify", "--family", "linear",
                 "--coeffs", "-1/2,3,-2,1"]) == 0
    out = capsys.readouterr().out
    assert "potential: -1/2 + 3*x1 - 2*x2 + x3\n" in out


def test_run_writes_its_error_line_to_stderr(tmp_path, capsys):
    good = VDB_SESSION + "check antisym\n"
    path = tmp_path / "s.txt"
    path.write_text(good + "jacobiator x y z\n")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == run_text(good)[0]
    assert captured.err == "error: line 6, column 16: undeclared generator 'z'\n"
    assert run_text(path.read_text()) == (captured.out + captured.err, 2)
    path.write_text("algebra { gens: x }\nbracket { <x,y> = 1 (x) }\n")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 2") and \
        captured.err.count("\n") == 1


def test_run_of_a_missing_file_is_a_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.session")
    assert main(["run", missing]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: [Errno 2] No such file or directory: {missing!r}\n"


@pytest.mark.parametrize("line", [
    "bimodule { kind: outer ; alpha: x -> y, z -> x }",
    "bracket { <x,x> = x (x) z }",
    "bracket { <z,x> = 0 }",
    "bracket { <x,z> = 0 }",
    "bracket { <x,y> = 1 (x) 1 ; <y,z> = x (x) 1 }",
])
def test_undeclared_generators_are_named_where_they_stand(line):
    assert run_text(f"algebra {{ gens: x, y }}\n{line}\n") == (
        f"error: line 2, column {line.index('z') + 1}: "
        "undeclared generator 'z'\n", 2)


@pytest.mark.parametrize("command, column, message", [
    ("frob x", 1, "unknown command 'frob'"),
    ("  rep induce", 3, "rep induce needs the matrix size"),
    ("check antisym --depth 2", 1, "unknown option --depth"),
    ("check poisson --degree 2 --degree 3", 1, "repeated option --degree"),
    ("  run other.session", 3, "unknown command 'run'"),
    ("jacobiator x y", 1, "jacobiator needs: a b c"),
    ("check bogus", 1, "unknown check command 'bogus'"),
    ("gradient classify --family linear --coeffs 1,1/0,2,3", 1,
     "zero denominator in --coeffs 1,1/0,2,3"),
    ("  jacobiator x y 'z", 3,
     "bad command line \"  jacobiator x y 'z\": No closing quotation"),
    ("check weak-poisson", 1, "check weak-poisson needs --sigma"),
    # a session of an algebra block alone lacks the declaration needed
    ("algebra { gens: x }\ncheck poisson", 1,
     "this command needs a bracket declaration"),
    ("algebra { gens: x }\ncheck swap-commuting", 1,
     "this command needs a bimodule declaration"),
])
def test_session_command_errors_name_their_position(command, column, message):
    text = command if command.startswith("algebra") else VDB_SESSION + command
    line = text.count("\n") + 1
    out, code = run_text(text + "\n")
    assert code == 2
    assert out.splitlines()[-1] == f"error: line {line}, column {column}: {message}"


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


# -- expansion budgets: refused before any product --------------------------

POWER_SESSION = """\
algebra { gens: x, y }
bracket { <x,y> = (x+y)^30 (x) 1 }
check poisson
"""


def test_a_power_over_the_term_budget_exits_2_at_its_exponent():
    assert run_text(POWER_SESSION) == (
        "error: line 2, column 25: the power has up to 1073741824 terms, "
        f"above the term budget of {MAX_TERMS}\n", 2)


def test_a_sum_power_degree_over_the_term_budget_exits_2(capsys):
    assert main(["gradient", "classify", "--family", "sum-power",
                 "--degree", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the sum-power potential of degree 9 has up to 19683 terms, "
        f"above the term budget of {MAX_TERMS}\n")


def test_a_power_over_the_word_length_budget_exits_2(capsys):
    assert main(["gradient", "classify", "--poly", "x1^100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 1, column 4: the power has 100000 letters per word, "
        f"above the word-length budget of {MAX_WORD_LENGTH}\n")


# more digits than the interpreter's integer conversion takes (4 300 by
# default)
LONG_NUMBER = "1" * 5000
LONG_NUMBER_ERROR = ("a number of 5000 digits is over the interpreter's "
                     "limit for integer conversion")


@pytest.mark.parametrize("argv, column", [
    (["gradient", "classify", "--poly", f"x1^{LONG_NUMBER}"], 4),
    (["gradient", "classify", "--family", "sum-power",
      "--degree", LONG_NUMBER], 1),
])
def test_a_number_over_the_conversion_limit_exits_2_at_its_token(
        capsys, argv, column):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: line 1, column {column}: {LONG_NUMBER_ERROR}\n"


def test_a_session_coefficient_over_the_conversion_limit_exits_2():
    for coefficient, column in ((LONG_NUMBER, 19), (f"1/{LONG_NUMBER}", 21)):
        session = ("algebra { gens: x, y }\n"
                   f"bracket {{ <x,y> = {coefficient} (x) 1 }}\n"
                   "check poisson\n")
        assert run_text(session) == (
            f"error: line 2, column {column}: {LONG_NUMBER_ERROR}\n", 2)


# a product whose factors convert but whose coefficient would not
NINES = "9" * 4000
DIGITS_ERROR = ("the product has coefficients of up to 8002 digits, over "
                "the interpreter's limit of {} for integer conversion")


def test_a_coefficient_product_over_the_conversion_limit_exits_2(capsys):
    limit = sys.get_int_max_str_digits()
    assert main(["gradient", "classify", "--poly",
                 f"{NINES}*{NINES}*x1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: line 1, column 4001: {DIGITS_ERROR.format(limit)}\n"
    session = ("algebra { gens: x, y }\n"
               f"bracket {{ <x,y> = {NINES}*{NINES}*x (x) 1 }}\n"
               "jacobiator x y y\n")
    assert run_text(session) == (
        f"error: line 2, column 4019: {DIGITS_ERROR.format(limit)}\n", 2)
    # a power counts its exponent times its base's digits, at the exponent,
    # and a tensor the sum of its factors' digits
    A = two_gen()
    with pytest.raises(ParseError, match=r"^line 1, column 2002: the power "
                       r"has coefficients of up to 6003 digits"):
        parse_poly(A, f"{NINES[:2000]}^3")
    with pytest.raises(ParseError, match=r"^line 1, column 4002: the tensor "
                       r"has coefficients of up to 8002 digits"):
        parse_tensor2(A, f"{NINES} (x) {NINES}")
    # under the limit: 4 002 digits by the bound, 4 000 in fact
    half = NINES[:2000]
    assert parse_poly(A, f"{half}*{half}*x") == A.gen("x").scale(
        int(half) ** 2)


def test_a_result_over_the_conversion_limit_names_its_command(capsys):
    # admitted coefficients of 2 500 digits; the Jacobiator is quadratic in
    # the table, so its value has coefficients of about 5 000
    limit = sys.get_int_max_str_digits()
    reason = ("{}: the result has a coefficient over the interpreter's "
              f"limit of {limit} digits for integer conversion")
    nines = NINES[:2500]
    session = ("algebra { gens: x, y }\n"
               f"bracket {{ <x,y> = {nines}*x (x) 1 }}\n"
               "check antisym\n"
               "jacobiator x y y\n")
    for fmt in ("plain", "kv"):
        out, code = run_text(session, fmt)
        assert code == 2
        assert out.endswith(f"\nerror: line 4, column 1: "
                            f"{reason.format('jacobiator')}\n")
        assert out.count("error:") == 1 and "jacobiator x y y" not in out
    # the console subcommands name themselves
    potential = "+".join("*".join(p) for p in
                         itertools.permutations(("x1", "x2", "x3")))
    assert main(["gradient", "classify", "--poly",
                 f"{NINES[:2200]}*({potential})"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {reason.format('gradient')}\n"


def test_the_budgets_admit_degree_6_and_long_words_and_bound_the_rest():
    B = FreeAlgebra(["x1", "x2", "x3"])
    assert len(family_polynomial(B, "sum-power", degree=6).terms) == 729
    assert len(parse_poly(B, "(x1 + x2 + x3)^6").terms) == 729
    with pytest.raises(ValueError, match="up to 2187 terms"):
        family_polynomial(B, "sum-power", degree=7)
    with pytest.raises(ValueError, match="2049 letters per word"):
        family_polynomial(B, "monomial", gen="x1", degree=MAX_WORD_LENGTH + 1)
    A = two_gen()
    assert parse_poly(A, f"x^{MAX_WORD_LENGTH}").degree() == MAX_WORD_LENGTH
    assert parse_poly(A, "(x + y)^10").terms.keys() == set(A.words(10))
    # products and tensors count against the same budgets
    chain = "*".join(["(x + y)"] * 11)
    with pytest.raises(ParseError, match="the product has up to 2048 terms"):
        parse_poly(A, chain)
    assert len(parse_poly(A, chain[:chain.rindex("*")]).terms) == 1024
    with pytest.raises(ParseError, match="letters per word"):
        parse_poly(A, f"x^{MAX_WORD_LENGTH} * y")
    with pytest.raises(ParseError, match="the tensor has up to 2048 terms"):
        parse_tensor2(A, "(x + y)^10 (x) (x + y)")
    # an exponent counts as letters even on a constant
    with pytest.raises(ParseError, match="the power has 3000 letters"):
        parse_poly(A, "2^3000")
    assert parse_poly(A, "2^10") == A.one().scale(1024)


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


def test_tokenizer_breaks_lines_where_splitlines_does():
    breaks = [c for c in map(chr, range(0x110000))
              if len(f"a{c}b".splitlines()) == 2]
    assert sorted(breaks) == sorted(_LINE_BREAKS)


@pytest.mark.parametrize("newline", ["\r", "\r\n", "\u2028"])
def test_session_positions_with_other_line_endings(newline):
    def session(*lines):
        return run_text(newline.join(lines) + newline)

    assert session("algebra { gens: x, y }", "bimodule { kind: bogus }",
                   "check poisson") == (
        "error: line 2, column 18: unknown bimodule kind 'bogus'\n", 2)
    assert session("algebra { gens: x, y }", "bracket { <x,y> = 0 }",
                   "jacobiator x y (y") == (
        "error: line 3, column 18: expected ')', found ''\n", 2)
    lines = ["algebra { gens: x, y }", "bracket { <x,y> = 1 (x) 1 }",
             "check antisym", "# note", "jacobiator x y y"]
    assert session(*lines) == run_text("\n".join(lines) + "\n")


# -- integer arguments: the grammar's [-]p --------------------------------------

_BAD_INTEGERS = [("+3", "expected 'NUMBER', found '+'", 0),
                 ("1_0", "expected 'EOF', found '_0'", 1),
                 ("٢", "unexpected character '٢'", 0),
                 ("abc", "expected 'NUMBER', found 'abc'", 0)]


@pytest.mark.parametrize("text, message, offset", _BAD_INTEGERS)
@pytest.mark.parametrize("argv", [
    ["ybe", "standard", "{}"],
    ["ybe", "entry-jacobi", "--standard", "{}"],
    ["gradient", "classify", "--family", "sum-power", "--degree", "{}"],
])
def test_cli_integer_arguments_take_only_grammar_integers(
        capsys, argv, text, message, offset):
    code = main([a.format(text) for a in argv])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 1, column {1 + offset}: {message}\n"


@pytest.mark.parametrize("text, message, offset", _BAD_INTEGERS)
@pytest.mark.parametrize("command", [
    "check antisym --degree {}",
    "check swap-commuting --degree {}",
    "check poisson --degree {}",
    "check weak-poisson --sigma 12 --degree {}",
    "rep induce {}",
    "rep jacobi {}",
    "rep trace-bracket {} x y",
    "rep tensor {} x y",
    "ybe standard {}",
    "gradient classify --family sum-power --degree {}",
])
def test_session_integer_arguments_take_only_grammar_integers(
        command, text, message, offset):
    out, code = run_text(VDB_SESSION + command.format(text) + "\n")
    assert code == 2
    column = command.index("{}") + 1 + offset
    assert out.splitlines() == [
        "$ check poisson", "Poisson", "status: ok",
        f"error: line 5, column {column}: {message}"]


def test_integer_arguments_keep_their_values():
    for command in ("ybe standard 2", "rep induce 2", "check antisym --degree 2"):
        assert run_text(VDB_SESSION + command + "\n")[1] == 0
    assert run_text(VDB_SESSION + "rep jacobi -1\n") == (
        "$ check poisson\nPoisson\nstatus: ok\n"
        "error: matrix size must be >= 1\n", 2)


# -- round trips and mutations ----------------------------------------------

def _small_polys(alg, max_degree):
    """Polynomials of up to three terms with small rational coefficients."""
    words = sorted(alg.words_up_to(max_degree))
    coefficients = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    return st.dictionaries(st.sampled_from(words), coefficients,
                           max_size=3).map(alg.poly)


# command arguments: anything a command line can hold, once quoted; a '#'
# starts a comment and a line break ends the line, quoted or not
_ARGS = st.text(st.characters(blacklist_characters="#" + _LINE_BREAKS,
                              blacklist_categories=("Cs",)), max_size=6)


@st.composite
def session_specs(draw):
    """A session over x, y of any kind, twisted or not, with a bracket of
    rational entries and commands whose arguments need quoting."""
    A = two_gen()
    polys = _small_polys(A, 2)
    bimodule = bracket = None
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["outer", "inner", "right", "left"]))
        alpha, beta = (draw(st.one_of(
            st.none(), st.tuples(polys, polys).map(
                lambda images: AlgEndo(A, dict(zip("xy", images))))))
            for _ in range(2))
        bimodule = Bimodule(kind, alpha, beta, alg=A)
        if draw(st.booleans()):
            t2 = st.tuples(polys, polys).map(lambda pq: A.t2(*pq))
            diagonal = t2.map(lambda d: d - d.swap())
            bracket = DoubleBracket(bimodule, {
                ("x", "x"): draw(diagonal), ("x", "y"): draw(t2),
                ("y", "y"): draw(diagonal)})
    commands = draw(st.lists(st.tuples(
        st.sampled_from(["check", "jacobiator", "rep", "ybe", "frob"]),
        *[_ARGS] * draw(st.integers(0, 3))), max_size=3))
    return SessionSpec(A, bimodule, bracket, commands)


@settings(max_examples=60, deadline=None)
@given(session_specs())
def test_format_session_round_trips(spec):
    assert parse_session(format_session(spec)) == spec


# pieces that a mutation writes into a demo session: tokens of the grammar
# and of command lines, quotes, comments, blanks and line breaks; no digits,
# so a mutation never asks for a larger size or degree than the session did
_PIECES = ["", "x", "y", "z", "(x)", "->", "{", "}", "(", ")", "<", ">", ",",
           ";", ":", "=", "+", "-", "*", "^", "/", "#", "'", '"', " ", "\t",
           "\n", "\r", "\x85", "--degree", "check", "\u00e9"]
_DEMO_SESSIONS = [path.read_text() for path in sorted(
    (Path(__file__).parent.parent / "demos" / "sessions").glob("*.session"))]


@st.composite
def mutated_sessions(draw):
    """A demo session with one to four spans of up to three characters
    replaced by a piece each."""
    text = draw(st.sampled_from(_DEMO_SESSIONS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(i + 3, len(text))))
        text = text[:i] + draw(st.sampled_from(_PIECES)) + text[j:]
    return text


@settings(max_examples=120, deadline=5000, derandomize=True)
@given(mutated_sessions())
def test_mutated_demo_sessions_exit_cleanly(text):
    """Garbage is a usage error or a verdict, never an internal failure,
    and a usage error's output ends in its one ``error:`` line."""
    out, code = run_text(text)
    assert code in (0, 1, 2)
    if code == 2:
        lines = out.splitlines()
        assert lines[-1].startswith("error: ")
        assert sum(line.startswith("error:") for line in lines) == 1


# -- console arguments of ybe and gradient classify ---------------------------

# valid argument lists that each end in a few milliseconds; '-' reads the
# tensor file from stdin
_YBE_ARGV = [["ybe", "standard", "2"], ["ybe", "check", "-"],
             ["ybe", "entry-jacobi", "-"],
             ["ybe", "entry-jacobi", "--standard", "2"]]
_TENSOR_FILES = ["1 1 1 1 1/2\n1 2 2 1 1\n2 2 2 2 1/2\n",
                 "1 1 1 2 1\n2 2 1 2 -1\n1 2 1 1 -1\n1 2 2 2 1\n",
                 "# e12 (x) e21\n1 2 2 1 1\n", "1 3 3 1 -2/3\n2 3 1 2 1\n"]
_GRADIENT_ARGV = [
    ["gradient", "classify", "--family", "monomial", "--gen", "x2",
     "--degree", "3"],
    ["gradient", "classify", "--family", "sum-power", "--degree", "3"],
    ["gradient", "classify", "--family", "linear", "--coeffs", "1,-1/2,2,0"],
    ["gradient", "classify", "--poly",
     "-3/2*(x1*x1*x2*x3 + x1*x1*x3*x2 + x1*x2*x1*x3 + x1*x2*x3*x1 "
     "+ x1*x3*x1*x2 + x1*x3*x2*x1 + x2*x1*x1*x3 + x2*x1*x3*x1 + x2*x3*x1*x1 "
     "+ x3*x1*x1*x2 + x3*x1*x2*x1 + x3*x2*x1*x1)"],
    ["gradient", "classify", "--poly", "x1*x2*x3 - x3*x2*x1 + 2*x1"]]
# pieces that a mutation writes into an argument or a tensor-file line: no
# digit, '^' or generator letter, so no mutation raises a matrix size, an
# index or a degree above the valid input's (a merged index is above 8)
_ARG_PIECES = ["", "-", "--", "=", ",", "/", "*", "+", "(", ")", " ", "\t",
               "\n", "\x85", "#", "'", "y", "\u00e9", "--poly", "--family",
               "--gen", "--degree", "--coeffs", "--standard", "custom",
               "monomial", "linear", "sum-power", "classify", "check",
               "standard", "entry-jacobi", "--format", "kv", "plain", "run",
               "ybe", "gradient", "-h"]


def _mutated(draw, text):
    """text with one or two spans of up to three characters replaced by a
    piece each."""
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(i + 3, len(text))))
        text = text[:i] + draw(st.sampled_from(_ARG_PIECES)) + text[j:]
    return text


@st.composite
def mutated_argv(draw, valid, stdins=_TENSOR_FILES):
    """A valid argument list, after ``--format plain|kv`` or not, with up to
    two of its arguments mutated, dropped or repeated, the command name and
    ``--format`` too, and a text for stdin from ``stdins``, mutated or
    not."""
    argv = draw(st.sampled_from([[], ["--format", "plain"], ["--format", "kv"]]))
    argv = argv + list(draw(st.sampled_from(valid)))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(argv) - 1))
        how = draw(st.sampled_from(["mutate", "mutate", "drop", "repeat"]))
        if how == "mutate":
            argv[k] = _mutated(draw, argv[k])
        elif how == "drop" and len(argv) > 1:
            del argv[k]
        else:
            argv.insert(k, argv[k])
    stdin = draw(st.sampled_from(stdins))
    if draw(st.booleans()):
        stdin = _mutated(draw, stdin)
    return argv, stdin


def _main(argv, stdin):
    """(exit code, stdout, stderr) of ``main(argv)`` reading stdin."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _assert_exits_cleanly(argv, stdin):
    """Garbage exits 2 with one ``error:`` line and no other output, exit 1
    comes only with a verdict, and nothing exits 3."""
    code, out, err = _main(argv, stdin)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == "" and out
    if code == 1:  # a verdict, then its status, last but in a session
        lines = out.splitlines()
        status = [k for k, line in enumerate(lines)
                  if line in ("status: FAIL", "status=fail")]
        assert status and status[0] >= 1
        assert status[-1] == len(lines) - 1 or "run" in argv


@settings(max_examples=300, deadline=500, derandomize=True)
@given(mutated_argv(_YBE_ARGV))
def test_mutated_ybe_arguments_exit_cleanly(case):
    _assert_exits_cleanly(*case)


@settings(max_examples=300, deadline=500, derandomize=True)
@given(mutated_argv(_GRADIENT_ARGV))
def test_mutated_gradient_arguments_exit_cleanly(case):
    _assert_exits_cleanly(*case)


# sessions for 'run -' that end in a few milliseconds, mutated or not
_RUN_SESSIONS = [VDB_SESSION + "jacobiator x y y\n",
                 TWISTED_SESSION + "check antisym\n",
                 "algebra { gens: x, y }\nbimodule { kind: right }\n"
                 "bracket { <x,y> = 1 (x) 1 }\ncheck weak-poisson --sigma 12\n"]


@settings(max_examples=100, deadline=500, derandomize=True)
@given(mutated_argv([["run", "-"]], _RUN_SESSIONS))
def test_mutated_run_arguments_exit_cleanly(case):
    _assert_exits_cleanly(*case)


def test_help_alone_prints_the_usage_line():
    for flag in ("-h", "--help"):
        code, out, err = _main([flag], "")
        assert (code, err) == (0, "")
        assert out.startswith("usage: dbrackets [--format plain|kv] run FILE")
        assert out.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    # the top level reads the one grammar too
    ([], "dbrackets needs a command: run | ybe | gradient"),
    (["run"], "run needs a session file, or '-'"),
    (["frob"], "unknown command 'frob'"),
    (["check", "poisson"], "unknown command 'check'"),
    (["--format"], "option --format needs a value"),
    (["--format", "bogus", "run", "f"], "unknown format 'bogus': use plain or kv"),
    (["--format", "kv", "-h"], "unknown command '-h'"),  # -h is not alone
    (["run", "f", "--format", "kv"], "unknown option --format"),
    # an option is given once, and only where it is read
    (["gradient", "classify", "--family", "monomial", "--degree", "2",
      "--degree", "1"], "repeated option --degree"),
    (["gradient", "classify", "--family", "sum-power", "--degree", "2",
      "--gen", "x2"], "sum-power family does not read --gen"),
    (["gradient", "classify", "--family", "monomial", "--poly", "x1"],
     "monomial family does not read --poly"),
    (["gradient", "classify", "--family", "custom"], "custom family needs --poly"),
    (["gradient", "classify", "--family", "bogus"],
     "unknown family 'bogus'; choose from "
     "('monomial', 'sum-power', 'linear', 'custom')"),
    (["ybe", "entry-jacobi", "--standard", "2", "--standard", "3"],
     "repeated option --standard"),
    (["ybe", "entry-jacobi"], "give either a file or --standard N"),
    (["gradient"], "gradient needs a subject: classify"),
    # a leading option is the command's, not the parser's
    (["ybe", "--standard", "2"], "unknown ybe command '--standard'"),
    (["ybe", "-h"], "unknown ybe command '-h'"),
    (["gradient", "--poly", "x1"], "unknown gradient command '--poly'"),
    (["gradient", "classify", "--=family"], "unknown option --=family"),
    # a quoted line break is escaped
    (["ybe", "standard", "--\n2"], "unknown option --\\n2"),
    (["gradient", "classify", "--family", "linear", "--coeffs", "1,\u2028"],
     "expected 'NUMBER', found '' in --coeffs 1,\\u2028"),
    (["gradient", "classify"], "gradient classify needs --family or --poly"),
])
def test_malformed_arguments_exit_2_on_one_error_line(argv, message):
    assert _main(argv, "") == (2, "", f"error: {message}\n")
