"""Byte-for-byte output: the stdout and exit code of fixed CLI commands, and
the stdout of the demos.

Each case runs ``dbrackets`` in process and compares its stdout with
``tests/golden/<case>.txt`` exactly; each demo ``demos/<name>.py`` runs in
process against ``tests/golden/demo-<name>.txt``.  After an intended change
of output, rewrite the files with ``PYTHONPATH=src python
tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import itertools
import runpy
from pathlib import Path

import pytest

from dbrackets.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SESSIONS = ROOT / "demos" / "sessions"
TENSORS = ROOT / "demos" / "tensors"
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

# -3/2 times the 12 arrangements of x1*x1*x2*x3: rational coefficients, the
# unit word and a failing verdict with both a Tensor3 and a Tensor2 defect
SYM_X1X1X2X3 = "-3/2*(" + " + ".join(
    "*".join(w) for w in sorted(set(itertools.permutations(
        ["x1", "x1", "x2", "x3"])))) + ")"

# case -> (argv, exit code)
CASES = {
    "gradient-sum-power-3": (
        ["gradient", "classify", "--family", "sum-power", "--degree", "3"], 0),
    # (x1+x2+x3)^4: one generator triple per orbit of relabellings and
    # rotations is evaluated, 3 of 27
    "gradient-sum-power-4": (
        ["gradient", "classify", "--family", "sum-power", "--degree", "4"], 0),
    # 243 words: the Leibniz kernels on tensors of hundreds of terms
    "gradient-sum-power-5": (
        ["gradient", "classify", "--family", "sum-power", "--degree", "5"], 0),
    "gradient-custom-sym-x1x1x2x3": (
        ["gradient", "classify", "--poly", SYM_X1X1X2X3], 1),
    "gradient-custom-sym-x1x1x2x3-kv": (
        ["--format", "kv", "gradient", "classify", "--poly", SYM_X1X1X2X3], 1),
    # blocks {x1, x3} and {x2}: the x1 defect is zero, so x3 is not
    # evaluated, and the nonzero x2 defect is printed
    "gradient-custom-x1x1-x3x3": (
        ["gradient", "classify", "--poly", "x1*x1 + x3*x3"], 1),
    "gradient-custom-x1x1-x3x3-kv": (
        ["--format", "kv", "gradient", "classify", "--poly",
         "x1*x1 + x3*x3"], 1),
    "ybe-entry-jacobi-standard-2": (
        ["ybe", "entry-jacobi", "--standard", "2"], 1),
    # e12 (x) e21 read from a tensor file: a nonzero defect in the +/-
    # printer of every combination, and a failing entry-bracket sweep
    "ybe-check-e12_e21": (
        ["ybe", "check", str(TENSORS / "e12_e21.txt")], 1),
    "ybe-entry-jacobi-e12_e21": (
        ["ybe", "entry-jacobi", str(TENSORS / "e12_e21.txt")], 1),
    # a rational bracket on Rep(A, n): induced table, a failing Jacobi sweep
    # (its defect is quadratic in the bracket), trace and tensor brackets
    "rep-rational": (["run", str(SESSIONS / "rational_outer.session")], 1),
}
for _name, _code in (("constant_right_weak", 1), ("linear_poisson", 0),
                     ("swap_commuting", 0), ("twisted_not_poisson", 1),
                     ("weak_classes", 1)):
    _path = str(SESSIONS / f"{_name}.session")
    CASES[f"session-{_name}"] = (["run", _path], _code)
    CASES[f"session-{_name}-kv"] = (["--format", "kv", "run", _path], _code)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return out.getvalue(), code


def _run_demo(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_unchanged(case):
    argv, code = CASES[case]
    expected = (GOLDEN / f"{case}.txt").read_bytes().decode("utf-8")
    assert _run(argv) == (expected, code)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_output_is_unchanged(demo):
    expected = (GOLDEN / f"demo-{demo.stem}.txt").read_bytes().decode("utf-8")
    assert _run_demo(demo) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, (argv, code) in sorted(CASES.items()):
        out, got = _run(argv)
        if got != code:
            raise SystemExit(f"{case}: exit code {got}, expected {code}")
        (GOLDEN / f"{case}.txt").write_bytes(out.encode("utf-8"))
        print(f"wrote {case}.txt")
    for demo in DEMOS:
        (GOLDEN / f"demo-{demo.stem}.txt").write_bytes(
            _run_demo(demo).encode("utf-8"))
        print(f"wrote demo-{demo.stem}.txt")
