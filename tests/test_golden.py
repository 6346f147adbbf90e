"""Byte-for-byte CLI output: stdout and exit code of fixed commands.

Each case runs ``dbrackets`` in process and compares its stdout with
``tests/golden/<case>.txt`` exactly.  After an intended change of output,
rewrite the files with ``PYTHONPATH=src python tests/test_golden.py`` and
review the diff.
"""

import contextlib
import io
import itertools
from pathlib import Path

import pytest

from dbrackets.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SESSIONS = ROOT / "demos" / "sessions"

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
    "ybe-entry-jacobi-standard-2": (
        ["ybe", "entry-jacobi", "--standard", "2"], 1),
    # a rational bracket on Rep(A, n): induced table, a failing Jacobi sweep
    # (its defect is quadratic in the bracket), trace and tensor brackets
    "rep-rational": (["run", str(SESSIONS / "rational_outer.session")], 1),
}
for _name, _code in (("constant_right_weak", 1), ("linear_poisson", 0),
                     ("twisted_not_poisson", 1), ("weak_classes", 1)):
    _path = str(SESSIONS / f"{_name}.session")
    CASES[f"session-{_name}"] = (["run", _path], _code)
    CASES[f"session-{_name}-kv"] = (["--format", "kv", "run", _path], _code)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return out.getvalue(), code


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_unchanged(case):
    argv, code = CASES[case]
    expected = (GOLDEN / f"{case}.txt").read_bytes().decode("utf-8")
    assert _run(argv) == (expected, code)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, (argv, code) in sorted(CASES.items()):
        out, got = _run(argv)
        if got != code:
            raise SystemExit(f"{case}: exit code {got}, expected {code}")
        (GOLDEN / f"{case}.txt").write_bytes(out.encode("utf-8"))
        print(f"wrote {case}.txt")
