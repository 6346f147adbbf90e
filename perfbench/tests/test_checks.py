"""Tests of the benchmark itself: the oracle, the checks, and the command.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
Every correctness check is fed the library's genuine result (it must pass)
and corrupted copies of it (each must fail): a doubled defect, a witness
moved to the next triple, a dropped term, and more.
"""

from __future__ import annotations

import copy
import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import canon  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import oracle as O  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def results():
    """Serialized outputs of the quick jobs of every workload, and lambdas."""
    out = {}
    for w in inputs.WORKLOADS:
        for job in workloads.build(w, SEED):
            if job.name in SLOW_JOBS:
                continue
            try:
                out[job.name] = job.serialize(job.run())
            except RecursionError:
                out[job.name] = None
    return out


SLOW_JOBS = {"weak_outer_12_12_d3", "refute_right_const_d6",
             "classify:sum_power_4", "classify:sym_x1x1x2x2x3x3",
             "sweep_outer_n4"}


def run_check(workload, name, output):
    checks.CHECKS[workload][name](output, inputs.scalings(workload, SEED))


def fails(workload, name, output):
    with pytest.raises(checks.CheckFailed):
        run_check(workload, name, output)


def double(d):
    return {k: str(Fraction(c) * 2) for k, c in d.items()}


def drop_one(d):
    d = dict(d)
    d.pop(sorted(d)[0])
    return d


# ---------------------------------------------------------------------------
# the oracle agrees with the closed forms and with the hand derivations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_closed_outer_and_inner_tables_match_slot_arrangements(n):
    for name in ("outer_poisson", "swap:outer_poisson"):
        _, table = O.induced_table(inputs.bracket_spec(name), n)
        assert table == O.closed_linear_outer(inputs.XY, n)


def test_closed_right_table_matches_slot_arrangement():
    _, table = O.induced_table(inputs.BRACKETS["right_const"], 3)
    assert table == O.closed_right_const(3)


@pytest.mark.parametrize("N", [2, 3])
def test_reversed_cybe_of_standard_r_is_casimir_commutator(N):
    r = inputs.standard_r_terms(N)
    assert O.reversed_cybe(N, r) == O.casimir_commutator(N, r)
    assert any(any(row) for row in O.casimir_commutator(N, r))


def test_solutions_have_zero_defect_and_poisson_entry_bracket():
    for name in ("e12e12_4", "jordanian"):
        N, r = inputs.R_TENSORS[name]
        assert not any(any(row) for row in O.reversed_cybe(N, r))
        count, witness, _ = O.first_jacobi_failure(
            O.entry_poisson(N, r), O.entry_variables(("v",), N))
        assert witness is None and count == (N * N) ** 3


def test_standard_r_entry_witness_by_hand():
    # {v11,v12} = -v12/2, {v11,v21} = 3 v21/2, {v12,v21} = v22 - v11 at N = 2
    table = O.entry_bracket_table(2, inputs.standard_r_terms(2))
    v = lambda i, j: ((("v", i, j), 1),)  # noqa: E731
    assert table[((1, 1), (1, 2))] == {v(1, 2): Fraction(-1, 2)}
    assert table[((1, 1), (2, 1))] == {v(2, 1): Fraction(3, 2)}
    assert table[((1, 2), (2, 1))] == {v(2, 2): 1, v(1, 1): -1}
    for N in (2, 3):
        _, witness, defect = O.first_jacobi_failure(
            O.entry_poisson(N, inputs.standard_r_terms(N)),
            O.entry_variables(("v",), N))
        assert witness == (("v", 1, 1), ("v", 1, 2), ("v", 2, 1))
        assert defect == {v(1, 1): 1, v(2, 2): -1}


def test_naive_evaluator_matches_the_library_on_the_corpus():
    from dbrackets import eval_bracket
    alg = workloads.FreeAlgebra(inputs.XY)
    words = list(O.words_up_to(inputs.XY, 3))
    for name in inputs.CORPUS + ("twisted_ctr",):
        nb = O.NaiveBracket(inputs.bracket_spec(name))
        db = workloads.make_bracket(alg, inputs.bracket_spec(name), 1)
        for u, v in itertools.product(words, repeat=2):
            got = workloads.ser_tensor(eval_bracket(db, alg.monomial(u),
                                                    alg.monomial(v)))
            assert got == checks.o_tensor(nb.words(u, v)), (name, u, v)


def test_sweep_order_is_total_degree_then_lexicographic():
    order = list(itertools.islice(O.sweep_iter(("x", "y"), 3), 20))
    assert order[:8] == [tuple((g,) for g in t)
                         for t in itertools.product("xy", repeat=3)]
    assert order[8] == (("x",), ("x",), ("x", "x"))


def test_scalings_are_seeded_nonzero_and_typed():
    for w in inputs.WORKLOADS:
        a, b = inputs.scalings(w, 3), inputs.scalings(w, 3)
        assert a == b and all(a.values())
        for name, how in inputs.SCALED_INPUTS[w]:
            assert (a[name].denominator == 1) == (how == "int")


def test_session_text_parses_to_scaled_bracket():
    from dbrackets.parsing import parse_session
    lam = Fraction(-3, 2)
    spec = parse_session(inputs.session_text("twisted_not_poisson", lam))
    nb = O.NaiveBracket(inputs.BRACKETS["twisted_ctr"], lam)
    for (g, h), d in nb.table.items():
        assert workloads.ser_tensor(spec.bracket.entry(g, h)) == checks.o_tensor(d)


# ---------------------------------------------------------------------------
# each check passes on the genuine result and fails on corrupted ones
# ---------------------------------------------------------------------------

def test_genuine_results_pass(results):
    for w in inputs.WORKLOADS:
        for name in checks.CHECKS[w]:
            if name in results and results[name] is not None:
                run_check(w, name, results[name])


def test_weak_verdict_corruptions(results):
    out = results["weak_right_13_13_d3"]
    fails("word-sweep", "weak_right_13_13_d3", {**out, "degree": 2})
    fails("word-sweep", "weak_right_13_13_d3", {**out, "sigma": "12"})
    fails("word-sweep", "weak_right_13_13_d3", {**out, "status": "NotPoisson"})


@pytest.mark.parametrize("name", ["refute_right_generic_d5", "refute_twisted_ctr_d5"])
def test_refutation_corruptions(results, name):
    out = results[name]
    fails("word-sweep", name, {**out, "defect": double(out["defect"])})
    fails("word-sweep", name, {**out, "defect": drop_one(out["defect"])})
    order = [tuple(canon.word(w) for w in t)
             for t in itertools.islice(O.sweep_iter(inputs.XY, 5), 40)]
    nxt = order[order.index(tuple(out["witness"])) + 1]
    fails("word-sweep", name, {**out, "witness": list(nxt)})
    fails("word-sweep", name, {**out, "status": "VerifiedUpToDegree"})


def test_forms_corruptions(results):
    out = results["forms_and_swap_d2"]
    # pick a triple with a nonzero Jacobiator in the right_generic bracket
    k = next(i for i, t in enumerate(out["brackets"][4]["left"]) if t)
    bad = copy.deepcopy(out)
    bad["brackets"][4]["left"][k] = double(bad["brackets"][4]["left"][k])
    fails("word-sweep", "forms_and_swap_d2", bad)
    bad = copy.deepcopy(out)
    bad["brackets"][4]["left"][k] = drop_one(bad["brackets"][4]["left"][k])
    fails("word-sweep", "forms_and_swap_d2", bad)
    bad = copy.deepcopy(out)
    bad["brackets"][4]["digests"][k][1] = "0" * 24  # one form disagrees
    fails("word-sweep", "forms_and_swap_d2", bad)
    bad = copy.deepcopy(out)
    bad["brackets"][4]["digests"][k][3] = "0" * 24  # swap transport fails
    fails("word-sweep", "forms_and_swap_d2", bad)


def test_antisym_corruptions(results):
    out = results["antisym_outer_generic_d4"]
    fails("word-sweep", "antisym_outer_generic_d4", {**out, "pairs": out["pairs"] - 1})
    fails("word-sweep", "antisym_outer_generic_d4", {**out, "holds": False})


def _replace_defect(text, prefix):
    """Double the coefficients of the defect printed after ``prefix``."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if prefix in line:
            head, tail = line.split(prefix, 1)
            terms = checks.parse_tensor(tail)
            body = " + ".join(f"{Fraction(c) * 2}*{k.replace('|', ' (x) ')}"
                              for k, c in terms.items())
            lines[i] = head + prefix + body.replace("+ -", "- ")
            return "\n".join(lines) + "\n"
    raise AssertionError(prefix)


def test_session_corruptions(results):
    out = results["session:twisted_not_poisson"]
    fails("word-sweep", "session:twisted_not_poisson",
          {**out, "text": _replace_defect(out["text"], "with defect ")})
    fails("word-sweep", "session:twisted_not_poisson",
          {**out, "text": out["text"].replace("at (x, x, y)", "at (x, y, x)")})
    fails("word-sweep", "session:twisted_not_poisson", {**out, "code": 0})
    out = results["session:constant_right_weak"]
    lines = out["text"].splitlines()
    dropped = "\n".join(l for l in lines if not l.startswith("{x[2,2], y[2,2]}"))
    fails("word-sweep", "session:constant_right_weak", {**out, "text": dropped + "\n"})
    out = results["session:linear_poisson"]
    fails("word-sweep", "session:linear_poisson",
          {**out, "text": out["text"].replace("512", "511")})


@pytest.mark.parametrize("name", ["classify:sym_x1x2x3", "classify:sym_x1x1x2x3"])
def test_gradient_corruptions(results, name):
    out = results[name]
    fails("gradient", name, {**out, "text": _replace_defect(out["text"], "with defect ")})
    fails("gradient", name, {**out, "text": _replace_defect(out["text"], "<<f, x2>> = ")})
    fails("gradient", name,
          {**out, "text": out["text"].replace("at (x1, x1, x2)", "at (x1, x1, x3)")})
    fails("gradient", name, {**out, "code": 0})
    text = out["text"].splitlines()
    text[1] = text[1].rsplit(" ", 2)[0]  # drop the potential's last term
    fails("gradient", name, {**out, "text": "\n".join(text) + "\n"})


def test_gradient_poisson_corruptions(results):
    out = results["classify:monomial_x2_8"]
    fails("gradient", "classify:monomial_x2_8",
          {**out, "text": out["text"].replace("verdict: Poisson",
                                              "verdict: NotPoisson at (x1, x1, x1) "
                                              "with defect 1 (x) 1 (x) 1")})
    fails("gradient", "classify:monomial_x2_8", {**out, "code": 1})


def test_rep_sweep_corruptions(results):
    out = results["sweep_xy_quadratic_n4"]
    rep = out["report"]
    name = "sweep_xy_quadratic_n4"
    fails("rep-space", name, {**out, "report": {**rep, "defect": double(rep["defect"])}})
    fails("rep-space", name, {**out, "report": {**rep, "defect": drop_one(rep["defect"])}})
    moved = rep["witness"][:2] + ["y[1,4]"]  # the next tuple in the sweep
    fails("rep-space", name, {**out, "report": {**rep, "witness": moved,
                                                 "tuples": rep["tuples"] + 1}})
    fails("rep-space", name, {**out, "table": drop_one(out["table"])})
    out = results["sweep_right_n3"]
    fails("rep-space", "sweep_right_n3",
          {**out, "report": {**out["report"], "tuples": out["report"]["tuples"] - 1}})
    fails("rep-space", "sweep_right_n3", {**out, "table": {
        k: double(v) for k, v in out["table"].items()}})


def test_trace_cybe_and_entry_corruptions(results):
    out = results["trace_and_tensor_n3"]
    fails("rep-space", "trace_and_tensor_n3", {**out, "trace": drop_one(out["trace"])})
    grid = dict(out["grid"])
    key = sorted(grid)[0]
    grid[key] = double(grid[key])
    fails("rep-space", "trace_and_tensor_n3", {**out, "grid": grid})
    out = results["cybe_standard_6"]
    fails("rep-space", "cybe_standard_6", {**out, "terms": drop_one(out["terms"])})
    fails("rep-space", "cybe_standard_6", {**out, "terms": double(out["terms"])})
    out = results["entry_jacobi:standard_3"]
    rep = out["report"]
    fails("rep-space", "entry_jacobi:standard_3",
          {**out, "report": {**rep, "defect": double(rep["defect"])}})
    fails("rep-space", "entry_jacobi:standard_3",
          {**out, "report": {**rep, "witness": ["v[1,1]", "v[1,2]", "v[2,2]"],
                             "tuples": rep["tuples"] + 1}})
    out = results["entry_jacobi:e12e12_4"]
    fails("rep-space", "entry_jacobi:e12e12_4", {**out, "table": drop_one(out["table"])})


def test_kept_operation_and_failure_accounting(results):
    assert results["kept_trace_x1200"] is None  # RecursionError today
    lam = inputs.scalings("rep-space", SEED)["kept_x1200"]
    p = inputs.KEPT_POWER
    run_check("rep-space", "kept_trace_x1200", {f"x[1,1]^{p - 1}": str(p * lam)})
    fails("rep-space", "kept_trace_x1200", {f"x[1,1]^{p - 1}": str(p)}
          if lam != 1 else {f"x[1,1]^{p}": str(p)})
    jobs = [{"name": n, "error": None, "output": None}
            for n in checks.CHECKS["rep-space"]]
    jobs[0]["error"] = "RecursionError: boom"
    with pytest.raises(checks.CheckFailed):
        checks.check_round("rep-space", SEED, jobs)


# ---------------------------------------------------------------------------
# the command refuses to run without the library
# ---------------------------------------------------------------------------

def test_command_fails_without_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "word-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
