"""Correctness checks of one round's outputs, against ``oracle.py``.

Standard library only.  ``check_round`` takes the serialized job results a
worker printed and raises ``CheckFailed`` on the first wrong value.  Every
verdict, witness, defect, table and printed CLI value is compared with an
oracle computation or with a property the method must have:

* a verdict that holds is either the exact verdict a theorem gives or a
  bounded one at or above the requested degree, and for the weak sweeps
  the oracle finds the weak Jacobiator zero on the start of the sweep;
* a counterexample's defect equals lambda^2 times the oracle's Jacobiator of
  the unscaled bracket at the witness, and the oracle finds zero at every
  earlier triple of the sweep order;
* the four Jacobiator forms agree, the swap-equivalent bracket transports
  the Jacobiator, and the Jacobiator is cyclically symmetric;
* induced tables, trace brackets, matrix-tensor grids, Yang-Baxter defects
  and entry brackets equal the oracle's, scaled by lambda (or lambda^2);
* the only operation allowed to fail is the kept x^1200 trace bracket.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

import canon
import inputs
import oracle as O

KEPT_FAILING = "kept_trace_x1200"


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# oracle values in canonical form
# ---------------------------------------------------------------------------

def o_tensor(d, s=1):
    return canon.tensor((k, c * s) for k, c in d.items())


def o_cpoly(d, s=1):
    return canon.cpoly((m, c * s) for m, c in d.items())


def o_table(table, s=1):
    return {canon.entry(v) + "|" + canon.entry(w): o_cpoly(p, s)
            for (v, w), p in table.items()}


def c_permute(t, order, sign=1):
    """Permute the slots of a canonical tensor: new slot i = old order[i]."""
    out = {}
    for key, c in t.items():
        parts = key.split("|")
        out["|".join(parts[i] for i in order)] = str(Fraction(c) * sign)
    return out


# ---------------------------------------------------------------------------
# parsing the CLI's printed values
# ---------------------------------------------------------------------------

_SPLIT = re.compile(r" ([+-]) ")
_COEFF = re.compile(r"^(\d+(?:/\d+)?)\*(.+)$")
_NUMBER = re.compile(r"^\d+(?:/\d+)?$")
_FACTOR = re.compile(r"^(\w+)\[(\d+),(\d+)\](?:\^(\d+))?$")


def parse_sum(text, key):
    """'-2*a + b - 3/2*c' -> {key(body): coefficient string}; key(None) is
    the key of a bare constant."""
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    parts = _SPLIT.split(text)
    terms = [(sign, parts[0])] + [(1 if parts[i] == "+" else -1, parts[i + 1])
                                  for i in range(1, len(parts), 2)]
    out = {}
    for s, term in terms:
        m = _COEFF.match(term)
        if m:
            c, body = Fraction(m.group(1)), m.group(2)
        elif _NUMBER.match(term):
            c, body = Fraction(term), None
        else:
            c, body = Fraction(1), term
        k = key(body)
        out[k] = out.get(k, 0) + s * c
    return {k: str(Fraction(v)) for k, v in out.items() if v}


def tensor_key(body):
    return "|".join(body.split(" (x) "))


def word_key(body):
    return "1" if body is None else body


def monomial_key(body):
    if body is None:
        return "1"
    factors = []
    for f in body.split("*"):
        m = _FACTOR.match(f)
        expect(m, f"unparsable factor {f!r}")
        factors.append(((m.group(1), int(m.group(2)), int(m.group(3))),
                        int(m.group(4) or 1)))
    return canon.monomial(factors)


def parse_tensor(text):
    return parse_sum(text, tensor_key)


def parse_cpoly(text):
    return parse_sum(text, monomial_key)


def blocks(text):
    """Session output split into (command, [lines]) blocks."""
    out = []
    for line in text.splitlines():
        if line.startswith("$ "):
            out.append((line[2:], []))
        else:
            expect(out, f"output line before any command: {line!r}")
            out[-1][1].append(line)
    return out


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

_NOT_POISSON = re.compile(r"^NotPoisson at \((.*)\) with defect (.*)$")


def check_held(out, degree, sigma=None, sigma_prime=None):
    """An exact verdict, or a bounded one at or above the requested degree."""
    exact = "WeakPoisson" if sigma else "Poisson"
    st = out["status"]
    expect(st in (exact, "VerifiedUpToDegree"), f"verdict {st} does not hold")
    if st == "VerifiedUpToDegree":
        expect(out["degree"] >= degree,
               f"bounded verdict at degree {out['degree']} < {degree}")
    if sigma:
        expect((out["sigma"], out["sigma_prime"]) == (sigma, sigma_prime),
               "verdict names other transpositions")


def check_witness(nb, witness, defect, lam, order):
    """defect == lam^2 * oracle defect at the witness, zero before it."""
    target = tuple(witness)
    for t in order:
        d = nb.jacobiator(*t)
        if tuple(canon.word(w) for w in t) == target:
            expect(d, f"oracle finds a zero defect at the witness {target}")
            expect(defect == o_tensor(d, lam * lam),
                   f"defect at {target} differs from lambda^2 times the oracle's")
            return
        expect(not d, f"oracle finds a nonzero defect at {t}, before the "
                      f"witness {target}")
    raise CheckFailed(f"witness {target} is not in the sweep order")


def check_refutation(out, spec_name, lam, degree):
    """A bounded sweep's counterexample (the refuted brackets are not of an
    untwisted outer or inner kind, so no generator-triple criterion applies)."""
    expect(out["status"] == "NotPoisson", f"expected NotPoisson, got {out['status']}")
    nb = O.NaiveBracket(inputs.bracket_spec(spec_name))
    check_witness(nb, out["witness"], out["defect"], lam,
                  O.sweep_iter(inputs.XY, degree))


def check_sweep_start(spec_name, degree, s, sp, count=64):
    """The oracle's weak Jacobiator vanishes on the first triples swept."""
    nb = O.NaiveBracket(inputs.bracket_spec(spec_name))
    for t in itertools.islice(O.sweep_iter(inputs.XY, degree), count):
        expect(not nb.weak_jacobiator(s, sp, *t),
               f"oracle finds a nonzero defect at {t} for a verdict that holds")


# ---------------------------------------------------------------------------
# word-sweep
# ---------------------------------------------------------------------------

def check_weak(spec_name, s, sp, degree):
    def check(out, lams):
        check_held(out, degree, s, sp)
        check_sweep_start(spec_name, degree, s, sp)
    return check


def check_forms(out, lams):
    words = list(O.words_up_to(inputs.XY, 2))
    expect(out["words"] == [canon.word(w) for w in words], "monomial list differs")
    n = len(words)
    triples = list(itertools.product(range(n), repeat=3))
    index = {t: k for k, t in enumerate(triples)}
    expect(len(out["brackets"]) == len(inputs.CORPUS), "corpus size differs")
    for name, data in zip(inputs.CORPUS, out["brackets"]):
        lam = lams[f"corpus:{name}"]
        nb = O.NaiveBracket(inputs.bracket_spec(name))
        left = data["left"]
        expect(len(left) == len(triples), f"{name}: triple count differs")
        for k, (i, j, l) in enumerate(triples):
            J = left[k]
            where = f"{name} at {(words[i], words[j], words[l])}"
            expect(all(d == canon.digest(J) for d in data["digests"][k][:3]),
                   f"{where}: the four Jacobiator forms disagree")
            # J_swap(a, b, c) = -tau_(12) J(a, c, b)
            moved = c_permute(left[index[(i, l, j)]], (1, 0, 2), -1)
            expect(data["digests"][k][3] == canon.digest(moved),
                   f"{where}: swap transport of the Jacobiator fails")
            # J(a, b, c) = tau_(123) J(b, c, a)
            expect(J == c_permute(left[index[(j, l, i)]], (2, 0, 1)),
                   f"{where}: the Jacobiator is not cyclically symmetric")
            expect(J == o_tensor(nb.jacobiator(words[i], words[j], words[l]),
                                 lam * lam),
                   f"{where}: differs from lambda^2 times the oracle's")


def check_antisym(out, lams):
    pairs = len(list(O.words_up_to(inputs.XY, 4, 0))) ** 2
    expect(out == {"holds": True, "pairs": pairs, "degree": 4},
           f"antisymmetry report {out} (expected {pairs} pairs, holds)")


def check_refute(spec_name, key, degree):
    def check(out, lams):
        check_refutation(out, spec_name, lams[key], degree)
    return check


def _expect_status(lines, ok):
    expect(lines and lines[-1] == ("status: ok" if ok else "status: FAIL"),
           f"status line {lines[-1:]} (expected {'ok' if ok else 'FAIL'})")


def _check_printed_refutation(line, spec_name, lam, degree):
    m = _NOT_POISSON.match(line)
    expect(m, f"expected a NotPoisson line, got {line!r}")
    witness = m.group(1).split(", ")
    nb = O.NaiveBracket(inputs.bracket_spec(spec_name))
    check_witness(nb, witness, parse_tensor(m.group(2)), lam,
                  O.sweep_iter(inputs.XY, degree))


_HELD_BOUNDED = re.compile(r"^VerifiedUpToDegree\((\d+)\) for sigma=\((\d+)\), "
                           r"sigma'=\((\d+)\)$")


def check_session_constant_right_weak(out, lams):
    lam = lams["session:constant_right_weak"]
    bl = blocks(out["text"])
    expect([c for c, _ in bl] == inputs.SESSIONS["constant_right_weak"]["commands"],
           "session commands differ")
    line = bl[0][1][0]
    m = _HELD_BOUNDED.match(line)
    expect(line == "WeakPoisson((12),(12))"
           or (m and int(m.group(1)) >= 4 and m.group(2, 3) == ("12", "12")),
           f"weak verdict {line!r}")
    _expect_status(bl[0][1], True)
    _check_printed_refutation(bl[1][1][0], "right_const", lam, 4)
    _expect_status(bl[1][1], False)
    lines = bl[2][1]
    expect(lines[0] == "induced structure, kind right, n=2", lines[0])
    table = {}
    for line in lines[1:]:
        m = re.match(r"^\{(.+), (.+)\} = (.*)$", line)
        expect(m, f"unparsable table line {line!r}")
        table[f"{m.group(1)}|{m.group(2)}"] = parse_cpoly(m.group(3))
    expect(table == o_table(O.closed_right_const(2, lam)),
           "printed induced table differs from the oracle's")
    lines = bl[3][1]
    expect(lines[0] == "matrix tensor bracket, convention tensor, n=2", lines[0])
    grid = {}
    for line in lines[1:]:
        m = re.match(r"^E\[(\d+),(\d+)\]\(x\)E\[(\d+),(\d+)\]: (.*)$", line)
        expect(m, f"unparsable grid line {line!r}")
        grid[tuple(int(x) for x in m.group(1, 2, 3, 4))] = parse_cpoly(m.group(5))
    ps = O.EntryPoisson(O.closed_right_const(2, lam))
    want = O.matrix_tensor(ps, {("x",): 1}, {("y",): 1}, 2, "tensor")
    expect(grid == {k: o_cpoly(v) for k, v in want.items()},
           "printed matrix tensor bracket differs from the oracle's")
    expect(out["code"] == 1, f"exit code {out['code']} (expected 1)")


def check_session_linear_poisson(out, lams):
    lam = lams["session:linear_poisson"]
    bl = blocks(out["text"])
    expect([c for c, _ in bl] == inputs.SESSIONS["linear_poisson"]["commands"],
           "session commands differ")
    pairs = len(list(O.words_up_to(inputs.XY, 3, 0))) ** 2
    expect(bl[0][1][0] == f"cyclic antisymmetry holds on {pairs} monomial pairs "
                          f"(degree bound 3)", bl[0][1][0])
    _expect_status(bl[0][1], True)
    expect(bl[1][1][0] == "Poisson", bl[1][1][0])
    _expect_status(bl[1][1], True)
    nb = O.NaiveBracket(inputs.BRACKETS["outer_poisson"])
    for t in O.gen_triples(inputs.XY):
        expect(not nb.jacobiator(*t), f"oracle finds a nonzero defect at {t}")
    tuples = (2 * 2 * 2) ** 3
    expect(bl[2][1][0] == f"Jacobi identity holds on all {tuples} "
                          f"generator-entry triples (n=2)", bl[2][1][0])
    _expect_status(bl[2][1], True)
    m = re.match(r"^\{tr X\(x\*y\), tr X\(x\)\} = (.*)$", bl[3][1][0])
    expect(m, bl[3][1][0])
    ps = O.EntryPoisson(O.closed_linear_outer(inputs.XY, 2, lam))
    want = ps.bracket(O.trace_poly({("x", "y"): 1}, 2), O.trace_poly({("x",): 1}, 2))
    expect(parse_cpoly(m.group(1)) == o_cpoly(want), "trace bracket differs")
    expect(out["code"] == 0, f"exit code {out['code']} (expected 0)")


def check_session_twisted(out, lams):
    lam = lams["session:twisted_not_poisson"]
    bl = blocks(out["text"])
    expect([c for c, _ in bl] == inputs.SESSIONS["twisted_not_poisson"]["commands"],
           "session commands differ")
    m = re.match(r"^jacobiator\(x, y, y\) = (.*)$", bl[0][1][0])
    expect(m, bl[0][1][0])
    nb = O.NaiveBracket(inputs.BRACKETS["twisted_ctr"])
    expect(parse_tensor(m.group(1))
           == o_tensor(nb.jacobiator(("x",), ("y",), ("y",)), lam * lam),
           "printed Jacobiator differs from lambda^2 times the oracle's")
    _check_printed_refutation(bl[1][1][0], "twisted_ctr", lam, 4)
    _expect_status(bl[1][1], False)
    expect(out["code"] == 1, f"exit code {out['code']} (expected 1)")


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def check_gradient(name):
    def check(out, lams):
        lam = lams[f"potential:{name}"]
        poly = inputs.POTENTIALS[name]
        lines = out["text"].splitlines()
        expect(lines[0] == "family: custom", lines[0])
        expect(lines[1].startswith("potential: "), lines[1])
        expect(parse_sum(lines[1][len("potential: "):], word_key)
               == canon.tensor(((w,), c * lam) for w, c in poly.items()),
               "printed potential differs from lambda times the input")
        nb = O.NaiveBracket(O.gradient_spec(inputs.X123, poly))
        witness = None
        for t in O.gen_triples(inputs.X123):
            d = nb.jacobiator(*t)
            if d:
                witness = t
                break
        if witness is None:
            expect(lines[2] == "verdict: Poisson", lines[2])
        else:
            m = _NOT_POISSON.match(lines[2][len("verdict: "):])
            expect(m, lines[2])
            expect(m.group(1).split(", ") == [canon.word(w) for w in witness],
                   f"witness {m.group(1)} (oracle: first nonzero at {witness})")
            expect(parse_tensor(m.group(2)) == o_tensor(d, lam * lam),
                   "defect differs from lambda^2 times the oracle's")
        casimir = {}
        for g in inputs.X123:
            d = nb.bracket(poly, {(g,): 1})
            if d:
                casimir[g] = d
        if not casimir:
            expect(lines[3] == "casimir: <<f, g>> = 0 for every generator g",
                   lines[3])
            rest = lines[4:]
        else:
            rest = lines[3 + len(casimir):]
            for line, g in zip(lines[3:], sorted(casimir)):
                prefix = f"casimir FAILS: <<f, {g}>> = "
                expect(line.startswith(prefix), line[:80])
                expect(parse_tensor(line[len(prefix):])
                       == o_tensor(casimir[g], lam * lam),
                       f"<<f, {g}>> differs from lambda^2 times the oracle's")
        ok = witness is None and not casimir
        _expect_status(rest, ok)
        expect(out["code"] == (0 if ok else 1), f"exit code {out['code']}")
    return check


# ---------------------------------------------------------------------------
# rep-space
# ---------------------------------------------------------------------------

def check_rep_sweep(key, n, expected_table, refute_spec=None):
    def check(out, lams):
        lam = lams[key]
        expect(out["table"] == o_table(expected_table(lam)),
               f"induced table at n={n} differs from the oracle's")
        rep = out["report"]
        expect(rep["n"] == n, f"report n={rep['n']}")
        if refute_spec is None:
            expect(rep["holds"] and rep["tuples"] == (2 * n * n) ** 3,
                   f"sweep report {rep} (expected {(2 * n * n) ** 3} tuples, holds)")
            return
        _, table = O.induced_table(inputs.BRACKETS[refute_spec], n)
        count, witness, defect = O.first_jacobi_failure(
            O.EntryPoisson(table), O.entry_variables(inputs.XY, n))
        expect(witness is not None, "oracle finds no Jacobi failure")
        expect(not rep["holds"] and rep["tuples"] == count
               and rep["witness"] == [canon.entry(v) for v in witness],
               f"report {rep['witness']} after {rep['tuples']} tuples; oracle: "
               f"{witness} after {count}")
        expect(rep["defect"] == o_cpoly(defect, lam * lam),
               "defect differs from lambda^2 times the oracle's")
    return check


def check_trace(out, lams):
    _, table = O.induced_table(inputs.BRACKETS["xy_quadratic"], 3,
                               lams["trace_xy_3"])
    ps = O.EntryPoisson(table)
    a, b = inputs.TRACE_A, inputs.TRACE_B
    want = ps.bracket(O.trace_poly(a, 3), O.trace_poly(b, 3))
    expect(out["trace"] == o_cpoly(want), "trace bracket differs from the oracle's")
    grid = O.matrix_tensor(ps, a, b, 3, "vdb")
    expect(out["grid"] == {",".join(map(str, k)): o_cpoly(v)
                           for k, v in grid.items()},
           "matrix tensor bracket differs from the oracle's")


def check_cybe(out, lams):
    lam = lams["r:standard_6"]
    N, r = inputs.R_TENSORS["standard_6"]
    expect(out["N"] == N, f"N={out['N']}")
    got = O.sparse_to_dense(N, {tuple(int(x) for x in k.split(",")): Fraction(c)
                                for k, c in out["terms"].items()})
    want = O.casimir_commutator(N, r)
    expect(got == [[x * lam * lam for x in row] for row in want],
           "cybe_defect(lambda standard_r(6)) differs from lambda^2 [C23, r13]")


def check_entry(name, holds):
    def check(out, lams):
        lam = lams[f"r:{name}"]
        N, r = inputs.R_TENSORS[name]
        scaled_r = {k: c * lam for k, c in r.items()}
        want = {f"{i},{j}|{k},{l}": o_cpoly(p) for ((i, j), (k, l)), p
                in O.entry_bracket_table(N, scaled_r).items()}
        expect(out["table"] == want, f"{name}: entry bracket differs")
        rep = out["report"]
        if holds:
            expect(rep["holds"] and rep["tuples"] == (N * N) ** 3 and rep["n"] == N,
                   f"{name}: report {rep} (expected {(N * N) ** 3} tuples, holds)")
            return
        count, witness, defect = O.first_jacobi_failure(
            O.entry_poisson(N, r), O.entry_variables(("v",), N))
        expect(witness is not None, f"{name}: oracle finds no Jacobi failure")
        expect(not rep["holds"] and rep["tuples"] == count
               and rep["witness"] == [canon.entry(v) for v in witness],
               f"{name}: report {rep['witness']}; oracle {witness}")
        expect(rep["defect"] == o_cpoly(defect, lam * lam),
               f"{name}: defect differs from lambda^2 times the oracle's")
    return check


def check_standard_3_by_hand(out, lams):
    """The hand derivation: witness (v11, v12, v21), defect lambda^2 (v11 - v22)."""
    check_entry("standard_3", False)(out, lams)
    lam2 = lams["r:standard_3"] ** 2
    rep = out["report"]
    expect(rep["witness"] == ["v[1,1]", "v[1,2]", "v[2,1]"], rep["witness"])
    expect(rep["defect"] == {"v[1,1]": str(lam2), "v[2,2]": str(-lam2)},
           f"defect {rep['defect']}")


def check_kept(out, lams):
    lam = lams["kept_x1200"]
    p = inputs.KEPT_POWER
    expect(out == {f"x[1,1]^{p - 1}": str(p * lam)},
           f"{{tr x^{p}, tr y}} at n=1 is {out}")


CHECKS = {
    "word-sweep": {
        "weak_outer_12_12_d3": check_weak("outer_poisson", "12", "12", 3),
        "weak_right_13_13_d3": check_weak("right_const", "13", "13", 3),
        "forms_and_swap_d2": check_forms,
        "antisym_outer_generic_d4": check_antisym,
        "refute_right_const_d6": check_refute("right_const", "refute_right_const", 6),
        "refute_right_generic_d5": check_refute("right_generic",
                                                "refute_right_generic", 5),
        "refute_twisted_ctr_d5": check_refute("twisted_ctr", "refute_twisted_ctr", 5),
        "session:constant_right_weak": check_session_constant_right_weak,
        "session:linear_poisson": check_session_linear_poisson,
        "session:twisted_not_poisson": check_session_twisted,
    },
    "gradient": {f"classify:{name}": check_gradient(name)
                 for name in inputs.POTENTIALS},
    "rep-space": {
        "sweep_outer_n4": check_rep_sweep(
            "induce_outer_4", 4, lambda s: O.closed_linear_outer(inputs.XY, 4, s)),
        "sweep_inner_n3": check_rep_sweep(
            "induce_inner_3", 3, lambda s: O.closed_linear_outer(inputs.XY, 3, s)),
        "sweep_right_n3": check_rep_sweep(
            "induce_right_3", 3, lambda s: O.closed_right_const(3, s)),
        "sweep_xy_quadratic_n4": check_rep_sweep(
            "induce_xy_4", 4,
            lambda s: O.induced_table(inputs.BRACKETS["xy_quadratic"], 4, s)[1],
            refute_spec="xy_quadratic"),
        "trace_and_tensor_n3": check_trace,
        "cybe_standard_6": check_cybe,
        "entry_jacobi:e12e12_4": check_entry("e12e12_4", True),
        "entry_jacobi:jordanian": check_entry("jordanian", True),
        "entry_jacobi:standard_3": check_standard_3_by_hand,
        KEPT_FAILING: check_kept,
    },
}


def check_round(workload, seed, jobs):
    """Check one round; return the number of failed operations."""
    lams = inputs.scalings(workload, seed)
    table = CHECKS[workload]
    expect([j["name"] for j in jobs] == list(table),
           f"job list {[j['name'] for j in jobs]} differs from the checked list")
    failed = 0
    for job in jobs:
        if job["error"] is not None:
            expect(job["name"] == KEPT_FAILING,
                   f"{job['name']} raised {job['error']}")
            failed += 1
            continue
        try:
            table[job["name"]](job["output"], lams)
        except CheckFailed as exc:
            raise CheckFailed(f"{workload} seed {seed}, {job['name']}: {exc}") from None
    return failed
