"""The three workloads as fixed job lists over the library's public API.

Importing this module imports ``dbrackets``; ``build`` turns the plain-data
inputs of ``inputs.py`` into library objects (that is the set-up the
benchmark times as ``setup_s``) and returns the jobs.  A job's ``run`` is
the timed call; its ``serialize`` turns the result into the canonical plain
data of ``canon.py`` afterwards, outside the timed region.

Job classes: ``certify`` jobs end in a verdict that holds, ``refute`` jobs
in a counterexample with a witness, ``compute`` jobs return values.  The
class is a fact about the input, fixed here; the checks confirm it.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from dbrackets import (AlgEndo, Bimodule, DoubleBracket, FreeAlgebra,
                       check_antisymmetry, induce, is_poisson, is_weak_poisson,
                       jacobi_sweep, jacobiator, jacobiator_form,
                       matrix_tensor_bracket, swap_equivalent, trace_bracket)
from dbrackets import cli
from dbrackets.ybe import (MatTensor2, check_entry_jacobi, cybe_defect,
                           entry_bracket)

import canon
import inputs


@dataclass
class Job:
    name: str
    kind: str  # certify | refute | compute
    run: Callable[[], object]
    serialize: Callable[[object], object]


# ---------------------------------------------------------------------------
# building library objects from the plain specs
# ---------------------------------------------------------------------------

def make_poly(alg, poly):
    return alg.poly({w: Fraction(c) for w, c in poly.items()})


def make_bracket(alg, spec, lam):
    entries = {}
    for pair, terms in spec["entries"].items():
        d = alg.zero2()
        for c, left, right in terms:
            d = d + alg.t2(alg.monomial(left), alg.monomial(right)).scale(
                Fraction(c) * lam)
        entries[pair] = d
    if spec["twist"]:
        alpha = AlgEndo(alg, {g: alg.gen(h) for g, h in spec["twist"].items()})
        bimodule = Bimodule(spec["kind"], alpha, alpha)
    else:
        bimodule = Bimodule(spec["kind"], alg=alg)
    return DoubleBracket.from_pairs(bimodule, entries)


def make_r(name, lam):
    N, terms = inputs.R_TENSORS[name]
    return MatTensor2(N, {k: c * lam for k, c in terms.items()})


# ---------------------------------------------------------------------------
# serializers
# ---------------------------------------------------------------------------

def ser_tensor(t):
    names = t.alg.names
    return canon.tensor((tuple(tuple(names[i] for i in w) for w in key), c)
                        for key, c in t.terms.items())


def ser_cpoly(p, names):
    return canon.cpoly(((((names[g], i, j), e) for (g, i, j), e in m), c)
                       for m, c in p.terms.items())


def ser_verdict(v):
    return {"status": v.status, "degree": v.degree, "sigma": v.sigma,
            "sigma_prime": v.sigma_prime,
            "witness": [str(p) for p in v.witness] if v.witness else None,
            "defect": ser_tensor(v.defect) if v.defect is not None else None}


def ser_entry_table(table, names):
    return {canon.entry((names[v[0]],) + v[1:]) + "|"
            + canon.entry((names[w[0]],) + w[1:]): ser_cpoly(p, names)
            for (v, w), p in table.items()}


def ser_report(r, names):
    return {"holds": r.holds, "tuples": r.tuples, "n": r.n,
            "witness": list(r.witness) if r.witness else None,
            "defect": ser_cpoly(r.defect, names) if r.defect is not None else None}


def ser_cli(result):
    """(exit code, printed text) of a CLI call."""
    code, text = result
    return {"code": code, "text": text}


def run_session(text):
    out, code = cli.run_text(text)
    return code, out


# ---------------------------------------------------------------------------
# word-sweep
# ---------------------------------------------------------------------------

def _forms_job(alg, brackets):
    words = list(alg.words_up_to(2, min_degree=1))
    monos = [alg.monomial(w) for w in words]
    triples = [(a, b, c) for a in range(len(monos)) for b in range(len(monos))
               for c in range(len(monos))]

    def run():
        out = []
        for db in brackets:
            sw = swap_equivalent(db)
            rows = []
            for i, j, k in triples:
                a, b, c = monos[i], monos[j], monos[k]
                rows.append((jacobiator_form(db, "left", a, b, c),
                             jacobiator_form(db, "mixed", a, b, c),
                             jacobiator_form(db, "right", a, b, c),
                             jacobiator_form(db, "pair-right", a, b, c),
                             jacobiator(sw, a, b, c)))
            out.append(rows)
        return out

    def serialize(out):
        ser = []
        for rows in out:
            left, others = [], []
            for row in rows:
                cells = [ser_tensor(t) for t in row]
                left.append(cells[0])
                others.append([canon.digest(c) for c in cells[1:]])
            ser.append({"left": left, "digests": others})
        return {"words": [canon.word(tuple(alg.names[i] for i in w))
                          for w in words], "brackets": ser}

    return run, serialize


def build_word_sweep(lams):
    A = FreeAlgebra(inputs.XY)

    def br(name, key):
        return make_bracket(A, inputs.bracket_spec(name), lams[key])

    weak_outer = br("outer_poisson", "weak_outer")
    weak_right = br("right_const", "weak_right13")
    corpus = [br(name, f"corpus:{name}") for name in inputs.CORPUS]
    antisym = br("outer_generic", "antisym_outer_generic")
    ref_rc = br("right_const", "refute_right_const")
    ref_rg = br("right_generic", "refute_right_generic")
    ref_tw = br("twisted_ctr", "refute_twisted_ctr")
    sessions = {name: inputs.session_text(name, lams[f"session:{name}"])
                for name in inputs.SESSIONS}
    forms_run, forms_ser = _forms_job(A, corpus)

    def session_job(name, kind):
        text = sessions[name]
        return Job(f"session:{name}", kind, lambda: run_session(text), ser_cli)

    return [
        Job("weak_outer_12_12_d3", "certify",
            lambda: is_weak_poisson(weak_outer, "12", "12", 3), ser_verdict),
        Job("weak_right_13_13_d3", "certify",
            lambda: is_weak_poisson(weak_right, "13", "13", 3), ser_verdict),
        Job("forms_and_swap_d2", "certify", forms_run, forms_ser),
        Job("antisym_outer_generic_d4", "certify",
            lambda: check_antisymmetry(antisym, 4),
            lambda r: {"holds": r.holds, "pairs": r.pairs,
                       "degree": r.degree_bound}),
        Job("refute_right_const_d6", "refute",
            lambda: is_poisson(ref_rc, 6), ser_verdict),
        Job("refute_right_generic_d5", "refute",
            lambda: is_poisson(ref_rg, 5), ser_verdict),
        Job("refute_twisted_ctr_d5", "refute",
            lambda: is_poisson(ref_tw, 5), ser_verdict),
        session_job("constant_right_weak", "refute"),
        session_job("linear_poisson", "certify"),
        session_job("twisted_not_poisson", "refute"),
    ]


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

# verdicts of the gradient potentials; the checks recompute them
GRADIENT_KIND = {"sum_power_4": "certify", "monomial_x2_8": "certify",
                 "sym_x1x2x3": "refute", "sym_x1x1x2x3": "refute",
                 "sym_x1x1x2x2x3x3": "refute"}


def gradient_poly_text(name, lam):
    if name == "sum_power_4":
        return f"{lam}*(x1 + x2 + x3)^4"
    if name == "monomial_x2_8":
        return f"{lam}*x2^8"
    return inputs.format_poly(inputs.POTENTIALS[name], lam)


def _cli_main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def build_gradient(lams):
    jobs = []
    for name in inputs.POTENTIALS:
        argv = ["gradient", "classify", "--poly",
                gradient_poly_text(name, lams[f"potential:{name}"])]
        jobs.append(Job(f"classify:{name}", GRADIENT_KIND[name],
                        lambda argv=argv: _cli_main(argv), ser_cli))
    return jobs


# ---------------------------------------------------------------------------
# rep-space
# ---------------------------------------------------------------------------

def build_rep_space(lams):
    A = FreeAlgebra(inputs.XY)
    names = A.names

    def br(name, key):
        return make_bracket(A, inputs.bracket_spec(name), lams[key])

    outer4 = br("outer_poisson", "induce_outer_4")
    inner3 = br("swap:outer_poisson", "induce_inner_3")
    right3 = br("right_const", "induce_right_3")
    xy4 = br("xy_quadratic", "induce_xy_4")
    xy3 = br("xy_quadratic", "trace_xy_3")
    trace_a = make_poly(A, inputs.TRACE_A)
    trace_b = make_poly(A, inputs.TRACE_B)
    r_tensors = {name: make_r(name, lams[f"r:{name}"]) for name in inputs.R_TENSORS}
    kept = br("right_const", "kept_x1200")
    x1200 = A.monomial(("x",) * inputs.KEPT_POWER)
    y = A.gen("y")

    def sweep_job(name, db, n, kind):
        def run():
            ps = induce(db, n)
            return ps, jacobi_sweep(ps)

        def serialize(out):
            ps, rep = out
            return {"table": ser_entry_table(ps.table, names),
                    "report": ser_report(rep, names)}
        return Job(name, kind, run, serialize)

    def trace_run():
        ps = induce(xy3, 3)
        return (trace_bracket(ps, trace_a, trace_b),
                matrix_tensor_bracket(ps, "vdb", trace_a, trace_b))

    def trace_ser(out):
        tb, grid = out
        return {"trace": ser_cpoly(tb, names),
                "grid": {",".join(map(str, k)): ser_cpoly(p, names)
                         for k, p in grid.items()}}

    def entry_job(name, kind):
        r = r_tensors[name]

        def run():
            eb = entry_bracket(r)
            return eb, check_entry_jacobi(eb)

        def serialize(out):
            eb, rep = out
            return {"table": {f"{i},{j}|{k},{l}": ser_cpoly(p, ("v",))
                              for ((i, j), (k, l)), p in eb.table.items()},
                    "report": ser_report(rep, ("v",))}
        return Job(f"entry_jacobi:{name}", kind, run, serialize)

    return [
        sweep_job("sweep_outer_n4", outer4, 4, "certify"),
        sweep_job("sweep_inner_n3", inner3, 3, "certify"),
        sweep_job("sweep_right_n3", right3, 3, "certify"),
        sweep_job("sweep_xy_quadratic_n4", xy4, 4, "refute"),
        Job("trace_and_tensor_n3", "compute", trace_run, trace_ser),
        Job("cybe_standard_6", "compute",
            lambda: cybe_defect(r_tensors["standard_6"]),
            lambda d: {"N": d.N, "terms": {",".join(map(str, k)): str(c)
                                           for k, c in d.terms.items()}}),
        entry_job("e12e12_4", "certify"),
        entry_job("jordanian", "certify"),
        entry_job("standard_3", "refute"),
        Job("kept_trace_x1200", "compute",
            lambda: trace_bracket(induce(kept, 1), x1200, y),
            lambda p: ser_cpoly(p, names)),
    ]


BUILDERS = {"word-sweep": build_word_sweep, "gradient": build_gradient,
            "rep-space": build_rep_space}


def build(workload, seed):
    return BUILDERS[workload](inputs.scalings(workload, seed))
