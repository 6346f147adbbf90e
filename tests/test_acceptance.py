"""The acceptance gate: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion, or ``python tests/test_acceptance.py`` standalone.

Criterion 7 gates the Yang-Baxter layer in both directions against the
equation ``cybe_defect`` implements, the reversed-placement form
[r12,r13] + [r12,r23] + [r32,r13] (Babelon-Viallet): for the entry bracket
[r, V (x) 1] - [swap(r), 1 (x) V] its Jacobi tensor is [V1, defect] + cyclic,
so solutions give Poisson entry brackets.  Nonzero solutions (standard_r(1),
the skew jordanian tensor, the nilpotent e12 (x) e12) have zero defect and
pass the entry Jacobi sweep; the non-solution e12 (x) e21 fails both.  The
classical tensor standard_r(n) = sum_{i<j} e_ij (x) e_ji + half-diagonal,
n >= 2, solves the textbook equation [r12,r13] + [r12,r23] + [r13,r23] = 0
but is a non-solution of the implemented one: its defect is [C23, r13]
with C the Casimir, and its entry bracket violates Jacobi.  At n = 2,
{v11,v12} = -v12/2, {v11,v21} = 3 v21/2 and {v12,v21} = v22 - v11 give by
hand J(v11, v12, v21) = v11 - v22, the sweep's first witness for n = 2, 3.
"""

import itertools
from fractions import Fraction

from dbrackets import (Bimodule, DoubleBracket, FreeAlgebra, MatTensor2,
                       check_antisymmetry, check_entry_jacobi, classify,
                       cybe_defect, double_derivation, entry_bracket,
                       eval_bracket, eval_nc, gradient_bracket,
                       gradient_gen_table, induce,
                       is_fully_noncommutative, is_poisson, is_weak_poisson,
                       jacobi_sweep, jacobiator, matrix_tensor_bracket,
                       mult_bracket, standard_r, symmetrize, trace_bracket,
                       CPoly, casimir)

import test_equivalences
import test_structural
import test_ybe
from helpers import monomials, outer_poisson, right_const, twisted_ctr, two_gen, xy


def _report(num, name, fn):
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


# -- criterion 1 ---------------------------------------------------------------

def _criterion_1():
    A = two_gen()
    x, y = xy(A)
    one = A.one()
    tw = twisted_ctr(A)
    assert jacobiator(tw, x, y, y) == A.t3(y, one, one) - A.t3(one, y, one)
    assert is_poisson(tw).status == "NotPoisson"
    base = outer_poisson(A)
    verdict = is_poisson(base)
    assert verdict.status == "Poisson"


def test_criterion_1_equivalent_twisted_bracket():
    _report(1, "twisted equivalence reproduction", _criterion_1)


# -- criterion 2 ---------------------------------------------------------------

def _criterion_2():
    A = two_gen()
    x, y = xy(A)
    one = A.one()
    db = right_const(A, lam=1)
    assert jacobiator(db, x, x, y * y) == A.t3(one, one, one).scale(-2)
    assert is_weak_poisson(db, "12", "12").status == "WeakPoisson"
    v = is_poisson(db, 4)
    assert v.status == "NotPoisson"
    assert v.witness == (x, x, y * y)
    assert v.defect == A.t3(one, one, one).scale(-2)


def test_criterion_2_right_kind_weak_example():
    _report(2, "right-kind weak example", _criterion_2)


# -- criterion 3 ---------------------------------------------------------------

def _criterion_3():
    A = FreeAlgebra(["x1", "x2", "x3"])
    x1, x2, x3 = A.gens()
    one = A.one()

    # (a) failed antisymmetry for the non-symmetric quadratic potential
    f = x1 * x2
    assert not is_fully_noncommutative(f)
    raw = DoubleBracket.from_full_table_unchecked(
        Bimodule("outer", alg=A), gradient_gen_table(f))
    assert raw.entry("x2", "x3") == A.t2(one, x2)
    assert raw.entry("x3", "x2") == -A.t2(one, x2)
    assert not check_antisymmetry(raw, 2).holds

    # (b) the symmetric quadratic potential has the stated Jacobiator value
    g = gradient_bracket(x1 * x2 + x2 * x1)
    assert jacobiator(g, x3, x2, x3) == A.t3(one, one, x2) - A.t3(one, x2, one)

    # (c) the catalogued families are Poisson with their potential a Casimir
    for j in range(3):
        for d in range(5):
            rep = classify(A, "monomial", gen=j, degree=d)
            assert rep.verdict.status == "Poisson" and rep.casimir_ok
    for d in range(5):
        rep = classify(A, "sum-power", degree=d)
        assert rep.verdict.status == "Poisson" and rep.casimir_ok

    # (d) the split-derivative identity for power sums up to degree 5
    s = x1 + x2 + x3
    for d in range(1, 6):
        for k in range(3):
            expect = A.zero2()
            for delta in range(d):
                expect = expect + A.t2(s ** delta, s ** (d - delta - 1))
            assert double_derivation(k, s ** d) == expect

    # (e) symmetrized two-letter potentials fail, witnessed at (x2, x3, x3)
    for d, e in ((3, 1), (3, 2), (4, 2)):
        h = symmetrize(A, [0] * e + [1] * (d - e))
        rep = classify(A, "custom", poly=h)
        assert rep.verdict.status == "NotPoisson"
        assert not jacobiator(gradient_bracket(h), x2, x3, x3).is_zero()


def test_criterion_3_appendix_suite():
    _report(3, "gradient bracket case study", _criterion_3)


# -- criterion 4 ---------------------------------------------------------------

def _criterion_4():
    A = two_gen()
    x, y = xy(A)
    vdb = outer_poisson(A)
    rb = right_const(A)
    for n in (2, 3):
        ps = induce(vdb, n)
        assert jacobi_sweep(ps).holds
        for a in monomials(A, 3):
            for b in monomials(A, 3):
                assert trace_bracket(ps, a, b) == \
                    eval_nc(mult_bracket(vdb, a, b), n).trace()

        psr = induce(rb, n)
        assert jacobi_sweep(psr).holds
        tens = matrix_tensor_bracket(psr, "tensor", x, y)
        assert tens == {(i, i, k, k): CPoly.one()
                        for i in range(1, n + 1) for k in range(1, n + 1)}
        vdb_grid = matrix_tensor_bracket(psr, "vdb", x, y)
        assert vdb_grid == {(i, j, j, i): CPoly.one()
                            for i in range(1, n + 1) for j in range(1, n + 1)}
        for a in monomials(A, 3):
            for b in monomials(A, 3):
                d = eval_bracket(rb, a, b)
                expect = CPoly.zero()
                for (w1, w2), c in d.terms.items():
                    expect = expect + (
                        eval_nc(A.monomial(w1), n).trace()
                        * eval_nc(A.monomial(w2), n).trace()).scale(c)
                assert trace_bracket(psr, a, b) == expect


def test_criterion_4_representation_layer():
    _report(4, "representation layer", _criterion_4)


# -- criterion 5 ---------------------------------------------------------------

def _criterion_5():
    test_equivalences.check_swap_transport_of_jacobiator(3)
    test_equivalences.check_weak_transport_12_13(3)
    test_equivalences.check_weak_transport_12_23(3)
    test_equivalences.check_weak_verdict_equivalences(2)
    test_equivalences.check_inner_outer_mult_bracket_relation(3)
    assert len(test_equivalences.CORPUS) >= 5


def test_criterion_5_equivalence_transport():
    _report(5, "equivalence and weak transport", _criterion_5)


# -- criterion 6 ---------------------------------------------------------------

def _criterion_6():
    test_structural.check_jacobiator_forms_agree(3)
    assert len(test_structural.CORPUS) >= 5


def test_criterion_6_jacobiator_forms():
    _report(6, "jacobiator form equivalence", _criterion_6)


# -- criterion 7: solutions pass, non-solutions fail (see module docstring) ---

def _criterion_7():
    for r in (standard_r(1), test_ybe.jordanian(),
              MatTensor2(2, {(1, 2, 1, 2): 1})):
        assert not r.is_zero()
        assert cybe_defect(r).is_zero(), f"{r} has a nonzero defect"
        assert check_entry_jacobi(entry_bracket(r)).holds, \
            f"entry bracket of {r} violates the Jacobi identity"
    bad = MatTensor2(2, {(1, 2, 2, 1): 1})
    assert not cybe_defect(bad).is_zero(), "e12 (x) e21 has zero defect"
    assert not check_entry_jacobi(entry_bracket(bad)).holds, \
        "e12 (x) e21 entry bracket satisfies Jacobi"
    for n in (2, 3):
        r = standard_r(n)
        assert test_ybe.textbook_cybe_defect(r).is_zero(), \
            f"standard_r({n}) does not solve the textbook CYBE"
        defect = cybe_defect(r)
        assert defect == casimir(n).embed((2, 3)).commutator(r.embed((1, 3)))
        assert not defect.is_zero()
        rep = check_entry_jacobi(entry_bracket(r))
        assert not rep.holds
        assert rep.witness == ("v[1,1]", "v[1,2]", "v[2,1]")
        assert rep.defect == CPoly.var((0, 1, 1)) - CPoly.var((0, 2, 2))


def test_criterion_7_yang_baxter():
    _report(7, "Yang-Baxter layer", _criterion_7)


# -- criterion 8 ---------------------------------------------------------------

def _criterion_8():
    for check in test_structural.ALL_CHECKS:
        check()


def test_criterion_8_structural_suites():
    _report(8, "structural property suites", _criterion_8)


if __name__ == "__main__":
    failed = 0
    for fn in (test_criterion_1_equivalent_twisted_bracket,
               test_criterion_2_right_kind_weak_example,
               test_criterion_3_appendix_suite,
               test_criterion_4_representation_layer,
               test_criterion_5_equivalence_transport,
               test_criterion_6_jacobiator_forms,
               test_criterion_7_yang_baxter,
               test_criterion_8_structural_suites):
        try:
            fn()
        except BaseException as exc:
            failed += 1
            print(f"  -> {exc}")
    raise SystemExit(1 if failed else 0)
