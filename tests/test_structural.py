"""Structural identity suites: actions, swaps, cyclicity, derivation rules.

Each ``check_*`` function asserts one identity family exactly, over the
bracket corpus and monomials up to the stated degree bounds; the pytest
wrappers below make the whole suite runnable as one command.
"""

import itertools

from dbrackets import (AlgEndo, Bimodule, BimodKind, act, check_swap_commuting,
                       eval_bracket, jacobiator,
                       jacobiator_form, permute_args, swap_bimodule,
                       tensor3_perm, weak_jacobiator)
from dbrackets.freealg import P123, P132, perm_invert, transposition
from dbrackets.freealg import _tadd
from dbrackets import Tensor3

from helpers import (bracket_corpus, letter_pair_eval, monomials, outer_poisson,
                     right_const, two_gen, xy)

A = two_gen()
CORPUS = bracket_corpus(A)
TRANSPOSITIONS = ("12", "13", "23")


def check_bimodule_axioms():
    x, y = xy(A)
    alpha = AlgEndo(A, {"x": y, "y": x})
    d = A.t2(x, y) - A.t2(A.one(), x * y)
    args = monomials(A, 2, 0)
    for kind in BimodKind:
        for m in (Bimodule(kind, alg=A), Bimodule(kind, alpha, alpha)):
            for a1, a2, b in itertools.product(args[:5], args[:5], args[:5]):
                assert act(m, a1 * a2, d, b) == act(m, a1, act(m, a2, d, b), A.one())
                assert act(m, b, d, a1 * a2) == act(m, A.one(), act(m, b, d, a1), a2)


def check_swap_involutions():
    x, y = xy(A)
    d = A.t2(x * y, y) - A.t2(A.one(), x).scale(3)
    assert d.swap().swap() == d
    for kind in BimodKind:
        m = Bimodule(kind, alg=A)
        assert swap_bimodule(swap_bimodule(m)) == m


def check_swap_commuting_four_kinds():
    for kind in BimodKind:
        assert check_swap_commuting(Bimodule(kind, alg=A), 2).holds


def check_jacobiator_cyclic_symmetry(max_deg=3):
    for db in CORPUS:
        for a, b, c in itertools.product(monomials(A, max_deg), repeat=3):
            j = jacobiator(db, a, b, c)
            assert j == tensor3_perm(P123, jacobiator(db, b, c, a))
            assert j == tensor3_perm(P132, jacobiator(db, c, a, b))


def check_weak_cyclic_symmetry(max_deg=2):
    for db in CORPUS:
        for s in TRANSPOSITIONS:
            for sp in TRANSPOSITIONS:
                for a, b, c in itertools.product(monomials(A, max_deg), repeat=3):
                    w = weak_jacobiator(db, s, sp, a, b, c)
                    assert w == tensor3_perm(
                        P123, weak_jacobiator(db, s, sp, b, c, a))
                    assert w == tensor3_perm(
                        P132, weak_jacobiator(db, s, sp, c, a, b))


def check_outer_jacobiator_derivation(max_deg=2):
    one = A.one()
    db = outer_poisson(A)
    ws = monomials(A, max_deg)
    for a, b, c1, c2 in itertools.product(ws, repeat=4):
        lhs = jacobiator(db, a, b, c1 * c2)
        rhs = (A.t3(c1, one, one) * jacobiator(db, a, b, c2)
               + jacobiator(db, a, b, c1) * A.t3(one, one, c2))
        assert lhs == rhs


def check_right_weak_jacobiator_derivation(max_deg=2):
    one = A.one()
    for db in (right_const(A), CORPUS[4]):
        ws = monomials(A, max_deg)
        for a, b, c1, c2 in itertools.product(ws, repeat=4):
            lhs = weak_jacobiator(db, "12", "12", a, b, c1 * c2)
            rhs = (A.t3(one, one, c1) * weak_jacobiator(db, "12", "12", a, b, c2)
                   + weak_jacobiator(db, "12", "12", a, b, c1) * A.t3(one, one, c2))
            assert lhs == rhs


def _right_anomaly(db, a, b, c1, c2):
    out = {}
    d1, d2 = eval_bracket(db, c2, a), eval_bracket(db, b, c1)
    for (u1, u2), cu in d1.terms.items():
        for (v1, v2), cv in d2.terms.items():
            _tadd(out, (u2, v1, v2 + u1), cu * cv)
    d1, d2 = eval_bracket(db, c1, a), eval_bracket(db, b, c2)
    for (u1, u2), cu in d1.terms.items():
        for (v1, v2), cv in d2.terms.items():
            _tadd(out, (u2, v1, u1 + v2), cu * cv)
    return Tensor3(A, out)


def check_right_jacobiator_anomaly(max_deg=2):
    """The plain Jacobiator on the right kind is a third-slot derivation
    only up to two explicit cross terms."""
    one = A.one()
    for db in (right_const(A), CORPUS[4]):
        ws = monomials(A, max_deg)
        for a, b, c1, c2 in itertools.product(ws, repeat=4):
            lhs = jacobiator(db, a, b, c1 * c2)
            rhs = (A.t3(one, one, c1) * jacobiator(db, a, b, c2)
                   + jacobiator(db, a, b, c1) * A.t3(one, one, c2)
                   + _right_anomaly(db, a, b, c1, c2))
            assert lhs == rhs


def check_left_weak_jacobiator_derivation(max_deg=2):
    one = A.one()
    db = CORPUS[3]  # left-kind swap of the constant right bracket
    assert db.kind() is BimodKind.LEFT
    ws = monomials(A, max_deg)
    for a, b, c1, c2 in itertools.product(ws, repeat=4):
        lhs = weak_jacobiator(db, "12", "13", a, b, c1 * c2)
        rhs = (A.t3(c1, one, one) * weak_jacobiator(db, "12", "13", a, b, c2)
               + weak_jacobiator(db, "12", "13", a, b, c1) * A.t3(c2, one, one))
        assert lhs == rhs


def check_twisted_outer_jacobiator_expansion():
    """On the (alpha,beta)-twisted outer kind the Jacobiator of a product
    expands into six twist-acted cyclic terms plus two explicit cross
    terms; with identity twists the cross terms cancel and the plain
    third-slot derivation rule remains."""
    from dbrackets import (AlgEndo, Bimodule, DoubleBracket, Tensor3,
                           bracket_left, eval_bracket)
    from dbrackets.freealg import _tadd

    x, y = xy(A)
    one = A.one()
    alpha = AlgEndo(A, {"x": y, "y": x})
    beta = AlgEndo(A, {"x": x + y, "y": y})
    tw = DoubleBracket.from_pairs(
        Bimodule("outer", alpha, beta),
        {("x", "x"): A.t2(x, one) - A.t2(one, x),
         ("x", "y"): A.t2(y, one) + A.t2(one, x)})

    def cross(d1, d2, middle_endo, order):
        out = {}
        for (u1, u2), cu in d1.terms.items():
            for (v1, v2), cv in d2.terms.items():
                for mw, cm in middle_endo.apply_word(
                        v1 if order == "second" else u1).terms.items():
                    if order == "second":
                        _tadd(out, (u1, u2 + mw, v2), cu * cv * cm)
                    else:
                        _tadd(out, (u2, mw + v1, v2), cu * cv * cm)
        return Tensor3(A, out)

    words = [A.monomial(w) for w in A.words_up_to(1, 1)] + [A.monomial((0, 1))]
    for a, b, c1, c2 in itertools.product(words, repeat=4):
        lhs = jacobiator(tw, a, b, c1 * c2)

        def L(p, d):
            return bracket_left(tw, p, d)

        rhs = (A.t3(alpha(alpha(c1)), one, one) * L(a, eval_bracket(tw, b, c2))
               + L(a, eval_bracket(tw, b, c1)) * A.t3(one, one, beta(c2))
               + A.t3(alpha(c1), one, one)
               * tensor3_perm(P123, L(b, eval_bracket(tw, c2, a)))
               + tensor3_perm(P123, L(b, eval_bracket(tw, c1, a)))
               * A.t3(one, one, beta(beta(c2)))
               + A.t3(alpha(c1), one, one)
               * tensor3_perm(P132, L(c2, eval_bracket(tw, a, b)))
               + tensor3_perm(P132, L(c1, eval_bracket(tw, a, b)))
               * A.t3(one, one, beta(c2))
               + cross(eval_bracket(tw, a, alpha(c1)),
                       eval_bracket(tw, b, c2), beta, "second")
               + cross(eval_bracket(tw, c1, a),
                       eval_bracket(tw, b, beta(c2)), alpha, "first"))
        assert lhs == rhs, (a, b, c1, c2)


def check_leibniz_order_independence(max_deg=3):
    for db in CORPUS:
        for u in A.words_up_to(max_deg, 1):
            for v in A.words_up_to(max_deg, 1):
                assert eval_bracket(db, A.monomial(u), A.monomial(v)) == \
                    letter_pair_eval(db, u, v, star_first=True)


def check_jacobiator_forms_agree(max_deg=3):
    for db in CORPUS:
        for a, b, c in itertools.product(monomials(A, max_deg), repeat=3):
            j = jacobiator(db, a, b, c)
            for form in ("mixed", "right", "pair-right"):
                assert jacobiator_form(db, form, a, b, c) == j


ALL_CHECKS = (
    check_bimodule_axioms,
    check_swap_involutions,
    check_swap_commuting_four_kinds,
    check_jacobiator_cyclic_symmetry,
    check_weak_cyclic_symmetry,
    check_outer_jacobiator_derivation,
    check_right_weak_jacobiator_derivation,
    check_right_jacobiator_anomaly,
    check_left_weak_jacobiator_derivation,
    check_twisted_outer_jacobiator_expansion,
    check_leibniz_order_independence,
    check_jacobiator_forms_agree,
)


def test_bimodule_axioms():
    check_bimodule_axioms()


def test_swap_involutions():
    check_swap_involutions()


def test_swap_commuting_four_kinds():
    check_swap_commuting_four_kinds()


def test_jacobiator_cyclic_symmetry():
    check_jacobiator_cyclic_symmetry()


def test_weak_cyclic_symmetry():
    check_weak_cyclic_symmetry()


def test_outer_jacobiator_derivation():
    check_outer_jacobiator_derivation()


def test_right_weak_jacobiator_derivation():
    check_right_weak_jacobiator_derivation()


def test_right_jacobiator_anomaly():
    check_right_jacobiator_anomaly()


def test_left_weak_jacobiator_derivation():
    check_left_weak_jacobiator_derivation()


def test_twisted_outer_jacobiator_expansion():
    check_twisted_outer_jacobiator_expansion()


def test_leibniz_order_independence():
    check_leibniz_order_independence()


def test_jacobiator_forms_agree():
    check_jacobiator_forms_agree()
