"""Side-by-side regressions contrasting the outer and right families."""

import itertools
from fractions import Fraction

import pytest

from dbrackets import (Bimodule, CPoly, DoubleBracket, FreeAlgebra,
                       eval_bracket, eval_nc, induce, jacobi_sweep, jacobiator,
                       matrix_tensor_bracket, mult_bracket, weak_jacobiator)

from helpers import monomials, outer_poisson, right_const, two_gen, xy


def quad_outer(alg):
    """A non-Poisson outer bracket with nonconstant entries."""
    x, y = xy(alg)
    one = alg.one()
    return DoubleBracket.from_pairs(
        Bimodule("outer", alg=alg),
        {("x", "y"): alg.t2(one, x) + alg.t2(x, one)})


def test_item1_derivation_rules_do_not_cross_over():
    A = two_gen()
    one = A.one()
    # the right-kind Jacobiator is not a third-slot derivation:
    rb = right_const(A)
    x, y = xy(A)
    lhs = jacobiator(rb, x, x, y * y)
    would_be = (A.t3(one, one, y) * jacobiator(rb, x, x, y)
                + jacobiator(rb, x, x, y) * A.t3(one, one, y))
    assert lhs != would_be
    # the (12)-weak Jacobiator of an outer bracket is not one either:
    ob = quad_outer(A)

    def wk(a, b, c):
        return weak_jacobiator(ob, "12", "12", a, b, c)

    found = False
    for a, b, c1, c2 in itertools.product(monomials(A, 2), repeat=4):
        would_be = (A.t3(c1, one, one) * wk(a, b, c2)
                    + wk(a, b, c1) * A.t3(one, one, c2))
        if wk(a, b, c1 * c2) != would_be:
            found = True
            break
    assert found


def test_item2_induced_maps_do_not_cross_over():
    A = two_gen()
    # the mult bracket does not kill first-slot commutators for right kind
    rb = right_const(A)
    found = any(
        not mult_bracket(rb, a * b - b * a, c).is_zero()
        for a, b, c in itertools.product(monomials(A, 2), repeat=3))
    assert found
    # the slotwise necklace projection is not lift-independent for outer kind:
    # some second-slot commutator argument survives the double projection
    ob = outer_poisson(A)
    from dbrackets.freealg import Necklace, _tadd

    def project_both(d):
        out = {}
        for (w1, w2), c in d.terms.items():
            _tadd(out, (Necklace(A, w1), Necklace(A, w2)), c)
        return out

    found = any(
        project_both(eval_bracket(ob, a, b * c - c * b))
        for a, b, c in itertools.product(monomials(A, 2), repeat=3))
    assert found


def test_item3_abelianization_only_descends_on_the_right():
    A = two_gen()

    def slotwise_commutative_image(d):
        """Image in A^ab (x) A^ab: sort each slot's letters, keep slots apart."""
        out = {}
        for (w1, w2), c in d.terms.items():
            key = (tuple(sorted(w1)), tuple(sorted(w2)))
            out[key] = out.get(key, Fraction(0)) + c
        return {k: c for k, c in out.items() if c}

    rb = right_const(A)
    for a, b, c in itertools.product(monomials(A, 2), repeat=3):
        assert not slotwise_commutative_image(
            eval_bracket(rb, a, b * c - c * b))
        assert not slotwise_commutative_image(
            eval_bracket(rb, b * c - c * b, a))
    ob = outer_poisson(A)
    found = any(
        slotwise_commutative_image(eval_bracket(ob, a, b * c - c * b))
        for a, b, c in itertools.product(monomials(A, 2), repeat=3))
    assert found


def test_item4_constant_brackets_on_polynomial_rings():
    A = FreeAlgebra(["x1", "x2", "x3", "x4"])
    lam = {(0, 1): 1, (0, 2): -2, (1, 3): Fraction(1, 2), (2, 3): 3}
    entries = {k: A.unit2().scale(c) for k, c in lam.items()}
    db = DoubleBracket.from_pairs(Bimodule("right", alg=A), entries)
    from dbrackets import is_weak_poisson
    assert is_weak_poisson(db, "12", "12").status == "WeakPoisson"
    ps = induce(db, 1)
    assert jacobi_sweep(ps).holds
    for (i, j), c in lam.items():
        assert ps.pair_bracket((i, 1, 1), (j, 1, 1)) == CPoly.const(c)


def test_item5_index_arrangements_differ():
    A = two_gen()
    db_out = DoubleBracket.from_pairs(Bimodule("outer", alg=A),
                                      {("x", "y"): A.unit2()})
    db_r = DoubleBracket.from_pairs(Bimodule("right", alg=A),
                                    {("x", "y"): A.unit2()})
    t_out = induce(db_out, 2)
    t_r = induce(db_r, 2)
    assert t_out.pair_bracket((0, 1, 2), (1, 2, 1)) == CPoly.one()
    assert t_r.pair_bracket((0, 1, 2), (1, 2, 1)) == CPoly.zero()
    assert t_r.pair_bracket((0, 1, 1), (1, 2, 2)) == CPoly.one()
    assert t_out.pair_bracket((0, 1, 1), (1, 2, 2)) == CPoly.zero()


def test_item6_both_notations_from_one_structure():
    A = two_gen()
    x, y = xy(A)
    ps = induce(right_const(A), 2)
    tens = matrix_tensor_bracket(ps, "tensor", x, y)
    vdb = matrix_tensor_bracket(ps, "vdb", x, y)
    # same bracket data, different arrangements
    assert tens != vdb
    rearranged = {(k, j, i, l): p for (i, j, k, l), p in tens.items()}
    assert rearranged == vdb


@pytest.mark.parametrize("n", [2, 3])
def test_item7_identity_tensor_brackets(n):
    A = two_gen()
    x, y = xy(A)
    ps = induce(right_const(A), n)
    tens = matrix_tensor_bracket(ps, "tensor", x, y)
    assert tens == {(i, i, k, k): CPoly.one()
                    for i in range(1, n + 1) for k in range(1, n + 1)}
    vdb = matrix_tensor_bracket(ps, "vdb", x, y)
    assert vdb == {(i, j, j, i): CPoly.one()
                   for i in range(1, n + 1) for j in range(1, n + 1)}
    assert matrix_tensor_bracket(ps, "tensor", x, x) == {}
    assert matrix_tensor_bracket(ps, "tensor", y, y) == {}
