"""The four actions on the tensor square, their swaps, and the checker."""

import itertools

import pytest

from dbrackets import (AlgEndo, Bimodule, BimodKind, FreeAlgebra, Tensor2, act,
                       check_swap_commuting, swap_bimodule, word_reversal)
from dbrackets.freealg import _tadd

from helpers import monomials, two_gen, xy


def test_action_placements():
    A = two_gen()
    x, y = xy(A)
    one = A.one()
    d = A.unit2()
    assert act(Bimodule("outer", alg=A), x, d, y) == A.t2(x, y)
    assert act(Bimodule("inner", alg=A), x, d, y) == A.t2(y, x)
    assert act(Bimodule("left", alg=A), x, d, y) == A.t2(x * y, one)
    assert act(Bimodule("right", alg=A), x, d, y) == A.t2(one, x * y)


def test_twisted_action():
    A = two_gen()
    x, y = xy(A)
    alpha = AlgEndo(A, {"x": y, "y": x})
    m = Bimodule("outer", alpha, alpha)
    assert act(m, x, A.unit2(), A.one()) == A.t2(y, A.one())


def test_swap_bimodule_pairs_kinds():
    A = two_gen()
    alpha = AlgEndo(A, {"x": A.gen("y"), "y": A.gen("x")})
    assert swap_bimodule(Bimodule("outer", alg=A)).kind is BimodKind.INNER
    m = swap_bimodule(Bimodule("left", alpha, alpha))
    assert m.kind is BimodKind.RIGHT and m.alpha == alpha and m.beta == alpha
    for kind in BimodKind:
        m = Bimodule(kind, alg=A)
        assert swap_bimodule(swap_bimodule(m)) == m


def test_swap_action_is_swap_conjugate():
    A = two_gen()
    x, y = xy(A)
    d = A.t2(x, y * x) - A.t2(A.one(), y)
    for kind in BimodKind:
        m = Bimodule(kind, alg=A)
        s = swap_bimodule(m)
        assert act(s, x, d, y) == act(m, x, d.swap(), y).swap()


@pytest.mark.parametrize("kind", list(BimodKind))
@pytest.mark.parametrize("twisted", [False, True])
def test_bimodule_axioms_to_degree_3(kind, twisted):
    A = two_gen()
    x, y = xy(A)
    if twisted:
        alpha = AlgEndo(A, {"x": y, "y": x + A.one()})
        beta = AlgEndo(A, {"x": x * y, "y": y})
        m = Bimodule(kind, alpha, beta)
    else:
        m = Bimodule(kind, alg=A)
    args = monomials(A, 2, 0)
    d = A.t2(x, y) - A.t2(A.one(), x * y)
    for a1 in args:
        for a2 in args:
            for b in args[:4]:
                assert act(m, a1 * a2, d, b) == act(m, a1, act(m, a2, d, b), A.one())
                assert act(m, b, d, a1 * a2) == act(m, A.one(), act(m, b, d, a1), a2)


@pytest.mark.parametrize("kind", list(BimodKind))
def test_four_kinds_swap_commuting(kind):
    A = two_gen()
    r = check_swap_commuting(Bimodule(kind, alg=A), 2)
    assert r.holds


def test_twisted_kinds_swap_commuting():
    A = two_gen()
    x, y = xy(A)
    alpha = AlgEndo(A, {"x": y, "y": x})
    beta = AlgEndo(A, {"x": x + y, "y": y})
    for kind in BimodKind:
        assert check_swap_commuting(Bimodule(kind, alpha, beta), 2).holds


def _reversal_action(alg):
    def action(a, d, b):
        nb = word_reversal(b)
        data = {}
        for (w1, w2), c in d.terms.items():
            for u, cu in a.terms.items():
                for v, cv in nb.terms.items():
                    _tadd(data, (u + w1, v + w2), c * cu * cv)
        return Tensor2(alg, data)
    return action


def test_reversal_twisted_action_not_swap_commuting():
    """a . d . b = a d' (x) rev(b) d'' is a bimodule action but fails the
    exchange law with its swap; the frozen witness was found by the checker."""
    A = two_gen()
    x, y = xy(A)
    one = A.one()
    r = check_swap_commuting(_reversal_action(A), 2, alg=A)
    assert not r.holds
    a1, a2, b1, b2, d, lhs, rhs = r.witness
    assert (a1, a2, b1, b2) == (one, x, y, one)
    assert d == A.unit2()
    assert lhs == A.t2(one, y * x)
    assert rhs == A.t2(one, x * y)


def test_swap_commuting_iff_swap_bimodule_is():
    A = two_gen()
    for kind in BimodKind:
        m = Bimodule(kind, alg=A)
        assert check_swap_commuting(m, 2).holds == \
            check_swap_commuting(swap_bimodule(m), 2).holds

    def swapped_reversal(a, d, b):
        fwd = _reversal_action(A)
        return fwd(a, d.swap(), b).swap()

    assert not check_swap_commuting(_reversal_action(A), 2, alg=A).holds
    assert not check_swap_commuting(swapped_reversal, 2, alg=A).holds


def test_degree_bound_validation():
    A = two_gen()
    with pytest.raises(ValueError):
        check_swap_commuting(Bimodule("outer", alg=A), 0)
