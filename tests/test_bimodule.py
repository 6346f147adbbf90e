"""The four actions on the tensor square, their swaps, and the checker."""

import itertools
from fractions import Fraction

import pytest

from dbrackets import (AlgEndo, Bimodule, BimodKind, FreeAlgebra, NCPoly,
                       Tensor2, act, check_swap_commuting, swap_bimodule)
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


def _branchy_act(m, a, d, b):
    """The action as written before kinds became slot pairs: one formula
    per kind, chosen inside the innermost loop."""
    pa, pb = m.alpha(a), m.beta(b)
    data = {}
    for (w1, w2), cd in d.terms.items():
        for u, cu in pa.terms.items():
            for v, cv in pb.terms.items():
                if m.kind is BimodKind.LEFT:
                    key = (u + w1 + v, w2)
                elif m.kind is BimodKind.RIGHT:
                    key = (w1, u + w2 + v)
                elif m.kind is BimodKind.OUTER:
                    key = (u + w1, w2 + v)
                else:  # INNER
                    key = (w1 + v, u + w2)
                _tadd(data, key, cd * cu * cv)
    return Tensor2(m.alg, data)


@pytest.mark.parametrize("kind", list(BimodKind))
def test_slot_pair_action_equals_the_per_kind_formulas(kind):
    A = two_gen()
    x, y = xy(A)
    alpha = AlgEndo(A, {"x": y, "y": x + A.one()})
    beta = AlgEndo(A, {"x": x * y, "y": y.scale(2)})
    ring = monomials(A, 2, 0) + [x - y.scale(3), x * y + A.one()]
    tensors = [A.unit2(), A.t2(x, y * x) - A.t2(A.one(), y),
               A.t2(x + y, x * x).scale(Fraction(1, 2))]
    for m in (Bimodule(kind, alg=A), Bimodule(kind, alpha, alpha),
              Bimodule(kind, alpha, beta)):
        for a, d, b in itertools.product(ring, tensors, ring):
            assert act(m, a, d, b) == _branchy_act(m, a, d, b)
    # x -> x - 1 shifts copies of d onto each other: with d = 1 (x) 1 +
    # x (x) 1 + 1 (x) x, the words u = x and u = () of x - 1 both reach x
    # in the slot they multiply, with opposite signs
    shift = AlgEndo(A, {"x": x - A.one(), "y": y})
    d = A.unit2() + A.t2(x, A.one()) + A.t2(A.one(), x)
    for m in (Bimodule(kind, shift, shift),
              Bimodule(kind, shift, AlgEndo.identity(A)),
              Bimodule(kind, AlgEndo.identity(A), shift)):
        for a, b in itertools.product([A.one(), x, x * y + y], repeat=2):
            out = act(m, a, d, b)
            assert out == _branchy_act(m, a, d, b)
            assert all(out.terms.values())
    out = act(Bimodule(kind, shift, AlgEndo.identity(A)), x, d, A.one())
    assert len(out.terms) < 2 * len(d.terms)  # two copies of d, merged


def test_act_asks_no_identity_question_per_call(monkeypatch):
    A = two_gen()
    x, y = xy(A)
    flip = AlgEndo(A, {"x": y, "y": x})
    modules = [Bimodule(kind, alpha, beta, alg=A) for kind in BimodKind
               for alpha, beta in ((None, None), (flip, flip), (flip, None))]
    d = A.t2(x, y * x) + A.unit2()
    ring = [A.one(), x, x * y - y]
    expected = [act(m, a, d, b) for m in modules
                for a, b in itertools.product(ring, repeat=2)]
    calls = []
    gen = FreeAlgebra.gen
    monkeypatch.setattr(FreeAlgebra, "gen", lambda self, which: (
        calls.append(which) or gen(self, which)))
    assert [act(m, a, d, b) for m in modules
            for a, b in itertools.product(ring, repeat=2)] == expected
    assert [m.is_untwisted() for m in modules] == [True, False, False] * 4
    assert calls == []


def test_kind_slot_pairs():
    assert {k.value: k.slots for k in BimodKind} == {
        "left": (0, 0), "right": (1, 1), "outer": (0, 1), "inner": (1, 0)}
    for kind in BimodKind:
        swapped = swap_bimodule(Bimodule(kind, alg=two_gen())).kind
        assert swapped.slots == tuple(1 - s for s in kind.slots)


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
        nb = NCPoly(alg, {w[::-1]: c for w, c in b.terms.items()})
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
    assert (r.cases, r.trials) == (16, 0)  # the count includes the witness
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


def test_random_phase_witness_and_counts():
    """An action that is the outer one on ring arguments of length <= 1 and
    the right one on longer left arguments: the exhaustive phase cannot see
    it, the seeded random phase fails on its third trial."""
    A = two_gen()
    x, y = xy(A)
    outer, right = Bimodule("outer", alg=A), Bimodule("right", alg=A)

    def action(a, d, b):
        return (outer if a.degree() <= 1 else right).act(a, d, b)

    r = check_swap_commuting(action, 2, alg=A)
    assert (r.holds, r.cases, r.trials) == (False, 1377, 3)
    a1, a2, b1, b2, d = r.witness[:5]
    assert (a1, a2, b1, b2) == (x, y * y, y * y, x * x)
    assert d == A.t2(x * y * x * x, x * y * x * x)


def test_degree_bound_validation():
    A = two_gen()
    with pytest.raises(ValueError):
        check_swap_commuting(Bimodule("outer", alg=A), 0)
