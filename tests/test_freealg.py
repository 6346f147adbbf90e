"""Core arithmetic of the free algebra, tensors, endomorphisms, necklaces."""

import itertools
import random
from fractions import Fraction

import pytest

from dbrackets import (AlgEndo, FreeAlgebra, NCPoly, Necklace, apply_endo,
                       necklace_project, permute_args, tensor3_perm)
from dbrackets.freealg import (P12, P123, P132, P13, P23, P_ID, Tensor2,
                               Tensor3, _first_failure, _tensor_order)

from helpers import two_gen, xy


def test_monomial_product_concatenates():
    A = two_gen()
    x, y = xy(A)
    assert x * y == A.monomial("xy")


def test_noncommutative_expansion():
    A = two_gen()
    x, y = xy(A)
    assert (x + y) * (x - y) == A.poly({"xx": 1, "xy": -1, "yx": 1, "yy": -1})


def test_unit_law():
    A = two_gen()
    p = A.poly({"xy": 2, "": Fraction(1, 3), "yyx": -1})
    assert A.one() * p == p
    assert p * A.one() == p


def test_zero_pruning_and_equality():
    A = two_gen()
    x, _ = xy(A)
    assert (x - x).terms == {}
    assert (x - x).is_zero()


def test_mismatched_generator_tables_rejected():
    A, B = FreeAlgebra(["x", "y"]), FreeAlgebra(["u", "v"])
    with pytest.raises(ValueError):
        A.gen(0) * B.gen(0)


def test_tensor_swap_examples():
    A = two_gen()
    x, y = xy(A)
    one = A.one()
    assert A.t2(x, y).swap() == A.t2(y, x)
    assert A.unit2().swap() == A.unit2()
    d = A.t2(x, one) - A.t2(one, x)
    assert d.swap() == A.t2(one, x) - A.t2(x, one)


def test_tensor_swap_involution():
    A = two_gen()
    x, y = xy(A)
    d = A.t2(x * y, y) - A.t2(A.one(), x).scale(Fraction(3, 2))
    assert d.swap().swap() == d


def test_tensor3_perm_inverse_index_convention():
    A = FreeAlgebra(["x", "y", "z"])
    x, y, z = A.gens()
    t = A.t3(x, y, z)
    assert tensor3_perm(P123, t) == A.t3(z, x, y)
    assert tensor3_perm(P_ID, t) == t
    assert tensor3_perm(P12, tensor3_perm(P12, t)) == t


def test_tensor3_perm_is_left_action():
    A = two_gen()
    x, y = xy(A)
    t = A.t3(x, y, x * y) + A.t3(A.one(), y, y).scale(-2)
    perms = [P_ID, P12, P13, P23, P123, P132]
    for s in perms:
        for r in perms:
            assert tensor3_perm(s, tensor3_perm(r, t)) == \
                tensor3_perm(tuple(s[i - 1] for i in r), t)


@pytest.mark.parametrize("sigma", [(1, 1, 2), (1, 2), (0, 1, 2),
                                   (1, 2, 3, 4), (2, 3, 4)])
def test_tensor3_perm_refuses_a_non_permutation(sigma):
    A = two_gen()
    x, y = xy(A)
    with pytest.raises(ValueError, match="not a permutation of"):
        tensor3_perm(sigma, A.t3(x, y, x))
    # the arguments of a triple are permuted through the same table
    with pytest.raises(ValueError, match="not a permutation of"):
        permute_args(sigma, (x, y, x))


def test_tensor3_perm_takes_any_sequence_of_the_six():
    A = FreeAlgebra(["x", "y", "z"])
    x, y, z = A.gens()
    t = A.t3(x, y, z) + A.t3(z, z, A.one()).scale(Fraction(-1, 3))
    for s in itertools.permutations((1, 2, 3)):
        assert tensor3_perm(list(s), t) == tensor3_perm(s, t)
    # factor i of the result is factor sigma^{-1}(i) of t
    assert tensor3_perm([2, 3, 1], A.t3(x, y, z)) == A.t3(z, x, y)


def test_tensor2_product_is_componentwise():
    A = two_gen()
    x, y = xy(A)
    one = A.one()
    assert A.t2(x, one) * A.t2(one, y) == A.t2(x, y)
    d = A.t2(x, y * y) - A.t2(y, one)
    assert A.unit2() * d == d
    assert A.t2(x, y) * A.t2(x, y) == A.t2(x * x, y * y)


def test_apply_endo_swap_generators():
    A = two_gen()
    x, y = xy(A)
    alpha = AlgEndo(A, {"x": y, "y": x})
    assert apply_endo(alpha, x * y) == y * x


def test_apply_endo_identity_and_binomial():
    A = two_gen()
    x, y = xy(A)
    assert apply_endo(AlgEndo.identity(A), x * y - y) == x * y - y
    shift = AlgEndo(A, {"x": x + A.one(), "y": y})
    assert apply_endo(shift, x * x) == x * x + 2 * x + A.one()


def test_apply_endo_is_multiplicative_and_additive():
    A = two_gen()
    x, y = xy(A)
    e = AlgEndo(A, {"x": x + y, "y": x * y})
    p, q = x * y - 2 * y, y * y + A.one()
    assert apply_endo(e, p * q) == apply_endo(e, p) * apply_endo(e, q)
    assert apply_endo(e, p + q) == apply_endo(e, p) + apply_endo(e, q)


def test_is_identity_equals_the_image_comparison(monkeypatch):
    A = two_gen()
    x, y = xy(A)
    same_names, other = FreeAlgebra(["x", "y"]), FreeAlgebra(["a", "b"])
    flip = AlgEndo(A, {"x": y, "y": x})
    shift = AlgEndo(A, {"x": x + A.one(), "y": y})
    maps = [AlgEndo.identity(A), AlgEndo(A, {"x": x, "y": y}), flip, shift,
            flip.after(flip), shift.after(flip), flip.after(shift),
            AlgEndo.identity(A).after(AlgEndo.identity(A)),
            AlgEndo(A, {"x": x.scale(2), "y": y}),
            AlgEndo(A, {"x": same_names.gen("x"), "y": same_names.gen("y")},
                    codomain=same_names),
            AlgEndo(A, {"x": other.gen("a"), "y": other.gen("b")},
                    codomain=other)]
    direct = [e.domain.names == e.codomain.names
              and all(e.images[i] == e.domain.gen(i)
                      for i in range(e.domain.ngens)) for e in maps]
    assert direct == [True, True, False, False, True, False, False, True,
                      False, True, False]
    # decided at construction: asking builds and compares nothing
    calls = []
    monkeypatch.setattr(FreeAlgebra, "gen", lambda *args: calls.append(args))
    assert [e.is_identity() for e in maps] == direct
    assert calls == []


def test_endo_missing_image_rejected():
    A = two_gen()
    with pytest.raises(ValueError):
        AlgEndo(A, {"x": A.gen("y")})


def test_necklace_projection_examples():
    A = two_gen()
    x, y = xy(A)
    assert necklace_project(x * y - y * x) == {}
    out = necklace_project(x * y * x)
    assert out == {A.necklace("xxy"): Fraction(1)}
    out = necklace_project(x + y)
    assert out == {A.necklace("x"): Fraction(1), A.necklace("y"): Fraction(1)}


def test_necklace_trace_property_exhaustive_degree_5():
    A = two_gen()
    for total in range(6):
        for k in range(total + 1):
            for w1 in A.words(k):
                for w2 in A.words(total - k):
                    p, q = A.monomial(w1), A.monomial(w2)
                    assert necklace_project(p * q) == necklace_project(q * p)


def test_necklace_minimal_rotation():
    A = two_gen()
    n = Necklace(A, (1, 0, 0))  # yxx -> xxy
    assert n.word == (0, 0, 1)
    assert n == A.necklace("xxy")


def test_word_reversal_antiautomorphism():
    A = two_gen()
    x, y = xy(A)

    def rev(p):
        return NCPoly(A, {w[::-1]: c for w, c in p.terms.items()})
    p, q = x * y + y, x - y * y
    assert rev(p * q) == rev(q) * rev(p)


def test_rendering_canonical():
    A = two_gen()
    x, y = xy(A)
    assert str(x * y * x) == "x*y*x"
    assert str(A.t2(x * y, A.one()) - A.t2(A.one(), y)) == "-1 (x) y + x*y (x) 1"
    assert str(A.zero()) == "0"
    assert str(A.one() - A.one()) == "0"
    assert str(x.scale(Fraction(-3, 2))) == "-3/2*x"


def _tensor_str_by_key_order(t):
    """The tensor printer as written before words were ranked: the terms
    sorted by ``_tensor_order``, every word rendered once per term."""
    fmt = t.alg.format_word
    terms = sorted(t.terms.items(), key=lambda item: _tensor_order(item[0]))
    return t._format(lambda key: " (x) ".join(fmt(w) for w in key), terms)


@pytest.mark.parametrize("ngens", [1, 2, 3])
def test_tensor_printer_equals_the_key_order_printer(ngens):
    A = FreeAlgebra(["x", "y", "z1"][:ngens])
    rng = random.Random(ngens)
    coeffs = [1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4)]

    def word():
        return tuple(rng.randrange(ngens) for _ in range(rng.randint(0, 3)))

    assert str(A.zero2()) == str(A.t3(A.zero(), A.one(), A.one())) == "0"
    assert str(A.unit2()) == "1 (x) 1"
    for cls, slots in ((Tensor2, 2), (Tensor3, 3)):
        for _ in range(150):
            t = cls(A, {tuple(word() for _ in range(slots)): rng.choice(coeffs)
                        for _ in range(rng.randint(0, 12))})
            assert str(t) == _tensor_str_by_key_order(t)


def test_degree():
    A = two_gen()
    x, y = xy(A)
    f = x * y + y - A.one().scale(5)
    assert f.degree() == 2


def test_endomorphism_of_a_long_word():
    A = two_gen()
    x, y = xy(A)
    swap = AlgEndo(A, {"x": y, "y": x})
    assert swap.apply_word((0,) * 1500) == y ** 1500
    assert swap(x ** 1500 + x * y) == y ** 1500 + y * x


def test_endomorphism_memoises_requested_words_only():
    A = two_gen()
    x, y = xy(A)
    e = AlgEndo(A, {"x": y.scale(2), "y": x})
    w = (0, 1) * 250
    image = e.apply_word(w)
    assert set(e._memo) == {(), w}
    assert e.apply_word(w) is image
    assert image == (y * x).scale(2) ** 250


def test_first_failure_stops_at_the_failing_case():
    def cases():
        yield from range(5)
        raise AssertionError("drawn past the failing case")

    def failure(case):
        return None if case < 4 else f"failed at {case}"

    assert _first_failure(cases(), failure) == (5, 4, "failed at 4")
    assert _first_failure(range(5), lambda case: None) == (5, None, None)
    assert _first_failure((), failure) == (0, None, None)
