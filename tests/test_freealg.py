"""Core arithmetic of the free algebra, tensors, endomorphisms, necklaces."""

import itertools
from fractions import Fraction

import pytest

from dbrackets import (AlgEndo, FreeAlgebra, Necklace, apply_endo,
                       necklace_project, perm_compose, poly_mul,
                       tensor2_alg_mul, tensor3_perm,
                       word_reversal)
from dbrackets.freealg import P12, P123, P132, P13, P23, P_ID, _first_failure

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
        poly_mul(A.gen(0), B.gen(0))


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
                tensor3_perm(perm_compose(s, r), t)


def test_tensor2_alg_mul():
    A = two_gen()
    x, y = xy(A)
    one = A.one()
    assert tensor2_alg_mul(A.t2(x, one), A.t2(one, y)) == A.t2(x, y)
    d = A.t2(x, y * y) - A.t2(y, one)
    assert tensor2_alg_mul(A.unit2(), d) == d
    assert tensor2_alg_mul(A.t2(x, y), A.t2(x, y)) == A.t2(x * x, y * y)


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
    p, q = x * y + y, x - y * y
    assert word_reversal(p * q) == word_reversal(q) * word_reversal(p)


def test_rendering_canonical():
    A = two_gen()
    x, y = xy(A)
    assert str(x * y * x) == "x*y*x"
    assert str(A.t2(x * y, A.one()) - A.t2(A.one(), y)) == "-1 (x) y + x*y (x) 1"
    assert str(A.zero()) == "0"
    assert str(A.one() - A.one()) == "0"
    assert str(x.scale(Fraction(-3, 2))) == "-3/2*x"


def test_degree_and_homogeneous_parts():
    A = two_gen()
    x, y = xy(A)
    f = x * y + y - A.one().scale(5)
    assert f.degree() == 2
    assert f.homogeneous_part(1) == y
    assert f.homogeneous_part(0) == -A.one().scale(5)


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
