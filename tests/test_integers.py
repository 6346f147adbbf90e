"""Coefficients are ``int`` when integral, ``Fraction`` otherwise, never float.

Integer inputs must stay integral through every layer (algebra and tensor
arithmetic, Leibniz evaluation, Jacobiators, sweeps, induced structures,
Yang-Baxter defects); rational inputs must never produce a ``float``; and
an element built from ``Fraction(2)`` is the element built from ``2``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dbrackets import (Bimodule, BimodKind, CPoly, DoubleBracket, FreeAlgebra,
                       MatTensor2, NCPoly, casimir, cybe_defect, eval_bracket,
                       induce, is_poisson, jacobi_sweep, jacobiator,
                       tensor3_perm)
from dbrackets.freealg import P123

ALG = FreeAlgebra(["x", "y"])

INTS = st.integers(-4, 4).filter(bool)
RATS = st.builds(Fraction, INTS, st.integers(1, 3))
WORDS = st.lists(st.sampled_from("xy"), max_size=2).map(tuple)
KINDS = st.sampled_from(list(BimodKind))


def _polys(coeffs):
    return st.dictionaries(WORDS, coeffs, min_size=1, max_size=3).map(ALG.poly)


@st.composite
def _brackets(draw, coeffs):
    """A valid bracket on x, y: <x,y> = p (x) q, <x,x> = d - swap(d)."""
    p, q, r, s = (draw(_polys(coeffs)) for _ in range(4))
    d = ALG.t2(r, s)
    return DoubleBracket.from_pairs(Bimodule(draw(KINDS), alg=ALG),
                                    {("x", "y"): ALG.t2(p, q),
                                     ("x", "x"): d - d.swap()})


def _types(*elements) -> set:
    """The types of the coefficients stored in the elements, and in the
    entry tables of induced structures."""
    out = set()
    for e in elements:
        if e is None:
            continue
        values = (e.table.values() if hasattr(e, "table") else (e,))
        for v in values:
            out.update(type(c) for c in v.terms.values())
    return out


# integer inputs: int only; rational inputs: int or Fraction, never float
CASES = [(INTS, {int}), (RATS, {int, Fraction})]


@pytest.mark.parametrize("coeffs, allowed", CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_algebra_and_tensor_arithmetic(coeffs, allowed, data):
    p, q, r = (data.draw(_polys(coeffs)) for _ in range(3))
    k = data.draw(coeffs)
    d, e = ALG.t2(p, q), ALG.t2(q, r)
    t = ALG.t3(p, q, r)
    assert _types(p * q, p + q - r, -p, p ** 2, p.scale(k), k * p,
                  d, d * e, d + e.swap(), t, t * t, tensor3_perm(P123, t)
                  ) <= allowed


@pytest.mark.parametrize("coeffs, allowed", CASES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_brackets_jacobiators_and_defects(coeffs, allowed, data):
    db = data.draw(_brackets(coeffs))
    a, b, c = (data.draw(_polys(coeffs)) for _ in range(3))
    ps = induce(db, 2)
    assert _types(eval_bracket(db, a, b), jacobiator(db, a, b, c),
                  is_poisson(db, 2).defect, ps, jacobi_sweep(ps).defect
                  ) <= allowed


@pytest.mark.parametrize("N", [1, 2, 3])
def test_yang_baxter_defects(N):
    assert _types(cybe_defect(casimir(N)),
                  cybe_defect(casimir(N).scale(-3))) <= {int}
    assert _types(cybe_defect(casimir(N).scale("2/3"))) <= {int, Fraction}


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(WORDS, INTS, min_size=1, max_size=3), INTS)
def test_integral_fractions_build_the_same_elements(terms, k):
    as_fraction = {w: Fraction(c) for w, c in terms.items()}
    indexed = {tuple(map(ALG.gen_index, w)): c for w, c in as_fraction.items()}
    p = ALG.poly(terms)
    pairs = [
        (p, ALG.poly(as_fraction)),
        (p, NCPoly(ALG, indexed)),  # stored as given, denominators 1
        (ALG.t2(p, ALG.gen("x")), ALG.t2(ALG.poly(as_fraction), ALG.gen("x"))),
        (p.scale(k), p.scale(Fraction(k))),
        (CPoly.const(k), CPoly.const(Fraction(k))),
        (MatTensor2(2, {(1, 2, 2, 1): k}),
         MatTensor2(2, {(1, 2, 2, 1): Fraction(k)})),
    ]
    for from_int, from_fraction in pairs:
        assert from_int == from_fraction
        assert hash(from_int) == hash(from_fraction)
        assert len({from_int, from_fraction}) == 1
        assert str(from_int) == str(from_fraction)


@pytest.mark.parametrize("build", [
    lambda c: ALG.gen("x").scale(c),
    lambda c: ALG.monomial("xy", c),
    lambda c: ALG.poly({("x",): c}),
    lambda c: CPoly.const(c),
    lambda c: MatTensor2(2, {(1, 2, 2, 1): c}),
], ids=["scale", "monomial", "poly", "CPoly.const", "MatTensor2"])
def test_float_coefficients_are_refused(build):
    for c in (0.1, 0.5, 2.0, 0.0):
        with pytest.raises(TypeError, match="float coefficient"):
            build(c)
    assert build(Fraction(1, 10)) == build("1/10") != build(Fraction(1, 5))
    assert build(2) == build(Fraction(2)) == build("2")
