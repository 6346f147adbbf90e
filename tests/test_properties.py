"""Randomised algebraic-axiom checks over small sparse elements."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dbrackets import (AlgEndo, Bimodule, DoubleBracket, FreeAlgebra, NCPoly,
                       Tensor2, check_antisymmetry, eval_bracket,
                       necklace_project, tensor3_perm)
from dbrackets.freealg import P12, P123, P132, P13, P23, P_ID

ALG = FreeAlgebra(["x", "y"])

coeffs = st.integers(-4, 4).filter(bool).map(Fraction)
words = st.lists(st.integers(0, 1), max_size=3).map(tuple)


@st.composite
def polys(draw, max_terms=3):
    terms = draw(st.dictionaries(words, coeffs, max_size=max_terms))
    return NCPoly(ALG, dict(terms))


@st.composite
def tensors2(draw, max_terms=3):
    keys = st.tuples(words, words)
    terms = draw(st.dictionaries(keys, coeffs, max_size=max_terms))
    return Tensor2(ALG, dict(terms))


@st.composite
def tensors3(draw, max_terms=3):
    keys = st.tuples(words, words, words)
    terms = draw(st.dictionaries(keys, coeffs, max_size=max_terms))
    from dbrackets import Tensor3
    return Tensor3(ALG, dict(terms))


perms = st.sampled_from([P_ID, P12, P13, P23, P123, P132])


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_product_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@settings(max_examples=40, deadline=None)
@given(polys())
def test_product_unital(p):
    assert ALG.one() * p == p == p * ALG.one()


@settings(max_examples=40, deadline=None)
@given(tensors2())
def test_tensor_swap_involution(d):
    assert d.swap().swap() == d


@settings(max_examples=40, deadline=None)
@given(perms, perms, tensors3())
def test_tensor3_perm_group_action(s, r, t):
    assert tensor3_perm(s, tensor3_perm(r, t)) == \
        tensor3_perm(tuple(s[i - 1] for i in r), t)


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_endo_distributes_over_mul(p, q):
    e = AlgEndo(ALG, {"x": ALG.gen("y") + ALG.one(), "y": ALG.gen("x") * ALG.gen("y")})
    assert e(p * q) == e(p) * e(q)


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_necklace_trace_property(p, q):
    assert necklace_project(p * q) == necklace_project(q * p)


@st.composite
def valid_brackets(draw):
    """Random tables with the antisymmetry invariant enforced."""
    kind = draw(st.sampled_from(["outer", "inner", "left", "right"]))
    dxy = draw(tensors2(2))
    raw = draw(tensors2(2))
    dxx = raw - raw.swap()
    entries = {("x", "y"): dxy, ("x", "x"): dxx}
    return DoubleBracket.from_pairs(Bimodule(kind, alg=ALG), entries)


@settings(max_examples=25, deadline=None)
@given(valid_brackets(), polys(2), polys(2))
def test_eval_antisymmetry_random_brackets(db, a, b):
    assert eval_bracket(db, a, b) == -eval_bracket(db, b, a).swap()


@settings(max_examples=10, deadline=None)
@given(valid_brackets())
def test_check_antisymmetry_random_brackets(db):
    assert check_antisymmetry(db, 2).holds
