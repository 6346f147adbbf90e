"""Library entry points refuse malformed arguments with a ValueError that
names the fault, before any work."""

import re

import pytest

from dbrackets import (AlgEndo, Bimodule, DoubleBracket, FreeAlgebra,
                       Necklace, TwistPairAuto, bullet_bracket, casimir,
                       check_swap_commuting, eval_nc, family_polynomial,
                       gradient_gen_table, jacobiator_form, transposition)

from helpers import two_gen

A = two_gen()
B = FreeAlgebra(["u", "v"])
C = FreeAlgebra(["x1", "x2", "x3"])
x, y = A.gens()
# x <-> y, an endomorphism of A; and x, y -> u, v, a map from A to B
SWAP_XY = AlgEndo(A, {"x": y, "y": x})
TO_B = AlgEndo(A, {"x": B.gen("u"), "y": B.gen("v")}, codomain=B)


def _twisted_bullet():
    db = DoubleBracket(Bimodule("right", alpha=SWAP_XY, alg=A), {})
    bullet_bracket(db, Necklace(A, (0,)), Necklace(A, (1,)))


REFUSALS = [
    ("bimodule-without-algebra", lambda: Bimodule("outer"),
     "an algebra or a twist endomorphism is required"),
    ("bimodule-twist-to-another-algebra",
     lambda: Bimodule("outer", alpha=TO_B),
     "twists must be endomorphisms of the algebra itself"),
    ("bimodule-twists-of-two-algebras",
     lambda: Bimodule("outer", alpha=SWAP_XY, beta=AlgEndo.identity(B)),
     "twist pair must act on the same algebra"),
    ("swap-commuting-function-without-algebra",
     lambda: check_swap_commuting(Bimodule("outer", alg=A).act),
     "a custom action needs an explicit algebra"),
    ("unknown-jacobiator-form",
     lambda: jacobiator_form(DoubleBracket.zero(Bimodule("outer", alg=A)),
                             "bogus", x, x, y),
     "unknown jacobiator form 'bogus'; choose from "
     "('left', 'mixed', 'right', 'pair-right')"),
    ("twist-pair-of-a-non-endomorphism", lambda: TwistPairAuto(TO_B, TO_B),
     "twist must be an endomorphism of one algebra"),
    ("bullet-bracket-with-unequal-twists", _twisted_bullet,
     "bullet bracket needs equal twists"),
    ("transposition-of-the-identity", lambda: transposition((1, 2, 3)),
     "not a transposition of {1,2,3}: (1, 2, 3)"),
    ("duplicate-generator-names", lambda: FreeAlgebra(["x", "x"]),
     "duplicate generator names: ('x', 'x')"),
    ("no-generator-names", lambda: FreeAlgebra([]),
     "at least one generator is required"),
    ("generator-index-out-of-range", lambda: A.gen_index(5),
     "generator index 5 out of range for FreeAlgebra(x, y)"),
    ("endomorphisms-that-do-not-compose",
     lambda: SWAP_XY.after(AlgEndo.identity(B)),
     "endomorphisms do not compose: codomain/domain mismatch"),
    ("gradient-table-over-two-generators", lambda: gradient_gen_table(x * y),
     "gradient brackets are defined over three generators"),
    ("family-over-two-generators",
     lambda: family_polynomial(A, "sum-power", degree=2),
     "gradient families live over three generators"),
    ("sum-power-without-degree", lambda: family_polynomial(C, "sum-power"),
     "sum-power family needs degree"),
    ("custom-without-polynomial", lambda: family_polynomial(C, "custom"),
     "custom family needs the polynomial"),
    ("unknown-family", lambda: family_polynomial(C, "bogus"),
     "unknown family 'bogus'; choose from "
     "('monomial', 'sum-power', 'linear', 'custom')"),
    ("matrix-size-zero", lambda: eval_nc(x, 0), "matrix size must be >= 1"),
    ("casimir-of-size-zero", lambda: casimir(0), "N must be >= 1"),
]


@pytest.mark.parametrize("call, message", [
    pytest.param(call, message, id=name) for name, call, message in REFUSALS])
def test_entry_points_refuse_malformed_arguments(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_an_untwisted_bimodule_names_only_its_kind():
    assert repr(Bimodule("inner", alg=A)) == "<Bimodule inner>"
    assert repr(Bimodule("right", alpha=SWAP_XY)) == (
        f"<Bimodule right, alpha={SWAP_XY}, beta={AlgEndo.identity(A)}>")
