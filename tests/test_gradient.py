"""Gradient-type brackets on three generators: the full case study."""

import itertools
import random
from fractions import Fraction

import pytest

from dbrackets import (Bimodule, DoubleBracket, FreeAlgebra, NCPoly,
                       bracket_left, check_antisymmetry, classify,
                       double_derivation, eval_bracket, family_polynomial,
                       gradient_bracket, gradient_bracket_unchecked,
                       gradient_gen_table, is_fully_noncommutative,
                       is_fully_noncommutative_via_derivations, is_poisson,
                       jacobiator, leading_part_poisson, symmetrize)


@pytest.fixture(scope="module")
def A():
    return FreeAlgebra(["x1", "x2", "x3"])


def sum_power(A, d):
    return (A.gen(0) + A.gen(1) + A.gen(2)) ** d


# -- double derivations -------------------------------------------------------

def test_double_derivation_on_generators(A):
    for j in range(3):
        for k in range(3):
            expect = A.unit2() if j == k else A.zero2()
            assert double_derivation(j, A.gen(k)) == expect


def test_double_derivation_single_occurrence(A):
    x1, x2, _ = A.gens()
    assert double_derivation(0, x2 * x1 * x2) == A.t2(x2, x2)


def test_double_derivation_is_outer_derivation(A):
    words = [A.monomial(w) for w in A.words_up_to(2, 1)]
    for j in range(3):
        for p in words:
            for q in words:
                lhs = double_derivation(j, p * q)
                d_q = double_derivation(j, q)
                d_p = double_derivation(j, p)
                rhs = (A.t2(p, A.one()) * d_q) + (d_p * A.t2(A.one(), q))
                assert lhs == rhs


def test_double_derivation_degree_minus_one(A):
    f = sum_power(A, 3)
    d = double_derivation(1, f)
    assert all(len(w1) + len(w2) == 2 for (w1, w2) in d.terms)


@pytest.mark.parametrize("d", range(1, 6))
def test_power_sum_split_identity(A, d):
    for k in range(3):
        lhs = double_derivation(k, sum_power(A, d))
        rhs = A.zero2()
        for delta in range(d):
            rhs = rhs + A.t2(sum_power(A, delta), sum_power(A, d - delta - 1))
        assert lhs == rhs


# -- fully non-commutative test -----------------------------------------------

def test_fnc_examples(A):
    x1, x2, _ = A.gens()
    assert not is_fully_noncommutative(x1 * x2)
    assert is_fully_noncommutative(x1 * x2 + x2 * x1)
    assert is_fully_noncommutative(x1 ** 3)
    assert is_fully_noncommutative(A.one().scale(7))
    assert is_fully_noncommutative(A.zero())


def test_fnc_criteria_agree_exhaustive_degree_2(A):
    words = list(A.words(2))
    for pattern in itertools.product((0, 1), repeat=len(words)):
        f = NCPoly(A, {w: Fraction(c) for w, c in zip(words, pattern) if c})
        assert is_fully_noncommutative(f) == \
            is_fully_noncommutative_via_derivations(f)


def test_fnc_criteria_agree_random_to_degree_5(A):
    rng = random.Random(11)
    for _ in range(60):
        deg = rng.randint(3, 5)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            w = tuple(rng.randrange(3) for _ in range(deg))
            terms[w] = Fraction(rng.randint(-3, 3))
        f = NCPoly(A, {w: c for w, c in terms.items() if c})
        assert is_fully_noncommutative(f) == \
            is_fully_noncommutative_via_derivations(f)


def test_fnc_respects_orbit_sums(A):
    for d in range(2, 6):
        for e in range(1, d):
            f = symmetrize(A, [0] * e + [1] * (d - e))
            assert is_fully_noncommutative(f)


# -- the bracket construction --------------------------------------------------

def test_gradient_bracket_quadratic_example(A):
    x1, x2, x3 = A.gens()
    one = A.one()
    db = gradient_bracket(x1 * x2 + x2 * x1)
    assert db.entry("x2", "x3") == A.t2(one, x2) + A.t2(x2, one)
    assert db.entry("x1", "x2").is_zero()
    assert db.entry("x3", "x1") == A.t2(one, x1) + A.t2(x1, one)
    assert jacobiator(db, x3, x2, x3) == A.t3(one, one, x2) - A.t3(one, x2, one)


def test_gradient_bracket_linear_example(A):
    coeffs = [4, 7, 11, 13]
    f = family_polynomial(A, "linear", coeffs=coeffs)
    db = gradient_bracket(f)
    assert db.entry("x1", "x2") == A.unit2().scale(13)
    assert db.entry("x2", "x3") == A.unit2().scale(7)
    assert db.entry("x3", "x1") == A.unit2().scale(11)


def test_gradient_bracket_constant_potential(A):
    db = gradient_bracket(A.one().scale(5))
    assert db.is_zero()
    assert is_poisson(db).status == "Poisson"


def test_gradient_bracket_rejects_non_fnc(A):
    with pytest.raises(ValueError):
        gradient_bracket(A.gen(0) * A.gen(1))


def test_unchecked_table_fails_antisymmetry(A):
    x1, x2, _ = A.gens()
    one = A.one()
    db = gradient_bracket_unchecked(x1 * x2)
    assert db.entry("x2", "x3") == A.t2(one, x2)
    assert db.entry("x3", "x2") == -A.t2(one, x2)
    report = check_antisymmetry(db, 2)
    assert not report.holds


def test_monomial_powers_bracket_shape(A):
    # potential x1^d: only the pair (x2, x3) is nonzero, split power values
    d = 3
    db = gradient_bracket(A.gen(0) ** d)
    x1 = A.gen(0)
    expect = A.zero2()
    for delta in range(d):
        expect = expect + A.t2(x1 ** delta, x1 ** (d - delta - 1))
    assert db.entry("x2", "x3") == expect
    assert db.entry("x1", "x2").is_zero()
    assert db.entry("x1", "x3").is_zero()


# -- symmetrization ------------------------------------------------------------

def test_symmetrize_examples(A):
    x1, x2, _ = A.gens()
    assert symmetrize(A, [0, 1]) == x1 * x2 + x2 * x1
    assert symmetrize(A, ["x1", "x2"]) == x1 * x2 + x2 * x1
    assert symmetrize(A, [0, 0]) == (x1 * x1).scale(2)
    with pytest.raises(ValueError):
        symmetrize(A, [0] * 8)


# -- classification ------------------------------------------------------------

def test_classify_families_poisson_with_casimir(A):
    for j in range(3):
        for d in range(5):
            rep = classify(A, "monomial", gen=j, degree=d)
            assert rep.verdict.status == "Poisson" and rep.casimir_ok
    for d in range(5):
        rep = classify(A, "sum-power", degree=d)
        assert rep.verdict.status == "Poisson" and rep.casimir_ok
    rep = classify(A, "linear", coeffs=[0, 1, -2, Fraction(1, 2)])
    assert rep.verdict.status == "Poisson" and rep.casimir_ok


def test_classify_quadratic_counterexample(A):
    x2, x3 = A.gen(1), A.gen(2)
    one = A.one()
    rep = classify(A, "custom", poly=A.gen(0) * A.gen(1) + A.gen(1) * A.gen(0))
    assert rep.verdict.status == "NotPoisson"
    db = gradient_bracket(rep.potential)
    assert jacobiator(db, x3, x2, x3) == A.t3(one, one, x2) - A.t3(one, x2, one)


@pytest.mark.parametrize("d,e", [(3, 1), (3, 2), (4, 2)])
def test_classify_symmetrized_two_letter_potentials(A, d, e):
    f = symmetrize(A, [0] * e + [1] * (d - e))
    rep = classify(A, "custom", poly=f)
    assert rep.verdict.status == "NotPoisson"
    witness_defect = jacobiator(gradient_bracket(f), A.gen(1), A.gen(2), A.gen(2))
    assert not witness_defect.is_zero()


def test_classify_rejects_non_fnc_custom(A):
    with pytest.raises(ValueError):
        classify(A, "custom", poly=A.gen(0) * A.gen(1))


def test_linear_combinations_stay_poisson(A):
    rng = random.Random(3)
    for base in ("monomial", "sum-power"):
        for _ in range(3):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(5)]
            f = A.zero()
            for w, c in enumerate(coeffs):
                part = (A.gen(1) ** w) if base == "monomial" else sum_power(A, w)
                f = f + part.scale(c)
            db = gradient_bracket(f)
            assert is_poisson(db).status == "Poisson"
            for k in range(3):
                assert eval_bracket(db, f, A.gen(k)).is_zero()


def test_casimir_identity_for_theorem_families(A):
    for d in range(4):
        db = gradient_bracket(sum_power(A, d))
        for p in range(1, 4):
            for k in range(3):
                assert eval_bracket(db, sum_power(A, p), A.gen(k)).is_zero()


def test_cross_bracket_left_pairings_vanish(A):
    # <x_i, <x_j, x_k>_{f_d}>_{f_p, L} = 0 for the power-sum potentials
    for d in range(4):
        for p in range(4):
            db_d = gradient_bracket(sum_power(A, d))
            db_p = gradient_bracket(sum_power(A, p))
            for i, j, k in itertools.product(range(3), repeat=3):
                inner = eval_bracket(db_d, A.gen(j), A.gen(k))
                assert bracket_left(db_p, A.gen(i), inner).is_zero()


def test_leading_part_poisson(A):
    x1 = A.gen(0)
    assert leading_part_poisson(x1 ** 3 + x1).status == "Poisson"
    f = symmetrize(A, [0, 1]) + A.gen(2).scale(5)
    assert leading_part_poisson(f).status == "NotPoisson"
    assert classify(A, "custom", poly=f).verdict.status == "NotPoisson"
    with pytest.raises(ValueError):
        leading_part_poisson(A.zero())
