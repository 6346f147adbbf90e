"""Double brackets: Leibniz extension, Jacobiators, verdicts, reductions."""

import functools
import gc
import itertools
import math
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dbrackets import (AlgEndo, Bimodule, BimodKind, DoubleBracket,
                       FreeAlgebra, NCPoly, Necklace, SwapAuto, Tensor2,
                       Tensor3, TwistPairAuto, apply_endo_tensor2,
                       apply_equivalence, bracket_left, bracket_pair_left,
                       bracket_pair_right, bracket_right, bullet_bracket,
                       check_antisymmetry, eval_bracket, induce, is_poisson,
                       is_weak_poisson, jacobiator, mult_bracket,
                       swap_bimodule, swap_equivalent, sym_jacobi_defect,
                       tensor3_perm, weak_jacobiator)
from dbrackets import dbracket
from dbrackets.bimodule import act
from dbrackets.dbracket import JacVerdict, _eval_words
from dbrackets.freealg import P12, P13, P123, P132
from dbrackets.gradient import family_polynomial, gradient_bracket

from helpers import (bracket_corpus, letter_pair_eval, monomials,
                     outer_poisson, reference_act, reference_eval,
                     reference_pair, right_const, triples, twisted_ctr,
                     two_gen, xy)
from identities import (apply_slotwise, check_morphism, lie_on_necklaces,
                        loday_defect, necklace_project, twisted_jacobiator)


# -- Leibniz extension -------------------------------------------------------

def test_eval_zero_pair_leibniz():
    A = two_gen()
    x, y = xy(A)
    db = outer_poisson(A)
    assert eval_bracket(db, x, y * y).is_zero()


def test_eval_right_kind_constant():
    A = two_gen()
    x, y = xy(A)
    db = right_const(A)
    assert eval_bracket(db, x, y * y) == A.t2(A.one(), y).scale(2)


def test_eval_vanishes_on_unit():
    A = two_gen()
    x, y = xy(A)
    for db in bracket_corpus(A):
        for b in (x, y * x, x + y * y):
            assert eval_bracket(db, A.one(), b).is_zero()
            assert eval_bracket(db, b, A.one()).is_zero()


def test_eval_leibniz_order_independence():
    """The one evaluation order agrees with expanding the first argument
    before the second."""
    A = two_gen()
    for db in bracket_corpus(A):
        for u in A.words_up_to(3, 1):
            for v in A.words_up_to(3, 1):
                assert eval_bracket(db, A.monomial(u), A.monomial(v)) == \
                    letter_pair_eval(db, u, v, star_first=True)


def test_antisymmetry_propagates_from_table():
    A = two_gen()
    for db in bracket_corpus(A):
        assert check_antisymmetry(db, 3).holds
    zero = DoubleBracket.zero(Bimodule("outer", alg=A))
    assert check_antisymmetry(zero, 2).holds


def test_unchecked_table_prints_and_fails_antisymmetry():
    A = two_gen()
    x, _ = xy(A)
    raw = DoubleBracket.from_full_table_unchecked(
        Bimodule("outer", alg=A), {("x", "y"): A.t2(x, A.one())})
    assert repr(raw) == "<DoubleBracket outer {<x,y> = x (x) 1}>"
    assert str(check_antisymmetry(raw)) == (
        "cyclic antisymmetry FAILS at (x, y): "
        "<<a,b>> = x (x) 1 but -swap(<<b,a>>) = 0")


def test_reprs_name_maps_necklaces_and_structures():
    A = two_gen()
    x, y = xy(A)
    alpha = AlgEndo(A, {"x": y, "y": x})
    assert repr(SwapAuto()) == "<SwapAuto>"
    assert repr(TwistPairAuto(alpha, alpha)) == \
        "<TwistPairAuto <AlgEndo x -> y, y -> x>>"
    assert repr(Necklace(A, (1, 0, 0))) == "<Necklace [x*x*y]>"
    assert repr(induce(outer_poisson(A), 2)) == \
        "<PoissonStructure outer n=2 on FreeAlgebra(x, y)>"


def test_table_invariant_enforced():
    A = two_gen()
    x, _ = xy(A)
    with pytest.raises(ValueError):
        DoubleBracket.from_pairs(Bimodule("outer", alg=A),
                                 {("x", "x"): A.t2(x, A.one())})
    with pytest.raises(ValueError):
        DoubleBracket.from_pairs(
            Bimodule("outer", alg=A),
            {("x", "y"): A.unit2(), ("y", "x"): A.unit2()})
    # consistent explicit reverse entry is accepted
    DoubleBracket.from_pairs(
        Bimodule("outer", alg=A),
        {("x", "y"): A.unit2(), ("y", "x"): -A.unit2()})


def test_one_antisymmetry_rule_for_every_entry():
    """Each entry and its derived reverse -swap(d) are checked against what
    the table already holds: a bad diagonal, a conflicting reverse and two
    keys for one pair are refused; a consistent reverse is accepted."""
    A = two_gen()
    x, y = xy(A)
    outer = Bimodule("outer", alg=A)
    d = A.t2(x, y) + A.unit2()
    with pytest.raises(ValueError, match=r"<x,x> would be both x \(x\) 1 "
                       r"and -1 \(x\) x"):
        DoubleBracket.from_pairs(outer, {("x", "x"): A.t2(x, A.one())})
    with pytest.raises(ValueError, match="<y,x> would be both"):
        DoubleBracket.from_pairs(outer, {("x", "y"): d, ("y", "x"): d})
    with pytest.raises(ValueError, match="<x,y> would be both"):
        DoubleBracket.from_pairs(outer, {("x", "y"): d, (0, 1): -d})
    db = DoubleBracket.from_pairs(outer, {("x", "y"): d, ("y", "x"): -d.swap(),
                                          (0, 1): d})
    assert db.entry("y", "x") == -d.swap() and db.entry("y", "y").is_zero()
    # the constructor applies the same rule; the unchecked one takes entries
    # as they are
    assert DoubleBracket(outer, {("x", "y"): d}).gen_table == db.gen_table
    raw = DoubleBracket.from_full_table_unchecked(outer, {("x", "y"): d})
    assert raw.entry("y", "x").is_zero()


def test_bracket_equality_is_bimodule_and_table():
    A = two_gen()
    x, y = xy(A)
    d = A.t2(x, y) + A.unit2()
    outer = Bimodule("outer", alg=A)
    db = DoubleBracket.from_pairs(outer, {("x", "y"): d})
    assert db == DoubleBracket.from_pairs(outer, {("y", "x"): -d.swap()})
    swap = AlgEndo(A, {"x": y, "y": x})
    for other in (DoubleBracket.from_pairs(Bimodule("right", alg=A),
                                           {("x", "y"): d}),
                  DoubleBracket.from_pairs(Bimodule("outer", swap, swap),
                                           {("x", "y"): d}),
                  DoubleBracket.from_pairs(outer, {("x", "y"): d.scale(2)}),
                  d):
        assert db != other


# -- the Leibniz evaluator against the letter-pair reference ------------------

def _evaluator_corpus(A):
    """The bracket corpus, its transport by a diagonal twist (all four kinds,
    twisted and untwisted) and a table that fails antisymmetry."""
    x, y = xy(A)
    flip = AlgEndo(A, {"x": y, "y": x})
    untwisted = bracket_corpus(A)
    twisted = [apply_equivalence(db, TwistPairAuto(flip, flip))
               for db in untwisted]
    unchecked = DoubleBracket.from_full_table_unchecked(
        Bimodule("right", alg=A),
        {("x", "y"): A.t2(x, y * y), ("y", "x"): A.t2(x, A.one()) + A.unit2(),
         ("y", "y"): A.t2(y, x).scale(Fraction(2, 3))})
    assert not check_antisymmetry(unchecked, 1).holds
    return untwisted + twisted + [unchecked]


def test_evaluator_corpus_covers_every_kind_twisted_and_untwisted():
    corpus = _evaluator_corpus(two_gen())
    assert {(db.kind(), db.bimodule.is_untwisted()) for db in corpus} == \
        {(kind, flag) for kind in BimodKind for flag in (True, False)}


@pytest.mark.parametrize("star_first", [False, True])
def test_eval_words_equals_letter_pair_reference(star_first):
    """The one Leibniz order equals the letter-pair reference in either of
    its orders, on all four kinds, twisted and untwisted, and on a table
    that fails antisymmetry."""
    A = two_gen()
    words = list(A.words_up_to(3))
    assert () in words
    for db in _evaluator_corpus(A):
        for u in words:
            for v in words:
                assert _eval_words(db, u, v) == \
                    letter_pair_eval(db, u, v, star_first)


def test_eval_words_recursion_depth_does_not_grow_with_the_words(monkeypatch):
    import dbrackets.dbracket as dbm
    inner = dbm._eval_words
    depth = {"now": 0, "max": 0}

    def counting(*args):
        depth["now"] += 1
        depth["max"] = max(depth["max"], depth["now"])
        try:
            return inner(*args)
        finally:
            depth["now"] -= 1

    monkeypatch.setattr(dbm, "_eval_words", counting)
    A = two_gen()
    x, y = xy(A)
    db = right_const(A)
    assert eval_bracket(db, x ** 1500, y * x) == A.t2(x ** 1499, x).scale(1500)
    assert eval_bracket(db, y * x, x ** 1500) == -A.t2(x, x ** 1499).scale(1500)
    # eval_bracket -> a word pair -> its one-letter pieces -> table entries
    assert depth["max"] == 3


def _pair_by_eval_bracket(db, d, bracket_word, factor, slot):
    """The pairing loop with one eval_bracket call per tensor term."""
    data = {}
    for w, c in d.terms.items():
        kept = w[1 - factor]
        value = bracket_word(db.alg.monomial(w[factor]))
        for (u1, u2), ci in value.terms.items():
            key = ((kept, u1, u2) if slot == 0 else
                   (u1, kept, u2) if slot == 1 else (u1, u2, kept))
            data[key] = data.get(key, 0) + c * ci
    return Tensor3(db.alg, {key: c for key, c in data.items() if c})


def test_pairing_maps_equal_eval_bracket_per_term():
    A = two_gen()
    x, y = xy(A)
    one = A.one()
    p = x.scale(3) - (y * x).scale(Fraction(1, 2)) + one.scale(2) + y * y * x
    d = (A.t2(x, y * y).scale(-2) + A.t2(one, x).scale(Fraction(5, 3))
         + A.t2(x * y, x) + A.t2(y, one).scale(7))
    nonzero = 0
    for db in _evaluator_corpus(A):
        def with_p_first(q):
            return eval_bracket(db, p, q)

        def with_p_second(q):
            return eval_bracket(db, q, p)

        for got, want in (
                (bracket_left(db, p, d),
                 _pair_by_eval_bracket(db, d, with_p_first, 0, 2)),
                (bracket_right(db, p, d),
                 _pair_by_eval_bracket(db, d, with_p_first, 1, 0)),
                (bracket_pair_left(db, d, p),
                 _pair_by_eval_bracket(db, d, with_p_second, 0, 1)),
                (bracket_pair_right(db, d, p),
                 _pair_by_eval_bracket(db, d, with_p_second, 1, 0))):
            assert got == want
            nonzero += not got.is_zero()
    assert nonzero >= 40


@pytest.mark.parametrize("kind", [k.value for k in BimodKind])
def test_leibniz_kernels_match_the_reference_route(kind):
    """act, eval_bracket and the four pairing maps equal the route they
    replaced (``helpers.reference_*``) on seeded random tables: untwisted,
    twisted by the swap x <-> y and by the non-invertible x -> x*y on
    either side, with integer and rational entries and words of up to
    four letters."""
    A = two_gen()
    x, y = xy(A)
    swap, grow = AlgEndo(A, {"x": y, "y": x}), AlgEndo(A, {"x": x * y, "y": y})
    rng = random.Random(kind)

    def terms(coeffs, max_len, pair):
        def word():
            return tuple(rng.randrange(2) for _ in range(rng.randint(0, max_len)))
        return {(word(), word()) if pair else word(): rng.choice(coeffs)
                for _ in range(rng.randint(1, 3))}

    nonzero = 0
    for alpha, beta in ((None, None), (swap, swap), (grow, None), (None, grow)):
        m = Bimodule(kind, alpha, beta, alg=A)
        for coeffs in ([1, -1, 2, -3], [1, Fraction(1, 2), Fraction(-2, 3)]):
            db = DoubleBracket.from_full_table_unchecked(m, {
                (i, j): Tensor2(A, terms(coeffs, 2, True))
                for i, j in itertools.product(range(2), repeat=2)})
            for _ in range(4):
                a, b = (NCPoly(A, terms(coeffs, 4, False)) for _ in range(2))
                d = Tensor2(A, terms(coeffs, 2, True))
                assert act(m, a, d, b) == reference_act(m, a, d, b)
                assert eval_bracket(db, a, b) == reference_eval(db, a, b)
                for got, p_first, factor, slot in (
                        (bracket_left(db, a, d), True, 0, 2),
                        (bracket_right(db, a, d), True, 1, 0),
                        (bracket_pair_left(db, d, b), False, 0, 1),
                        (bracket_pair_right(db, d, b), False, 1, 0)):
                    p = a if p_first else b
                    assert got == reference_pair(db, p, d, p_first, factor, slot)
                    nonzero += not got.is_zero()
    assert nonzero >= 80  # of 128 pairings


# -- Jacobiators --------------------------------------------------------------

def test_jacobiator_twisted_ctr_value():
    A = two_gen()
    x, y = xy(A)
    one = A.one()
    db = twisted_ctr(A)
    assert jacobiator(db, x, y, y) == A.t3(y, one, one) - A.t3(one, y, one)


def test_jacobiator_outer_poisson_vanishes():
    A = two_gen()
    x, y = xy(A)
    assert jacobiator(outer_poisson(A), x, y, y).is_zero()


def test_jacobiator_right_constant_square():
    A = two_gen()
    x, y = xy(A)
    one = A.one()
    db = right_const(A)
    assert jacobiator(db, x, x, y * y) == A.t3(one, one, one).scale(-2)
    # the defect scales quadratically in the constant
    for lam in (3, Fraction(-1, 2)):
        dbl = right_const(A, lam)
        assert jacobiator(dbl, x, x, y * y) == \
            A.t3(one, one, one).scale(-2 * Fraction(lam) ** 2)


def test_eval_agrees_with_table_on_generators():
    A = two_gen()
    for db in bracket_corpus(A):
        for i in range(2):
            for j in range(2):
                assert eval_bracket(db, A.gen(i), A.gen(j)) == \
                    db.gen_table[(i, j)]


def test_weak_jacobiator_single_transposition_specialisation():
    A = two_gen()
    from dbrackets import permute_args
    from dbrackets.freealg import perm_invert, transposition
    db = right_const(A)
    for a, b, c in triples(A, 2):
        s = transposition("12")
        expected = jacobiator(db, a, b, c) - tensor3_perm(
            perm_invert(s), jacobiator(db, *permute_args(s, (a, b, c))))
        assert weak_jacobiator(db, "12", "12", a, b, c) == expected


def test_weak_jacobiator_right_constant_vanishes():
    A = two_gen()
    x, y = xy(A)
    db = right_const(A)
    assert weak_jacobiator(db, "12", "12", x, x, y * y).is_zero()


def test_weak_jacobiator_zero_bracket():
    A = two_gen()
    x, y = xy(A)
    db = DoubleBracket.zero(Bimodule("right", alg=A))
    for s in ("12", "13", "23"):
        for sp in ("12", "13", "23"):
            assert weak_jacobiator(db, s, sp, x, y, x * y).is_zero()


def test_weak_jacobiator_rejects_bad_permutation():
    A = two_gen()
    x, y = xy(A)
    with pytest.raises(ValueError):
        weak_jacobiator(right_const(A), "123", "12", x, y, y)


# -- verdicts -----------------------------------------------------------------

@pytest.mark.parametrize("bound", [0, -1])
def test_sweeps_reject_vacuous_bounds(bound):
    A = two_gen()
    zero = DoubleBracket.zero(Bimodule("outer", alg=A))
    # exact, bounded and zero brackets alike: nothing is checked first
    for db in (outer_poisson(A), right_const(A), zero):
        for check in (lambda: is_poisson(db, bound),
                      lambda: is_weak_poisson(db, "12", "12", bound),
                      lambda: check_antisymmetry(db, bound)):
            with pytest.raises(ValueError, match="degree_bound must be >= 1"):
                check()


def test_is_poisson_outer_fixture():
    A = two_gen()
    assert is_poisson(outer_poisson(A)).status == "Poisson"


def test_is_poisson_twisted_fixture_with_reproducible_defect():
    A = two_gen()
    v = is_poisson(twisted_ctr(A))
    assert v.status == "NotPoisson"
    a, b, c = v.witness
    assert jacobiator(twisted_ctr(A), a, b, c) == v.defect
    assert not v.defect.is_zero()


def test_is_poisson_constant_outer_bracket():
    A = FreeAlgebra(["x", "y", "z"])
    lam = {("x", "y"): 2, ("x", "z"): Fraction(-1, 3), ("y", "z"): 5}
    entries = {k: A.unit2().scale(c) for k, c in lam.items()}
    db = DoubleBracket.from_pairs(Bimodule("outer", alg=A), entries)
    assert is_poisson(db).status == "Poisson"


def test_is_poisson_bounded_right_witness():
    A = two_gen()
    x, y = xy(A)
    one = A.one()
    v = is_poisson(right_const(A), 4)
    assert v.status == "NotPoisson"
    assert v.witness == (x, x, y * y)
    assert v.defect == A.t3(one, one, one).scale(-2)


def test_is_weak_poisson_sound_configs():
    A = two_gen()
    rb = right_const(A)
    v = is_weak_poisson(rb, "12", "12")
    assert v.status == "WeakPoisson" and (v.sigma, v.sigma_prime) == ("12", "12")
    lb = swap_equivalent(rb)
    assert lb.kind() is BimodKind.LEFT
    v = is_weak_poisson(lb, "12", "13")
    assert v.status == "WeakPoisson" and (v.sigma, v.sigma_prime) == ("12", "13")


def test_is_weak_poisson_zero_bracket_every_pair():
    A = two_gen()
    db = DoubleBracket.zero(Bimodule("left", alg=A))
    for s in ("12", "13", "23"):
        for sp in ("12", "13", "23"):
            assert is_weak_poisson(db, s, sp).status == "WeakPoisson"


def test_bounded_weak_verdict_embeds_degree():
    A = two_gen()
    # a Poisson bracket is weak Poisson for every pair of transpositions,
    # but (outer, (12), (23)) has no exact generator criterion, so the
    # verdict records the bound instead of overclaiming
    v = is_weak_poisson(outer_poisson(A), "12", "23", 2)
    assert v.status == "VerifiedUpToDegree" and v.degree == 2
    # and the sweep does find genuine witnesses: the (12)-weak Poisson
    # right-kind bracket is not [(12),(23)]-weak
    w = is_weak_poisson(right_const(A), "12", "23", 2)
    assert w.status == "NotPoisson"
    a, b, c = w.witness
    assert weak_jacobiator(right_const(A), "12", "23", a, b, c) == w.defect


def _random_tensor(rng, alg):
    coeffs = [1, -1, 2, Fraction(1, 2)]
    return Tensor2(alg, {
        tuple(tuple(rng.randrange(alg.ngens) for _ in range(rng.randint(0, 2)))
              for _ in range(2)): rng.choice(coeffs)
        for _ in range(rng.randint(1, 3))})


def _random_tables(rng, kind, ngens, count):
    """Untwisted brackets of one kind: linear ones from structure constants
    (antisymmetric by construction), sparse antisymmetric ones, and raw
    tables taken without the antisymmetry check."""
    alg = FreeAlgebra([f"g{i}" for i in range(ngens)])
    m, one, gens = Bimodule(kind, alg=alg), alg.one(), alg.gens()
    for _ in range(count):
        a = {ijk: rng.choice([0, 0, 1, -1])
             for ijk in itertools.product(range(ngens), repeat=3)}
        yield DoubleBracket(m, {(i, j): sum(
            (alg.t2(gens[k], one).scale(a[i, j, k])
             - alg.t2(one, gens[k]).scale(a[j, i, k]) for k in range(ngens)),
            alg.zero2()) for i, j in itertools.product(range(ngens), repeat=2)})
        entries = {}
        for i, j in itertools.product(range(ngens), repeat=2):
            if i <= j and rng.random() < 0.4:
                t = _random_tensor(rng, alg)
                entries[(i, j)] = t - t.swap() if i == j else t
        yield DoubleBracket(m, entries)
        yield DoubleBracket.from_full_table_unchecked(m, {
            (i, j): _random_tensor(rng, alg)
            for i, j in itertools.product(range(ngens), repeat=2)
            if rng.random() < 0.4})


def _antisymmetric_by_hand(db):
    """<<h, g>> = -swap(<<g, h>>) on every pair of generators, compared
    entry by entry."""
    return all(db.entry(g, h) == -db.entry(h, g).swap()
               for g, h in itertools.product(db.alg.names, repeat=2))


def _full_sweep_poisson(db):
    """The verdict of is_poisson as a loop over every triple in sweep
    order, before one triple per rotation class: the generator triples in
    product order on an antisymmetric table; on any other table, where
    vanishing on generators proves nothing, every word triple up to the
    default bound 4."""
    alg = db.alg
    exact = _antisymmetric_by_hand(db)
    for t in (itertools.product(alg.gens(), repeat=3) if exact
              else dbracket._word_triples(alg, 4)):
        a, b, c = (p if exact else alg.monomial(p) for p in t)
        defect = jacobiator(db, a, b, c)
        if not defect.is_zero():
            return JacVerdict("NotPoisson", witness=(a, b, c), defect=defect)
    return JacVerdict("Poisson") if exact else JacVerdict(
        "VerifiedUpToDegree", degree=4)


@pytest.mark.parametrize("kind", ["outer", "inner"])
@pytest.mark.parametrize("ngens", [2, 3])
def test_poisson_sweep_by_rotation_class_equals_the_full_sweep(kind, ngens):
    rng = random.Random(ngens)
    witnesses, past_generators = set(), 0
    for db in _random_tables(rng, kind, ngens, 8):
        for i, j, k in itertools.product(range(ngens), repeat=3):
            assert dbracket._jac_words(db, (i,), (j,), (k,)) == tensor3_perm(
                P123, dbracket._jac_words(db, (j,), (k,), (i,)))
        verdict = is_poisson(db)
        assert verdict == _full_sweep_poisson(db)
        witnesses.add(verdict.witness)
        past_generators += bool(verdict.witness) and max(
            p.degree() for p in verdict.witness) > 1
    assert len(witnesses) >= 4  # Poisson and failures at several triples
    # raw tables whose Jacobiator vanishes on generator triples, not on words
    assert past_generators >= 1


def _scaled_outer_poisson(alg):
    """<g_i,g_i> = (i+1)(g_i (x) 1 - 1 (x) g_i): Poisson, and no relabelling
    maps its table to +-itself."""
    one = alg.one()
    return DoubleBracket(Bimodule("outer", alg=alg), {
        (i, i): (alg.t2(g, one) - alg.t2(one, g)).scale(i + 1)
        for i, g in enumerate(alg.gens())})


def test_poisson_sweep_evaluates_one_triple_per_rotation_class(monkeypatch):
    jac_words, weak_words, calls = dbracket._jac_words, dbracket._weak_words, []
    monkeypatch.setattr(dbracket, "_jac_words", lambda db, u, v, w: (
        calls.append((u, v, w)) or jac_words(db, u, v, w)))
    for ngens, firsts in ((3, 11), (2, 4)):
        alg = FreeAlgebra([f"g{i}" for i in range(ngens)])
        for db in (_scaled_outer_poisson(alg),
                   swap_equivalent(_scaled_outer_poisson(alg))):
            assert dbracket._relabelling_blocks(db) == [
                (g,) for g in range(ngens)]
            calls.clear()
            assert is_poisson(db).status == "Poisson"
            assert len(calls) == firsts
            assert calls == sorted(calls)
            assert {min(t[r:] + t[:r] for r in range(3)) for t in calls} == \
                set(calls)
    # the weak sweep keeps every generator triple
    weak_calls = []
    monkeypatch.setattr(dbracket, "_weak_words", lambda db, *args: (
        weak_calls.append(args) or weak_words(db, *args)))
    alg = FreeAlgebra(["g0", "g1", "g2"])
    db = DoubleBracket(Bimodule("right", alg=alg), {
        (0, 1): alg.unit2(), (0, 2): alg.unit2().scale(2)})
    assert is_weak_poisson(db, "12", "12").status == "WeakPoisson"
    assert len(weak_calls) == 27


# -- relabellings of generators in the exact sweeps ----------------------------
#
# A relabelling tau of generators with <<tau a, tau b>> = s (tau (x) tau)<<a, b>>
# for one sign s gives J(tau a, tau b, tau c) = tau^(x)3 J(a, b, c), so the
# exact sweeps evaluate one generator triple per orbit.

def _relabel(t, tau):
    """tau applied to every letter of a tensor: tau (x) tau or tau^(x)3."""
    return type(t)(t.alg, {tuple(tuple(tau[g] for g in w) for w in key): c
                           for key, c in t.terms.items()})


def _signed_symmetric(rng, kind, ngens, sign):
    """A random antisymmetric table made to satisfy table[(tau i, tau j)] =
    sign (tau (x) tau)(table[(i, j)]) for tau = (g0 g1); and tau."""
    alg = FreeAlgebra([f"g{i}" for i in range(ngens)])
    m, tau = Bimodule(kind, alg=alg), [1, 0] + list(range(2, ngens))
    pairs = list(itertools.product(range(ngens), repeat=2))
    entries = {}
    for i, j in pairs:
        if i <= j and rng.random() < 0.6:
            t = _random_tensor(rng, alg)
            entries[(i, j)] = t - t.swap() if i == j else t
    base = DoubleBracket(m, entries).gen_table
    return DoubleBracket(m, {(i, j): base[(i, j)] + _relabel(
        base[(tau[i], tau[j])], tau).scale(sign) for i, j in pairs}), tau


def _mixed_signs(kind, ngens):
    """A table that tau = (g0 g1) maps to minus itself on (g, g) and to
    itself on (g0, g1): not a signed symmetry, and its Jacobiator fails at
    (g0, g1, g1) but not at (g1, g0, g0) (exact forms of all four kinds)."""
    alg = FreeAlgebra([f"g{i}" for i in range(ngens)])
    (x, y), one = alg.gens()[:2], alg.one()
    return DoubleBracket(Bimodule(kind, alg=alg), {
        (0, 0): alg.t2(x, one) - alg.t2(one, x),
        (1, 1): alg.t2(one, y) - alg.t2(y, one),
        (0, 1): alg.t2(x, one) - alg.t2(one, y)})


KINDS = ["outer", "inner", "right", "left"]


def _exact_defect(db, a, b, c):
    form = dbracket._EXACT_FORM[db.kind()]
    return (jacobiator(db, a, b, c) if form is None
            else weak_jacobiator(db, *form, a, b, c))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("kind", KINDS)
def test_jacobiators_are_relabelling_equivariant(kind, sign):
    rng = random.Random(sign + 7)
    for ngens in (2, 3):
        db, tau = _signed_symmetric(rng, kind, ngens, sign)
        alg = db.alg
        assert not db.is_zero()
        assert {0, 1} <= set(dbracket._relabelling_blocks(db)[0])
        words = sorted(alg.words_up_to(2, min_degree=1))
        generator_triples = itertools.product(
            [(g,) for g in range(ngens)], repeat=3)
        word_triples = [tuple(rng.choice(words) for _ in range(3))
                        for _ in range(6)]
        for t in itertools.chain(generator_triples, word_triples):
            args = [alg.monomial(w) for w in t]
            images = [alg.monomial(tuple(tau[g] for g in w)) for w in t]
            assert jacobiator(db, *images) == _relabel(
                jacobiator(db, *args), tau)
            for form in (("12", "12"), ("12", "13")):
                assert weak_jacobiator(db, *form, *images) == _relabel(
                    weak_jacobiator(db, *form, *args), tau)


def test_relabelling_blocks():
    A = FreeAlgebra(["x1", "x2", "x3"])
    assert dbracket._relabelling_blocks(outer_poisson(A)) == [(0, 1, 2)] * 3
    sym = (A.gen(0) + A.gen(1) + A.gen(2)) ** 3
    assert dbracket._relabelling_blocks(
        gradient_bracket(sym)) == [(0, 1, 2)] * 3
    # x1*x1*x2*x3 arranged every way is symmetric in x2, x3 only
    arranged = sum((A.monomial(w) for w in set(itertools.permutations(
        (0, 0, 1, 2)))), A.zero())
    assert dbracket._relabelling_blocks(
        gradient_bracket(arranged)) == [(0,), (1, 2), (1, 2)]
    for kind in KINDS:
        for ngens in (2, 3):
            assert dbracket._relabelling_blocks(_mixed_signs(kind, ngens)) \
                == [(g,) for g in range(ngens)]
    assert dbracket._first_relabelling((2, 0, 2), [(0, 1, 2)] * 3) == \
        (0, 1, 0)
    assert dbracket._first_relabelling((2, 0, 2), [(0,), (1, 2), (1, 2)]) \
        == (1, 0, 1)


def _full_exact_sweep(db):
    """The exact verdict as a loop over every generator triple in product
    order: (witness, defect) of the first failing one, or None."""
    for t in itertools.product(db.alg.gens(), repeat=3):
        defect = _exact_defect(db, *t)
        if not defect.is_zero():
            return t, defect
    return None


@pytest.mark.parametrize("kind", KINDS)
def test_orbit_sweeps_equal_the_full_generator_sweep(kind):
    rng = random.Random(len(kind))
    form = dbracket._EXACT_FORM[BimodKind(kind)]
    brackets = [_mixed_signs(kind, 2), _mixed_signs(kind, 3)]
    for ngens in (2, 3):
        alg = FreeAlgebra([f"g{i}" for i in range(ngens)])
        poisson = (outer_poisson(alg) if kind == "outer"
                   else swap_equivalent(outer_poisson(alg))
                   if kind == "inner" else DoubleBracket(
                       Bimodule(kind, alg=alg), {(0, 1): alg.unit2()}))
        brackets.append(poisson)
        for sign in (1, -1):
            for _ in range(3):
                brackets.append(_signed_symmetric(rng, kind, ngens, sign)[0])
    witnesses = set()
    for db in brackets:
        v = is_poisson(db) if form is None else is_weak_poisson(db, *form)
        full = _full_exact_sweep(db)
        if full is None:
            assert v.status == ("Poisson" if form is None else "WeakPoisson")
        else:
            assert v.status == "NotPoisson"
            assert (v.witness, v.defect) == full
        witnesses.add(v.witness and tuple(str(p) for p in v.witness))
    assert None in witnesses and len(witnesses) >= 4
    # the mixed-sign table fails where a signed symmetry would have hidden it
    assert _full_exact_sweep(_mixed_signs(kind, 2))[0] == tuple(
        _mixed_signs(kind, 2).alg.gen(g) for g in (0, 1, 1))


def test_exact_sweeps_evaluate_one_triple_per_relabelling_orbit(monkeypatch):
    jac_words, weak_words, calls = dbracket._jac_words, dbracket._weak_words, []
    monkeypatch.setattr(dbracket, "_jac_words", lambda db, u, v, w: (
        calls.append((u, v, w)) or jac_words(db, u, v, w)))
    # outer_poisson is symmetric under every relabelling, so one triple per
    # orbit of S_n times the rotations is left: (0,0,0), (0,0,1) and,
    # on three generators, (0,1,2)
    orbit_firsts = [((0,), (0,), (0,)), ((0,), (0,), (1,)),
                    ((0,), (1,), (2,))]
    for ngens, firsts in ((3, orbit_firsts), (2, orbit_firsts[:2])):
        alg = FreeAlgebra([f"g{i}" for i in range(ngens)])
        for db in (outer_poisson(alg), swap_equivalent(outer_poisson(alg))):
            calls.clear()
            assert is_poisson(db).status == "Poisson"
            assert calls == firsts
    B = FreeAlgebra(["x1", "x2", "x3"])
    calls.clear()
    assert is_poisson(gradient_bracket(
        family_polynomial(B, "sum-power", degree=3))).status == "Poisson"
    assert len(calls) == 3
    # the weak sweep: (g0 g1) maps {(0,1): 1 (x) 1} to minus itself, so 13
    # pairs of triples and (2,2,2) are left of 27
    weak_calls = []
    monkeypatch.setattr(dbracket, "_weak_words", lambda db, *args: (
        weak_calls.append(args) or weak_words(db, *args)))
    alg = FreeAlgebra(["g0", "g1", "g2"])
    db = DoubleBracket(Bimodule("right", alg=alg), {(0, 1): alg.unit2()})
    assert dbracket._relabelling_blocks(db) == [(0, 1), (0, 1), (2,)]
    assert is_weak_poisson(db, "12", "12").status == "WeakPoisson"
    assert len(weak_calls) == 14
    kept = [tuple(g for (g,) in args[2:]) for args in weak_calls]
    assert kept == sorted(kept)
    assert {min(t, tuple(1 - g if g < 2 else g for g in t))
            for t in itertools.product(range(3), repeat=3)} == set(kept)


# -- a theorem: linear outer brackets and associative algebras --------------
#
# <<x_i, x_j>> = sum_k a[i, j, k] x_k (x) 1 - a[j, i, k] 1 (x) x_k is double
# Poisson exactly when x_i x_j = sum_k a[i, j, k] x_k is associative
# (Odesskii-Rubtsov-Sokolov); associativity is checked here directly.

DUAL_NUMBERS = (2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})  # 1, e; e e = 0
UPPER_TRIANGULAR = (3, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 1): 1,
                        (2, 2, 2): 1})  # e11, e12, e22
ASSOCIATIVE = [DUAL_NUMBERS, UPPER_TRIANGULAR,
               (2, {(0, 0, 0): 1, (1, 1, 1): 1}),  # k x k
               (3, {(0, 0, 1): 1, (0, 1, 2): 1, (1, 0, 2): 1})]  # x, x^2, x^3


def _is_associative(n, a):
    """(x_i x_j) x_l = x_i (x_j x_l) for all i, j, l, coefficient by
    coefficient."""
    def c(i, j, k):
        return a.get((i, j, k), 0)

    return all(sum(c(i, j, k) * c(k, l, m) for k in range(n))
               == sum(c(j, l, k) * c(i, k, m) for k in range(n))
               for i, j, l, m in itertools.product(range(n), repeat=4))


def _linear_outer_bracket(n, a):
    alg = FreeAlgebra([f"x{i}" for i in range(n)])
    one, gens = alg.one(), alg.gens()
    return DoubleBracket(Bimodule("outer", alg=alg), {(i, j): sum(
        (alg.t2(gens[k], one).scale(a.get((i, j, k), 0))
         - alg.t2(one, gens[k]).scale(a.get((j, i, k), 0)) for k in range(n)),
        alg.zero2()) for i, j in itertools.product(range(n), repeat=2)})


def _inverse(m):
    """The inverse of an invertible square matrix of rationals."""
    n = len(m)
    rows = [list(map(Fraction, row)) + [Fraction(i == j) for j in range(n)]
            for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                rows[r] = [v - rows[r][col] * p
                           for v, p in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _change_basis(n, a, p):
    """The constants of the same product in the basis y_i = sum_q p[q][i]
    x_q: y_i y_j = sum p[q][i] p[s][j] a[q, s, r] x_r, and x_r =
    sum_k inv[k][r] y_k."""
    inv = _inverse(p)
    out = {}
    for (q, s, r), c in a.items():
        for i, j, k in itertools.product(range(n), repeat=3):
            out[i, j, k] = (out.get((i, j, k), 0)
                            + p[q][i] * p[s][j] * c * inv[k][r])
    return out


rationals = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def structure_constants(draw):
    """An associative algebra in a random basis, the same with one constant
    moved, or constants drawn outright."""
    mode = draw(st.sampled_from(["associative", "moved", "drawn"]))
    if mode == "drawn":
        n = draw(st.integers(2, 3))
        keys = st.tuples(*[st.integers(0, n - 1)] * 3)
        return n, draw(st.dictionaries(keys, rationals, max_size=6))
    n, a = draw(st.sampled_from(ASSOCIATIVE))
    # lower unitriangular times upper with a nonzero diagonal: invertible
    lower = [[1 if i == j else draw(rationals) if i > j else 0
              for j in range(n)] for i in range(n)]
    upper = [[draw(rationals.filter(bool)) if i == j else draw(rationals)
              if i < j else 0 for j in range(n)] for i in range(n)]
    p = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    a = _change_basis(n, a, p)
    if mode == "moved":
        key = draw(st.tuples(*[st.integers(0, n - 1)] * 3))
        a[key] = a.get(key, 0) + draw(rationals.filter(bool))
    return n, a


def test_linear_outer_brackets_of_associative_algebras_are_poisson():
    for n, a in (DUAL_NUMBERS, UPPER_TRIANGULAR):
        assert _is_associative(n, a)
        assert is_poisson(_linear_outer_bracket(n, a)) == JacVerdict("Poisson")
    n, a = DUAL_NUMBERS
    moved = {**a, (0, 1, 0): 1}  # 1 e = 1 + e: (1 1) e != 1 (1 e)
    assert not _is_associative(n, moved)
    assert is_poisson(_linear_outer_bracket(n, moved)).status == "NotPoisson"


@settings(max_examples=60, deadline=None)
@given(structure_constants())
def test_linear_outer_bracket_is_poisson_iff_associative(constants):
    n, a = constants
    verdict = is_poisson(_linear_outer_bracket(n, a))
    assert verdict.status in ("Poisson", "NotPoisson")  # the exact criterion
    assert (verdict.status == "Poisson") == _is_associative(n, a)


def _eager_word_triples(alg, degree_bound):
    """Reference: the sweep order built as one sorted list of all triples."""
    words = sorted(alg.words_up_to(degree_bound, min_degree=1),
                   key=lambda w: (len(w), w))
    return sorted(itertools.product(words, repeat=3),
                  key=lambda t: (len(t[0]) + len(t[1]) + len(t[2]),
                                 t[0], t[1], t[2]))


@pytest.mark.parametrize("ngens,bound", [(1, 1), (1, 4), (2, 1), (2, 2),
                                         (2, 3), (2, 4), (3, 1), (3, 2),
                                         (3, 3)])
def test_word_triples_follow_the_sorted_reference(ngens, bound):
    from dbrackets.dbracket import _word_triples
    alg = FreeAlgebra([f"g{i}" for i in range(ngens)])
    assert list(_word_triples(alg, bound)) == _eager_word_triples(alg, bound)


def test_word_triples_order_is_lexicographic_on_index_tuples():
    from dbrackets.dbracket import _word_triples
    A = two_gen()
    order = list(_word_triples(A, 2))
    # not deg-lex on the factors: y comes after x*x inside a factor
    assert order.index(((0,), (0, 0), (0,))) < order.index(((0,), (1,), (0, 0)))


def test_word_triples_are_lazy():
    from dbrackets.dbracket import _word_triples
    A = two_gen()
    assert next(iter(_word_triples(A, 40))) == ((0,), (0,), (0,))
    # the witness is the 12th triple at bound 6, of 126^3 in the sweep
    x, y = xy(A)
    v = is_poisson(right_const(A), 6)
    assert v.witness == (x, x, y * y)


# -- the verdict grid, pinned byte for byte -----------------------------------

VERDICTS = Path(__file__).resolve().parent / "golden" / "verdicts.txt"
FORMS = [None] + list(itertools.product(("12", "13", "23"), repeat=2))


def _grid_brackets():
    """(label, bracket) on two generators: each kind untwisted, with the
    diagonal flip x <-> y and with the unequal twists (flip, identity); per
    bimodule the zero bracket, a bracket whose exact form vanishes on the
    untwisted kind, a failing one and a raw table taken unchecked, then the
    failing one times 3/2 and a raw table with entries 1/2 and -2/5 (the
    rational rows, whose sweeps run on an integer table)."""
    A = two_gen()
    x, y = xy(A)
    one = A.one()
    flip = AlgEndo(A, {"x": y, "y": x})
    twists = {"untwisted": (None, None), "flip": (flip, flip),
              "unequal": (flip, AlgEndo.identity(A))}
    outer = {("x", "x"): A.t2(x, one) - A.t2(one, x),
             ("y", "y"): A.t2(y, one) - A.t2(one, y)}
    holding = {"outer": outer,
               "inner": {k: d.swap() for k, d in outer.items()},
               "right": {("x", "y"): A.unit2()},
               "left": {("x", "y"): A.unit2()}}
    failing = {("x", "y"): A.t2(x, y) + A.t2(one, y * x)}
    raw = {("x", "x"): A.t2(x, one), ("x", "y"): A.t2(one, y)}
    raw_q = {("x", "x"): A.t2(x, one).scale(Fraction(1, 2)),
             ("x", "y"): A.t2(one, y).scale(Fraction(-2, 5))}
    for kind in ("outer", "inner", "right", "left"):
        for twist, (alpha, beta) in twists.items():
            m = Bimodule(kind, alpha, beta, alg=A)
            for name, db in (
                    ("zero", DoubleBracket.zero(m)),
                    ("holding", DoubleBracket.from_pairs(m, holding[kind])),
                    ("failing", DoubleBracket.from_pairs(m, failing)),
                    ("unchecked",
                     DoubleBracket.from_full_table_unchecked(m, raw)),
                    ("failing*3/2", DoubleBracket.from_pairs(m, {
                        k: d.scale(Fraction(3, 2))
                        for k, d in failing.items()})),
                    ("unchecked 1/2,-2/5",
                     DoubleBracket.from_full_table_unchecked(m, raw_q))):
                yield f"{kind} {twist} {name}", db


def _verdict_of(db, form, bound):
    if form is None:
        return is_poisson(db, bound)
    return is_weak_poisson(db, *form, bound)


@functools.cache
def _verdict_grid():
    """(label, bracket, form, bound, verdict) over the whole grid."""
    return [(f"{label} {'J' if form is None else '({})({})'.format(*form)}"
             f" {bound}", db, form, bound, _verdict_of(db, form, bound))
            for label, db in _grid_brackets()
            for form in FORMS for bound in (1, 2, 3)]


def _verdict_lines():
    lines = []
    for label, _, _, _, v in _verdict_grid():
        witness = "-" if v.witness is None else "({}, {}, {})".format(*v.witness)
        defect = "-" if v.defect is None else str(v.defect)
        lines.append(f"{label}\t{v}\t{witness}\t{defect}\n")
    return "".join(lines)


def test_verdict_text_is_unchanged():
    assert _verdict_lines() == VERDICTS.read_bytes().decode("utf-8")


def _ref_sweep(db, defect_of, gen_triples, degree_bound, holds,
               sigma=None, sigma_prime=None):
    """Reference: the one-rule-per-entry driver the table replaced."""
    alg = db.alg
    sound = gen_triples is not None
    if sound:
        triples = (((i,), (j,), (k,)) for i, j, k in gen_triples)
    else:
        triples = dbracket._word_triples(alg, degree_bound)
    _, witness, defect = dbracket._first_failure(
        triples, lambda triple: dbracket._nonzero(defect_of(*triple)))
    if witness is not None:
        return JacVerdict("NotPoisson", sigma, sigma_prime,
                          tuple(alg.monomial(w) for w in witness), defect)
    if sound:
        return holds
    return JacVerdict("VerifiedUpToDegree", sigma, sigma_prime,
                      degree=degree_bound)


def _ref_is_poisson(db, degree_bound=4):
    """Reference: the hand-written outer/inner rule on an antisymmetric
    table, word triples unfiltered."""
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    if db.is_zero():
        return JacVerdict("Poisson")
    sound = (db.kind() in (BimodKind.OUTER, BimodKind.INNER)
             and db.bimodule.is_untwisted() and _antisymmetric_by_hand(db))
    return _ref_sweep(
        db, lambda u, v, w: dbracket._jac_words(db, u, v, w),
        dbracket._rotation_firsts(dbracket._gen_triples(db.alg))
        if sound else None, degree_bound, JacVerdict("Poisson"))


# the classes of pairs with one weak Jacobiator that each kind decides on
# generator triples
RIGHT_CLASS = {("12", "12"), ("13", "13"), ("23", "23")}
LEFT_CLASS = {("12", "13"), ("13", "23"), ("23", "12")}


def _ref_is_weak_poisson(db, sigma, sigma_prime, degree_bound=4):
    """Reference: the hand-written rule, exact for the right class of
    (12)(12) and the left class of (12)(13) on an antisymmetric table; the
    requested pair's own weak Jacobiator is swept."""
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    s = dbracket.transposition(sigma)
    sp = dbracket.transposition(sigma_prime)
    s_name = "".join(str(i) for i in (1, 2, 3) if s[i - 1] != i)
    sp_name = "".join(str(i) for i in (1, 2, 3) if sp[i - 1] != i)
    if db.is_zero():
        return JacVerdict("WeakPoisson", s_name, sp_name)
    untwisted = db.bimodule.is_untwisted() and _antisymmetric_by_hand(db)
    sound = ((db.kind() is BimodKind.RIGHT and untwisted
              and (s_name, sp_name) in RIGHT_CLASS)
             or (db.kind() is BimodKind.LEFT and untwisted
                 and (s_name, sp_name) in LEFT_CLASS))
    return _ref_sweep(
        db, lambda u, v, w: dbracket._weak_words(db, s, sp, u, v, w),
        dbracket._gen_triples(db.alg) if sound else None, degree_bound,
        JacVerdict("WeakPoisson", s_name, sp_name), s_name, sp_name)


def test_exactness_table_equals_the_hand_written_rules():
    verdicts = _verdict_grid()
    for label, db, form, bound, v in verdicts:
        ref = (_ref_is_poisson(db, bound) if form is None
               else _ref_is_weak_poisson(db, *form, bound))
        assert v == ref, label
        assert (v.status, v.sigma, v.sigma_prime, v.witness, v.defect,
                v.degree) == (ref.status, ref.sigma, ref.sigma_prime,
                              ref.witness, ref.defect, ref.degree), label
    # every exact configuration of the grid and a bounded one of each status
    statuses = {(v.status, v.degree is None) for *_, v in verdicts}
    assert statuses >= {("Poisson", True), ("WeakPoisson", True),
                        ("NotPoisson", True), ("VerifiedUpToDegree", False)}


@pytest.mark.parametrize("form", FORMS)
def test_bound_is_checked_before_the_transposition_names(form):
    A = two_gen()
    for db in (outer_poisson(A), right_const(A),
               DoubleBracket.zero(Bimodule("left", alg=A))):
        with pytest.raises(ValueError, match="degree_bound must be >= 1"):
            _verdict_of(db, form and ("123", "4"), 0)
        if form is not None:
            with pytest.raises(ValueError,
                               match="not a transposition of {1,2,3}: '123'"):
                is_weak_poisson(db, "123", form[1], 1)
            with pytest.raises(ValueError,
                               match=r"not a transposition of {1,2,3}: '\(4\)'"):
                is_weak_poisson(db, form[0], "(4)", 1)
            # tuples and parenthesised names read as the plain names
            v = is_weak_poisson(db, *(f"({s})" for s in form), 1)
            w = is_weak_poisson(db, *(dbracket.transposition(s)
                                      for s in form), 1)
            assert v == w == is_weak_poisson(db, *form, 1)
            assert (v.sigma, v.sigma_prime) == form


@pytest.mark.parametrize("bound,kept,total", [(2, 76, 216), (3, 924, 2744),
                                              (4, 9020, 27000)])
def test_word_sweep_keeps_one_triple_per_rotation_class(bound, kept, total):
    from dbrackets.dbracket import _rotation_firsts, _word_triples
    A = two_gen()
    triples = list(_word_triples(A, bound))
    firsts = list(_rotation_firsts(triples))
    assert (len(firsts), len(triples)) == (kept, total)
    # each triple is a rotation of exactly one kept triple
    kept_set = set(firsts)
    for t in triples:
        assert len({t[r:] + t[:r] for r in range(3)} & kept_set) == 1


def test_jacobiator_rotation_identity_on_word_triples():
    rng = random.Random(5)
    for kind in ("outer", "inner", "right", "left"):
        for db in _random_tables(rng, kind, 2, 2):
            words = sorted(db.alg.words_up_to(2, min_degree=1))
            for _ in range(12):
                u, v, w = (rng.choice(words) for _ in range(3))
                assert dbracket._jac_words(db, u, v, w) == tensor3_perm(
                    P123, dbracket._jac_words(db, v, w, u))


def _ref_cyclic(term, a, b, c):
    return (term(a, b, c) + tensor3_perm(P123, term(b, c, a))
            + tensor3_perm(P132, term(c, a, b)))


def _ref_jac_words(db, u, v, w):
    """The Jacobiator of three words as computed before rotations shared
    work: every triple by its own cyclic sum, nothing memoised."""
    return _ref_cyclic(lambda x, y, z: bracket_left(
        db, dbracket._mono(db.alg, x), _eval_words(db, y, z)), u, v, w)


def _ref_form(db, form, a, b, c):
    """The "right" and "pair-right" bodies of jacobiator_form before
    rotations shared work."""
    if form == "right":
        return -_ref_cyclic(lambda x, y, z: bracket_right(
            db, y, eval_bracket(db, x, z)), a, b, c)
    return tensor3_perm(P12, _ref_cyclic(lambda x, y, z: bracket_pair_right(
        db, eval_bracket(db, z, x), y), a, c, b))


def _rotation_brackets(seed):
    """Fresh random brackets on two generators, one per kind, untwisted and
    twisted by the diagonal flip x <-> y, with rational coefficients; the
    entries take words of length at most one, so the cubes stay small."""
    rng = random.Random(seed)
    A = two_gen()
    x, y = xy(A)
    flip = AlgEndo(A, {"x": y, "y": x})

    def entry():
        return Tensor2(A, {tuple(tuple(rng.randrange(2) for _ in range(
            rng.randint(0, 1))) for _ in range(2)): rng.choice(
                [1, -1, Fraction(1, 2), Fraction(-2, 3)]) for _ in range(2)})

    for kind in ("outer", "inner", "right", "left"):
        for twist in (None, flip):
            d = entry()
            yield DoubleBracket(Bimodule(kind, twist, twist, alg=A),
                                {("x", "x"): d - d.swap(), ("x", "y"): entry()})


def test_rotation_memo_equals_the_unmemoised_formulas():
    A = two_gen()
    words = sorted(A.words_up_to(2, min_degree=1))
    triples = list(itertools.product(words, repeat=3))
    classes = [[t[r:] + t[:r] for r in range(3)]
               for t in dbracket._rotation_firsts(triples)]
    assert sorted({t for c in classes for t in c}) == triples
    mono = functools.partial(dbracket._mono, A)
    # two halves of the six orders of the three rotations of a class: in
    # each half the first rotation is asked for first, second and third
    halves = ([(0, 1, 2), (1, 0, 2), (1, 2, 0)],
              [(0, 2, 1), (2, 0, 1), (2, 1, 0)])
    for n, reference in enumerate(_rotation_brackets(7)):
        expected = {t: (_ref_jac_words(reference, *t),
                        _ref_form(reference, "right", *map(mono, t)),
                        _ref_form(reference, "pair-right", *map(mono, t)))
                    for t in triples}
        assert sum(1 for jac, _, _ in expected.values() if jac.terms) > 100
        # one half per bracket, so all six per kind, each on a fresh bracket
        for order in halves[n % 2]:
            db = DoubleBracket.from_full_table_unchecked(
                reference.bimodule, reference.gen_table)
            for t in (c[r] for c in classes for r in order):
                jac, right, pair_right = expected[t]
                polys = tuple(map(mono, t))
                assert dbracket._jac_words(db, *t) == jac
                assert dbracket.jacobiator_form(db, "right", *polys) == right
                assert dbracket.jacobiator_form(
                    db, "pair-right", *polys) == pair_right


def test_weak_sweep_computes_one_cyclic_sum_per_rotation_class(monkeypatch):
    cyclic, calls = dbracket._cyclic, []
    monkeypatch.setattr(dbracket, "_cyclic", lambda term, a, b, c: (
        calls.append((a, b, c)) or cyclic(term, a, b, c)))
    db = outer_poisson(two_gen())
    assert is_weak_poisson(db, "12", "12", 2).status == "VerifiedUpToDegree"
    assert len(calls) == len(set(calls)) == 76  # 216 triples
    assert all(dbracket._first_rotation(t) == (t, None) for t in calls)


def test_bounded_refutes_equal_the_full_word_sweep(monkeypatch):
    A = two_gen()
    brackets = [right_const(A), swap_equivalent(right_const(A)),
                twisted_ctr(A)]
    for db in brackets:
        for bound in (2, 3, 4):
            v = is_poisson(db, bound)
            assert v.status == "NotPoisson"
            assert v == _ref_is_poisson(db, bound)
    # the filtered sweep evaluates the kept triples before the witness only
    calls = []
    jac_words = dbracket._jac_words
    monkeypatch.setattr(dbracket, "_jac_words", lambda db, u, v, w: (
        calls.append((u, v, w)) or jac_words(db, u, v, w)))
    v = is_poisson(right_const(A), 4)
    words = [tuple(w.terms)[0] for w in v.witness]
    before = list(itertools.takewhile(
        lambda t: t != tuple(words), dbracket._word_triples(A, 4)))
    assert calls == list(dbracket._rotation_firsts(before)) + [tuple(words)]
    assert len(calls) < len(before) + 1


# -- the nine weak Jacobiators are three ---------------------------------------
#
# J(t) = P123 J(rho t) for the rotation rho of the triple t, by the cyclic
# sum, so sigma J(sigma' t) = sigma P123^k J(rho^k sigma' t): the pairs fall
# in three classes with one weak Jacobiator each, on every table.  The
# classes by hand, keyed by their member with sigma = (12):
WEAK_CLASSES = {("12", "12"): RIGHT_CLASS, ("12", "13"): LEFT_CLASS,
                ("12", "23"): {("12", "23"), ("13", "12"), ("23", "13")}}


def _class_brackets(seed):
    """Random brackets on two generators, one of each kind per twist pair:
    untwisted, the flip x <-> y on both sides, the unequal pair (flip,
    identity) and the non-invertible x -> x*y on both sides.  Per bimodule
    an antisymmetric table with integer entries, the same times 2/3 (the
    integer twin route) and a raw table taken unchecked."""
    rng = random.Random(seed)
    A = two_gen()
    x, y = xy(A)
    flip = AlgEndo(A, {"x": y, "y": x})
    grow = AlgEndo(A, {"x": x * y, "y": y})

    def entry():
        return Tensor2(A, {tuple(tuple(rng.randrange(2) for _ in range(
            rng.randint(0, 1))) for _ in range(2)): rng.choice([1, -1, 2])
            for _ in range(2)})

    for kind in KINDS:
        for alpha, beta in ((None, None), (flip, flip),
                            (flip, AlgEndo.identity(A)), (grow, grow)):
            m = Bimodule(kind, alpha, beta, alg=A)
            d = entry()
            table = {("x", "x"): d - d.swap(), ("x", "y"): entry()}
            yield DoubleBracket(m, table)
            yield DoubleBracket(m, {k: v.scale(Fraction(2, 3))
                                    for k, v in table.items()})
            yield DoubleBracket.from_full_table_unchecked(m, {
                k: entry() for k in itertools.product("xy", repeat=2)})


def test_the_nine_weak_jacobiators_are_three():
    names = ("12", "13", "23")
    assert sorted(p for c in WEAK_CLASSES.values() for p in c) == sorted(
        itertools.product(names, repeat=2))
    # the library sends each pair to the member of its class with (12)
    for rep, members in WEAK_CLASSES.items():
        for pair in members:
            assert dbracket._WEAK_CLASS.get(pair, pair) == rep
    rng = random.Random(23)
    words = sorted(two_gen().words_up_to(2, min_degree=1))
    apart = 0
    for db in _class_brackets(23):
        for _ in range(3):
            t = [db.alg.monomial(rng.choice(words)) for _ in range(3)]
            rep_values = {rep: weak_jacobiator(db, *rep, *t)
                          for rep in WEAK_CLASSES}
            for rep, members in WEAK_CLASSES.items():
                for pair in members:
                    assert weak_jacobiator(db, *pair, *t) == rep_values[rep]
            apart += len(set(map(str, rep_values.values()))) == 3
    assert apart >= 20  # the three classes are three functions


NEWLY_EXACT = {"right": [("13", "13"), ("23", "23")],
               "left": [("13", "23"), ("23", "12")]}


def test_exact_class_verdicts_agree_with_a_bounded_sweep():
    checked = set()
    for label, db in _grid_brackets():
        kind, twist, name = label.split(" ", 2)
        if (kind not in NEWLY_EXACT or twist != "untwisted"
                or name == "zero" or "unchecked" in name):
            continue
        # the bounded sweep of the requested pair's own weak Jacobiator, on
        # the integer twin's words (zero or not at any scale), and the
        # defect at its first failing triple on the bracket itself
        twin = dbracket._integral(db)[0]
        for pair in NEWLY_EXACT[kind]:
            s, sp = map(dbracket.transposition, pair)
            first = next((tuple(map(db.alg.monomial, w))
                          for w in dbracket._word_triples(db.alg, 4)
                          if dbracket._weak_words(twin, s, sp, *w).terms),
                         None)
            v = is_weak_poisson(db, *pair)
            assert v.degree is None and (v.sigma, v.sigma_prime) == pair
            assert (v.witness, v.defect) == (first, first and weak_jacobiator(
                db, *pair, *first)), label
            checked.add((name, v.status))
    assert {("holding", "WeakPoisson"), ("failing", "NotPoisson"),
            ("failing*3/2", "NotPoisson")} <= checked


def test_exact_verdicts_need_an_antisymmetric_table():
    A = two_gen()
    x, y = xy(A)
    one = A.one()
    m = Bimodule("right", alg=A)
    raw = {("x", "x"): A.t2(x, one), ("x", "y"): A.t2(one, y)}
    db = DoubleBracket.from_full_table_unchecked(m, raw)
    # the weak Jacobiator of (12)(12) vanishes on every generator triple of
    # this table, but not on words
    assert all(weak_jacobiator(db, "12", "12", *t).is_zero()
               for t in itertools.product(A.gens(), repeat=3))
    defect = A.t3(one, x, x).scale(2) - A.t3(x, one, x).scale(2)
    assert weak_jacobiator(db, "12", "12", x, x, x * x) == defect
    assert db._antisymmetric is False  # decided when the bracket is built
    for s in ("12", "13", "23"):
        v = is_weak_poisson(db, s, s)
        assert (str(v), v.witness, v.defect) == (
            f"NotPoisson at (x, x, x*x) with defect {defect}",
            (x, x, x * x), defect)
    assert db._antisymmetric is False
    # a validated table is antisymmetric by construction; a full table
    # taken unchecked that happens to be antisymmetric is found so
    valid = DoubleBracket(m, {("x", "y"): A.unit2()})
    assert valid._antisymmetric is True
    same = DoubleBracket.from_full_table_unchecked(m, valid.gen_table)
    assert is_weak_poisson(same, "13", "13") == JacVerdict(
        "WeakPoisson", "13", "13")
    assert same._antisymmetric is True
    # a rational table's sweeps run on its integer twin, which finds the
    # same answer from its own table
    half = DoubleBracket(m, {("x", "y"): A.unit2().scale(Fraction(1, 2))})
    assert half._twin._antisymmetric is True
    raw_half = DoubleBracket.from_full_table_unchecked(
        m, {k: d.scale(Fraction(1, 2)) for k, d in raw.items()})
    v = is_weak_poisson(raw_half, "23", "23")
    assert (v.witness, v.defect) == ((x, x, x * x), defect.scale(
        Fraction(1, 4)))
    assert raw_half._twin._antisymmetric is False


# -- rational tables: the integer twin ----------------------------------------

def test_rational_tables_compute_on_an_integer_twin():
    """The public entries of a rational bracket read the memos of its twin,
    the table times D as ints; the bracket's own memos, filled here by
    calling ``_eval_words`` and ``_jac_words`` on it directly, compute the
    same values in Fractions."""
    A = two_gen()
    x, y = xy(A)
    mono = functools.partial(dbracket._mono, A)
    words = sorted(A.words_up_to(2, min_degree=1))
    triples = [t for t in itertools.product(words, repeat=3)
               if sum(map(len, t)) <= 4]
    alpha = AlgEndo(A, {"x": y.scale(Fraction(2, 3)), "y": x + x * y})
    twins = twisted_nonzero = 0
    for db in _rotation_brackets(3):
        den = math.lcm(*(c.denominator for d in db.gen_table.values()
                         for c in d.terms.values()))
        if den == 1:
            assert db._twin is None
            continue
        twins += 1
        twin = db._twin
        assert twin._twin is None and db._inv == Fraction(1, den)
        assert twin.gen_table == {k: d.scale(den)
                                  for k, d in db.gen_table.items()}
        assert all(type(c) is int for d in twin.gen_table.values()
                   for c in d.terms.values())
        for u, v in itertools.product(words, repeat=2):
            assert eval_bracket(db, mono(u), mono(v)) == _eval_words(db, u, v)
        for t in triples:
            polys = tuple(map(mono, t))
            jac = dbracket._jac_words(db, *t)
            assert jacobiator(db, *polys) == jac
            for form in dbracket.JAC_FORMS:
                assert dbracket.jacobiator_form(db, form, *polys) == jac
            assert weak_jacobiator(db, "12", "13", *polys) == \
                dbracket._weak_words(db, P12, P13, *t)
        # polynomials with rational coefficients, off the monomial paths
        a, b = x.scale(Fraction(1, 3)) + y * x, y - x * x.scale(2)
        jac = jacobiator(db, a, b, x)
        assert jac == _ref_cyclic(lambda p, q, r: bracket_left(
            db, p, eval_bracket(db, q, r)), a, b, x)
        for form in dbracket.JAC_FORMS:
            assert dbracket.jacobiator_form(db, form, a, b, x) == jac
        assert not eval_bracket(db, a, b).is_zero()
        # the twisted Jacobiator against the cyclic sums of public calls,
        # on polynomials and on monomials
        for args in ((a, b, x), (x, y, x * y)):
            for side, slot, term in (
                    ("left", 2, lambda p, q, r: bracket_left(
                        db, p, eval_bracket(db, q, r))),
                    ("right", 0, lambda p, q, r: bracket_pair_right(
                        db, eval_bracket(db, p, q), r))):
                twisted = twisted_jacobiator(db, side, alpha, *args)
                assert twisted == _ref_cyclic(lambda p, q, r: _slot_endo(
                    alpha, term(p, q, r), slot), *args)
                twisted_nonzero += bool(twisted.terms)
    assert twins >= 6 and twisted_nonzero >= 12
    raw = DoubleBracket.from_full_table_unchecked(
        Bimodule("outer", alg=A),
        {("x", "x"): A.t2(x, A.one()).scale(Fraction(1, 2)),
         ("x", "y"): A.t2(A.one(), y).scale(Fraction(-2, 5))})
    report = check_antisymmetry(raw)
    a, b, lhs, rhs = report.witness
    u, v = next(iter(a.terms)), next(iter(b.terms))
    assert (lhs, rhs) == (_eval_words(raw, u, v),
                          -_eval_words(raw, v, u).swap())


def test_unit_monomials_get_the_memoised_values():
    A = two_gen()
    x, y = xy(A)
    for db in (right_const(A), twisted_ctr(A)):
        left = dbracket.jacobiator_form(db, "left", x, y, x * y)
        assert left is dbracket._jac_words(db, (0,), (1,), (0, 1))
        assert dbracket.jacobiator_form(db, "left", x, y, x * y) is left
        assert jacobiator(db, y, x * y, x) is \
            dbracket._jac_words(db, (1,), (0, 1), (0,))
        assert eval_bracket(db, x, y * x) is _eval_words(db, (0,), (1, 0))


def test_a_finished_bracket_is_freed_without_the_cyclic_collector():
    """No bracket holds a reference cycle, so its memos go with its last
    reference; a cycle would keep them until the collector runs."""
    A = two_gen()
    x, y = xy(A)
    gc.disable()
    try:
        for lam in (1, Fraction(3, 2)):
            db = right_const(A, lam)
            assert (db._twin is None) == (lam == 1)
            assert is_poisson(db, 2).status == "NotPoisson"
            assert is_weak_poisson(db, "12", "12", 2).holds()
            dbracket.jacobiator_form(db, "right", x, y, x)
            ref = weakref.ref(db)
            del db
            assert ref() is None
    finally:
        gc.enable()


# -- equivalences -------------------------------------------------------------

def test_swap_equivalent_involution_and_poisson_transport():
    A = two_gen()
    db = outer_poisson(A)
    sw = swap_equivalent(db)
    assert sw.kind() is BimodKind.INNER
    assert is_poisson(sw).status == "Poisson"
    back = swap_equivalent(sw)
    assert back.bimodule == db.bimodule and back.gen_table == db.gen_table


def test_swap_equivalent_right_to_left_weak():
    A = two_gen()
    lb = swap_equivalent(right_const(A))
    assert is_weak_poisson(lb, "12", "13").status == "WeakPoisson"


def test_apply_equivalence_twist_pair_reproduces_twisted_fixture():
    A = two_gen()
    x, y = xy(A)
    alpha = AlgEndo(A, {"x": y, "y": x})
    psi = TwistPairAuto(alpha, alpha)
    tw = apply_equivalence(outer_poisson(A), psi)
    ref = twisted_ctr(A)
    assert tw.bimodule == ref.bimodule
    assert tw.gen_table == ref.gen_table


def test_apply_equivalence_swap_is_swap_equivalent():
    A = two_gen()
    db = right_const(A)
    via_auto = apply_equivalence(db, SwapAuto())
    sw = swap_equivalent(db)
    assert via_auto.bimodule == sw.bimodule and via_auto.gen_table == sw.gen_table


def test_apply_equivalence_identity_twist_is_noop():
    A = two_gen()
    ident = AlgEndo.identity(A)
    db = outer_poisson(A)
    out = apply_equivalence(db, TwistPairAuto(ident, ident))
    assert out.bimodule == db.bimodule and out.gen_table == db.gen_table


def test_apply_equivalence_rejects_raw_functions():
    A = two_gen()
    with pytest.raises(ValueError):
        apply_equivalence(outer_poisson(A), lambda d: d)


def test_equivalence_transport_conjugates_the_action():
    """The transported bimodule acts as the conjugate of the original
    action by the tensor-square automorphism, and transport commutes with
    taking swap bimodules."""
    from dbrackets import act, swap_bimodule
    A = two_gen()
    x, y = xy(A)
    alpha = AlgEndo(A, {"x": x + y, "y": y})
    alpha_inv = AlgEndo(A, {"x": x - y, "y": y})
    psi = TwistPairAuto(alpha, alpha_inv)
    psi_inv = TwistPairAuto(alpha_inv, alpha)
    gamma = AlgEndo(A, {"x": y, "y": x})
    for kind in ("outer", "inner", "left", "right"):
        m = Bimodule(kind, gamma, AlgEndo.identity(A))
        m2 = psi.transport(m)
        d = A.t2(x, y * x) - A.t2(A.one(), y).scale(3)
        for a in (x, y * y, x * y + A.one()):
            for b in (y, x * x):
                assert act(m2, a, d, b) == \
                    psi.apply(act(m, a, psi_inv.apply(d), b))
        sw = swap_bimodule(m2)
        assert sw == psi.transport(swap_bimodule(m))


def test_twist_pair_requires_verified_inverse():
    A = two_gen()
    x, y = xy(A)
    alpha = AlgEndo(A, {"x": x + y, "y": y})
    bogus = AlgEndo(A, {"x": x, "y": y + x})
    with pytest.raises(ValueError):
        TwistPairAuto(alpha, bogus)
    good = AlgEndo(A, {"x": x - y, "y": y})
    TwistPairAuto(alpha, good)


# -- morphisms ----------------------------------------------------------------

def test_identity_morphism():
    A = two_gen()
    db = right_const(A)
    assert check_morphism(AlgEndo.identity(A), db, db)


def _collapse_fixture():
    """Surjection x, y -> t intertwining right-kind brackets; the target
    realises the collapsed (abelianization-style) structure."""
    A = two_gen()
    B = FreeAlgebra(["t"])
    x, y = xy(A)
    t = B.gen("t")
    one_a, one_b = A.one(), B.one()
    db1 = DoubleBracket.from_pairs(
        Bimodule("right", alg=A),
        {("x", "x"): A.t2(x, one_a) - A.t2(one_a, x),
         ("y", "y"): A.t2(y, one_a) - A.t2(one_a, y),
         ("x", "y"): A.t2(x, one_a) - A.t2(one_a, y)})
    db2 = DoubleBracket.from_pairs(
        Bimodule("right", alg=B),
        {("t", "t"): B.t2(t, one_b) - B.t2(one_b, t)})
    phi = AlgEndo(A, {"x": t, "y": t}, codomain=B)
    return phi, db1, db2


def test_collapse_morphism_intertwines():
    phi, db1, db2 = _collapse_fixture()
    assert check_morphism(phi, db1, db2)


def test_non_morphism_detected():
    A = two_gen()
    x, _ = xy(A)
    phi = AlgEndo(A, {"x": x, "y": x})
    db1 = right_const(A)
    db2 = DoubleBracket.zero(Bimodule("right", alg=A))
    assert not check_morphism(phi, db1, db2)


def test_morphism_transports_jacobiator():
    phi, db1, db2 = _collapse_fixture()
    A = db1.alg
    for a, b, c in triples(A, 2):
        lhs = jacobiator(db2, phi(a), phi(b), phi(c))
        assert lhs == apply_slotwise(phi, jacobiator(db1, a, b, c), (0, 1, 2))


def test_surjective_morphism_pushes_weak_poisson_forward():
    phi, db1, db2 = _collapse_fixture()
    assert is_weak_poisson(db1, "12", "12").status == "WeakPoisson"
    assert is_weak_poisson(db2, "12", "12").status == "WeakPoisson"


# -- mult bracket, Loday, twisted Jacobiators ---------------------------------

def test_mult_bracket_examples():
    A = two_gen()
    x, y = xy(A)
    assert mult_bracket(outer_poisson(A), x, x).is_zero()
    assert mult_bracket(right_const(A), x, y) == A.one()


def test_mult_bracket_first_slot_kills_commutators():
    A = two_gen()
    db = outer_poisson(A)
    for a in monomials(A, 2):
        for b in monomials(A, 2):
            for c in monomials(A, 2):
                assert mult_bracket(db, a * b - b * a, c).is_zero()


def test_mult_bracket_second_slot_commutator_projects_to_zero():
    A = two_gen()
    db = outer_poisson(A)
    for a in monomials(A, 2):
        for b in monomials(A, 2):
            for c in monomials(A, 2):
                assert necklace_project(mult_bracket(db, a, b * c - c * b)) == {}


def test_loday_defects():
    A = two_gen()
    db = outer_poisson(A)
    inner = swap_equivalent(db)
    zero = DoubleBracket.zero(Bimodule("outer", alg=A))
    for a, b, c in triples(A, 2):
        assert loday_defect(db, "left", a, b, c).is_zero()
        assert loday_defect(inner, "right", a, b, c).is_zero()
        assert loday_defect(zero, "left", a, b, c).is_zero()
    with pytest.raises(ValueError):
        loday_defect(db, "middle", A.gen(0), A.gen(0), A.gen(0))


def test_twisted_jacobiator_identity_twist():
    A = two_gen()
    ident = AlgEndo.identity(A)
    for db in (outer_poisson(A), twisted_ctr(A)):
        for a, b, c in triples(A, 2):
            assert twisted_jacobiator(db, "left", ident, a, b, c) == \
                jacobiator(db, a, b, c)


def test_twisted_jacobiator_right_conjugation():
    A = two_gen()
    ident = AlgEndo.identity(A)
    db = swap_equivalent(outer_poisson(A))
    for a, b, c in triples(A, 2):
        rhs = tensor3_perm(P12, twisted_jacobiator(
            db, "right", ident, *[b, a, c]))
        assert jacobiator(db, a, b, c) == rhs


def _slot_endo(e, t, slot):
    from dbrackets import Tensor3
    from dbrackets.freealg import _tadd
    data = {}
    for key, c in t.terms.items():
        for w, cw in e.apply_word(key[slot]).terms.items():
            nk = list(key)
            nk[slot] = w
            _tadd(data, tuple(nk), c * cw)
    return Tensor3(t.alg, data)


def _m3(t):
    from dbrackets import NCPoly
    from dbrackets.freealg import _tadd
    data = {}
    for (w1, w2, w3), c in t.terms.items():
        _tadd(data, w1 + w2 + w3, c)
    return NCPoly(t.alg, data)


def test_twisted_outer_loday_defect_expansion():
    """For the (alpha,beta)-twisted outer kind the left Loday defect of
    the mult bracket is the multiplied difference of two twisted cyclic
    sums; with identity twists it reduces to the difference of two
    Jacobiators and vanishes for Poisson brackets."""
    from dbrackets import bracket_left, eval_bracket
    A = two_gen()
    x, y = xy(A)
    one = A.one()
    alpha = AlgEndo(A, {"x": y, "y": x})
    beta = AlgEndo(A, {"x": x + y, "y": y})
    tw = DoubleBracket.from_pairs(
        Bimodule("outer", alpha, beta),
        {("x", "x"): A.t2(x, one) - A.t2(one, x),
         ("x", "y"): A.t2(y, one) + A.t2(one, x)})

    def L(p, d):
        return bracket_left(tw, p, d)

    words = monomials(A, 1) + [A.monomial((0, 1))]
    for a, b, c in itertools.product(words, repeat=3):
        lhs = loday_defect(tw, "left", a, b, c)
        rhs = (_m3(_slot_endo(beta, L(a, eval_bracket(tw, b, c)), 2))
               + _m3(_slot_endo(alpha, tensor3_perm(
                   P123, L(b, eval_bracket(tw, c, a))), 0))
               + _m3(_slot_endo(beta, tensor3_perm(
                   P132, L(c, eval_bracket(tw, a, b))), 1))
               - _m3(_slot_endo(beta, L(b, eval_bracket(tw, a, c)), 2))
               - _m3(_slot_endo(alpha, tensor3_perm(
                   P123, L(a, eval_bracket(tw, c, b))), 0))
               - _m3(_slot_endo(alpha, tensor3_perm(
                   P132, L(c, eval_bracket(tw, b, a))), 1)))
        assert lhs == rhs


def test_twisted_inner_mult_bracket_building_block():
    """For the alpha-twisted inner kind, iterated mult brackets expand
    into twisted pair-right terms; this is the mechanism behind the right
    Loday property."""
    from dbrackets import bracket_pair_right, eval_bracket
    A = two_gen()
    x, y = xy(A)
    one = A.one()
    alpha = AlgEndo(A, {"x": y, "y": x})
    tin = DoubleBracket.from_pairs(
        Bimodule("inner", alpha, alpha),
        {("x", "x"): A.t2(x, one) - A.t2(one, x),
         ("x", "y"): A.t2(y, one) + A.t2(one, x)})
    words = monomials(A, 1) + [A.monomial((0, 1))]
    for a, b, c in itertools.product(words, repeat=3):
        lhs = mult_bracket(tin, mult_bracket(tin, a, b), c)
        rp1 = bracket_pair_right(tin, eval_bracket(tin, a, b), c)
        rp2 = bracket_pair_right(tin, eval_bracket(tin, b, a), c)
        rhs = _m3(_slot_endo(alpha, rp1, 0)) - _m3(
            tensor3_perm(P132, _slot_endo(alpha, rp2, 0)))
        assert lhs == rhs


# -- reductions to cyclic words -----------------------------------------------

def test_lie_on_necklaces_examples():
    A = two_gen()
    nx, ny = A.necklace("x"), A.necklace("y")
    assert lie_on_necklaces(outer_poisson(A), nx, ny) == {}
    db = DoubleBracket.from_pairs(Bimodule("outer", alg=A),
                                  {("x", "y"): A.unit2()})
    assert lie_on_necklaces(db, nx, ny) == {A.necklace(""): Fraction(1)}


def test_lie_on_necklaces_antisymmetric_and_lift_independent():
    A = two_gen()
    db = outer_poisson(A)
    necks = [Necklace(A, w) for w in A.words_up_to(3, 1)]
    seen = set()
    for na in necks:
        for nb in necks:
            if (na, nb) in seen:
                continue
            seen.add((na, nb))
            fwd = lie_on_necklaces(db, na, nb)
            bwd = lie_on_necklaces(db, nb, na)
            assert fwd == {k: -c for k, c in bwd.items()}
    # lift independence: rotate the representative word by hand
    na = A.necklace("xxy")
    nb = A.necklace("xy")
    for rot in range(3):
        w = na.word[rot:] + na.word[:rot]
        alt = necklace_project(mult_bracket(db, A.monomial(w), nb.lift()))
        assert alt == lie_on_necklaces(db, na, nb)


def test_swap_equivalent_pair_induces_same_necklace_bracket():
    # the outer bracket and its inner swap give one Lie bracket on cyclic
    # words, through a left and a right Loday bracket respectively
    A = two_gen()
    db = outer_poisson(A)
    sw = swap_equivalent(db)
    necks = [Necklace(A, w) for w in A.words_up_to(3, 1)]
    for na in necks:
        for nb in necks:
            assert lie_on_necklaces(db, na, nb) == lie_on_necklaces(sw, na, nb)


def test_twisted_jacobiator_twists_one_slot_of_each_summand():
    """With a twist that is not the identity, the left version twists the
    third slot of each left pairing and the right version the first slot
    of each pair-right term; ``_slot_endo`` twists the one slot by hand."""
    A = two_gen()
    x, y = xy(A)
    alpha = AlgEndo(A, {"x": y, "y": x + x * y})

    def cyclic(term, a, b, c):
        return (term(a, b, c) + tensor3_perm(P123, term(b, c, a))
                + tensor3_perm(P132, term(c, a, b)))

    moved = 0
    for db in (outer_poisson(A), twisted_ctr(A), right_const(A)):
        for a, b, c in triples(A, 2):
            left = cyclic(lambda p, q, r: _slot_endo(alpha, bracket_left(
                db, p, eval_bracket(db, q, r)), 2), a, b, c)
            right = cyclic(lambda p, q, r: _slot_endo(
                alpha, bracket_pair_right(db, eval_bracket(db, p, q), r), 0),
                a, b, c)
            assert twisted_jacobiator(db, "left", alpha, a, b, c) == left
            assert twisted_jacobiator(db, "right", alpha, a, b, c) == right
            moved += left != jacobiator(db, a, b, c)
    assert moved > 0


def test_twisted_jacobiator_zero_bracket():
    A = two_gen()
    x, y = xy(A)
    zero = DoubleBracket.zero(Bimodule("outer", alg=A))
    alpha = AlgEndo(A, {"x": y, "y": x})
    for side in ("left", "right"):
        assert twisted_jacobiator(zero, side, alpha, x, y, x * y).is_zero()


def test_maps_refuse_tensors_of_another_algebra():
    A = two_gen()
    x, y = xy(A)
    C = FreeAlgebra(["a", "b", "c"])
    a, b, c = C.gens()
    phi = AlgEndo(C, {"a": b, "b": a, "c": c})
    with pytest.raises(ValueError, match="mismatched generator tables"):
        apply_endo_tensor2(phi, A.t2(x, y))


def test_bullet_bracket_example_and_antisymmetry():
    A = two_gen()
    db = right_const(A)
    nx, ny, n1 = A.necklace("x"), A.necklace("y"), A.necklace("")
    assert bullet_bracket(db, nx, ny) == {(n1, n1): Fraction(1)}
    necks = [Necklace(A, w) for w in A.words_up_to(3, 1)]
    for na in necks:
        for nb in necks:
            fwd = bullet_bracket(db, na, nb)
            bwd = bullet_bracket(db, nb, na)
            assert fwd == {(q, p): -c for (p, q), c in bwd.items()}


def test_bullet_bracket_lift_independent():
    A = two_gen()
    db = right_const(A)
    na, nb = A.necklace("yx"), A.necklace("xxy")
    from dbrackets import eval_bracket
    from dbrackets.freealg import _tadd
    for rot in range(2):
        w = na.word[rot:] + na.word[:rot]
        d = eval_bracket(db, A.monomial(w), nb.lift())
        out = {}
        for (w1, w2), c in d.terms.items():
            _tadd(out, (Necklace(A, w1), Necklace(A, w2)), c)
        assert out == bullet_bracket(db, na, nb)


def test_bullet_bracket_kind_check():
    A = two_gen()
    with pytest.raises(ValueError):
        bullet_bracket(outer_poisson(A), A.necklace("x"), A.necklace("y"))


def test_sym_extension_jacobi_for_weak_poisson_bracket():
    A = two_gen()
    db = right_const(A)
    necks = [Necklace(A, w) for w in A.words_up_to(3, 1)] + [A.necklace("")]
    for na, nb, nc in itertools.combinations(necks, 3):
        assert sym_jacobi_defect(db, na, nb, nc).is_zero()


if __name__ == "__main__":
    VERDICTS.write_bytes(_verdict_lines().encode("utf-8"))
    print(f"wrote {VERDICTS.name}")
