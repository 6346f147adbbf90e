"""Shared fixtures: algebras, a corpus of double brackets, sweep utilities."""

import itertools

from dbrackets import (Bimodule, DoubleBracket, FreeAlgebra, act,
                       swap_bimodule, swap_equivalent)


def two_gen():
    return FreeAlgebra(["x", "y"])


def xy(alg):
    return alg.gen("x"), alg.gen("y")


def outer_poisson(alg):
    """<g,g> = g (x) 1 - 1 (x) g on each generator, cross pairs zero."""
    one = alg.one()
    entries = {}
    for i in range(alg.ngens):
        g = alg.gen(i)
        entries[(i, i)] = alg.t2(g, one) - alg.t2(one, g)
    return DoubleBracket.from_pairs(Bimodule("outer", alg=alg), entries)


def twisted_ctr(alg):
    """The swap-of-generators twist of outer_poisson on two generators."""
    x, y = xy(alg)
    one = alg.one()
    from dbrackets import AlgEndo
    alpha = AlgEndo(alg, {"x": y, "y": x})
    return DoubleBracket.from_pairs(
        Bimodule("outer", alpha, alpha),
        {("x", "x"): alg.t2(y, one) - alg.t2(one, y),
         ("y", "y"): alg.t2(x, one) - alg.t2(one, x)})


def right_const(alg, lam=1):
    return DoubleBracket.from_pairs(
        Bimodule("right", alg=alg), {("x", "y"): alg.unit2().scale(lam)})


def right_generic(alg):
    x, y = xy(alg)
    one = alg.one()
    return DoubleBracket.from_pairs(
        Bimodule("right", alg=alg),
        {("x", "x"): alg.t2(x, y) - alg.t2(y, x),
         ("x", "y"): alg.t2(x, one) + alg.t2(one, y)})


def outer_generic(alg):
    x, y = xy(alg)
    one = alg.one()
    return DoubleBracket.from_pairs(
        Bimodule("outer", alg=alg),
        {("x", "x"): alg.t2(x * y, one) - alg.t2(one, x * y),
         ("x", "y"): alg.t2(y, y) + alg.t2(one, x).scale(2)})


def inner_generic(alg):
    return DoubleBracket.from_pairs(
        Bimodule("inner", alg=alg), {("x", "y"): alg.t2(xy(alg)[1], xy(alg)[1])})


def bracket_corpus(alg):
    """At least five brackets across the four kinds, generic and special."""
    return [
        outer_poisson(alg),
        swap_equivalent(outer_poisson(alg)),  # inner Poisson
        right_const(alg),
        swap_equivalent(right_const(alg)),    # left, [(12),(13)]-weak
        right_generic(alg),
        outer_generic(alg),
        inner_generic(alg),
        swap_equivalent(outer_generic(alg)),  # inner, not Poisson
    ]


def monomials(alg, max_deg, min_deg=1):
    return [alg.monomial(w) for w in alg.words_up_to(max_deg, min_deg)]


def triples(alg, max_deg, min_deg=1):
    return itertools.product(monomials(alg, max_deg, min_deg), repeat=3)


def pairs(alg, max_deg, min_deg=1):
    return itertools.product(monomials(alg, max_deg, min_deg), repeat=2)


def letter_pair_eval(db, u, v, star_first):
    """<<u, v>> for words u, v by the letter-pair evaluation: every
    occurrence pair contributes prefix/suffix actions around the generator
    pair value, the second argument through the bracket's bimodule and the
    first through its swap, applied in the order ``star_first`` names (the
    first argument's action innermost if true).  Both orders are kept as
    references for the one order the library evaluates in."""
    alg = db.alg
    dot, star = db.bimodule, swap_bimodule(db.bimodule)
    total = alg.zero2()
    for k in range(len(u)):
        for l in range(len(v)):
            d = db.gen_table[(u[k], v[l])]
            if star_first:
                t = act(star, alg.monomial(u[:k]), d, alg.monomial(u[k + 1:]))
                t = act(dot, alg.monomial(v[:l]), t, alg.monomial(v[l + 1:]))
            else:
                t = act(dot, alg.monomial(v[:l]), d, alg.monomial(v[l + 1:]))
                t = act(star, alg.monomial(u[:k]), t, alg.monomial(u[k + 1:]))
            total = total + t
    return total
