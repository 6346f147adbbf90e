"""Shared fixtures: algebras, a corpus of double brackets, sweep utilities,
and the session printer of the round-trip test."""

import itertools
import shlex

from dbrackets import (Bimodule, DoubleBracket, FreeAlgebra, SessionSpec,
                       Tensor2, Tensor3, act, swap_bimodule, swap_equivalent)


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


# -- the Leibniz kernels as first written: a reference route ------------------

def reference_act(m, a, d, b):
    """The two-sided action a . d . b as first written: alpha(a) and
    beta(b) are applied whole, each pair of their words gives one copy of
    d with the words placed around every term, and the copies are merged
    with ``add_into``."""
    alg = m.alg
    pa, pb = m.alpha(a), m.beta(b)
    a_slot, b_slot = m.kind.slots
    data = {}
    for u, cu in pa.terms.items():
        for v, cv in pb.terms.items():
            pre, post = [(), ()], [(), ()]
            pre[a_slot], post[b_slot] = u, v
            (p1, p2), (s1, s2) = pre, post
            Tensor2(alg, {(p1 + w1 + s1, p2 + w2 + s2): cd * cu * cv
                          for (w1, w2), cd in d.terms.items()}).add_into(data)
    return Tensor2(alg, data)


def reference_eval(db, a, b):
    """<<a, b>> by the Leibniz rules on the table itself (rational tables
    included, with no integer twin): each piece goes through
    ``reference_act`` on monomials and is merged into its sum with
    ``add_into``, and the result is extended bilinearly."""
    alg, memo = db.alg, {}
    dot, star = db.bimodule, swap_bimodule(db.bimodule)

    def words(u, v):
        if (u, v) not in memo:
            if len(u) == 1 and len(v) == 1:
                memo[(u, v)] = db.gen_table[(u[0], v[0])]
            else:
                second = len(u) == 1
                word, m = (v, dot) if second else (u, star)
                data = {}
                for k, g in enumerate(word):
                    piece = words(u, (g,)) if second else words((g,), v)
                    reference_act(m, alg.monomial(word[:k]), piece,
                                  alg.monomial(word[k + 1:])).add_into(data)
                memo[(u, v)] = Tensor2(alg, data)
        return memo[(u, v)]

    data = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            words(u, v).add_into(data, cu * cv)
    return Tensor2(alg, data)


def reference_pair(db, p, d, p_first, factor, slot):
    """The pairing maps as first written, each cube key sliced together
    as u12[:slot] + (kept,) + u12[slot:]; ``dbracket._pair``'s arguments."""
    data = {}
    for w, c in d.terms.items():
        kept = w[1 - factor]
        for x, cx in p.terms.items():
            mono, other = db.alg.monomial(x), db.alg.monomial(w[factor])
            t = (reference_eval(db, mono, other) if p_first
                 else reference_eval(db, other, mono))
            for u12, ci in t.terms.items():
                key = u12[:slot] + (kept,) + u12[slot:]
                data[key] = data.get(key, 0) + c * cx * ci
    return Tensor3(db.alg, {key: c for key, c in data.items() if c})


def format_session(spec: SessionSpec) -> str:
    """Canonical text whose re-parse is structurally equal to the spec."""
    lines = [f"algebra {{ gens: {', '.join(spec.algebra.names)} }}"]
    if spec.bimodule is not None:
        parts = [f"kind: {spec.bimodule.kind}"]
        for label, endo in (("alpha", spec.bimodule.alpha),
                            ("beta", spec.bimodule.beta)):
            if not endo.is_identity():
                imgs = ", ".join(f"{spec.algebra.names[i]} -> {endo.images[i]}"
                                 for i in range(spec.algebra.ngens))
                parts.append(f"{label}: {imgs}")
        lines.append(f"bimodule {{ {' ; '.join(parts)} }}")
    if spec.bracket is not None:
        names = spec.algebra.names
        entries = []
        for i in range(spec.algebra.ngens):
            for j in range(i, spec.algebra.ngens):
                d = spec.bracket.gen_table[(i, j)]
                if not d.is_zero():
                    entries.append(f"<{names[i]},{names[j]}> = {d}")
        lines.append(f"bracket {{ {' ; '.join(entries) if entries else ''} }}")
    for cmd in spec.commands:
        lines.append(" ".join(shlex.quote(tok) for tok in cmd))
    return "\n".join(lines) + "\n"
