"""Double brackets on free algebras and their (weak) Poisson verdicts.

A double bracket is a bilinear map A x A -> A (x) A determined by its
values on generator pairs, extended everywhere by the Leibniz rules of a
swap-commuting bimodule structure, and subject to the cyclic antisymmetry
<<a,b>> = -<<b,a>> composed with the swap.  This module provides the
Leibniz extension, the double Jacobiator and its weak variants, soundness-
aware Poisson verdicts, equivalences and morphisms of double brackets, the
multiplication bracket with its Loday defects, and the reductions to
cyclic words.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .bimodule import Bimodule, BimodKind, act, swap_bimodule
from .commpoly import CPoly, poisson_biderivation
from .freealg import (AlgEndo, NCPoly, Necklace, Tensor2, Tensor3, P12, P123,
                      P132, _deglex, _first_failure, _nonzero, _tadd,
                      apply_endo_tensor2, necklace_project, perm_invert, tensor3_perm,
                      transposition)

JAC_FORMS = ("left", "mixed", "right", "pair-right")


# ---------------------------------------------------------------------------
# the double bracket itself
# ---------------------------------------------------------------------------

class DoubleBracket:
    """A bimodule structure plus a generator-pair table of tensor values.

    The table holds <<g_i, g_j>> for every ordered pair; the values on all
    of A follow from the Leibniz rules.  Valid tables satisfy
    table[j, i] = -swap(table[i, j]); ``from_pairs`` fills the lower half
    automatically and validates, while ``from_full_table_unchecked`` skips
    both steps (it exists to study operations that fail antisymmetry).
    """

    __slots__ = ("bimodule", "gen_table", "alg", "_star",
                 "_eval_cache", "_jac_cache")

    def __init__(self, bimodule: Bimodule, gen_table: dict, *, validate: bool = True):
        self.bimodule = bimodule
        self.alg = bimodule.alg
        table = {}
        for (i, j), d in gen_table.items():
            self.alg._check(d)
            table[(self.alg.gen_index(i), self.alg.gen_index(j))] = d
        zero = self.alg.zero2()
        for i in range(self.alg.ngens):
            for j in range(self.alg.ngens):
                table.setdefault((i, j), zero)
        self.gen_table = table
        if validate:
            self._validate()
        self._star = swap_bimodule(bimodule)
        self._eval_cache = {}
        self._jac_cache = {}

    def _validate(self):
        for i in range(self.alg.ngens):
            for j in range(i, self.alg.ngens):
                d, e = self.gen_table[(i, j)], self.gen_table[(j, i)]
                if e != -d.swap():
                    names = self.alg.names
                    raise ValueError(
                        f"cyclic antisymmetry fails on generators "
                        f"({names[i]}, {names[j]}): <<{names[j]},{names[i]}>> "
                        f"= {e} but -swap(<<{names[i]},{names[j]}>>) = {-d.swap()}")

    @classmethod
    def from_pairs(cls, bimodule: Bimodule, entries: dict) -> "DoubleBracket":
        """Build from entries for pairs (g, h); omitted pairs default to zero.

        The value for (h, g) is derived by cyclic antisymmetry when absent;
        an explicit conflicting entry is an error, never a silent override.
        """
        alg = bimodule.alg
        table = {}
        for (g, h), d in entries.items():
            key = (alg.gen_index(g), alg.gen_index(h))
            if key in table and table[key] != d:
                raise ValueError(f"conflicting entries for generator pair "
                                 f"({alg.names[key[0]]}, {alg.names[key[1]]})")
            table[key] = d
        for (i, j), d in list(table.items()):
            rev = (j, i)
            derived = -d.swap()
            if i == j:
                if d != derived:
                    raise ValueError(
                        f"diagonal entry <{alg.names[i]},{alg.names[i]}> must "
                        f"equal minus its own swap")
            elif rev in table:
                if table[rev] != derived:
                    raise ValueError(
                        f"entries for ({alg.names[i]}, {alg.names[j]}) and "
                        f"({alg.names[j]}, {alg.names[i]}) violate cyclic antisymmetry")
            else:
                table[rev] = derived
        return cls(bimodule, table, validate=True)

    @classmethod
    def from_full_table_unchecked(cls, bimodule: Bimodule, entries: dict) -> "DoubleBracket":
        """Accept a raw table verbatim, without antisymmetry validation."""
        return cls(bimodule, entries, validate=False)

    @classmethod
    def zero(cls, bimodule: Bimodule) -> "DoubleBracket":
        return cls(bimodule, {})

    def kind(self) -> BimodKind:
        return self.bimodule.kind

    def is_zero(self) -> bool:
        return all(d.is_zero() for d in self.gen_table.values())

    def entry(self, g, h) -> Tensor2:
        return self.gen_table[(self.alg.gen_index(g), self.alg.gen_index(h))]

    def __repr__(self):
        names = self.alg.names
        body = "; ".join(
            f"<{names[i]},{names[j]}> = {d}"
            for (i, j), d in sorted(self.gen_table.items()) if not d.is_zero())
        return f"<DoubleBracket {self.bimodule.kind} {{{body or '0'}}}>"


# ---------------------------------------------------------------------------
# Leibniz extension
# ---------------------------------------------------------------------------

def _mono(alg, w) -> NCPoly:
    return NCPoly(alg, {w: Fraction(1)})


def _eval_words(db: DoubleBracket, u, v, star_first: bool = False) -> Tensor2:
    """<<u, v>> for words u, v by the Leibniz rules, memoised per bracket.

    v expands through the bracket's bimodule, <<u, v>> = sum_l v[:l] .
    <<u, v_l>> . v[l+1:], and u through its swap, <<u, v>> = sum_k u[:k] *
    <<u_k, v>> * u[k+1:].  The outer loop runs over v if ``star_first``,
    over u if not, and never over a single letter; its pieces have a
    one-letter argument and are memoised, so the recursion is at most two
    calls deep.  For swap-commuting structures the order cannot matter.
    """
    key = (u, v, star_first)
    out = db._eval_cache.get(key)
    if out is None:
        if len(u) == 1 and len(v) == 1:
            out = db.gen_table[(u[0], v[0])]
        else:
            second = len(v) != 1 and (star_first or len(u) == 1)
            word, m = (v, db.bimodule) if second else (u, db._star)
            data = {}
            for k, g in enumerate(word):  # an empty word gives zero
                piece = (_eval_words(db, u, (g,), star_first) if second
                         else _eval_words(db, (g,), v, star_first))
                if piece.terms:
                    act(m, _mono(db.alg, word[:k]), piece,
                        _mono(db.alg, word[k + 1:])).add_into(data)
            out = Tensor2(db.alg, data)
        db._eval_cache[key] = out
    return out


def eval_bracket(db: DoubleBracket, a: NCPoly, b: NCPoly,
                 star_first: bool = False) -> Tensor2:
    """Bilinear extension of the generator table by the Leibniz rules.

    ``star_first`` expands the first argument before the second; the value
    is the same for every swap-commuting bimodule structure.
    """
    db.alg._check(a)
    db.alg._check(b)
    data = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            _eval_words(db, u, v, star_first).add_into(data, cu * cv)
    return Tensor2(db.alg, data)


# ---------------------------------------------------------------------------
# the four pairing maps into the tensor cube
# ---------------------------------------------------------------------------

def _pair(db: DoubleBracket, p: NCPoly, d: Tensor2, p_first: bool,
          factor: int, slot: int) -> Tensor3:
    """The loop of the four pairing maps: for each term c w_0 (x) w_1 of d
    and each word x of p, the bracket of x with w_factor (x first if
    ``p_first``) gives terms u1 (x) u2, and the other word of d is put at
    position ``slot`` of the cube term next to u1, u2."""
    db.alg._check(p)
    data = {}
    for w, c in d.terms.items():
        kept = w[1 - factor]
        for x, cx in p.terms.items():
            t = (_eval_words(db, x, w[factor]) if p_first
                 else _eval_words(db, w[factor], x))
            cc = c * cx
            for u12, ci in t.terms.items():
                _tadd(data, u12[:slot] + (kept,) + u12[slot:], cc * ci)
    return Tensor3(db.alg, data)


def bracket_left(db: DoubleBracket, a: NCPoly, d: Tensor2) -> Tensor3:
    """<<a, d' >> (x) d''."""
    return _pair(db, a, d, True, 0, 2)


def bracket_right(db: DoubleBracket, a: NCPoly, d: Tensor2) -> Tensor3:
    """d' (x) <<a, d''>>."""
    return _pair(db, a, d, True, 1, 0)


def bracket_pair_left(db: DoubleBracket, d: Tensor2, b: NCPoly) -> Tensor3:
    """<<d', b>>' (x) d'' (x) <<d', b>>''."""
    return _pair(db, b, d, False, 0, 1)


def bracket_pair_right(db: DoubleBracket, d: Tensor2, b: NCPoly) -> Tensor3:
    """d' (x) <<d'', b>>."""
    return _pair(db, b, d, False, 1, 0)


# ---------------------------------------------------------------------------
# Jacobiators
# ---------------------------------------------------------------------------

def _cyclic(term, a, b, c) -> Tensor3:
    """term(a, b, c) + P123 term(b, c, a) + P132 term(c, a, b), the cyclic
    sum behind every form of the Jacobiator."""
    return (term(a, b, c) + tensor3_perm(P123, term(b, c, a))
            + tensor3_perm(P132, term(c, a, b)))


def _trilinear(db: DoubleBracket, of_words, a, b, c) -> Tensor3:
    """The trilinear extension of ``of_words(u, v, w)`` to polynomials."""
    for p in (a, b, c):
        db.alg._check(p)
    data = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            for w, cw in c.terms.items():
                of_words(u, v, w).add_into(data, cu * cv * cw)
    return Tensor3(db.alg, data)


def _jac_words(db: DoubleBracket, u, v, w) -> Tensor3:
    out = db._jac_cache.get((u, v, w))
    if out is None:
        out = db._jac_cache[(u, v, w)] = _cyclic(
            lambda x, y, z: bracket_left(db, _mono(db.alg, x),
                                         _eval_words(db, y, z)), u, v, w)
    return out


def jacobiator(db: DoubleBracket, a: NCPoly, b: NCPoly, c: NCPoly) -> Tensor3:
    """The cyclic sum <<a,<<b,c>>>>_L + perms, valued in the tensor cube."""
    return _trilinear(db, lambda u, v, w: _jac_words(db, u, v, w), a, b, c)


def jacobiator_form(db: DoubleBracket, form: str, a, b, c) -> Tensor3:
    """The Jacobiator through one of its equivalent rewritings.

    * "left": the defining cyclic sum of left pairings;
    * "mixed": left pairing minus a right pairing minus a pair-left term;
    * "right": cyclic sum of right pairings with swapped inner arguments;
    * "pair-right": swap-conjugated cyclic sum of pair-right terms.

    All four agree on every double bracket.
    """
    key = ((form,) + tuple(next(iter(p.terms)) for p in (a, b, c))
           if all(list(p.terms.values()) == [1] for p in (a, b, c)) else None)
    out = db._jac_cache.get(key)
    if out is not None:
        return out
    if form == "left":
        out = jacobiator(db, a, b, c)
    elif form == "mixed":
        out = (bracket_left(db, a, eval_bracket(db, b, c))
               - bracket_right(db, b, eval_bracket(db, a, c))
               - bracket_pair_left(db, eval_bracket(db, a, b), c))
    elif form == "right":
        out = -_cyclic(lambda x, y, z: bracket_right(
            db, y, eval_bracket(db, x, z)), a, b, c)
    elif form == "pair-right":
        out = tensor3_perm(P12, _cyclic(lambda x, y, z: bracket_pair_right(
            db, eval_bracket(db, z, x), y), a, c, b))
    else:
        raise ValueError(
            f"unknown jacobiator form {form!r}; choose from {JAC_FORMS}")
    if key is not None:
        db._jac_cache[key] = out
    return out


def permute_args(sigma, args: tuple) -> tuple:
    """Permute a triple of arguments the way tensor factors are permuted."""
    inv = perm_invert(sigma)
    return (args[inv[0] - 1], args[inv[1] - 1], args[inv[2] - 1])


def weak_jacobiator(db: DoubleBracket, sigma, sigma_prime, a, b, c) -> Tensor3:
    """Jacobiator minus its conjugate by a pair of transpositions.

    With both transpositions equal this is the one-transposition weak
    Jacobiator; its vanishing defines the corresponding weak Poisson
    property.
    """
    s = transposition(sigma)
    sp = transposition(sigma_prime)
    return _trilinear(db, lambda u, v, w: _weak_words(db, s, sp, u, v, w),
                      a, b, c)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacVerdict:
    """Outcome of a Poisson or weak-Poisson check.

    ``status`` is one of "Poisson", "WeakPoisson", "NotPoisson",
    "VerifiedUpToDegree".  NotPoisson carries the first witness triple in
    the sweep order and its nonzero defect, which is the value of the
    (weak) Jacobiator that was being tested.  An exact sweep runs over
    generator triples; a bounded one over word triples by total degree,
    then by the factors' index tuples compared lexicographically (see
    ``_word_triples``).
    """

    status: str
    sigma: Optional[str] = None
    sigma_prime: Optional[str] = None
    witness: Optional[tuple] = None
    defect: Optional[Tensor3] = None
    degree: Optional[int] = None

    def holds(self) -> bool:
        """True unless a counterexample was found."""
        return self.status != "NotPoisson"

    def __str__(self):
        if self.status == "Poisson":
            return "Poisson"
        if self.status == "WeakPoisson":
            return f"WeakPoisson(({self.sigma}),({self.sigma_prime}))"
        if self.status == "VerifiedUpToDegree":
            tag = (f" for sigma=({self.sigma}), sigma'=({self.sigma_prime})"
                   if self.sigma else "")
            return f"VerifiedUpToDegree({self.degree}){tag}"
        a, b, c = self.witness
        return f"NotPoisson at ({a}, {b}, {c}) with defect {self.defect}"


def _gen_triples(alg):
    return itertools.product(range(alg.ngens), repeat=3)


def _word_triples(alg, degree_bound):
    """Yield the nonempty word triples (u, v, w), each factor of length at
    most degree_bound, in the sweep order.

    The order is by total degree, then by (u, v, w) with each factor
    compared as a tuple of generator indices, lexicographically: within
    total degree 4, (x, x*x, x) precedes (x, y, x*x).  It is not deg-lex
    on the factors.  The triples are produced one at a time, so an early
    witness costs no more than the triples before it.
    """
    words_to = functools.cache(
        lambda m: sorted(alg.words_up_to(m, min_degree=1)))
    for total in range(3, 3 * degree_bound + 1):
        for u in words_to(min(degree_bound, total - 2)):
            for v in words_to(min(degree_bound, total - len(u) - 1)):
                rest = total - len(u) - len(v)
                if rest <= degree_bound:
                    for w in alg.words(rest):
                        yield u, v, w


def is_poisson(db: DoubleBracket, degree_bound: int = 4) -> JacVerdict:
    """Decide or bound-verify the vanishing of the double Jacobiator.

    For the untwisted outer and inner kinds the Jacobiator is a derivation
    in each slot, so vanishing on generator triples decides the question
    exactly.  All other configurations sweep word triples up to the degree
    bound and report VerifiedUpToDegree unless a witness appears.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    if db.is_zero():
        return JacVerdict("Poisson")
    sound = (db.kind() in (BimodKind.OUTER, BimodKind.INNER)
             and db.bimodule.is_untwisted())
    return _sweep(db, lambda u, v, w: _jac_words(db, u, v, w), sound,
                  degree_bound, JacVerdict("Poisson"))


def _sweep(db, defect_of, sound: bool, degree_bound: int, holds: JacVerdict,
           sigma=None, sigma_prime=None) -> JacVerdict:
    """The verdict of the first nonzero ``defect_of(u, v, w)``: over the
    generator triples if ``sound`` (else ``holds``), otherwise over the
    word triples up to the bound (else VerifiedUpToDegree)."""
    alg = db.alg
    if sound:
        triples = (((i,), (j,), (k,)) for i, j, k in _gen_triples(alg))
    else:
        triples = _word_triples(alg, degree_bound)
    _, witness, defect = _first_failure(
        triples, lambda triple: _nonzero(defect_of(*triple)))
    if witness is not None:
        return JacVerdict("NotPoisson", sigma, sigma_prime,
                          tuple(_mono(alg, w) for w in witness), defect)
    if sound:
        return holds
    return JacVerdict("VerifiedUpToDegree", sigma, sigma_prime,
                      degree=degree_bound)


def _weak_words(db, s, sp, u, v, w) -> Tensor3:
    args = permute_args(sp, (u, v, w))
    return _jac_words(db, u, v, w) - tensor3_perm(
        perm_invert(s), _jac_words(db, *args))


def is_weak_poisson(db: DoubleBracket, sigma, sigma_prime,
                    degree_bound: int = 4) -> JacVerdict:
    """Decide or bound-verify the vanishing of the weak double Jacobiator.

    The generator-triple check is exact for precisely two configurations:
    the untwisted right kind with both transpositions (12), and the
    untwisted left kind with the pair ((12), (13)); in those cases the weak
    Jacobiator is a derivation in each slot.  Everything else is a bounded
    sweep.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    s = transposition(sigma)
    sp = transposition(sigma_prime)
    s_name = "".join(str(i) for i in (1, 2, 3) if s[i - 1] != i)
    sp_name = "".join(str(i) for i in (1, 2, 3) if sp[i - 1] != i)
    if db.is_zero():
        return JacVerdict("WeakPoisson", s_name, sp_name)
    untwisted = db.bimodule.is_untwisted()
    sound = ((db.kind() is BimodKind.RIGHT and untwisted
              and (s_name, sp_name) == ("12", "12"))
             or (db.kind() is BimodKind.LEFT and untwisted
                 and (s_name, sp_name) == ("12", "13")))
    return _sweep(db, lambda u, v, w: _weak_words(db, s, sp, u, v, w), sound,
                  degree_bound, JacVerdict("WeakPoisson", s_name, sp_name),
                  s_name, sp_name)


@dataclass
class AntisymReport:
    holds: bool
    witness: Optional[tuple]  # (a, b, lhs, rhs)
    pairs: int
    degree_bound: int

    def __str__(self):
        if self.holds:
            return (f"cyclic antisymmetry holds on {self.pairs} monomial pairs "
                    f"(degree bound {self.degree_bound})")
        a, b, lhs, rhs = self.witness
        return (f"cyclic antisymmetry FAILS at ({a}, {b}): "
                f"<<a,b>> = {lhs} but -swap(<<b,a>>) = {rhs}")


def check_antisymmetry(db: DoubleBracket, degree_bound: int = 3) -> AntisymReport:
    """Verify <<a,b>> = -swap(<<b,a>>) on monomial pairs up to the bound.

    The Leibniz rules propagate antisymmetry from generators, so this is a
    self-check; it is the tool that exhibits failures for tables built with
    the unchecked constructor.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    alg = db.alg
    words = sorted(alg.words_up_to(degree_bound), key=_deglex)

    def failure(pair):
        u, v = pair
        lhs = _eval_words(db, u, v)
        rhs = -_eval_words(db, v, u).swap()
        return None if lhs == rhs else (_mono(alg, u), _mono(alg, v), lhs, rhs)

    pairs, _, witness = _first_failure(itertools.product(words, repeat=2),
                                       failure)
    return AntisymReport(witness is None, witness, pairs, degree_bound)


# ---------------------------------------------------------------------------
# equivalences
# ---------------------------------------------------------------------------

class Tensor2Auto:
    """An automorphism of A (x) A commuting with the swap automorphism.

    Only the swap itself, diagonal twists by an algebra automorphism, and
    composites of those are representable; the commutation requirement
    holds for these by construction and is what makes the transported
    structure a double bracket again.
    """

    def apply(self, d: Tensor2) -> Tensor2:
        raise NotImplementedError

    def transport(self, m: Bimodule) -> Bimodule:
        raise NotImplementedError


class SwapAuto(Tensor2Auto):
    def apply(self, d: Tensor2) -> Tensor2:
        return d.swap()

    def transport(self, m: Bimodule) -> Bimodule:
        return swap_bimodule(m)

    def __repr__(self):
        return "<SwapAuto>"


class TwistPairAuto(Tensor2Auto):
    """The map alpha (x) alpha for an automorphism with a verified inverse."""

    def __init__(self, alpha: AlgEndo, alpha_inverse: AlgEndo):
        if alpha.domain.names != alpha.codomain.names:
            raise ValueError("twist must be an endomorphism of one algebra")
        alg = alpha.domain
        for i in range(alg.ngens):
            left = alpha(alpha_inverse(alg.gen(i)))
            right = alpha_inverse(alpha(alg.gen(i)))
            if left != alg.gen(i) or right != alg.gen(i):
                raise ValueError(
                    f"unverifiable inverse: composition is not the identity "
                    f"on generator {alg.names[i]!r}")
        self.alpha = alpha
        self.alpha_inverse = alpha_inverse

    def apply(self, d: Tensor2) -> Tensor2:
        return apply_endo_tensor2(self.alpha, d)

    def transport(self, m: Bimodule) -> Bimodule:
        return Bimodule(m.kind, self.alpha.after(m.alpha), self.alpha.after(m.beta))

    def __repr__(self):
        return f"<TwistPairAuto {self.alpha}>"


class CompositeAuto(Tensor2Auto):
    def __init__(self, parts: Iterable[Tensor2Auto]):
        self.parts = list(parts)

    def apply(self, d: Tensor2) -> Tensor2:
        for f in self.parts:
            d = f.apply(d)
        return d

    def transport(self, m: Bimodule) -> Bimodule:
        for f in self.parts:
            m = f.transport(m)
        return m

    def __repr__(self):
        return f"<CompositeAuto {self.parts}>"


def apply_equivalence(db: DoubleBracket, psi: Tensor2Auto) -> DoubleBracket:
    """Transport a double bracket along an automorphism of A (x) A.

    The new bracket is psi composed with the old one, and its bimodule is
    the psi-conjugate of the old action; for a diagonal twist over an
    untwisted kind this produces the matching twisted kind.
    """
    if not isinstance(psi, Tensor2Auto):
        raise ValueError("psi must be a Swap/TwistPair composite automorphism")
    table = {key: psi.apply(d) for key, d in db.gen_table.items()}
    return DoubleBracket(psi.transport(db.bimodule), table)


def swap_equivalent(db: DoubleBracket) -> DoubleBracket:
    """The swap-equivalent bracket, living over the swap bimodule."""
    return apply_equivalence(db, SwapAuto())


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

def check_morphism(phi: AlgEndo, db1: DoubleBracket, db2: DoubleBracket) -> bool:
    """Does phi intertwine the two brackets?

    Verified on generator pairs of the source, which suffices because both
    sides satisfy the same Leibniz rules in the images; requires a shared
    untwisted kind so that those rules really do coincide.
    """
    if db1.kind() != db2.kind():
        raise ValueError("morphism check requires matching bimodule kinds")
    if not (db1.bimodule.is_untwisted() and db2.bimodule.is_untwisted()):
        raise ValueError("morphism check is defined for untwisted kinds")
    if phi.domain.names != db1.alg.names or phi.codomain.names != db2.alg.names:
        raise ValueError("phi must map the first algebra to the second")
    alg1 = db1.alg
    return all(eval_bracket(db2, phi(alg1.gen(i)), phi(alg1.gen(j)))
               == apply_endo_tensor2(phi, db1.gen_table[(i, j)])
               for i, j in itertools.product(range(alg1.ngens), repeat=2))


# ---------------------------------------------------------------------------
# multiplication bracket, Loday defects, twisted Jacobiators
# ---------------------------------------------------------------------------

def mult_bracket(db: DoubleBracket, a: NCPoly, b: NCPoly) -> NCPoly:
    """Multiply the two tensor factors of <<a, b>> back into the algebra."""
    d = eval_bracket(db, a, b)
    data = {}
    for (w1, w2), c in d.terms.items():
        _tadd(data, w1 + w2, c)
    return NCPoly(db.alg, data)


def loday_defect(db: DoubleBracket, side: str, a, b, c) -> NCPoly:
    """Failure of the left or right Loday identity for the mult bracket."""
    br = functools.partial(mult_bracket, db)
    if side == "left":
        return br(a, br(b, c)) - br(br(a, b), c) - br(b, br(a, c))
    if side == "right":
        return br(br(a, b), c) - br(a, br(b, c)) - br(br(a, c), b)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _endo_slot(alpha: AlgEndo, t: Tensor3, slot: int) -> Tensor3:
    data = {}
    for key, c in t.terms.items():
        img = alpha.apply_word(key[slot])
        for w, cw in img.terms.items():
            nk = list(key)
            nk[slot] = w
            _tadd(data, tuple(nk), c * cw)
    return Tensor3(t.alg, data)


def twisted_jacobiator(db: DoubleBracket, side: str, alpha: AlgEndo,
                       a, b, c) -> Tensor3:
    """Jacobiator with a twist applied inside each cyclic summand.

    The left version twists the third tensor slot of each left pairing; the
    right version twists the first slot of each pair-right term.  With the
    identity twist the left version is the Jacobiator itself, and the right
    version matches it after conjugation by the (12) factor swap.
    """
    if side == "left":
        return _cyclic(lambda x, y, z: _endo_slot(alpha, bracket_left(
            db, x, eval_bracket(db, y, z)), 2), a, b, c)
    if side == "right":
        return _cyclic(lambda x, y, z: _endo_slot(alpha, bracket_pair_right(
            db, eval_bracket(db, x, y), z), 0), a, b, c)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


# ---------------------------------------------------------------------------
# reductions to cyclic words
# ---------------------------------------------------------------------------

def lie_on_necklaces(db: DoubleBracket, na: Necklace, nb: Necklace) -> dict:
    """The bracket induced on cyclic words by the mult bracket.

    Defined for the outer and inner kinds with equal twists, where the mult
    bracket descends on both sides; the result does not depend on the
    chosen lifts and is antisymmetric.
    """
    if db.kind() not in (BimodKind.OUTER, BimodKind.INNER):
        raise ValueError("necklace Lie bracket needs the outer or inner kind")
    if db.bimodule.alpha != db.bimodule.beta:
        raise ValueError("necklace Lie bracket needs equal twists")
    return necklace_project(mult_bracket(db, na.lift(), nb.lift()))


def bullet_bracket(db: DoubleBracket, na: Necklace, nb: Necklace) -> dict:
    """Project both tensor slots of <<lift(na), lift(nb)>> to cyclic words.

    Defined for the right kind (untwisted, or with equal twists).  Returns
    a map from ordered necklace pairs to coefficients; the value is
    independent of the chosen lifts.
    """
    if db.kind() is not BimodKind.RIGHT:
        raise ValueError("bullet bracket needs the right kind")
    if db.bimodule.alpha != db.bimodule.beta:
        raise ValueError("bullet bracket needs equal twists")
    alg = db.alg
    d = eval_bracket(db, na.lift(), nb.lift())
    out = {}
    for (w1, w2), c in d.terms.items():
        _tadd(out, (Necklace(alg, w1), Necklace(alg, w2)), c)
    return out


def sym_necklace_bracket(db: DoubleBracket, na: Necklace, nb: Necklace) -> CPoly:
    """The bullet bracket as a quadratic element of Sym over cyclic words."""
    data = {}
    for (n1, n2), c in bullet_bracket(db, na, nb).items():
        (CPoly.var(n1) * CPoly.var(n2)).add_into(data, c)
    return CPoly(data)


def sym_jacobi_defect(db: DoubleBracket, na: Necklace, nb: Necklace,
                      nc: Necklace) -> CPoly:
    """Jacobi defect of the Poisson bracket extending the bullet bracket.

    Cyclic words generate a polynomial ring; the bullet bracket extends to
    it as a biderivation, and its Jacobi defect vanishes identically when
    the underlying right-kind bracket is (12)-weak Poisson.
    """
    def pb(f, g):
        return poisson_biderivation(
            functools.partial(sym_necklace_bracket, db), f, g)

    fa, fb, fc = CPoly.var(na), CPoly.var(nb), CPoly.var(nc)
    return pb(fa, pb(fb, fc)) + pb(fb, pb(fc, fa)) + pb(fc, pb(fa, fb))
