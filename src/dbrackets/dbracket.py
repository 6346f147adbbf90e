"""Double brackets on free algebras and their (weak) Poisson verdicts.

A double bracket is a bilinear map A x A -> A (x) A determined by its
values on generator pairs, extended everywhere by the Leibniz rules of a
swap-commuting bimodule structure, and subject to the cyclic antisymmetry
<<a,b>> = -<<b,a>> composed with the swap.  This module provides the
Leibniz extension, the double Jacobiator and its weak variants, soundness-
aware Poisson verdicts, equivalences of double brackets, the
multiplication bracket, and the reductions to cyclic words.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

from .bimodule import Bimodule, BimodKind, _act_into, swap_bimodule
from .commpoly import CPoly, cyclic_jacobi
from .freealg import (AlgEndo, NCPoly, Necklace, Tensor2, Tensor3, P12, P123,
                      P132, TRANSPOSITIONS, _deglex, _expand, _first_failure,
                      _integer_twin, _integral, _inverse_slots, _nonzero,
                      _rescaled, _tadd, apply_endo_tensor2, tensor3_perm,
                      transposition)

JAC_FORMS = ("left", "mixed", "right", "pair-right")


# ---------------------------------------------------------------------------
# the double bracket itself
# ---------------------------------------------------------------------------

class DoubleBracket:
    """A bimodule structure plus a generator-pair table of tensor values.

    The table holds <<g_i, g_j>> for every ordered pair (zero if omitted);
    the values on all of A follow from the Leibniz rules.  The constructor
    fills in each reverse pair by cyclic antisymmetry, table[j, i] =
    -swap(table[i, j]), and raises where a given entry disagrees;
    ``from_full_table_unchecked`` takes the entries as they are (to study
    operations that fail antisymmetry).  A non-integral table keeps a
    hidden integer twin (``freealg._integer_twin``).
    """

    __slots__ = ("bimodule", "gen_table", "alg", "_star", "_antisymmetric",
                 "_eval_cache", "_jac_cache", "_twin", "_inv", "__weakref__")

    def __init__(self, bimodule: Bimodule, gen_table: dict, *, validate: bool = True):
        self.bimodule = bimodule
        self.alg = alg = bimodule.alg
        table = {}
        for (g, h), d in gen_table.items():
            alg._check(d)
            i, j = alg.gen_index(g), alg.gen_index(h)
            if not validate:
                table[(i, j)] = d
                continue
            for key, value in (((i, j), d), ((j, i), -d.swap())):
                if table.setdefault(key, value) != value:
                    a, b = (alg.names[k] for k in key)
                    raise ValueError(
                        f"<{a},{b}> would be both {table[key]} and {value}; "
                        f"each entry fixes its reverse by cyclic antisymmetry")
        zero = alg.zero2()
        for i in range(alg.ngens):
            for j in range(alg.ngens):
                table.setdefault((i, j), zero)
        self.gen_table = table
        # True once validated; an unchecked table is checked on demand
        # (``_is_antisymmetric``)
        self._antisymmetric = validate or None
        self._star = swap_bimodule(bimodule)
        self._eval_cache = {}
        self._jac_cache = {}
        twin, self._inv = _integer_twin(table)
        self._twin = None
        if twin is not None:
            # D times the table, so antisymmetric exactly when the table is
            self._twin = DoubleBracket(bimodule, twin, validate=False)
            self._twin._antisymmetric = self._antisymmetric

    @classmethod
    def from_pairs(cls, bimodule: Bimodule, entries: dict) -> "DoubleBracket":
        """Build from entries for pairs (g, h), as the constructor does: an
        entry that disagrees with another's reverse is an error."""
        return cls(bimodule, entries)

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

    def __eq__(self, other):
        return (isinstance(other, DoubleBracket)
                and self.bimodule == other.bimodule
                and self.gen_table == other.gen_table)

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
    return NCPoly(alg, {w: 1})


def _unit_word(p: NCPoly):
    """The word w if p is the monomial 1*w, else None (the unit word is
    (), so test the result against None)."""
    if len(p.terms) == 1:
        (w, c), = p.terms.items()
        if c == 1:
            return w
    return None


def _eval_words(db: DoubleBracket, u, v) -> Tensor2:
    """<<u, v>> for words u, v by the Leibniz rules, memoised per bracket.

    u expands through the swap of the bracket's bimodule, <<u, v>> =
    sum_k u[:k] * <<u_k, v>> * u[k+1:], unless it is a single letter; then
    v expands through the bimodule, <<u, v>> = sum_l v[:l] . <<u, v_l>> .
    v[l+1:].  The pieces have a one-letter argument and are memoised, so
    the recursion is at most two calls deep.  Each piece is written
    straight into the sum by ``_act_into``, with its prefix and suffix
    words as they are.
    """
    out = db._eval_cache.get((u, v))
    if out is None:
        if len(u) == 1 and len(v) == 1:
            out = db.gen_table[(u[0], v[0])]
        else:
            second = len(u) == 1
            word, m = (v, db.bimodule) if second else (u, db._star)
            data = {}
            for k, g in enumerate(word):  # an empty word gives zero
                piece = (_eval_words(db, u, (g,)) if second
                         else _eval_words(db, (g,), v))
                if piece.terms:
                    _act_into(data, m, word[:k], piece, word[k + 1:])
            out = Tensor2(db.alg, data)
        db._eval_cache[(u, v)] = out
    return out


def _multilinear(db: DoubleBracket, of_words, polys, cls, power: int):
    """The multilinear extension of ``of_words(db, *words)``, one word per
    polynomial, to ``polys``, as an element of ``cls``; on unit monomials,
    the value of ``of_words`` itself.

    The one route of every bracket and Jacobiator entry: it checks the
    arguments' algebra, computes on the integer twin of a rational table
    (``of_words`` is called with the twin) and rescales the result once,
    by 1/D**power for a value of degree ``power`` in the table.
    """
    for p in polys:
        db.alg._check(p)
    db, inv = _integral(db)
    words = tuple(map(_unit_word, polys))
    if None not in words:
        return _rescaled(of_words(db, *words), inv, power)
    data = {}
    for keys, c in _expand({}, polys, 1).items():
        of_words(db, *keys).add_into(data, c)
    return _rescaled(cls(db.alg, data), inv, power)


def eval_bracket(db: DoubleBracket, a: NCPoly, b: NCPoly) -> Tensor2:
    """Bilinear extension of the generator table by the Leibniz rules; on
    two unit monomials, the memoised value itself."""
    return _multilinear(db, _eval_words, (a, b), Tensor2, 1)


# ---------------------------------------------------------------------------
# the four pairing maps into the tensor cube
# ---------------------------------------------------------------------------

def _pair(db: DoubleBracket, p: NCPoly, d: Tensor2, p_first: bool,
          factor: int, slot: int) -> Tensor3:
    """The loop of the four pairing maps: for each term c w_0 (x) w_1 of d
    and each word x of p, the bracket of x with w_factor (x first if
    ``p_first``) gives terms u1 (x) u2, and the other word of d, ``kept``,
    is put at position ``slot`` next to them; each cube key is built as
    one tuple, (kept, u1, u2), (u1, kept, u2) or (u1, u2, kept), and added
    straight into the sum."""
    db.alg._check(p)
    db, inv = _integral(db)
    data = {}
    for w, c in d.terms.items():
        kept = w[1 - factor]
        for x, cx in p.terms.items():
            t = (_eval_words(db, x, w[factor]) if p_first
                 else _eval_words(db, w[factor], x))
            cc = c * cx
            for (u1, u2), ci in t.terms.items():
                _tadd(data, ((u1, u2, kept) if slot == 2 else (u1, kept, u2)
                             if slot else (kept, u1, u2)), cc * ci)
    return _rescaled(Tensor3(db.alg, data), inv)


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


def _first_rotation(t):
    """The rotation of the triple t = (a, b, c) that comes first in tuple
    order, and the permutation that carries a cyclic form's value there to
    its value at t: (t, None) if t is first, ((b, c, a), P123) or
    ((c, a, b), P132) otherwise.  A triple and its rotations are one class
    of one or three distinct triples, so the first is unique."""
    r1, r2 = t[1:] + t[:1], t[2:] + t[:2]
    if t <= r1 and t <= r2:
        return t, None
    return (r1, P123) if r1 <= r2 else (r2, P132)


def _by_rotation(db: DoubleBracket, tag: tuple, t: tuple, value) -> Tensor3:
    """A form F with F(a,b,c) = P123 F(b,c,a) at the word triple t,
    memoised in ``db._jac_cache`` under ``tag + t``: ``value(*t)`` is
    computed at the first rotation of t only, and the other two rotations
    are one permutation of it, F(a,b,c) = P123 F(b,c,a) = P132 F(c,a,b)."""
    out = db._jac_cache.get(tag + t)
    if out is None:
        first, perm = _first_rotation(t)
        out = (value(*t) if perm is None
               else tensor3_perm(perm, _by_rotation(db, tag, first, value)))
        db._jac_cache[tag + t] = out
    return out


def _jac_words(db: DoubleBracket, u, v, w) -> Tensor3:
    """The Jacobiator of three words, memoised per bracket.

    Only the first rotation of (u, v, w) in tuple order is computed;
    J(u,v,w) = P123 J(v,w,u) gives the other two (``_by_rotation``).  For
    every term T, _cyclic(T)(a,b,c) = T(a,b,c) + P123 T(b,c,a) +
    P132 T(c,a,b), so P123 _cyclic(T)(b,c,a) = _cyclic(T)(a,b,c): each
    summand moves to the next, as P123 P123 = P132 and P123 P132 = id.
    """
    return _by_rotation(db, (), (u, v, w), lambda x, y, z: _cyclic(
        lambda p, q, r: bracket_left(db, _mono(db.alg, p),
                                     _eval_words(db, q, r)), x, y, z))


def jacobiator(db: DoubleBracket, a: NCPoly, b: NCPoly, c: NCPoly) -> Tensor3:
    """The cyclic sum <<a,<<b,c>>>>_L + perms, valued in the tensor cube."""
    return _multilinear(db, _jac_words, (a, b, c), Tensor3, 2)


def _mixed_words(db: DoubleBracket, u, v, w) -> Tensor3:
    """The "mixed" form of the Jacobiator at three words, memoised per
    bracket: a left pairing minus a right one minus a pair-left term."""
    out = db._jac_cache.get(("mixed", u, v, w))
    if out is None:
        a, b, c = (_mono(db.alg, x) for x in (u, v, w))
        out = db._jac_cache[("mixed", u, v, w)] = (
            bracket_left(db, a, _eval_words(db, v, w))
            - bracket_right(db, b, _eval_words(db, u, w))
            - bracket_pair_left(db, _eval_words(db, u, v), c))
    return out


def _right_words(db: DoubleBracket, u, v, w) -> Tensor3:
    """The "right" form at three words, -_cyclic(T) of right pairings with
    swapped inner arguments; the rule of ``_jac_words`` holds for it."""
    return _by_rotation(db, ("right",), (u, v, w), lambda x, y, z: -_cyclic(
        lambda p, q, r: bracket_right(db, _mono(db.alg, q),
                                      _eval_words(db, p, r)), x, y, z))


def _pair_right_words(db: DoubleBracket, u, v, w) -> Tensor3:
    """The "pair-right" form at three words, PR(a,b,c) = P12 C(a,c,b) with
    C the cyclic sum of pair-right terms.  (a,c,b) is a rotation of
    (b,a,c), C(a,c,b) = P132 C(b,a,c), so PR(a,b,c) = P12 P132 P12
    PR(b,c,a) = P123 PR(b,c,a), and ``_by_rotation`` serves it too."""
    return _by_rotation(db, ("pair-right",), (u, v, w), lambda x, y, z: (
        tensor3_perm(P12, _cyclic(lambda p, q, r: bracket_pair_right(
            db, _eval_words(db, r, p), _mono(db.alg, q)), x, z, y))))


def jacobiator_form(db: DoubleBracket, form: str, a, b, c) -> Tensor3:
    """The Jacobiator through one of its equivalent rewritings.

    * "left": the defining cyclic sum of left pairings (``_jac_words``);
    * "mixed": left pairing minus a right pairing minus a pair-left term;
    * "right": cyclic sum of right pairings with swapped inner arguments;
    * "pair-right": swap-conjugated cyclic sum of pair-right terms.

    All four agree on every double bracket.  Each is trilinear, so its
    value is the multilinear extension of its value on word triples, which
    is memoised per bracket; on unit monomials and an integral table it is
    the memoised value itself.
    """
    # looked up per call, so that a name replaced in this module's globals
    # (as a tracer does) is the one called
    of_words = {"left": _jac_words, "mixed": _mixed_words,
                "right": _right_words,
                "pair-right": _pair_right_words}.get(form)
    if of_words is None:
        raise ValueError(
            f"unknown jacobiator form {form!r}; choose from {JAC_FORMS}")
    return _multilinear(db, of_words, (a, b, c), Tensor3, 2)


def permute_args(sigma, args: tuple) -> tuple:
    """Permute a triple of arguments the way tensor factors are permuted."""
    i0, i1, i2 = _inverse_slots(sigma)
    return (args[i0], args[i1], args[i2])


def weak_jacobiator(db: DoubleBracket, sigma, sigma_prime, a, b, c) -> Tensor3:
    """Jacobiator minus its conjugate by a pair of transpositions.

    With both transpositions equal this is the one-transposition weak
    Jacobiator; its vanishing defines the corresponding weak Poisson
    property.
    """
    s, sp = transposition(sigma), transposition(sigma_prime)
    return _multilinear(db, lambda db, u, v, w: _weak_words(
        db, s, sp, u, v, w), (a, b, c), Tensor3, 2)


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


def _rotation_firsts(triples):
    """The triples that come first among their rotations in tuple order
    (``_first_rotation``): the product order of generator triples and the
    order of ``_word_triples`` within a total degree."""
    return (t for t in triples if _first_rotation(t)[1] is None)


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


# The Jacobiator form that vanishes on all of A once it vanishes on
# generator triples, per untwisted kind and on a cyclically antisymmetric
# table (``_is_antisymmetric``): it is a derivation in each slot there.
# None is the Jacobiator itself, a pair names the (sigma, sigma') of a
# weak Jacobiator; with ``_WEAK_CLASS`` the right kind is exact for
# (12)(12), (13)(13), (23)(23) and the left for (12)(13), (13)(23), (23)(12).
_EXACT_FORM = {BimodKind.OUTER: None, BimodKind.INNER: None,
               BimodKind.RIGHT: ("12", "12"), BimodKind.LEFT: ("12", "13")}

# The nine weak Jacobiators are three functions.  J(t) = P123 J(rho t) for
# the rotation rho (a,b,c) -> (b,c,a), by the cyclic sum, so sigma J(sigma' t)
# = sigma P123^k J(rho^k sigma' t): the pairs (sigma, sigma') and
# (sigma P123^k, rho^k sigma') have one weak Jacobiator, on every table.  Each
# pair maps to the member of its class with sigma = (12).
_WEAK_CLASS = {("13", "13"): ("12", "12"), ("23", "23"): ("12", "12"),
               ("13", "23"): ("12", "13"), ("23", "12"): ("12", "13"),
               ("13", "12"): ("12", "23"), ("23", "13"): ("12", "23")}

_TRANSPOSITION_NAME = {p: name for name, p in TRANSPOSITIONS.items()}


def _is_antisymmetric(db: DoubleBracket) -> bool:
    """Is the generator table cyclically antisymmetric, <<g_j, g_i>> =
    -swap(<<g_i, g_j>>) on every pair?  Decided once per bracket: the
    validating constructors guarantee it, an integer twin takes the answer
    of its table's source, and an unchecked table is compared entry by
    entry at the first call."""
    if db._antisymmetric is None:
        table = db.gen_table
        db._antisymmetric = all(d == -table[(j, i)].swap()
                                for (i, j), d in table.items())
    return db._antisymmetric


def _maps_table_to_signed_self(table: dict, tau: list) -> bool:
    """Is table[(tau i, tau j)] = s (tau (x) tau)(table[(i, j)]) for every
    pair, with one sign s = +-1?  ``tau`` relabels generator indices; the
    entries are compared term by term, without building their images."""
    sign = None
    for (i, j), d in table.items():
        image = table[(tau[i], tau[j])].terms
        if len(image) != len(d.terms):
            return False
        for (w0, w1), c in d.terms.items():
            c_image = image.get((tuple(tau[g] for g in w0),
                                 tuple(tau[g] for g in w1)))
            if sign is None:
                sign = 1 if c_image == c else -1
            if c_image != sign * c:
                return False
    return True


def _relabelling_blocks(db: DoubleBracket) -> list:
    """Per generator index, its block as a sorted tuple: the generators
    joined to it by transpositions that map the table to +-itself
    (``_maps_table_to_signed_self``).  Such transpositions generate the
    full symmetric group on each block, and each element of that group is
    again such a relabelling, with the product of their signs."""
    n = db.alg.ngens
    block = [(g,) for g in range(n)]
    for p, q in itertools.combinations(range(n), 2):
        if q in block[p]:
            continue
        tau = list(range(n))
        tau[p], tau[q] = q, p
        if _maps_table_to_signed_self(db.gen_table, tau):
            joined = tuple(sorted(block[p] + block[q]))
            for g in joined:
                block[g] = joined
    return block


def _first_relabelling(t: tuple, block: list) -> tuple:
    """The first in product order of the relabellings of the index tuple t
    within blocks: each index, at its first occurrence, becomes the least
    index of its block not taken by an earlier one."""
    image = {}
    for g in t:
        if g not in image:
            image[g] = min(set(block[g]) - set(image.values()))
    return tuple(image[g] for g in t)


def _orbit_firsts(triples, block: list, rotate: bool):
    """The index triples that come first in product order among their
    relabellings within blocks and, if ``rotate``, among those of their
    rotations too."""
    turns = range(3) if rotate else (0,)
    return (t for t in triples if t == min(
        _first_relabelling(t[r:] + t[:r], block) for r in turns))


def is_poisson(db: DoubleBracket, degree_bound: int = 4) -> JacVerdict:
    """Decide or bound-verify the vanishing of the double Jacobiator.

    Exact over generator triples where ``_EXACT_FORM`` names the Jacobiator
    (the untwisted outer and inner kinds) and the table is cyclically
    antisymmetric (``_is_antisymmetric``); elsewhere a sweep of word
    triples up to the bound, VerifiedUpToDegree unless a witness appears.

    Both sweeps evaluate one triple per rotation class, the first in sweep
    order: J(a,b,c) = P123 J(b,c,a) by the cyclic sum, so a rotation of a
    failing triple fails too; rotations share a total degree, so the first
    failing triple of the full sweep is the first of its class.  The exact
    sweep also skips the relabellings of a triple within blocks of
    generators (``_verdict``): it evaluates one triple per orbit of
    rotations and relabellings.
    """
    return _verdict(db, None, degree_bound)


def _weak_words(db, s, sp, u, v, w) -> Tensor3:
    """J(u,v,w) minus its conjugate by (s, sp); the two are compared as
    dicts first, so only a witness pays for the subtraction.  The
    transposition s is its own inverse."""
    jac = _jac_words(db, u, v, w)
    other = tensor3_perm(s, _jac_words(db, *permute_args(sp, (u, v, w))))
    return Tensor3(db.alg, {}) if jac.terms == other.terms else jac - other


def is_weak_poisson(db: DoubleBracket, sigma, sigma_prime,
                    degree_bound: int = 4) -> JacVerdict:
    """Decide or bound-verify the vanishing of the weak double Jacobiator.

    The nine pairs are three classes, {(12)(12), (13)(13), (23)(23)},
    {(12)(13), (13)(23), (23)(12)} and {(12)(23), (13)(12), (23)(13)}:
    J(t) = P123 J(rho t) for the rotation rho, so (sigma, sigma') and
    (sigma P123^k, rho^k sigma') have one weak Jacobiator (``_WEAK_CLASS``).
    The sweep evaluates the class's member with sigma = (12), and the
    verdict names the requested pair.  Exact over generator triples where
    ``_EXACT_FORM`` names that member and the table is cyclically
    antisymmetric: on untwisted right brackets for the class of
    ((12), (12)), on untwisted left ones for the class of ((12), (13)).
    The exact sweep evaluates one triple per orbit of relabellings within
    blocks of generators (``_verdict``).  Elsewhere a sweep of every word
    triple up to the bound; no rotation rule is applied to weak forms, so
    no triple is skipped.  Their two Jacobiators are shared by rotation,
    though: ``_jac_words`` computes one cyclic sum per rotation class and
    permutes it for the others.
    """
    return _verdict(db, (sigma, sigma_prime), degree_bound)


def _verdict(db: DoubleBracket, pair, degree_bound: int) -> JacVerdict:
    """The verdict of the first nonzero Jacobiator, or weak Jacobiator of
    a pair of transpositions, in the sweep that ``_EXACT_FORM`` picks.

    A weak pair is swept as the member of its class with sigma = (12)
    (``_WEAK_CLASS``), the same function, so the witness and defect are
    those of the requested pair, and the verdict keeps its names.  A sweep
    is exact only on an untwisted bracket whose table is cyclically
    antisymmetric (``_is_antisymmetric``): the Leibniz extension of an
    unchecked table need not make the exact form a derivation in each
    slot, so it may vanish on generator triples and not on words.

    An exact sweep first finds the blocks of generators that relabellings
    tau with <<tau a, tau b>> = +-(tau (x) tau)<<a, b>> permute
    (``_relabelling_blocks``).  Such a tau, as an automorphism of A,
    commutes with the untwisted actions, so the sign carries over to all
    of A by the Leibniz rules and cancels in the quadratic Jacobiator:
    J(tau a, tau b, tau c) = tau^(x)3 J(a, b, c), and the same for a weak
    Jacobiator, since tau^(x)3 commutes with the slot and argument
    permutations.  A triple thus fails exactly when its relabellings do
    (and, for the Jacobiator, its rotations), so the sweep evaluates only
    the first triple of each orbit (``_orbit_firsts``).  The first failing
    triple of the full sweep is the first of its orbit, so the witness and
    its defect are those of the full sweep.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    names, form = (None, None), None
    if pair is not None:
        names = tuple(_TRANSPOSITION_NAME[transposition(t)] for t in pair)
        form = _WEAK_CLASS.get(names, names)
        s, sp = map(transposition, form)
    holds = JacVerdict("Poisson" if form is None else "WeakPoisson", *names)
    if db.is_zero():
        return holds
    db, inv = _integral(db)
    alg = db.alg
    exact = (db.bimodule.is_untwisted() and _EXACT_FORM[db.kind()] == form
             and _is_antisymmetric(db))
    if exact:
        triples = (((i,), (j,), (k,)) for i, j, k in _orbit_firsts(
            _gen_triples(alg), _relabelling_blocks(db), form is None))
    else:
        triples = _word_triples(alg, degree_bound)
        if form is None:
            triples = _rotation_firsts(triples)
    defect_of = ((lambda t: _jac_words(db, *t)) if form is None
                 else (lambda t: _weak_words(db, s, sp, *t)))
    _, witness, defect = _first_failure(
        triples, lambda t: _nonzero(defect_of(t)))
    if witness is not None:
        return JacVerdict("NotPoisson", *names,
                          tuple(_mono(alg, w) for w in witness),
                          _rescaled(defect, inv, 2))
    if exact:
        return holds
    return JacVerdict("VerifiedUpToDegree", *names, degree=degree_bound)


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
    db, inv = _integral(db)
    alg = db.alg
    words = sorted(alg.words_up_to(degree_bound), key=_deglex)

    def failure(pair):
        u, v = pair
        lhs = _eval_words(db, u, v)
        rhs = -_eval_words(db, v, u).swap()
        return None if lhs == rhs else (_mono(alg, u), _mono(alg, v),
                                        _rescaled(lhs, inv),
                                        _rescaled(rhs, inv))

    pairs, _, witness = _first_failure(itertools.product(words, repeat=2),
                                       failure)
    return AntisymReport(witness is None, witness, pairs, degree_bound)


# ---------------------------------------------------------------------------
# equivalences
# ---------------------------------------------------------------------------

class SwapAuto:
    def apply(self, d: Tensor2) -> Tensor2:
        return d.swap()

    def transport(self, m: Bimodule) -> Bimodule:
        return swap_bimodule(m)

    def __repr__(self):
        return "<SwapAuto>"


class TwistPairAuto:
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


def apply_equivalence(db: DoubleBracket,
                      psi: SwapAuto | TwistPairAuto) -> DoubleBracket:
    """Transport a double bracket along an automorphism of A (x) A.

    The new bracket is psi composed with the old one, and its bimodule is
    the psi-conjugate of the old action; for a diagonal twist over an
    untwisted kind this produces the matching twisted kind.  Only the swap
    and diagonal twists by an algebra automorphism are taken: they commute
    with the swap, which makes the transported structure a double bracket
    again.  A composite is one call per factor.
    """
    if not isinstance(psi, (SwapAuto, TwistPairAuto)):
        raise ValueError("psi must be a SwapAuto or a TwistPairAuto")
    table = {key: psi.apply(d) for key, d in db.gen_table.items()}
    return DoubleBracket(psi.transport(db.bimodule), table)


def swap_equivalent(db: DoubleBracket) -> DoubleBracket:
    """The swap-equivalent bracket, living over the swap bimodule."""
    return apply_equivalence(db, SwapAuto())


# ---------------------------------------------------------------------------
# the multiplication bracket
# ---------------------------------------------------------------------------

def mult_bracket(db: DoubleBracket, a: NCPoly, b: NCPoly) -> NCPoly:
    """Multiply the two tensor factors of <<a, b>> back into the algebra."""
    d = eval_bracket(db, a, b)
    data = {}
    for (w1, w2), c in d.terms.items():
        _tadd(data, w1 + w2, c)
    return NCPoly(db.alg, data)


# ---------------------------------------------------------------------------
# reductions to cyclic words
# ---------------------------------------------------------------------------

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
    return cyclic_jacobi(functools.partial(sym_necklace_bracket, db),
                         CPoly.var(na), CPoly.var(nb), CPoly.var(nc))
