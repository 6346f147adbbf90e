"""Exact sparse arithmetic for free associative algebras over the rationals.

A ``FreeAlgebra`` fixes a finite list of named generators.  Elements are
``NCPoly`` values: finite maps from words (tuples of generator indices) to
rational coefficients.  The module also provides the tensor square and
cube of the algebra (``Tensor2``, ``Tensor3``), the symmetric-group actions
on tensor factors, algebra endomorphisms given on generators, and cyclic
words (necklaces), a basis of the quotient of the algebra by the span of
commutators.  ``LinComb`` is the base class of these elements and of the
package's other finite linear combinations (commutative polynomials,
matrix tensors).

No floating point is used anywhere: all arithmetic is exact.  A
coefficient is an ``int`` or a ``Fraction``, never a ``float``.  ``_q``
normalises numbers where they enter (``scale`` and the element
constructors): an integral one becomes an ``int``, and a float is
refused.  Integer arithmetic stays integral from there on, but
``Fraction`` arithmetic may leave an integral ``Fraction``:
``A.poly({"x": Fraction(1, 2)}).scale(2).terms == {(0,): Fraction(1, 1)}``.
The two forms compare, hash and print alike.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

Word = tuple  # tuple of generator indices; () is the unit monomial

# ---------------------------------------------------------------------------
# permutations of {1,2,3}, stored as tuples of 1-based images
# ---------------------------------------------------------------------------

P_ID = (1, 2, 3)
P12 = (2, 1, 3)
P13 = (3, 2, 1)
P23 = (1, 3, 2)
P123 = (2, 3, 1)  # 1->2->3->1
P132 = (3, 1, 2)  # 1->3->2->1

TRANSPOSITIONS = {"12": P12, "13": P13, "23": P23}


def perm_invert(s):
    inv = [0, 0, 0]
    for i, si in enumerate(s):
        inv[si - 1] = i + 1
    return tuple(inv)


def transposition(name) -> tuple:
    """Resolve ``"12" | "(12)" | (2,1,3)`` to a transposition of {1,2,3}."""
    if isinstance(name, tuple):
        if name in (P12, P13, P23):
            return name
        raise ValueError(f"not a transposition of {{1,2,3}}: {name}")
    key = str(name).strip("()")
    if key not in TRANSPOSITIONS:
        raise ValueError(f"not a transposition of {{1,2,3}}: {name!r}")
    return TRANSPOSITIONS[key]


# ---------------------------------------------------------------------------
# sparse linear combinations
# ---------------------------------------------------------------------------

def _tadd(data: dict, key, coeff) -> None:
    """Add coeff to data[key] in place, dropping the key if it cancels."""
    c = data.get(key)
    c = coeff if c is None else c + coeff
    if c:
        data[key] = c
    elif key in data:
        del data[key]


def _q(c):
    """The stored form of the rational c: an ``int`` when it is integral,
    a ``Fraction`` otherwise.  ``2 == Fraction(2)`` and both hash alike, so
    the two forms may meet in one dict.  A ``float`` is refused: its exact
    binary value is seldom the number that was meant."""
    if isinstance(c, float):
        raise TypeError(f"float coefficient {c!r}; give an int, a Fraction or 'p/q'")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _first_failure(cases, failure) -> tuple:
    """Every bounded check's driver: (cases tried, first case whose failure
    is not None, that failure) or (cases tried, None, None).  The count
    includes the failing case; nothing after it is drawn."""
    tried = 0
    for case in cases:
        tried += 1
        found = failure(case)
        if found is not None:
            return tried, case, found
    return tried, None, None


def _nonzero(value):
    """The failure of a case whose defect ``value`` must vanish."""
    return None if value.is_zero() else value


def _integer_twin(table: dict):
    """The table times D, the lcm of its values' denominators, with ``int``
    coefficients, and 1/D; (None, None) when D = 1.

    A ``DoubleBracket`` or ``PoissonStructure`` with a non-integral table
    keeps a hidden twin built on this table: the same structure with the
    table times D, which never refers back to its source.  Brackets are
    linear in the table and Jacobiators quadratic, so the public entries
    compute on the twin's memos and rescale only what they return, by 1/D
    or 1/D^2 (``_rescaled``).  Whether a value is zero does not depend on
    the scale, so a sweep's order, witness and count are the table's own.
    """
    den = math.lcm(*(c.denominator for value in table.values()
                     for c in value.terms.values()))
    if den == 1:
        return None, None
    # the numerators as ints; scale would keep Fractions
    return {key: value._like({k: c.numerator * (den // c.denominator)
                              for k, c in value.terms.items()})
            for key, value in table.items()}, Fraction(1, den)


def _integral(s):
    """The structure whose memos compute s's values, and the factor 1/D
    that takes a value linear in its table back to s (None when D = 1)."""
    return (s, None) if s._twin is None else (s._twin, s._inv)


def _rescaled(t, inv, power: int = 1):
    """t times inv**power, for a value of degree ``power`` in the twin's
    table; t itself when there is no twin or t is zero."""
    if inv is None or not t.terms:
        return t
    f = inv if power == 1 else inv ** power
    return t._like({key: c * f for key, c in t.terms.items()})


class LinComb:
    """A finite map ``terms`` from basis keys to nonzero rationals, each an
    ``int`` or a ``Fraction`` and never a ``float``.

    No zero is stored, so structural equality is mathematical equality.
    Subclasses may override ``_space`` (the ambient space; mixing spaces
    raises ValueError), ``_like`` (a new element of the same class and
    space) and ``_key_order`` (the printing order of the keys), and give
    ``_key_mul`` (the product of two keys) to multiply.
    """

    __slots__ = ()

    def _space(self):
        return None

    def _like(self, terms: dict):
        return type(self)(terms)

    @staticmethod
    def _key_order(key):
        return key

    def _check(self, other) -> None:
        if self._space() != other._space():
            raise ValueError(f"mismatched ambient spaces: {self._space()!r} "
                             f"vs {other._space()!r}")

    def add_into(self, data: dict, scalar=1) -> None:
        """Add scalar times self into ``data`` in place; long sums build one
        local dict with it instead of copying a running total per term."""
        if scalar == 1:
            for key, c in self.terms.items():
                _tadd(data, key, c)
        elif scalar:
            for key, c in self.terms.items():
                _tadd(data, key, c * scalar)

    def __add__(self, other):
        self._check(other)
        data = dict(self.terms)
        other.add_into(data)
        return self._like(data)

    def __sub__(self, other):
        self._check(other)
        data = dict(self.terms)
        other.add_into(data, -1)
        return self._like(data)

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def scale(self, scalar):
        s = _q(scalar)
        if not s:
            return self._like({})
        return self._like({key: c * s for key, c in self.terms.items()})

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __mul__(self, other):
        """The product.  With an element of the same class it is bilinear,
        and basis keys multiply by the class's ``_key_mul``, where None
        stands for a zero product; anything else is a scalar (``scale``)."""
        if type(other) is not type(self):
            return self.scale(other)
        self._check(other)
        key_mul = self._key_mul
        data = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = key_mul(k1, k2)
                if key is not None:
                    _tadd(data, key, c1 * c2)
        return self._like(data)

    def __pow__(self, n: int):
        """The n-th power by repeated multiplication from ``_one()``, for
        subclasses with a unit."""
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = self._one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (type(other) is type(self) and self._space() == other._space()
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self._space(), frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list:
        order = self._key_order
        return sorted(self.terms.items(), key=lambda item: order(item[0]))

    def _format(self, render_key, terms=None) -> str:
        """The +/- printer over ``terms`` (default ``sorted_terms()``); the
        empty key is the unit and prints as its coefficient, any other key
        as ``coeff*render_key(key)``."""
        parts = []
        for key, coeff in self.sorted_terms() if terms is None else terms:
            mag = -coeff if coeff < 0 else coeff
            if not key:
                txt = str(mag)
            elif mag == 1:
                txt = render_key(key)
            else:
                txt = f"{mag}*{render_key(key)}"
            if not parts:
                parts.append(f"-{txt}" if coeff < 0 else txt)
            else:
                parts.append(("- " if coeff < 0 else "+ ") + txt)
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"


# ---------------------------------------------------------------------------
# the ambient algebra
# ---------------------------------------------------------------------------

class FreeAlgebra:
    """The free associative algebra Q<g_1, ..., g_r> on named generators."""

    def __init__(self, names: Sequence[str]):
        names = tuple(str(n) for n in names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names: {names}")
        if not names:
            raise ValueError("at least one generator is required")
        self.names = names
        self.ngens = len(names)

    def __repr__(self):
        return f"FreeAlgebra({', '.join(self.names)})"

    def __eq__(self, other):
        return isinstance(other, FreeAlgebra) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    # -- element constructors ------------------------------------------------

    def zero(self) -> "NCPoly":
        return NCPoly(self, {})

    def one(self) -> "NCPoly":
        return NCPoly(self, {(): 1})

    def gen(self, which) -> "NCPoly":
        return NCPoly(self, {(self.gen_index(which),): 1})

    def gens(self) -> list:
        return [self.gen(i) for i in range(self.ngens)]

    def gen_index(self, which) -> int:
        if isinstance(which, str):
            try:
                return self.names.index(which)
            except ValueError:
                raise ValueError(f"unknown generator {which!r} in {self!r}") from None
        i = int(which)
        if not 0 <= i < self.ngens:
            raise ValueError(f"generator index {i} out of range for {self!r}")
        return i

    def monomial(self, word: Iterable, coeff=1) -> "NCPoly":
        w = tuple(self.gen_index(g) for g in word)
        c = _q(coeff)
        return NCPoly(self, {w: c} if c else {})

    def poly(self, terms: Mapping) -> "NCPoly":
        data = {}
        for word, coeff in terms.items():
            _tadd(data, tuple(self.gen_index(g) for g in word), _q(coeff))
        return NCPoly(self, data)

    def t2(self, left: "NCPoly", right: "NCPoly") -> "Tensor2":
        """Elementary tensor left (x) right, expanded bilinearly."""
        self._check(left), self._check(right)
        return Tensor2(self, _expand({}, (left, right), 1))

    def t3(self, a: "NCPoly", b: "NCPoly", c: "NCPoly") -> "Tensor3":
        return Tensor3(self, _expand({}, (a, b, c), 1))

    def zero2(self) -> "Tensor2":
        return Tensor2(self, {})

    def unit2(self) -> "Tensor2":
        return Tensor2(self, {((), ()): 1})

    def necklace(self, word: Iterable) -> "Necklace":
        return Necklace(self, tuple(self.gen_index(g) for g in word))

    # -- word utilities --------------------------------------------------------

    def words(self, degree: int) -> Iterator[Word]:
        """All words of the exact given degree, in lexicographic order."""
        return itertools.product(range(self.ngens), repeat=degree)

    def words_up_to(self, degree: int, min_degree: int = 0) -> Iterator[Word]:
        """All words with min_degree <= length <= degree, in deg-lex order."""
        for d in range(min_degree, degree + 1):
            yield from self.words(d)

    def format_word(self, w: Word) -> str:
        if not w:
            return "1"
        return "*".join(self.names[i] for i in w)

    def _check(self, elem):
        if elem.alg.names != self.names:
            raise ValueError(
                f"mismatched generator tables: {self!r} vs {elem.alg!r}")


def _expand(data: dict, factors, coeff) -> dict:
    """Add coeff times the tensor product of the factors into data."""
    for combo in itertools.product(*(f.terms.items() for f in factors)):
        c = coeff
        for _, ci in combo:
            c = c * ci
        _tadd(data, tuple(w for w, _ in combo), c)
    return data


def _deglex(w: Word):
    return (len(w), w)


def _tensor_order(key):
    return tuple(_deglex(w) for w in key)


class _OverAlgebra(LinComb):
    """A linear combination whose keys are built from words of one algebra."""

    __slots__ = ("alg", "terms")
    # tensors multiply componentwise, word by word in each slot
    _key_mul = staticmethod(lambda k1, k2: tuple(map(operator.add, k1, k2)))

    def __init__(self, alg: FreeAlgebra, terms: dict):
        self.alg = alg
        self.terms = terms

    def _space(self):
        return self.alg.names

    def _like(self, terms: dict):
        return type(self)(self.alg, terms)

    def __str__(self):
        """The tensor printer (keys are tuples of words; NCPoly has its
        own): the distinct words are sorted by deg-lex and rendered once
        each, and the terms are sorted by their tuples of word ranks, which
        is the order of ``_tensor_order``."""
        words = sorted({w for key in self.terms for w in key}, key=_deglex)
        rank = {w: r for r, w in enumerate(words)}
        text = {w: self.alg.format_word(w) for w in words}
        terms = sorted(self.terms.items(),
                       key=lambda item: tuple(map(rank.__getitem__, item[0])))
        return self._format(
            lambda key: " (x) ".join(map(text.__getitem__, key)), terms)


# ---------------------------------------------------------------------------
# elements of the algebra
# ---------------------------------------------------------------------------

class NCPoly(_OverAlgebra):
    """A finite Q-linear combination of words in the generators."""

    __slots__ = ()
    _key_order = staticmethod(_deglex)
    _key_mul = staticmethod(operator.add)  # words concatenate

    def _one(self):
        return self.alg.one()

    def degree(self) -> int:
        """Maximal word length; -1 for the zero element."""
        return max((len(w) for w in self.terms), default=-1)

    def __str__(self):
        return self._format(self.alg.format_word)


# The expansion budgets.  The text grammar and the gradient families refuse
# a power, product or tensor that may have more than MAX_TERMS terms or
# words of more than MAX_WORD_LENGTH letters, before multiplying it out.
# They admit the 729 words of (x1+x2+x3)^6 and x^1500.  A power takes one
# product per unit of its exponent, so the exponent counts as letters even
# on a constant.  They also refuse one whose coefficients may have more
# digits than the interpreter converts to text
# (``sys.get_int_max_str_digits()``), since no printer could show them.
MAX_TERMS = 1024
MAX_WORD_LENGTH = 2048


def _expansion_breach(terms: int, letters: int, digits: int):
    """Why an expansion of up to ``terms`` terms, with words of up to
    ``letters`` letters and coefficients of up to ``digits`` digits, is
    over the budgets; None when it is not."""
    # 0 is no limit, as on interpreters without the function
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if letters > MAX_WORD_LENGTH:
        return (f"{letters} letters per word, above the word-length budget "
                f"of {MAX_WORD_LENGTH}")
    if terms > MAX_TERMS:
        return f"up to {terms} terms, above the term budget of {MAX_TERMS}"
    if 0 < limit < digits:
        return (f"coefficients of up to {digits} digits, over the "
                f"interpreter's limit of {limit} for integer conversion")
    return None


def _digits(p: LinComb) -> int:
    """A bound on the decimal digits of the numerators and denominators of
    p's coefficients: a number below 2^b has at most 1 + b log10(2)
    digits, and log10(2) < 0.30103.  A product's coefficients have at most
    the sum of its factors' digits, a power's e times its base's."""
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in p.terms.values()), default=0)
    return 1 + bits * 30103 // 100000


def _power_breach(p: NCPoly, e: int):
    """``_expansion_breach`` of p**e, from p's terms, degree and
    coefficients alone."""
    letters = e * max(p.degree(), 1)
    return _expansion_breach(
        0 if letters > MAX_WORD_LENGTH else len(p.terms) ** max(e, 0), letters,
        e * _digits(p))


# ---------------------------------------------------------------------------
# tensor square and cube
# ---------------------------------------------------------------------------

class Tensor2(_OverAlgebra):
    """Sparse element of A (x) A: finite map (Word, Word) -> coefficient."""

    __slots__ = ()
    _key_order = staticmethod(_tensor_order)

    def swap(self) -> "Tensor2":
        """The swap automorphism of A (x) A, sending u (x) v to v (x) u."""
        return Tensor2(self.alg, {(v, u): c for (u, v), c in self.terms.items()})


class Tensor3(_OverAlgebra):
    """Sparse element of A (x) A (x) A."""

    __slots__ = ()
    _key_order = staticmethod(_tensor_order)


# sigma -> the 0-based positions sigma^{-1}(1), sigma^{-1}(2), sigma^{-1}(3)
_INVERSE_SLOTS = {s: tuple(i - 1 for i in perm_invert(s))
                  for s in itertools.permutations((1, 2, 3))}


def _inverse_slots(sigma) -> tuple:
    """``_INVERSE_SLOTS`` of a sequence that must be a permutation of
    {1,2,3}, such as a tuple or a list of the images."""
    slots = _INVERSE_SLOTS.get(tuple(sigma))
    if slots is None:
        raise ValueError(f"not a permutation of {{1,2,3}}: {tuple(sigma)}")
    return slots


def tensor3_perm(sigma, t: Tensor3) -> Tensor3:
    """Left S_3-action: factor i of the result is factor sigma^{-1}(i) of t."""
    i0, i1, i2 = _inverse_slots(sigma)
    return Tensor3(t.alg, {(k[i0], k[i1], k[i2]): c for k, c in t.terms.items()})


# ---------------------------------------------------------------------------
# algebra endomorphisms
# ---------------------------------------------------------------------------

def _word_image(memo: dict, w: Word, letter_image, mul):
    """The image of the word w under a monoid map, memoised in ``memo``.

    ``memo[()]`` holds the unit; the letters' images are folded onto it
    from the left with ``mul``, one letter at a time (no recursion).  Only
    w itself is stored, never its prefixes, so the memo's size is linear
    in the total length of the words requested.
    """
    out = memo.get(w)
    if out is None:
        out = memo[()]
        for g in w:
            out = mul(out, letter_image(g))
        memo[w] = out
    return out


class AlgEndo:
    """Algebra homomorphism between free algebras, given on generators.

    The map extends multiplicatively and sends 1 to 1.  ``domain`` and
    ``codomain`` coincide for the twists of bimodule structures, and may
    differ, as for a map collapsing two generators to one.
    """

    __slots__ = ("domain", "codomain", "images", "_memo", "_identity")

    def __init__(self, domain: FreeAlgebra, images: Mapping,
                 codomain: FreeAlgebra | None = None):
        self.domain = domain
        self.codomain = codomain if codomain is not None else domain
        imgs = {}
        for g, p in images.items():
            i = domain.gen_index(g)
            self.codomain._check(p)
            imgs[i] = p
        for i in range(domain.ngens):
            if i not in imgs:
                raise ValueError(
                    f"no image given for generator {domain.names[i]!r}")
        self.images = imgs
        self._memo = {(): self.codomain.one()}
        # the images are fixed from here on, so this is decided once
        self._identity = (domain.names == self.codomain.names
                          and all(imgs[i] == domain.gen(i)
                                  for i in range(domain.ngens)))

    @classmethod
    def identity(cls, alg: FreeAlgebra) -> "AlgEndo":
        return cls(alg, {i: alg.gen(i) for i in range(alg.ngens)})

    def is_identity(self) -> bool:
        return self._identity

    def apply_word(self, w: Word) -> NCPoly:
        """The image of a word, memoised per endomorphism."""
        return _word_image(self._memo, w, self.images.__getitem__,
                           operator.mul)

    def __call__(self, p: NCPoly) -> NCPoly:
        return apply_endo(self, p)

    def after(self, other: "AlgEndo") -> "AlgEndo":
        """Composite self o other."""
        if other.codomain.names != self.domain.names:
            raise ValueError("endomorphisms do not compose: codomain/domain mismatch")
        return AlgEndo(other.domain,
                       {i: self(other.images[i]) for i in range(other.domain.ngens)},
                       codomain=self.codomain)

    def __eq__(self, other):
        return (isinstance(other, AlgEndo)
                and self.domain.names == other.domain.names
                and self.codomain.names == other.codomain.names
                and self.images == other.images)

    def __repr__(self):
        body = ", ".join(f"{self.domain.names[i]} -> {p}"
                         for i, p in sorted(self.images.items()))
        return f"<AlgEndo {body}>"


def apply_endo(e: AlgEndo, p: NCPoly) -> NCPoly:
    """Apply the multiplicative, unital extension of the generator images."""
    e.domain._check(p)
    data = {}
    for w, c in p.terms.items():
        e.apply_word(w).add_into(data, c)
    return NCPoly(e.codomain, data)


def apply_endo_tensor2(e: AlgEndo, d: Tensor2) -> Tensor2:
    """Apply e (x) e to an element of the tensor square."""
    e.domain._check(d)
    data = {}
    for (w1, w2), c in d.terms.items():
        _expand(data, (e.apply_word(w1), e.apply_word(w2)), c)
    return Tensor2(e.codomain, data)


# ---------------------------------------------------------------------------
# necklaces: cyclic words, a basis of A/[A,A]
# ---------------------------------------------------------------------------

class Necklace:
    """A word up to cyclic rotation, stored as its minimal rotation.

    Minimality is lexicographic in the declared generator order; the unit
    class is the empty necklace.
    """

    __slots__ = ("alg", "word")

    def __init__(self, alg: FreeAlgebra, word: Word):
        self.alg = alg
        self.word = min(word[i:] + word[:i] for i in range(len(word))) if word else ()

    def __eq__(self, other):
        return (isinstance(other, Necklace) and self.alg.names == other.alg.names
                and self.word == other.word)

    def __hash__(self):
        return hash((self.alg.names, self.word))

    def __lt__(self, other):
        return _deglex(self.word) < _deglex(other.word)

    def lift(self) -> NCPoly:
        """The canonical representative word as an algebra element."""
        return NCPoly(self.alg, {self.word: 1})

    def __str__(self):
        return f"[{self.alg.format_word(self.word)}]"

    def __repr__(self):
        return f"<Necklace {self}>"
