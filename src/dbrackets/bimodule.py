"""Bimodule structures on the tensor square of a free algebra.

Four standard actions of A on A (x) A are supported (left, right, outer,
inner), each optionally twisted by a pair of algebra endomorphisms acting
on the ring arguments.  The swap bimodule conjugates an action by the swap
automorphism of A (x) A; a structure is swap-commuting when it commutes
with its own swap, which is the compatibility needed to extend bracket
data from generators by Leibniz rules in either order.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .freealg import (AlgEndo, FreeAlgebra, NCPoly, Tensor2, _first_failure,
                      _tadd)


class BimodKind(enum.Enum):
    """A slot pair: the tensor factor that ``a`` multiplies from the left
    in a . d . b, and the factor that ``b`` multiplies from the right."""

    LEFT = "left", 0, 0
    RIGHT = "right", 1, 1
    OUTER = "outer", 0, 1
    INNER = "inner", 1, 0

    def __new__(cls, value, a_slot, b_slot):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.slots = (a_slot, b_slot)
        return kind

    def __str__(self):
        return self.value


class Bimodule:
    """One of the four standard A-actions on A (x) A, with a twist pair.

    (a, b) acts on d = d' (x) d'' through A = alpha(a) and B = beta(b): A
    multiplies factor ``kind.slots[0]`` of d from the left, B multiplies
    factor ``kind.slots[1]`` from the right.  So left is A d' B (x) d'',
    right d' (x) A d'' B, outer A d' (x) d'' B and inner d' B (x) A d''.
    """

    __slots__ = ("kind", "alpha", "beta", "alg")

    def __init__(self, kind, alpha: AlgEndo | None = None,
                 beta: AlgEndo | None = None, alg: FreeAlgebra | None = None):
        self.kind = BimodKind(kind)
        if alpha is None and beta is None and alg is None:
            raise ValueError("an algebra or a twist endomorphism is required")
        if alpha is None:
            alpha = AlgEndo.identity(alg if alg is not None else beta.domain)
        if beta is None:
            beta = AlgEndo.identity(alpha.domain)
        if alpha.domain.names != alpha.codomain.names:
            raise ValueError("twists must be endomorphisms of the algebra itself")
        if alpha.domain.names != beta.domain.names:
            raise ValueError("twist pair must act on the same algebra")
        self.alpha = alpha
        self.beta = beta
        self.alg = alpha.domain

    def is_untwisted(self) -> bool:
        return self.alpha.is_identity() and self.beta.is_identity()

    def act(self, a: NCPoly, d: Tensor2, b: NCPoly) -> Tensor2:
        return act(self, a, d, b)

    def swap(self) -> "Bimodule":
        return swap_bimodule(self)

    def __eq__(self, other):
        return (isinstance(other, Bimodule) and self.kind == other.kind
                and self.alpha == other.alpha and self.beta == other.beta)

    def __repr__(self):
        if self.is_untwisted():
            return f"<Bimodule {self.kind}>"
        return f"<Bimodule {self.kind}, alpha={self.alpha}, beta={self.beta}>"


def act(m: Bimodule, a: NCPoly, d: Tensor2, b: NCPoly) -> Tensor2:
    """Apply the two-sided action a . d . b of the bimodule m: the sum of
    cu cv u . d . v over the words u of a and v of b, each written straight
    into one dict by ``_act_into``, where the copies may cancel."""
    m.alg._check(a)
    m.alg._check(d)
    m.alg._check(b)
    data = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            _act_into(data, m, u, d, v, cu * cv)
    return Tensor2(m.alg, data)


def _act_into(data: dict, m: Bimodule, u, d: Tensor2, v, coeff=1) -> None:
    """Add coeff times u . d . v into ``data`` in place, for words u and v.

    Each pair of words u' of alpha(u) and v' of beta(v) (u and v
    themselves when m is untwisted) is placed around every term of d, and
    each term is added to ``data`` with ``_tadd``; a coefficient of 1 is
    not multiplied.  The one loop behind ``act`` and the Leibniz
    extension, which passes its running sum as ``data``.
    """
    a_slot, b_slot = m.kind.slots
    alpha, beta = m.alpha, m.beta
    images_u = {u: 1} if alpha.is_identity() else alpha.apply_word(u).terms
    images_v = {v: 1} if beta.is_identity() else beta.apply_word(v).terms
    for wu, cu in images_u.items():
        for wv, cv in images_v.items():
            pre, post = [(), ()], [(), ()]
            pre[a_slot], post[b_slot] = wu, wv
            (p1, p2), (s1, s2), c = pre, post, cu * cv * coeff
            one = c == 1
            for (w1, w2), cd in d.terms.items():
                _tadd(data, (p1 + w1 + s1, p2 + w2 + s2), cd if one else cd * c)


def swap_bimodule(m: Bimodule) -> Bimodule:
    """The action conjugated by the swap: both slots flip."""
    flipped = tuple(1 - slot for slot in m.kind.slots)
    return Bimodule(next(k for k in BimodKind if k.slots == flipped),
                    m.alpha, m.beta)


@dataclass
class SwapCommutingReport:
    holds: bool
    witness: Optional[tuple]  # (a1, a2, b1, b2, d, lhs, rhs)
    cases: int
    trials: int
    degree_bound: int
    seed: int

    def __str__(self):
        if self.holds:
            return (f"swap-commuting holds on {self.cases} monomial cases "
                    f"(degree bound {self.degree_bound}) and {self.trials} "
                    f"random trials (seed {self.seed})")
        a1, a2, b1, b2, d, lhs, rhs = self.witness
        return ("swap-commuting FAILS at "
                f"a1={a1}, a2={a2}, b1={b1}, b2={b2}, d={d}: "
                f"{lhs} != {rhs}")


_TRIALS, _SEED = 25, 7  # check_swap_commuting's random phase: cases, seed


def check_swap_commuting(action, degree_bound: int = 3, *,
                         alg: FreeAlgebra | None = None) -> SwapCommutingReport:
    """Bounded verification that an action commutes with its swap action.

    ``action`` is a Bimodule or any function (a, d, b) -> Tensor2 that is a
    bimodule action; the swap action is derived from it.  The check runs
    over all ring arguments of length <= 1 and all d = w (x) w' with
    |w| + |w'| <= degree_bound, then over ``_TRIALS`` seeded pseudo-random
    higher-degree cases.  A negative verdict carries the first violating
    tuple; this is a bounded verification, not a proof.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    if isinstance(action, Bimodule):
        alg = action.alg
        fwd = action.act
    else:
        if alg is None:
            raise ValueError("a custom action needs an explicit algebra")
        fwd = action

    def star(a, d, b):
        return fwd(a, d.swap(), b).swap()

    def violated(case):
        d, a1, a2, b1, b2 = case
        lhs = fwd(a1, star(a2, d, b2), b1)
        rhs = star(a2, fwd(a1, d, b1), b2)
        return None if lhs == rhs else (a1, a2, b1, b2, d, lhs, rhs)

    ring_args = [alg.one()] + alg.gens()
    tensors = [alg.t2(alg.monomial(w1), alg.monomial(w2))
               for total in range(degree_bound + 1)
               for k in range(total + 1)
               for w1 in alg.words(k) for w2 in alg.words(total - k)]
    rng = random.Random(_SEED)

    def random_word(lo, hi):
        return alg.monomial(tuple(rng.randrange(alg.ngens)
                                  for _ in range(rng.randint(lo, hi))))

    def random_cases():
        for _ in range(_TRIALS):
            d = alg.t2(random_word(0, degree_bound + 2),
                       random_word(0, degree_bound + 2))
            yield (d, *(random_word(1, 2) for _ in range(4)))

    # one stream: the exhaustive cases, then the random ones
    tried, _, witness = _first_failure(itertools.chain(
        itertools.product(tensors, *[ring_args] * 4), random_cases()), violated)
    cases = min(tried, len(tensors) * len(ring_args) ** 4)
    return SwapCommutingReport(witness is None, witness, cases, tried - cases,
                               degree_bound, _SEED)
