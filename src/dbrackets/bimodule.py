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
    LEFT = "left"
    RIGHT = "right"
    OUTER = "outer"
    INNER = "inner"

    def __str__(self):
        return self.value


_SWAP_KIND = {
    BimodKind.LEFT: BimodKind.RIGHT,
    BimodKind.RIGHT: BimodKind.LEFT,
    BimodKind.OUTER: BimodKind.INNER,
    BimodKind.INNER: BimodKind.OUTER,
}


class Bimodule:
    """One of the four standard A-actions on A (x) A, with a twist pair.

    The action of (a, b) on d = d' (x) d'' is, writing A = alpha(a) and
    B = beta(b):

    * left:   A d' B (x) d''
    * right:  d' (x) A d'' B
    * outer:  A d' (x) d'' B
    * inner:  d' B (x) A d''
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
    """Apply the two-sided action a . d . b of the bimodule m."""
    m.alg._check(a)
    m.alg._check(d)
    m.alg._check(b)
    pa = a if m.alpha.is_identity() else m.alpha(a)
    pb = b if m.beta.is_identity() else m.beta(b)
    kind = m.kind
    data = {}
    for (w1, w2), cd in d.terms.items():
        for u, cu in pa.terms.items():
            for v, cv in pb.terms.items():
                c = cd * cu * cv
                if kind is BimodKind.LEFT:
                    key = (u + w1 + v, w2)
                elif kind is BimodKind.RIGHT:
                    key = (w1, u + w2 + v)
                elif kind is BimodKind.OUTER:
                    key = (u + w1, w2 + v)
                else:  # INNER
                    key = (w1 + v, u + w2)
                _tadd(data, key, c)
    return Tensor2(m.alg, data)


def swap_bimodule(m: Bimodule) -> Bimodule:
    """The action conjugated by the swap; kinds pair up outer/inner, left/right."""
    return Bimodule(_SWAP_KIND[m.kind], m.alpha, m.beta)


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


def check_swap_commuting(action, degree_bound: int = 3, *,
                         alg: FreeAlgebra | None = None,
                         trials: int = 25, seed: int = 7) -> SwapCommutingReport:
    """Bounded verification that an action commutes with its swap action.

    ``action`` is a Bimodule or any function (a, d, b) -> Tensor2 that is a
    bimodule action; the swap action is derived from it.  The check runs
    over all ring arguments of length <= 1 and all d = w (x) w' with
    |w| + |w'| <= degree_bound, then over ``trials`` seeded pseudo-random
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
    rng = random.Random(seed)

    def random_word(lo, hi):
        return alg.monomial(tuple(rng.randrange(alg.ngens)
                                  for _ in range(rng.randint(lo, hi))))

    def random_cases():
        for _ in range(trials):
            d = alg.t2(random_word(0, degree_bound + 2),
                       random_word(0, degree_bound + 2))
            yield (d, *(random_word(1, 2) for _ in range(4)))

    # one stream: the exhaustive cases, then the random ones
    tried, _, witness = _first_failure(itertools.chain(
        itertools.product(tensors, *[ring_args] * 4), random_cases()), violated)
    cases = min(tried, len(tensors) * len(ring_args) ** 4)
    return SwapCommutingReport(witness is None, witness, cases, tried - cases,
                               degree_bound, seed)
