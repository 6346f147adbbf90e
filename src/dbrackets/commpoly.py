"""Exact sparse commutative polynomials over orderable variable keys.

Variables are arbitrary hashable, mutually orderable objects: matrix-entry
symbols on coordinate rings of representation spaces, or cyclic words when
working in the symmetric algebra over them.  Monomials are stored as sorted
tuples of (variable, exponent) pairs; coefficients are rationals and zero
terms are never stored, so structural equality is mathematical equality.
Coefficients are stored as in ``freealg``: ``int`` when integral.
"""

from __future__ import annotations

from typing import Callable, Optional

from .freealg import LinComb, _q, _tadd


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    out = dict(m1)
    for v, e in m2:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items(), key=lambda it: it[0]))


def _mono_order(m):
    return (sum(e for _, e in m), m)


class CPoly(LinComb):
    """A finite rational linear combination of commutative monomials."""

    __slots__ = ("terms",)
    _key_order = staticmethod(_mono_order)
    _key_mul = staticmethod(_mono_mul)

    def __init__(self, terms: Optional[dict] = None):
        self.terms = terms if terms is not None else {}

    @staticmethod
    def zero() -> "CPoly":
        return CPoly({})

    @staticmethod
    def const(c) -> "CPoly":
        c = _q(c)
        return CPoly({(): c} if c else {})

    @staticmethod
    def one() -> "CPoly":
        return CPoly.const(1)

    @staticmethod
    def var(v, exp: int = 1) -> "CPoly":
        return CPoly({((v, exp),): 1}) if exp else CPoly.one()

    def _one(self):
        return CPoly.one()

    def degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.terms), default=-1)

    def partials(self, twist: Optional[Callable] = None) -> list:
        """[(v, t(the partial derivative by v))] for the variables v of
        self, sorted by v, from one pass over the terms: the plain partials
        when the twist t is None."""
        data = {}
        for m, c in self.terms.items():
            for idx, (v, e) in enumerate(m):
                rest = m[:idx] + ((v, e - 1),) + m[idx + 1:] if e > 1 \
                    else m[:idx] + m[idx + 1:]
                _tadd(data.setdefault(v, {}), rest, c * e)
        parts = [(v, CPoly(data[v])) for v in sorted(data)]
        return parts if twist is None else [(v, twist(p)) for v, p in parts]

    def substitute(self, mapping: Callable) -> "CPoly":
        """Ring homomorphism determined by variable images mapping(v) -> CPoly."""
        data = {}
        for m, c in self.terms.items():
            term = CPoly({(): c})
            for v, e in m:
                img = mapping(v)
                for _ in range(e):
                    term = term * img
            term.add_into(data)
        return CPoly(data)

    def to_str(self, var_repr: Callable = str) -> str:
        return self._format(lambda m: "*".join(
            f"{var_repr(v)}^{e}" if e > 1 else var_repr(v) for v, e in m))

    def __str__(self):
        return self.to_str()


def poisson_biderivation(table: Callable, f: CPoly, g: CPoly,
                         twist: Optional[Callable] = None) -> CPoly:
    """Extend a bracket on variables to polynomials by the biderivation rules.

    ``table(v, w)`` gives the bracket of two variables.  The untwisted
    extension is sum over variable pairs of df/dv dg/dw {v, w}; when
    ``twist`` is provided it is applied to both partial derivatives, which
    realises the twisted Leibniz rules {f, gh} = t(g){f,h} + {f,g}t(h).
    """
    g_partials, f_partials = g.partials(twist), f.partials(twist)
    data = {}
    for v, fv in f_partials:
        for w, gw in g_partials:
            br = table(v, w)
            if br.is_zero():
                continue
            (fv * gw * br).add_into(data)
    return CPoly(data)


def cyclic_jacobi(table: Callable, f, g, h, twist=None) -> CPoly:
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}} for the bracket that
    ``poisson_biderivation`` extends from ``table`` with ``twist``."""
    def br(p, q):
        return poisson_biderivation(table, p, q, twist)
    return br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))
