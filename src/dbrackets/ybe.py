"""Classical Yang-Baxter equation over matrix algebras.

Tensors r in Mat_N (x) Mat_N are sparse maps from elementary-matrix index
quadruples to rationals.  The defect is evaluated exactly in the triple
tensor algebra as the reversed-placement equation
[r12, r13] + [r12, r23] + [r32, r13] = 0, where r32 is swap(r) placed in
slots (2, 3).  Any r also determines a linear bracket on the entries of a
single generic matrix, [r, V (x) 1] - [swap(r), 1 (x) V]; its Jacobi
identity is implied by the reversed-placement equation (Babelon-Viallet).
The textbook CYBE [r12, r13] + [r12, r23] + [r13, r23] = 0 agrees with it
for skew r but does not suffice otherwise: standard_r(N), N >= 2, solves
the textbook form, has defect [C23, r13] with C = casimir(N), and its
entry bracket violates Jacobi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bimodule import BimodKind
from .commpoly import CPoly
from .freealg import FreeAlgebra, LinComb, _q, _tadd
from .parsing import ParseError, parse_integer, parse_rational
from .repspace import PoissonStructure, RepJacobiReport, _jacobi_sweep


# The largest matrix size that a tensor file or ``ybe standard N`` may ask
# for.  The entry-Jacobi sweep covers N^6 triples and evaluates the 41 664
# strictly increasing ones at N = 8, about 2 s on one core; the CYBE
# defect of one term places it N times.
MAX_MATRIX_SIZE = 8


class _OverMatrices(LinComb):
    """A combination of tensor products of elementary N x N matrices; the
    key lists each slot's row and column, and the space is N."""

    __slots__ = ("N", "terms")

    def _space(self):
        return self.N

    def _like(self, terms: dict):
        out = object.__new__(type(self))
        out.N, out.terms = self.N, terms
        return out

    def __str__(self):
        parts = [f"{c}*" + "(x)".join(f"e[{key[s]},{key[s + 1]}]"
                                      for s in range(0, len(key), 2))
                 for key, c in self.sorted_terms()]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{type(self).__name__} N={self.N} {self}>"


class MatTensor2(_OverMatrices):
    """Sum of r_{ij,kl} e_ij (x) e_kl over 1-based indices up to N."""

    __slots__ = ()

    def __init__(self, N: int, terms: dict | None = None):
        self.N = N
        data = {}
        for key, c in (terms or {}).items():
            if not all(1 <= x <= N for x in key):
                raise ValueError(f"index {key} out of range for N={N}")
            c = _q(c)
            if c:
                data[key] = c
        self.terms = data

    def swap(self) -> "MatTensor2":
        return self._like({(k, l, i, j): c
                           for (i, j, k, l), c in self.terms.items()})

    def embed(self, slots: tuple) -> "MatTensor3":
        """Place the two factors into the given slots of the triple algebra."""
        a, b = slots
        data = {}
        for (i, j, k, l), c in self.terms.items():
            for m in range(1, self.N + 1):
                key = [(m, m)] * 3
                key[a - 1] = (i, j)
                key[b - 1] = (k, l)
                _tadd(data, tuple(key[0] + key[1] + key[2]), c)
        return MatTensor3(self.N, data)


def _units_mul(k1, k2):
    """The componentwise product of two triples of matrix units, e_ij e_kl =
    delta_jk e_il in each slot; None when it is zero."""
    if k1[1] == k2[0] and k1[3] == k2[2] and k1[5] == k2[4]:
        return k1[0], k2[1], k1[2], k2[3], k1[4], k2[5]


class MatTensor3(_OverMatrices):
    """Sparse element of Mat_N (x) Mat_N (x) Mat_N."""

    __slots__ = ()
    _key_mul = staticmethod(_units_mul)

    def __init__(self, N: int, terms: dict | None = None):
        self.N = N
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    def commutator(self, other) -> "MatTensor3":
        return self * other - other * self


def cybe_defect(r: MatTensor2) -> MatTensor3:
    """[r_12, r_13] + [r_12, r_23] + [r_32, r_13], the reversed-placement CYBE.

    Zero iff r solves that equation.  It equals the textbook defect
    [r_12, r_13] + [r_12, r_23] + [r_13, r_23] for skew r only: for
    r + swap(r) = casimir(N) the two differ by [C_23, r_13].
    """
    r12 = r.embed((1, 2))
    r13 = r.embed((1, 3))
    r23 = r.embed((2, 3))
    r32 = r.swap().embed((2, 3))
    return (r12.commutator(r13) + r12.commutator(r23) + r32.commutator(r13))


def standard_r(N: int) -> MatTensor2:
    """sum_{i<j} e_ij (x) e_ji + 1/2 sum_i e_ii (x) e_ii."""
    if N < 1:
        raise ValueError("N must be >= 1")
    terms = {}
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            terms[(i, j, j, i)] = 1
        terms[(i, i, i, i)] = Fraction(1, 2)
    return MatTensor2(N, terms)


def casimir(N: int) -> MatTensor2:
    """sum_{i,j} e_ij (x) e_ji; invariant under the swap."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return MatTensor2(N, {(i, j, j, i): 1
                          for i in range(1, N + 1) for j in range(1, N + 1)})


# ---------------------------------------------------------------------------
# the induced bracket on generic-matrix entries
# ---------------------------------------------------------------------------

_ENTRY_ALG = FreeAlgebra(["v"])


def _vvar(i: int, j: int) -> CPoly:
    return CPoly.var((0, i, j))


@dataclass
class EntryBracket:
    """Linear bracket on the entries of one generic N x N matrix.

    The table realises the entries of [r, V (x) 1] - [swap(r), 1 (x) V]
    and is antisymmetric under swapping the two index pairs for any r.
    """

    N: int
    table: dict  # ((i,j),(k,l)) -> CPoly, linear in the entry variables

    def pair(self, ij: tuple, kl: tuple) -> CPoly:
        return self.table.get((ij, kl), CPoly.zero())

    def poisson_structure(self) -> PoissonStructure:
        table = {((0,) + ij, (0,) + kl): p
                 for (ij, kl), p in self.table.items() if not p.is_zero()}
        return PoissonStructure(_ENTRY_ALG, self.N, BimodKind.RIGHT, table)


def entry_bracket(r: MatTensor2) -> EntryBracket:
    """{v_ij, v_kl} as the ((i,j),(k,l)) coefficient of [r, V1] - [r°, V2]."""
    N = r.N
    rs = r.swap()
    table = {}
    rng = range(1, N + 1)
    for i in rng:
        for j in rng:
            for k in rng:
                for l in rng:
                    acc = {}
                    for a in rng:
                        for c, (p, q) in (
                                (r.terms.get((i, a, k, l), 0), (a, j)),
                                (-r.terms.get((a, j, k, l), 0), (i, a)),
                                (-rs.terms.get((i, j, k, a), 0), (a, l)),
                                (rs.terms.get((i, j, a, l), 0), (k, a))):
                            if c:
                                _vvar(p, q).add_into(acc, c)
                    if acc:
                        table[((i, j), (k, l))] = CPoly(acc)
    return EntryBracket(N, table)


def check_entry_jacobi(eb: EntryBracket) -> RepJacobiReport:
    """Sweep the Jacobi defect over the triples of entry variables.

    The table of any r is antisymmetric, which is checked first; the
    sweep then evaluates only strictly increasing triples, and finds the
    witness of the full sweep (see ``repspace._jacobi_sweep``).  Another
    table gets the full sweep.  ``tuples`` counts the triples covered.
    """
    return _jacobi_sweep(eb.poisson_structure(), increasing=all(
        eb.pair(kl, ij) == -p for (ij, kl), p in eb.table.items()))


# ---------------------------------------------------------------------------
# sparse text format: one "i j k l coeff" line per term
# ---------------------------------------------------------------------------

def format_mat_tensor2(r: MatTensor2) -> str:
    lines = [f"{i} {j} {k} {l} {c}" for (i, j, k, l), c in r.sorted_terms()]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_mat_tensor2(text: str) -> MatTensor2:
    terms = {}
    max_idx = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"line {lineno}: expected 'i j k l coeff', got {raw!r}")
        try:
            key = tuple(parse_integer(p) for p in parts[:4])
        except ParseError as exc:
            raise ValueError(f"line {lineno}: indices are positive integers, "
                             f"got {raw!r}: {exc.reason}") from None
        if min(key) < 1:
            raise ValueError(f"line {lineno}: indices are positive integers, "
                             f"got {raw!r}")
        if max(key) > MAX_MATRIX_SIZE:
            raise ValueError(f"line {lineno}: index {max(key)} is above the "
                             f"largest matrix size, {MAX_MATRIX_SIZE}")
        try:
            c = parse_rational(parts[4])
        except ParseError as exc:
            raise ValueError(f"line {lineno}: {exc.reason}") from None
        terms[key] = terms.get(key, 0) + c
        max_idx = max(max_idx, *key)
    return MatTensor2(max(max_idx, 1), terms)
