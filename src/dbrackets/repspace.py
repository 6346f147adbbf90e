"""Coordinate rings of generic-matrix representation spaces.

For a free algebra on r generators and a size n, the coordinate ring is
the commutative polynomial ring on entry variables (g, i, j); a word maps
to the corresponding product of generic matrices.  A double bracket
induces an antisymmetric (twisted) biderivation on this ring, with one
index arrangement per bimodule kind, and the machinery here verifies the
Jacobi identity on entries, computes brackets of traces, and renders the
two matrix-tensor notations.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Optional

from .bimodule import BimodKind
from .commpoly import CPoly, cyclic_jacobi, poisson_biderivation
from .dbracket import DoubleBracket
from .freealg import (AlgEndo, FreeAlgebra, NCPoly, _first_failure,
                      _integer_twin, _integral, _nonzero, _rescaled, _word_image)

# entry variables are (generator index, row, col) with 1-based row/col
EntryVar = tuple

# The most entry variables, g*n^2 for g generators at size n, that
# ``induce`` builds a ring on.  A Jacobi sweep covers their cube: 32 768
# triples at 2 generators and n = 4, where ``rep jacobi 4`` of the outer
# bracket <g,g> = g (x) 1 - 1 (x) g takes about 1.2 s on one core.
MAX_ENTRY_VARIABLES = 32


def entry_name(alg: FreeAlgebra, v: EntryVar) -> str:
    g, i, j = v
    return f"{alg.names[g]}[{i},{j}]"


class MatPoly:
    """A square matrix of commutative polynomials."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows):
        self.n = n
        self.rows = rows

    @staticmethod
    def identity(n: int) -> "MatPoly":
        return MatPoly(n, [[CPoly.one() if i == j else CPoly.zero()
                            for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> CPoly:
        """1-based access, matching the entry-variable convention."""
        return self.rows[i - 1][j - 1]

    def __mul__(self, other: "MatPoly") -> "MatPoly":
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = {}
                for k in range(n):
                    (self.rows[i][k] * other.rows[k][j]).add_into(acc)
                row.append(CPoly(acc))
            rows.append(row)
        return MatPoly(n, rows)

    def trace(self) -> CPoly:
        acc = {}
        for i in range(self.n):
            self.rows[i][i].add_into(acc)
        return CPoly(acc)

    def __eq__(self, other):
        return isinstance(other, MatPoly) and self.n == other.n and self.rows == other.rows


# one memo per (generator names, n): the unit, each generator's generic
# matrix, and the product along every word evaluated (never along its
# prefixes); kept for the life of the process
_WORD_CACHE: dict = {}


def _word_matrix(alg: FreeAlgebra, w, n: int) -> MatPoly:
    """The product of generic matrices along w."""
    memo = _WORD_CACHE.get((alg.names, n))
    if memo is None:
        rng = range(1, n + 1)
        memo = _WORD_CACHE[(alg.names, n)] = {(): MatPoly.identity(n)}
        for g in range(alg.ngens):
            memo[(g,)] = MatPoly(n, [[CPoly.var((g, i, j)) for j in rng]
                                     for i in rng])
    return _word_image(memo, w, lambda g: memo[(g,)], operator.mul)


def eval_nc(p: NCPoly, n: int) -> MatPoly:
    """The algebra homomorphism sending each generator to a generic matrix."""
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    acc = [[{} for _ in range(n)] for _ in range(n)]
    for w, c in p.terms.items():
        for acc_row, row in zip(acc, _word_matrix(p.alg, w, n).rows):
            for data, entry in zip(acc_row, row):
                entry.add_into(data, c)
    return MatPoly(n, [[CPoly(data) for data in row] for row in acc])


def _entry_images(phi: AlgEndo, n: int) -> dict:
    """Entry variable -> its image under the entrywise extension of phi:
    the entries of eval_nc(phi(g), n), one evaluation per generator."""
    out = {}
    for g in range(phi.domain.ngens):
        rows = eval_nc(phi(phi.domain.gen(g)), n).rows
        for i, row in enumerate(rows, 1):
            for j, entry in enumerate(row, 1):
                out[(g, i, j)] = entry
    return out


# ---------------------------------------------------------------------------
# induced biderivations
# ---------------------------------------------------------------------------

def _arranged_indices(kind: BimodKind, i, j, k, l):
    """Index pairs receiving the two tensor slots in {x_ij, y_kl}: y's row
    k goes to the factor that the kind's ``a`` multiplies, its column l to
    the factor that ``b`` multiplies, and i, j fill the other two places."""
    a_slot, b_slot = kind.slots
    rows = (k, i) if a_slot == 0 else (i, k)
    cols = (l, j) if b_slot == 0 else (j, l)
    return (rows[0], cols[0]), (rows[1], cols[1])


class PoissonStructure:
    """Antisymmetric (twisted) biderivation on a coordinate ring.

    Determined by its values on pairs of generator-entry variables; the
    extension to arbitrary polynomials follows the (twisted) biderivation
    rules.  ``twist`` is None exactly when the structure is untwisted (an
    identity twist is stored as None), else the algebra endomorphism whose
    entrywise action twists the Leibniz rules; ``twist_images`` then maps
    each entry variable to its image under that action (None when
    untwisted).  Nothing changes after construction.  ``table`` is kept as
    given; a non-integral one keeps a hidden integer twin
    (``freealg._integer_twin``).
    """

    __slots__ = ("alg", "n", "kind", "twist", "table", "twist_images",
                 "_twin", "_inv", "__weakref__")

    def __init__(self, alg: FreeAlgebra, n: int, kind: BimodKind,
                 table: dict, twist: Optional[AlgEndo] = None):
        if twist is not None and twist.is_identity():
            twist = None
        self.alg = alg
        self.n = n
        self.kind = kind
        self.twist = twist
        self.table = table
        self.twist_images = None if twist is None else _entry_images(twist, n)
        twin, self._inv = _integer_twin(table)
        self._twin = (None if twin is None
                      else PoissonStructure(alg, n, kind, twin, twist))

    def variables(self) -> list:
        return [(g, i, j) for g in range(self.alg.ngens)
                for i in range(1, self.n + 1) for j in range(1, self.n + 1)]

    def pair_bracket(self, v: EntryVar, w: EntryVar) -> CPoly:
        return self.table.get((v, w), CPoly.zero())

    def is_untwisted(self) -> bool:
        return self.twist is None

    def _twist_poly(self, f: CPoly) -> CPoly:
        return f.substitute(self.twist_images.__getitem__)

    def format_entry(self, v: EntryVar) -> str:
        return entry_name(self.alg, v)

    def __repr__(self):
        return (f"<PoissonStructure {self.kind} n={self.n} on "
                f"{self.alg!r}>")


def induce(db: DoubleBracket, n: int) -> PoissonStructure:
    """Fill the generator-entry table from a double bracket.

    The two Sweedler slots of <<a, b>> land on entry indices arranged by
    the bimodule kind; equal twists are carried over, a twist pair with
    different components is rejected.
    """
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    alg, kind = db.alg, db.kind()
    if alg.ngens * n * n > MAX_ENTRY_VARIABLES:
        raise ValueError(
            f"Rep(A, {n}) of {alg.ngens} generator(s) has {alg.ngens * n * n} "
            f"entry variables, above the largest, {MAX_ENTRY_VARIABLES}")
    if db.bimodule.alpha != db.bimodule.beta:
        raise ValueError("inducing on matrix entries needs equal twists")
    table = {}
    rng = range(1, n + 1)
    for (gi, gj), d in db.gen_table.items():
        for i in rng:
            for j in rng:
                for k in rng:
                    for l in rng:
                        (p1, q1), (p2, q2) = _arranged_indices(kind, i, j, k, l)
                        acc = {}
                        for (w1, w2), c in d.terms.items():
                            (_word_matrix(alg, w1, n).entry(p1, q1)
                             * _word_matrix(alg, w2, n).entry(p2, q2)
                             ).add_into(acc, c)
                        if acc:
                            table[((gi, i, j), (gj, k, l))] = CPoly(acc)
    return PoissonStructure(alg, n, kind, table, db.bimodule.alpha)


def _twist_of(ps: PoissonStructure):
    """The map that twists partial derivatives, None when untwisted."""
    return None if ps.is_untwisted() else ps._twist_poly


def poisson_eval(ps: PoissonStructure, f: CPoly, g: CPoly) -> CPoly:
    """Extend the entry table to polynomials by the biderivation rules."""
    ps, inv = _integral(ps)
    return _rescaled(poisson_biderivation(ps.pair_bracket, f, g,
                                          twist=_twist_of(ps)), inv)


def jacobi_defect(ps: PoissonStructure, f: CPoly, g: CPoly, h: CPoly) -> CPoly:
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}}."""
    ps, inv = _integral(ps)
    return _rescaled(cyclic_jacobi(ps.pair_bracket, f, g, h, _twist_of(ps)),
                     inv, 2)


@dataclass
class RepJacobiReport:
    """Outcome of a Jacobi sweep; ``format_var`` names entry variables."""

    holds: bool
    witness: Optional[tuple]
    defect: Optional[CPoly]
    tuples: int
    n: int
    format_var: Callable

    def __str__(self):
        if self.holds:
            return (f"Jacobi identity holds on all {self.tuples} "
                    f"generator-entry triples (n={self.n})")
        v1, v2, v3 = self.witness
        return (f"Jacobi identity FAILS at ({v1}, {v2}, {v3}) "
                f"with defect {self.defect.to_str(self.format_var)}")


def jacobi_sweep(ps: PoissonStructure) -> RepJacobiReport:
    """Check the Jacobi identity on every generator-entry triple.

    Sufficient for the untwisted kinds, where the defect is a derivation in
    each argument; twisted structures are refused since the sweep would not
    certify anything for them.
    """
    return _jacobi_sweep(ps, increasing=False)


def _jacobi_sweep(ps: PoissonStructure, increasing: bool) -> RepJacobiReport:
    """The Jacobi sweep over variable triples in product order, or over the
    strictly increasing ones only.

    The second serves antisymmetric tables.  There the defect is totally
    antisymmetric: it vanishes on a triple with a repeated variable, and
    it fails on a triple exactly when it fails on its sorted permutation,
    which comes no later in product order.  So the first failure of the
    full sweep is strictly increasing, and the increasing sweep finds the
    same witness and defect.  Either way ``tuples`` counts the triples
    covered: all of them on a pass, else the witness's position in
    product order, counted from 1.
    """
    if not ps.is_untwisted():
        raise ValueError("the Jacobi sweep covers untwisted structures only; "
                         "twisted Leibniz rules leave it inconclusive")
    variables = ps.variables()
    fs = [CPoly.var(v) for v in variables]
    m = len(fs)
    triples = (itertools.combinations(range(m), 3) if increasing
               else itertools.product(range(m), repeat=3))
    count, witness, defect = _first_failure(
        triples, lambda t: _nonzero(jacobi_defect(ps, *(fs[i] for i in t))))
    if increasing:
        count = m ** 3 if witness is None else \
            (witness[0] * m + witness[1]) * m + witness[2] + 1
    if witness is not None:
        witness = tuple(ps.format_entry(variables[i]) for i in witness)
    return RepJacobiReport(witness is None, witness, defect, count, ps.n,
                           ps.format_entry)


def trace_bracket(ps: PoissonStructure, a: NCPoly, b: NCPoly) -> CPoly:
    """{tr X(a), tr X(b)} computed through the biderivation extension."""
    ps.alg._check(a)
    ps.alg._check(b)
    return poisson_eval(ps, eval_nc(a, ps.n).trace(), eval_nc(b, ps.n).trace())


def matrix_tensor_bracket(ps: PoissonStructure, convention: str,
                          a: NCPoly, b: NCPoly) -> dict:
    """Coefficient array of the bracket of two matrix-valued functions.

    ``convention`` chooses the arrangement of {a_ij, b_kl} over elementary
    matrices: "vdb" collects it on E_kj (x) E_il, "tensor" on E_ij (x) E_kl.
    Keys are (i, j, k, l) meaning the coefficient of E_ij (x) E_kl; zero
    coefficients are omitted.  Each bracket is sum_v t(da_ij/dv) {v, b_kl},
    read off the Hamiltonian field v -> {v, b_kl} of the entry b_kl, which
    is computed once per entry; each entry's partials are taken once.
    """
    if convention not in ("vdb", "tensor"):
        raise ValueError(f"convention must be 'vdb' or 'tensor', got {convention!r}")
    ps.alg._check(a)
    ps.alg._check(b)
    n = ps.n
    ps, inv = _integral(ps)
    twist = _twist_of(ps)
    a_partials = [[p.partials(twist) for p in row]
                  for row in eval_nc(a, n).rows]
    variables = {v for row in a_partials for parts in row for v, _ in parts}
    fields = [[_hamiltonian_field(ps, variables, p.partials(twist))
               for p in row] for row in eval_nc(b, n).rows]
    out = {}
    for i, a_row in enumerate(a_partials, 1):
        for j, parts in enumerate(a_row, 1):
            for k, field_row in enumerate(fields, 1):
                for l, field in enumerate(field_row, 1):
                    acc = {}
                    for v, fv in parts:
                        xv = field.get(v)
                        if xv is not None:
                            (fv * xv).add_into(acc)
                    if acc:  # both key maps are one-to-one
                        out[(k, j, i, l) if convention == "vdb"
                            else (i, j, k, l)] = _rescaled(CPoly(acc), inv)
    return out


def _hamiltonian_field(ps: PoissonStructure, variables, g_partials) -> dict:
    """{v: {v, g}} over the given variables, where it is nonzero, from the
    twisted partials [(w, t(dg/dw))] of g: {v, g} = sum_w t(dg/dw) {v, w}."""
    field = {}
    for v in variables:
        acc = {}
        for w, gw in g_partials:
            br = ps.table.get((v, w))
            if br is not None:
                (gw * br).add_into(acc)
        if acc:
            field[v] = CPoly(acc)
    return field
