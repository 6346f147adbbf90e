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
from fractions import Fraction
from typing import Callable, Optional

from .bimodule import BimodKind
from .commpoly import CPoly, poisson_biderivation
from .dbracket import DoubleBracket
from .freealg import (AlgEndo, FreeAlgebra, NCPoly, Necklace, _first_failure,
                      _nonzero, _word_image)

# entry variables are (generator index, row, col) with 1-based row/col
EntryVar = tuple


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
    """Index pairs receiving the two tensor slots, per bimodule kind."""
    if kind is BimodKind.OUTER:
        return (k, j), (i, l)
    if kind is BimodKind.INNER:
        return (i, l), (k, j)
    if kind is BimodKind.RIGHT:
        return (i, j), (k, l)
    return (k, l), (i, j)  # LEFT


class PoissonStructure:
    """Antisymmetric (twisted) biderivation on a coordinate ring.

    Determined by its values on pairs of generator-entry variables; the
    extension to arbitrary polynomials follows the (twisted) biderivation
    rules.  ``twist`` is None for the untwisted case, else the algebra
    endomorphism whose entrywise action twists the Leibniz rules;
    ``twist_images`` then maps each entry variable to its image under that
    action (None when untwisted).  Nothing changes after construction.
    """

    __slots__ = ("alg", "n", "kind", "twist", "table", "twist_images")

    def __init__(self, alg: FreeAlgebra, n: int, kind: BimodKind,
                 table: dict, twist: Optional[AlgEndo] = None):
        self.alg = alg
        self.n = n
        self.kind = kind
        self.twist = twist
        self.table = table
        self.twist_images = (None if self.is_untwisted()
                             else _entry_images(twist, n))

    def variables(self) -> list:
        return [(g, i, j) for g in range(self.alg.ngens)
                for i in range(1, self.n + 1) for j in range(1, self.n + 1)]

    def pair_bracket(self, v: EntryVar, w: EntryVar) -> CPoly:
        return self.table.get((v, w), CPoly.zero())

    def is_untwisted(self) -> bool:
        return self.twist is None or self.twist.is_identity()

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
    if db.bimodule.alpha != db.bimodule.beta:
        raise ValueError("inducing on matrix entries needs equal twists")
    alg, kind = db.alg, db.kind()
    twist = None if db.bimodule.is_untwisted() else db.bimodule.alpha
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
    return PoissonStructure(alg, n, kind, table, twist)


def poisson_eval(ps: PoissonStructure, f: CPoly, g: CPoly) -> CPoly:
    """Extend the entry table to polynomials by the biderivation rules."""
    twist = None if ps.is_untwisted() else ps._twist_poly
    return poisson_biderivation(ps.pair_bracket, f, g, twist=twist)


def jacobi_defect(ps: PoissonStructure, f: CPoly, g: CPoly, h: CPoly) -> CPoly:
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}}."""
    return (poisson_eval(ps, f, poisson_eval(ps, g, h))
            + poisson_eval(ps, g, poisson_eval(ps, h, f))
            + poisson_eval(ps, h, poisson_eval(ps, f, g)))


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

    def kv_lines(self):
        lines = [f"n={self.n}", f"tuples_checked={self.tuples}"]
        if self.holds:
            lines.append("max_defect=0")
        else:
            lines.append("max_defect=" + self.defect.to_str(self.format_var))
        return lines


def jacobi_sweep(ps: PoissonStructure) -> RepJacobiReport:
    """Check the Jacobi identity on every generator-entry triple.

    Sufficient for the untwisted kinds, where the defect is a derivation in
    each argument; twisted structures are refused since the sweep would not
    certify anything for them.
    """
    if not ps.is_untwisted():
        raise ValueError("the Jacobi sweep covers untwisted structures only; "
                         "twisted Leibniz rules leave it inconclusive")
    fs = {v: CPoly.var(v) for v in ps.variables()}
    count, witness, defect = _first_failure(
        itertools.product(fs, repeat=3),
        lambda vs: _nonzero(jacobi_defect(ps, *(fs[v] for v in vs))))
    if witness is not None:
        witness = tuple(ps.format_entry(v) for v in witness)
    return RepJacobiReport(witness is None, witness, defect, count, ps.n,
                           ps.format_entry)


def trace_bracket(ps: PoissonStructure, a: NCPoly, b: NCPoly) -> CPoly:
    """{tr X(a), tr X(b)} computed through the biderivation extension."""
    return poisson_eval(ps, eval_nc(a, ps.n).trace(), eval_nc(b, ps.n).trace())


def matrix_tensor_bracket(ps: PoissonStructure, convention: str,
                          a: NCPoly, b: NCPoly) -> dict:
    """Coefficient array of the bracket of two matrix-valued functions.

    ``convention`` chooses the arrangement of {a_ij, b_kl} over elementary
    matrices: "vdb" collects it on E_kj (x) E_il, "tensor" on E_ij (x) E_kl.
    Keys are (i, j, k, l) meaning the coefficient of E_ij (x) E_kl; zero
    coefficients are omitted.
    """
    if convention not in ("vdb", "tensor"):
        raise ValueError(f"convention must be 'vdb' or 'tensor', got {convention!r}")
    n = ps.n
    ma, mb = eval_nc(a, n), eval_nc(b, n)
    out = {}
    rng = range(1, n + 1)
    for i in rng:
        for j in rng:
            fa = ma.entry(i, j)
            for k in rng:
                for l in rng:
                    br = poisson_eval(ps, fa, mb.entry(k, l))
                    if br.is_zero():
                        continue
                    key = (k, j, i, l) if convention == "vdb" else (i, j, k, l)
                    prev = out.get(key)
                    out[key] = br if prev is None else prev + br
    return {k: v for k, v in out.items() if not v.is_zero()}


def check_rep_morphism(phi: AlgEndo, db1: DoubleBracket, db2: DoubleBracket,
                       n: int) -> bool:
    """Does the entrywise extension of phi intertwine the induced brackets?

    Assumes phi is already a verified morphism of the double brackets with
    a shared untwisted outer or right kind; the check runs over all
    generator-entry pairs of the source ring.
    """
    if db1.kind() != db2.kind() or db1.kind() not in (BimodKind.OUTER,
                                                      BimodKind.RIGHT):
        raise ValueError("rep morphism check needs a shared outer or right kind")
    ps1, ps2 = induce(db1, n), induce(db2, n)
    phi_n = _entry_images(phi, n)
    return all(poisson_eval(ps2, phi_n[v], phi_n[w])
               == ps1.pair_bracket(v, w).substitute(phi_n.__getitem__)
               for v, w in itertools.product(ps1.variables(), repeat=2))


def abelianized_bracket(db: DoubleBracket) -> PoissonStructure:
    """The structure induced on commuting variables, i.e. size-1 matrices.

    Right- and left-kind brackets descend to the abelianization, and the
    size-1 coordinate ring realises it with x_i identified with the single
    entry of the generic 1x1 matrix.
    """
    if db.kind() not in (BimodKind.RIGHT, BimodKind.LEFT):
        raise ValueError("only right- and left-kind brackets descend to "
                         "the abelianization")
    return induce(db, 1)


# ---------------------------------------------------------------------------
# trace-function closure
# ---------------------------------------------------------------------------

def _trace_word_functions(alg: FreeAlgebra, n: int, max_len: int):
    """Trace functions of necklace representatives up to the length bound."""
    seen = {}
    for d in range(1, max_len + 1):
        for w in alg.words(d):
            nk = Necklace(alg, w)
            if nk not in seen:
                seen[nk] = eval_nc(nk.lift(), n).trace()
    return sorted(seen.items(), key=lambda it: it[0])


def _solve_exact(columns, target: CPoly):
    """Solve sum_i x_i columns_i = target over the rationals, or return None."""
    monomials = sorted(set(target.terms) | {m for col in columns
                                            for m in col.terms})
    rows = [[col.terms.get(m, Fraction(0)) for col in columns]
            + [target.terms.get(m, Fraction(0))] for m in monomials]
    ncols = len(columns)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][ncols]:
            return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = rows[i][ncols]
    return sol


def express_in_trace_basis(target: CPoly, alg: FreeAlgebra, n: int,
                           max_word_len: int = 3) -> dict:
    """Write a polynomial as a combination of products of trace functions.

    Candidate basis elements are products of tr X(w) over necklace
    representatives with |w| <= max_word_len, of total length up to the
    degree of the target, together with the constant 1.  Raises ValueError
    when the linear solve is inconsistent rather than silently accepting.
    """
    traces = _trace_word_functions(alg, n, max_word_len)
    deg = max(target.degree(), 0)
    products = [((), CPoly.one())]
    frontier = [((), CPoly.one(), 0, 0)]
    while frontier:
        new_frontier = []
        for label, poly, total, start in frontier:
            for idx in range(start, len(traces)):
                nk, tr = traces[idx]
                tot = total + len(nk.word)
                if tot > deg:
                    continue
                lab = label + (nk,)
                prod = poly * tr
                products.append((lab, prod))
                new_frontier.append((lab, prod, tot, idx))
        frontier = new_frontier
    labels = [lab for lab, _ in products]
    sol = _solve_exact([p for _, p in products], target)
    if sol is None:
        raise ValueError("polynomial is not a combination of trace functions "
                         f"of words of length <= {max_word_len}")
    return {lab: c for lab, c in zip(labels, sol) if c}
