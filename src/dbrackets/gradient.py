"""Gradient-type double brackets on the free algebra in three generators.

The commutative prototype assigns to a potential the Poisson bracket whose
generator values are curls of its partial derivatives.  Here the partials
are the canonical double derivations valued in the tensor square, and the
bracket on generator pairs is their epsilon-tensor combination.  The
construction produces a genuine (cyclically antisymmetric) bracket exactly
for the polynomials whose homogeneous coefficients are constant on
permutation orbits of index tuples; deciding the Poisson property then
reduces to generator triples because the bracket lives on the untwisted
outer bimodule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .bimodule import Bimodule, BimodKind
from .dbracket import (DoubleBracket, JacVerdict, _relabelling_blocks,
                       eval_bracket, is_poisson)
from .freealg import FreeAlgebra, NCPoly, Tensor2, _power_breach, _tadd

# The longest word that ``symmetrize`` sums over every ordering of its
# positions: 7! = 5040 terms.
MAX_SYMMETRIZE_LENGTH = 7

# epsilon^{ijk}, totally antisymmetric with epsilon^{123} = 1 (0-based keys)
_EPSILON = {}
for _perm, _sign in ((("012"), 1), (("120"), 1), (("201"), 1),
                     (("021"), -1), (("210"), -1), (("102"), -1)):
    _EPSILON[tuple(int(ch) for ch in _perm)] = _sign


def epsilon(i: int, j: int, k: int) -> int:
    return _EPSILON.get((i, j, k), 0)


def double_derivation(j, p: NCPoly) -> Tensor2:
    """The double derivation sending generator g_k to delta_{jk} 1 (x) 1.

    On a word it splits at every occurrence of the generator, producing
    prefix (x) suffix; the operation lowers the degree by one.
    """
    alg = p.alg
    jj = alg.gen_index(j)
    data = {}
    for w, c in p.terms.items():
        for pos, letter in enumerate(w):
            if letter == jj:
                _tadd(data, (w[:pos], w[pos + 1:]), c)
    return Tensor2(alg, data)


def is_fully_noncommutative(f: NCPoly) -> bool:
    """Are the coefficients constant on permutation orbits of index tuples?

    The words sharing a letter multiset (their sorted word, which fixes
    the degree too) must all be present with one common coefficient.  Runs
    in polynomial time, unlike a scan over the symmetric group.
    """
    groups = {}
    for w, c in f.terms.items():
        groups.setdefault(tuple(sorted(w)), []).append(c)
    for key, coeffs in groups.items():
        if len(set(coeffs)) != 1:
            return False
        counts = {}
        for letter in key:
            counts[letter] = counts.get(letter, 0) + 1
        orbit = math.factorial(len(key))
        for m in counts.values():
            orbit //= math.factorial(m)
        if len(coeffs) != orbit:
            return False
    return True


def gradient_gen_table(f: NCPoly) -> dict:
    """The raw generator-pair table of epsilon-combined double derivations."""
    alg = f.alg
    if alg.ngens != 3:
        raise ValueError("gradient brackets are defined over three generators")
    partials = [double_derivation(k, f) for k in range(3)]
    table = {}
    for i in range(3):
        for j in range(3):
            acc = {}
            for k in range(3):
                partials[k].add_into(acc, epsilon(i, j, k))
            table[(i, j)] = Tensor2(alg, acc)
    return table


def gradient_bracket(f: NCPoly) -> DoubleBracket:
    """The double bracket with generator values from the potential f.

    Raises for inputs that are not fully non-commutative, where the table
    would violate cyclic antisymmetry.
    """
    if not is_fully_noncommutative(f):
        raise ValueError("potential is not fully non-commutative; the table "
                         "would break cyclic antisymmetry")
    return DoubleBracket(Bimodule(BimodKind.OUTER, alg=f.alg),
                         gradient_gen_table(f))


def symmetrize(alg: FreeAlgebra, letters) -> NCPoly:
    """Sum the word over all permutations of its positions, multiplicities kept.

    Repeated letters contribute repeated identical terms, so the word on
    x^2 symmetrises to 2 x^2.  The length bound guards the factorial growth.
    """
    word = tuple(alg.gen_index(g) for g in letters)
    if len(word) > MAX_SYMMETRIZE_LENGTH:
        raise ValueError(f"word of length {len(word)} exceeds the "
                         f"symmetrization bound {MAX_SYMMETRIZE_LENGTH}")
    data = {}
    for perm in itertools.permutations(word):
        _tadd(data, perm, 1)
    return NCPoly(alg, data)


# ---------------------------------------------------------------------------
# the catalogued families
# ---------------------------------------------------------------------------

FAMILIES = ("monomial", "sum-power", "linear", "custom")


def _family_power(family: str, base: NCPoly, degree: int) -> NCPoly:
    """base**degree, refused before any product when it is over the
    expansion budgets (``freealg.MAX_TERMS``, ``MAX_WORD_LENGTH``)."""
    breach = _power_breach(base, degree)
    if breach is not None:
        raise ValueError(f"the {family} potential of degree {degree} has "
                         f"{breach}")
    return base ** degree


def family_polynomial(alg: FreeAlgebra, family: str, *, gen=None,
                      degree: Optional[int] = None, coeffs=None,
                      poly: Optional[NCPoly] = None) -> NCPoly:
    """The potential of one of the catalogued families.

    * monomial: g^d for a chosen generator g and degree d;
    * sum-power: (g_1 + g_2 + g_3)^d;
    * linear: c_0 + c_1 g_1 + c_2 g_2 + c_3 g_3;
    * custom: any explicitly given polynomial.
    """
    if alg.ngens != 3:
        raise ValueError("gradient families live over three generators")
    if family == "monomial":
        if gen is None or degree is None:
            raise ValueError("monomial family needs gen and degree")
        return _family_power(family, alg.gen(gen), degree)
    if family == "sum-power":
        if degree is None:
            raise ValueError("sum-power family needs degree")
        return _family_power(family, alg.gen(0) + alg.gen(1) + alg.gen(2),
                             degree)
    if family == "linear":
        if coeffs is None or len(coeffs) != 4:
            raise ValueError("linear family needs four coefficients "
                             "(constant first)")
        c0, c1, c2, c3 = coeffs
        return (alg.one().scale(c0) + alg.gen(0).scale(c1)
                + alg.gen(1).scale(c2) + alg.gen(2).scale(c3))
    if family == "custom":
        if poly is None:
            raise ValueError("custom family needs the polynomial")
        return poly
    raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")


@dataclass
class ClassifyReport:
    family: str
    potential: NCPoly
    verdict: JacVerdict
    casimir_ok: bool
    casimir_defects: dict  # generator name -> Tensor2, nonzero ones only

    def __str__(self):
        lines = [f"family: {self.family}",
                 f"potential: {self.potential}",
                 f"verdict: {self.verdict}"]
        if self.casimir_ok:
            lines.append("casimir: <<f, g>> = 0 for every generator g")
        else:
            for name, d in sorted(self.casimir_defects.items()):
                lines.append(f"casimir FAILS: <<f, {name}>> = {d}")
        return "\n".join(lines)


def classify(alg: FreeAlgebra, family: str, **kwargs) -> ClassifyReport:
    """Build the gradient bracket of a family member and run its verdicts.

    The Poisson decision is exact (generator triples suffice on the
    untwisted outer bimodule); the report also states whether the potential
    is a Casimir of its own bracket.

    A Casimir defect <<f, g_k>> is evaluated unless an earlier generator
    of its relabelling block (``dbracket._relabelling_blocks``) has a zero
    defect.  Let the transposition tau join g_h and g_k in a block:
    <<tau a, tau b>> = s (tau (x) tau)<<a, b>> on generators, hence on all
    of A by the outer Leibniz rules.  The table's entries are
    sum_m epsilon(i, j, m) d_m f, so comparing table[(tau i, tau j)] with
    s (tau (x) tau) table[(i, j)] gives d_m(f + s tau f) = 0 for every m,
    and only constants have zero double derivatives: tau f = -s f + c.
    Then -s <<f, tau g>> = <<tau f, tau g>> = s (tau (x) tau)<<f, g>>,
    that is <<f, tau g>> = -(tau (x) tau)<<f, g>>.  The transpositions
    that join a block connect all its generators, so one zero defect makes
    the whole block's zero.  Nonzero defects are all evaluated, so the
    report is the same as with every generator evaluated.
    """
    f = family_polynomial(alg, family, **kwargs)
    db = gradient_bracket(f)
    verdict = is_poisson(db)
    blocks = _relabelling_blocks(db)
    zero, defects = set(), {}
    for k in range(3):
        if zero.intersection(blocks[k]):
            continue
        d = eval_bracket(db, f, alg.gen(k))
        if d.is_zero():
            zero.add(k)
        else:
            defects[alg.names[k]] = d
    return ClassifyReport(family, f, verdict, not defects, defects)
