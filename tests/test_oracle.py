"""Differential tests: the library against the benchmark's naive oracle.

``perfbench/oracle.py`` is written from the README's conventions on the
standard library alone and never imports ``dbrackets``; it peels one letter
at a time off a bracket's arguments and builds every Jacobiator from its
definition, and induces brackets on matrix entries from the slot
arrangements.  It is loaded by path, since the tier-1 suite collects only
``tests/``.
"""

import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from dbrackets import (AlgEndo, Bimodule, DoubleBracket, MatTensor2, Tensor2,
                       check_entry_jacobi, entry_bracket, eval_bracket, induce,
                       jacobi_sweep, jacobiator, matrix_tensor_bracket,
                       weak_jacobiator)

from helpers import two_gen, xy

_ORACLE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracle", _ORACLE_PATH)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

GENS = ("x", "y")
FLIP = {"x": "y", "y": "x"}


def _word(alg, w):
    return tuple(alg.names[i] for i in w)


def _as_oracle(t):
    """A library tensor as the oracle's dict of name-word tuples."""
    return {tuple(_word(t.alg, w) for w in key): c for key, c in t.terms.items()}


coefficients = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                         st.integers(1, 7))
short_words = st.lists(st.sampled_from(GENS), max_size=1).map(tuple)
entries = st.lists(st.tuples(coefficients, short_words, short_words),
                   min_size=1, max_size=3)


@st.composite
def specs(draw, twists=(None, FLIP)):
    """An oracle spec on x, y: any kind, untwisted or twisted by the flip
    x <-> y (of ``twists``), with rational entries; each diagonal entry is
    d - swap(d), so it is cyclically antisymmetric."""
    table = {}
    for g, h in (("x", "x"), ("x", "y"), ("y", "y")):
        terms = draw(entries)
        if g == h:
            terms = terms + [(-c, r, l) for c, l, r in terms]
        table[(g, h)] = terms
    return {"kind": draw(st.sampled_from(("outer", "inner", "right", "left"))),
            "twist": draw(st.sampled_from(twists)), "entries": table}


def _library_bracket(spec):
    A = two_gen()
    twist = None
    if spec["twist"]:
        x, y = xy(A)
        twist = AlgEndo(A, {"x": y, "y": x})
    table = {}
    for pair, terms in spec["entries"].items():
        data = {}
        for c, left, right in terms:
            key = (tuple(A.gen_index(g) for g in left),
                   tuple(A.gen_index(g) for g in right))
            data[key] = data.get(key, 0) + c
        table[pair] = Tensor2(A, {k: c for k, c in data.items() if c})
    return DoubleBracket.from_pairs(Bimodule(spec["kind"], twist, twist, alg=A),
                                    table)


@settings(max_examples=20, deadline=None)
@given(specs(), st.sampled_from(sorted(oracle.TRANSPOSITION)),
       st.sampled_from(sorted(oracle.TRANSPOSITION)))
def test_library_agrees_with_the_naive_oracle(spec, s, sp):
    db = _library_bracket(spec)
    naive = oracle.NaiveBracket(spec)
    A = db.alg
    words = list(A.words_up_to(2))
    for u, v in itertools.product(words, repeat=2):
        assert _as_oracle(eval_bracket(db, A.monomial(u), A.monomial(v))) == \
            naive.bracket({_word(A, u): 1}, {_word(A, v): 1})
    nonempty = list(A.words_up_to(2, min_degree=1))
    for t in itertools.product(nonempty, repeat=3):
        if sum(map(len, t)) > 4:
            continue
        polys = [A.monomial(w) for w in t]
        names = [_word(A, w) for w in t]
        assert _as_oracle(jacobiator(db, *polys)) == naive.jacobiator(*names)
        assert _as_oracle(weak_jacobiator(db, s, sp, *polys)) == \
            naive.weak_jacobiator(s, sp, *names)


# -- Rep(A, n) ------------------------------------------------------------------

def _entry(names, v):
    g, i, j = v
    return (names[g], i, j)


def _as_oracle_poly(p, names):
    """A library polynomial as the oracle's dict over named entries."""
    return {tuple((_entry(names, v), e) for v, e in m): c
            for m, c in p.terms.items()}


def _oracle_sweep(naive, names, n):
    """The oracle's first Jacobi failure in the library's report terms:
    (count, witness names, defect)."""
    count, witness, defect = oracle.first_jacobi_failure(
        naive, oracle.entry_variables(names, n))
    if witness is not None:
        witness = tuple(f"{g}[{i},{j}]" for g, i, j in witness)
    return count, witness, defect


def _report(r, names):
    return (r.tuples, r.witness,
            {} if r.defect is None else _as_oracle_poly(r.defect, names))


small_polys = st.dictionaries(
    st.lists(st.sampled_from(GENS), max_size=2).map(tuple), coefficients,
    max_size=3)


@settings(max_examples=15, deadline=None)
@given(specs(twists=(None,)), small_polys, small_polys)
def test_induced_structures_agree_with_the_naive_oracle(spec, a, b):
    """Induced tables at n <= 2, the Jacobi sweep's first failure and both
    matrix-tensor conventions, on rational tables of all four kinds."""
    db = _library_bracket(spec)
    A = db.alg
    for n in (1, 2):
        ps = induce(db, n)
        _, table = oracle.induced_table(spec, n)
        assert {(_entry(GENS, v), _entry(GENS, w)): _as_oracle_poly(p, GENS)
                for (v, w), p in ps.table.items()} == table
    naive = oracle.EntryPoisson(table)
    assert _report(jacobi_sweep(ps), GENS) == _oracle_sweep(naive, GENS, 2)
    for convention in ("vdb", "tensor"):
        got = matrix_tensor_bracket(ps, convention, A.poly(a), A.poly(b))
        assert {key: _as_oracle_poly(p, GENS) for key, p in got.items()} == \
            oracle.matrix_tensor(naive, a, b, 2, convention)


@st.composite
def r_tensors(draw):
    """(N, terms) of a random r in Mat_N (x) Mat_N, N <= 3."""
    N = draw(st.integers(1, 3))
    index = st.integers(1, N)
    return N, draw(st.dictionaries(st.tuples(index, index, index, index),
                                   coefficients, max_size=4))


@settings(max_examples=20, deadline=None)
@given(r_tensors())
def test_entry_sweeps_agree_with_the_naive_oracle(case):
    """The entry sweep evaluates increasing triples only; the oracle sweeps
    every triple in product order."""
    N, r = case
    report = check_entry_jacobi(entry_bracket(MatTensor2(N, r)))
    assert _report(report, ("v",)) == \
        _oracle_sweep(oracle.entry_poisson(N, r), ("v",), N)
