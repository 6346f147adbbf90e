"""Differential tests: the library against the benchmark's naive oracle.

``perfbench/oracle.py`` is written from the README's conventions on the
standard library alone and never imports ``dbrackets``; it peels one letter
at a time off a bracket's arguments and builds every Jacobiator from its
definition.  It is loaded by path, since the tier-1 suite collects only
``tests/``.
"""

import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from dbrackets import (AlgEndo, Bimodule, DoubleBracket, Tensor2,
                       eval_bracket, jacobiator, weak_jacobiator)

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
def specs(draw):
    """An oracle spec on x, y: any kind, untwisted or twisted by the flip
    x <-> y, with rational entries; each diagonal entry is d - swap(d), so
    it is cyclically antisymmetric."""
    table = {}
    for g, h in (("x", "x"), ("x", "y"), ("y", "y")):
        terms = draw(entries)
        if g == h:
            terms = terms + [(-c, r, l) for c, l, r in terms]
        table[(g, h)] = terms
    return {"kind": draw(st.sampled_from(("outer", "inner", "right", "left"))),
            "twist": draw(st.sampled_from((None, FLIP))), "entries": table}


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
