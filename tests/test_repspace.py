"""Induced structures on generic-matrix coordinate rings."""

import gc
import itertools
import math
import weakref
from fractions import Fraction

import pytest

from dbrackets import (AlgEndo, Bimodule, BimodKind, CPoly, DoubleBracket,
                       FreeAlgebra, eval_bracket, eval_nc, induce,
                       jacobi_defect, jacobi_sweep, matrix_tensor_bracket,
                       mult_bracket, poisson_biderivation, poisson_eval,
                       swap_equivalent, trace_bracket)
from dbrackets import repspace
from dbrackets.repspace import MAX_ENTRY_VARIABLES, PoissonStructure
from dbrackets.ybe import casimir, entry_bracket

from helpers import (inner_generic, monomials, outer_generic, outer_poisson,
                     right_const, right_generic, twisted_ctr, two_gen, xy)
from identities import check_morphism, check_rep_morphism


def var(g, i, j):
    return CPoly.var((g, i, j))


def test_eval_nc_examples():
    A = two_gen()
    x, y = xy(A)
    m = eval_nc(A.one(), 2)
    assert m.entry(1, 1) == CPoly.one() and m.entry(1, 2) == CPoly.zero()
    m = eval_nc(x * y, 1)
    assert m.entry(1, 1) == var(0, 1, 1) * var(1, 1, 1)
    m = eval_nc(x + y, 3)
    for i in range(1, 4):
        for j in range(1, 4):
            assert m.entry(i, j) == var(0, i, j) + var(1, i, j)


def test_induce_outer_constant_delta_pattern():
    A = two_gen()
    db = DoubleBracket.from_pairs(Bimodule("outer", alg=A),
                                  {("x", "y"): A.unit2()})
    ps = induce(db, 2)
    for i, j, k, l in itertools.product((1, 2), repeat=4):
        expect = CPoly.one() if (k == j and i == l) else CPoly.zero()
        assert ps.pair_bracket((0, i, j), (1, k, l)) == expect


def test_induce_right_constant_delta_pattern():
    A = two_gen()
    ps = induce(right_const(A), 2)
    for i, j, k, l in itertools.product((1, 2), repeat=4):
        expect = CPoly.one() if (i == j and k == l) else CPoly.zero()
        assert ps.pair_bracket((0, i, j), (1, k, l)) == expect


def test_induce_outer_linear_bracket_table():
    # oracle: substituting d = x (x) 1 - 1 (x) x into the outer arrangement
    # gives {x_ij, x_kl} = x_kj delta_il - delta_kj x_il
    A = two_gen()
    ps = induce(outer_poisson(A), 2)
    for i, j, k, l in itertools.product((1, 2), repeat=4):
        expect = CPoly.zero()
        if i == l:
            expect = expect + var(0, k, j)
        if k == j:
            expect = expect - var(0, i, l)
        assert ps.pair_bracket((0, i, j), (0, k, l)) == expect


def test_induce_rejects_unequal_twists():
    A = two_gen()
    x, y = xy(A)
    alpha = AlgEndo(A, {"x": y, "y": x})
    beta = AlgEndo.identity(A)
    db = DoubleBracket.from_pairs(Bimodule("outer", alpha, beta),
                                  {("x", "y"): A.unit2()})
    with pytest.raises(ValueError):
        induce(db, 2)


def test_twisted_induce_allowed_but_sweep_refuses():
    from helpers import twisted_ctr
    A = two_gen()
    ps = induce(twisted_ctr(A), 2)
    assert not ps.is_untwisted()
    with pytest.raises(ValueError):
        jacobi_sweep(ps)


def test_poisson_eval_unit_and_leibniz():
    A = two_gen()
    ps = induce(right_const(A), 1)
    x11, y11 = var(0, 1, 1), var(1, 1, 1)
    assert poisson_eval(ps, x11, CPoly.one()).is_zero()
    assert poisson_eval(ps, x11, y11 * y11) == y11.scale(2)


def test_poisson_eval_antisymmetric_and_biderivation():
    A = two_gen()
    ps = induce(outer_poisson(A), 2)
    vs = [CPoly.var(v) for v in ps.variables()]
    polys = [vs[0] * vs[3] - vs[5], vs[1] + vs[2] * vs[2], vs[7] * vs[4]]
    for f in polys:
        for g in polys:
            assert poisson_eval(ps, f, g) == -poisson_eval(ps, g, f)
            for h in polys:
                assert poisson_eval(ps, f, g * h) == \
                    g * poisson_eval(ps, f, h) + poisson_eval(ps, f, g) * h


@pytest.mark.parametrize("n", [2, 3])
def test_jacobi_sweep_outer_poisson(n):
    A = two_gen()
    assert jacobi_sweep(induce(outer_poisson(A), n)).holds


@pytest.mark.parametrize("n", [2, 3])
def test_jacobi_sweep_right_weak_poisson(n):
    A = two_gen()
    assert jacobi_sweep(induce(right_const(A), n)).holds


def test_jacobi_defect_zero_structure():
    A = two_gen()
    ps = induce(DoubleBracket.zero(Bimodule("outer", alg=A)), 2)
    f, g, h = var(0, 1, 1), var(1, 2, 1), var(0, 2, 2)
    assert jacobi_defect(ps, f, g, h).is_zero()


@pytest.mark.parametrize("n", [0, -1])
def test_induce_rejects_empty_matrices(n):
    with pytest.raises(ValueError, match="matrix size must be >= 1"):
        induce(right_const(two_gen()), n)


def test_long_words_need_no_recursion():
    A = two_gen()
    x, y = xy(A)
    ps = induce(right_const(A), 1)
    assert trace_bracket(ps, x ** 1500, y) == \
        CPoly.var((0, 1, 1), 1499).scale(1500)
    assert eval_nc(x ** 1500 - y, 1).trace() == \
        CPoly.var((0, 1, 1), 1500) - var(1, 1, 1)


def test_long_word_adds_one_memo_entry():
    from dbrackets import repspace
    A = FreeAlgebra(["x"])
    eval_nc(A.one(), 1)
    memo = repspace._WORD_CACHE[(A.names, 1)]
    before = len(memo)
    assert eval_nc(A.gen(0) ** 4000, 1).entry(1, 1) == \
        CPoly.var((0, 1, 1), 4000)
    assert len(memo) == before + 1


def test_identity_twist_is_stored_as_untwisted():
    A = two_gen()
    x, y = xy(A)
    flip = AlgEndo(A, {"x": y, "y": x})
    table = induce(outer_poisson(A), 2).table
    for twist in (None, AlgEndo.identity(A), flip.after(flip)):
        ps = PoissonStructure(A, 2, BimodKind.OUTER, table, twist)
        assert ps.twist is None and ps.twist_images is None
        assert ps.is_untwisted()
    ps = PoissonStructure(A, 2, BimodKind.OUTER, table, flip)
    assert ps.twist is flip and not ps.is_untwisted()
    assert len(ps.twist_images) == A.ngens * 2 * 2
    # a bracket over explicitly given identity twists induces an untwisted
    # structure, with the same sweep as the bracket without them
    ident = AlgEndo.identity(A)
    db = DoubleBracket.from_pairs(Bimodule("outer", ident, ident),
                                  outer_poisson(A).gen_table)
    ps = induce(db, 2)
    assert ps.twist is None and ps.twist_images is None
    assert str(jacobi_sweep(ps)) == str(jacobi_sweep(induce(outer_poisson(A), 2)))


def test_twisted_induce_exposes_twist_images():
    A = two_gen()
    x, y = xy(A)
    alpha = AlgEndo(A, {"x": x * y + A.one(), "y": y.scale(2)})
    db = DoubleBracket.from_pairs(Bimodule("outer", alpha, alpha),
                                  {("x", "y"): A.unit2()})
    n = 2
    ps = induce(db, n)
    assert len(ps.twist_images) == A.ngens * n * n
    for g in range(A.ngens):
        m = eval_nc(alpha(A.gen(g)), n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert ps.twist_images[(g, i, j)] == m.entry(i, j)
    # the twisted Leibniz rule {f, gh} = t(g){f,h} + {f,g}t(h)
    f, g, h = var(0, 1, 2), var(1, 2, 1), var(0, 2, 2)
    t = ps.twist_images
    assert poisson_eval(ps, f, g * h) == \
        t[(1, 2, 1)] * poisson_eval(ps, f, h) + \
        poisson_eval(ps, f, g) * t[(0, 2, 2)]
    assert induce(outer_poisson(A), n).twist_images is None


def _partial(f, v):
    """df/dv, one scan of f per variable, as CPoly.partial computed it."""
    data = {}
    for m, c in f.terms.items():
        for idx, (w, e) in enumerate(m):
            if w == v:
                rest = m[:idx] + ((w, e - 1),) + m[idx + 1:] if e > 1 \
                    else m[:idx] + m[idx + 1:]
                data[rest] = data.get(rest, 0) + c * e
    return CPoly({m: c for m, c in data.items() if c})


def _variables(f):
    return sorted({v for m in f.terms for v, _ in m})


def _per_variable_biderivation(ps, f, g):
    """poisson_eval with the partials taken one variable at a time."""
    t = (lambda p: p) if ps.is_untwisted() else ps._twist_poly
    out = CPoly.zero()
    for v in _variables(f):
        for w in _variables(g):
            out = out + t(_partial(f, v)) * t(_partial(g, w)) \
                * ps.pair_bracket(v, w)
    return out


def test_partials_equal_the_per_variable_derivatives():
    a, b, c = var(0, 1, 1), var(1, 2, 1), var(0, 1, 2)
    polys = [CPoly.zero(), CPoly.const(Fraction(3, 4)), a,
             a ** 3 * b - (b * c).scale(Fraction(2, 5)) + c ** 2 + a,
             (a + b + c) ** 4, CPoly.var("s", 5) * CPoly.var("r")]
    for f in polys:
        assert f.partials() == [(v, _partial(f, v)) for v in _variables(f)]
        assert all(not pv.is_zero() for _, pv in f.partials())


def test_twisted_poisson_eval_equals_the_per_variable_extension():
    from helpers import twisted_ctr
    A = two_gen()
    x, y = xy(A)
    alpha = AlgEndo(A, {"x": x * y + A.one(), "y": y.scale(2)})
    db = DoubleBracket.from_pairs(Bimodule("outer", alpha, alpha),
                                  {("x", "y"): A.t2(x, y), ("x", "x"): A.t2(
                                      y, A.one()) - A.t2(A.one(), y)})
    for ps in (induce(twisted_ctr(A), 2), induce(db, 2)):
        assert not ps.is_untwisted()
        f = var(0, 1, 2) * var(1, 2, 1) - var(0, 2, 2) ** 2
        g = var(1, 1, 1) ** 2 + var(0, 1, 2).scale(3) * var(1, 2, 2)
        for p, q in itertools.product((f, g, var(1, 2, 1)), repeat=2):
            assert poisson_eval(ps, p, q) == \
                _per_variable_biderivation(ps, p, q)


def _per_kind_indices(kind, i, j, k, l):
    """The index pairs of the two tensor slots, as written per kind before
    kinds became slot pairs."""
    if kind is BimodKind.OUTER:
        return (k, j), (i, l)
    if kind is BimodKind.INNER:
        return (i, l), (k, j)
    if kind is BimodKind.RIGHT:
        return (i, j), (k, l)
    return (k, l), (i, j)  # LEFT


def test_induced_tables_equal_the_per_kind_index_table(monkeypatch):
    import dbrackets.repspace as repspace
    from dbrackets import TwistPairAuto, apply_equivalence
    from helpers import bracket_corpus
    A = two_gen()
    x, y = xy(A)
    flip = AlgEndo(A, {"x": y, "y": x})
    corpus = bracket_corpus(A)
    corpus += [apply_equivalence(db, TwistPairAuto(flip, flip))
               for db in corpus]
    assert {(db.kind(), db.bimodule.is_untwisted()) for db in corpus} == \
        {(kind, flag) for kind in BimodKind for flag in (True, False)}
    tables = [induce(db, 2).table for db in corpus]
    monkeypatch.setattr(repspace, "_arranged_indices", _per_kind_indices)
    assert tables == [induce(db, 2).table for db in corpus]


def test_jacobi_sweep_detects_failure():
    # any bivector in two commuting variables is Poisson, so n = 1 cannot
    # expose the failure; n = 2 does
    from helpers import right_generic
    A = two_gen()
    assert jacobi_sweep(induce(right_generic(A), 1)).holds
    r = jacobi_sweep(induce(right_generic(A), 2))
    assert not r.holds and r.defect is not None


@pytest.mark.parametrize("n", [2, 3])
def test_trace_bracket_outer_matches_mult_bracket(n):
    A = two_gen()
    db = outer_poisson(A)
    ps = induce(db, n)
    for a in monomials(A, 3):
        for b in monomials(A, 3):
            assert trace_bracket(ps, a, b) == \
                eval_nc(mult_bracket(db, a, b), n).trace()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trace_bracket_inner_matches_mult_bracket(n):
    A = two_gen()
    for db in (swap_equivalent(outer_poisson(A)), inner_generic(A)):
        assert db.kind() is BimodKind.INNER
        ps = induce(db, n)
        words = monomials(A, 2 if n == 3 else 3)
        for a in words:
            for b in words:
                assert trace_bracket(ps, a, b) == \
                    eval_nc(mult_bracket(db, a, b), n).trace()


def _product_of_traces(d, n):
    """sum c tr X(w') tr X(w'') over the terms c w' (x) w'' of d."""
    expect = CPoly.zero()
    for (w1, w2), c in d.terms.items():
        expect = expect + (eval_nc(d.alg.monomial(w1), n).trace()
                           * eval_nc(d.alg.monomial(w2), n).trace()).scale(c)
    return expect


@pytest.mark.parametrize("n", [2, 3])
def test_trace_bracket_right_is_product_of_traces(n):
    A = two_gen()
    db = right_const(A)
    ps = induce(db, n)
    for a in monomials(A, 3):
        for b in monomials(A, 3):
            assert trace_bracket(ps, a, b) == \
                _product_of_traces(eval_bracket(db, a, b), n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trace_bracket_left_is_product_of_traces(n):
    A = two_gen()
    for db in (swap_equivalent(right_const(A)), swap_equivalent(right_generic(A))):
        assert db.kind() is BimodKind.LEFT
        ps = induce(db, n)
        words = monomials(A, 2 if n == 3 else 3)
        for a in words:
            for b in words:
                assert trace_bracket(ps, a, b) == \
                    _product_of_traces(eval_bracket(db, a, b), n)


def test_trace_bracket_right_constant_traces():
    A = two_gen()
    x, y = xy(A)
    ps = induce(right_const(A), 2)
    assert trace_bracket(ps, x, y) == CPoly.const(4)


@pytest.mark.parametrize("n", [2, 3])
def test_matrix_tensor_bracket_tensor_convention_identity(n):
    A = two_gen()
    x, y = xy(A)
    ps = induce(right_const(A), n)
    grid = matrix_tensor_bracket(ps, "tensor", x, y)
    expect = {(i, i, k, k): CPoly.one()
              for i in range(1, n + 1) for k in range(1, n + 1)}
    assert grid == expect


@pytest.mark.parametrize("n", [2, 3])
def test_matrix_tensor_bracket_vdb_convention_identity(n):
    A = two_gen()
    x, y = xy(A)
    ps = induce(right_const(A), n)
    grid = matrix_tensor_bracket(ps, "vdb", x, y)
    expect = {(i, j, j, i): CPoly.one()
              for i in range(1, n + 1) for j in range(1, n + 1)}
    assert grid == expect


def test_matrix_tensor_bracket_matches_sweedler_matrices():
    from dbrackets import eval_bracket
    A = two_gen()
    n = 2
    cases = [(outer_poisson(A), "vdb"), (right_const(A), "tensor")]
    for db, convention in cases:
        ps = induce(db, n)
        for a in monomials(A, 2):
            for b in monomials(A, 2):
                grid = matrix_tensor_bracket(ps, convention, a, b)
                d = eval_bracket(db, a, b)
                expect = {}
                for (w1, w2), c in d.terms.items():
                    m1 = eval_nc(A.monomial(w1), n)
                    m2 = eval_nc(A.monomial(w2), n)
                    for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
                        p = (m1.entry(i, j) * m2.entry(k, l)).scale(c)
                        if not p.is_zero():
                            key = (i, j, k, l)
                            expect[key] = expect.get(key, CPoly.zero()) + p
                expect = {k: v for k, v in expect.items() if not v.is_zero()}
                assert grid == expect


def test_matrix_tensor_bracket_zero_and_bad_convention():
    A = two_gen()
    x, y = xy(A)
    ps = induce(DoubleBracket.zero(Bimodule("right", alg=A)), 2)
    assert matrix_tensor_bracket(ps, "tensor", x, y) == {}
    with pytest.raises(ValueError):
        matrix_tensor_bracket(ps, "kronecker", x, y)


def test_trace_and_tensor_brackets_refuse_another_algebra():
    # a and b of Q<a, b> would otherwise be read as x and y by index
    A = two_gen()
    x, y = xy(A)
    ps = induce(outer_poisson(A), 2)
    a, b = FreeAlgebra(["a", "b"]).gens()
    for args in ((a, b), (x, b), (a, y)):
        with pytest.raises(ValueError, match="mismatched generator tables"):
            trace_bracket(ps, *args)
        for convention in ("vdb", "tensor"):
            with pytest.raises(ValueError, match="mismatched generator tables"):
                matrix_tensor_bracket(ps, convention, *args)


def _collapse_fixture(kind):
    A = two_gen()
    B = FreeAlgebra(["t"])
    x, y = xy(A)
    t = B.gen("t")
    one_a, one_b = A.one(), B.one()
    db1 = DoubleBracket.from_pairs(
        Bimodule(kind, alg=A),
        {("x", "x"): A.t2(x, one_a) - A.t2(one_a, x),
         ("y", "y"): A.t2(y, one_a) - A.t2(one_a, y),
         ("x", "y"): A.t2(x, one_a) - A.t2(one_a, y)})
    db2 = DoubleBracket.from_pairs(
        Bimodule(kind, alg=B),
        {("t", "t"): B.t2(t, one_b) - B.t2(one_b, t)})
    phi = AlgEndo(A, {"x": t, "y": t}, codomain=B)
    return phi, db1, db2


@pytest.mark.parametrize("kind", ["outer", "right"])
@pytest.mark.parametrize("n", [1, 2])
def test_rep_morphism_collapse(kind, n):
    phi, db1, db2 = _collapse_fixture(kind)
    assert check_morphism(phi, db1, db2)
    assert check_rep_morphism(phi, db1, db2, n)


def test_rep_morphism_identity():
    A = two_gen()
    db = right_const(A)
    assert check_rep_morphism(AlgEndo.identity(A), db, db, 2)


def test_abelianized_constant_bracket():
    A = FreeAlgebra(["x1", "x2", "x3"])
    lam = {(0, 1): Fraction(2), (0, 2): Fraction(-1), (1, 2): Fraction(1, 3)}
    entries = {k: A.unit2().scale(c) for k, c in lam.items()}
    db = DoubleBracket.from_pairs(Bimodule("right", alg=A), entries)
    ps = induce(db, 1)
    assert ps.n == 1
    for (i, j), c in lam.items():
        assert ps.pair_bracket((i, 1, 1), (j, 1, 1)) == CPoly.const(c)
        assert ps.pair_bracket((j, 1, 1), (i, 1, 1)) == CPoly.const(-c)
    assert jacobi_sweep(ps).holds


def test_abelianized_swap_is_left_kind():
    A = two_gen()
    ps = induce(swap_equivalent(right_const(A)), 1)
    assert ps.kind is BimodKind.LEFT


def test_abelianized_zero_bracket():
    A = two_gen()
    ps = induce(DoubleBracket.zero(Bimodule("right", alg=A)), 1)
    assert all(p.is_zero() for p in ps.table.values())


def test_n1_consistency_right_kind():
    """At n = 1 the induced structure is the commutative image of the
    bracket: {x, y} = product of the two Sweedler factors, commutatively."""
    from dbrackets import eval_bracket
    A = two_gen()
    from helpers import right_generic
    db = right_generic(A)
    ps = induce(db, 1)
    for gi in range(2):
        for gj in range(2):
            d = db.gen_table[(gi, gj)]
            expect = CPoly.zero()
            for (w1, w2), c in d.terms.items():
                expect = expect + (eval_nc(A.monomial(w1), 1).entry(1, 1)
                                   * eval_nc(A.monomial(w2), 1).entry(1, 1)).scale(c)
            assert ps.pair_bracket((gi, 1, 1), (gj, 1, 1)) == expect


@pytest.mark.parametrize("n", [1, 2])
def test_swap_equivalent_induces_identical_tables(n):
    from helpers import right_generic, outer_generic
    A = two_gen()
    for db in (outer_poisson(A), right_const(A), right_generic(A),
               outer_generic(A)):
        ps1 = induce(db, n)
        ps2 = induce(swap_equivalent(db), n)
        keys = set(ps1.table) | set(ps2.table)
        for k in keys:
            assert ps1.pair_bracket(*k) == ps2.pair_bracket(*k)


# -- cross-layer proof identities ----------------------------------------------

def _tensor3_entries(t3, n, idx1, idx2, idx3):
    """Evaluate a tensor-cube element at three entry-index pairs."""
    alg = t3.alg
    out = CPoly.zero()
    for (w1, w2, w3), c in t3.terms.items():
        out = out + (eval_nc(alg.monomial(w1), n).entry(*idx1)
                     * eval_nc(alg.monomial(w2), n).entry(*idx2)
                     * eval_nc(alg.monomial(w3), n).entry(*idx3)).scale(c)
    return out


def test_jacobi_defect_matches_jacobiator_arrangements():
    """The entry-triple Jacobi defect equals a difference of Jacobiator
    values with kind-specific index placements, generator by generator;
    this pins down every induced index arrangement at once, also for
    structures that are not Poisson.  At n = 2 on every index tuple; at
    n = 3 on a fixed sample of them, for the brackets and for the brackets
    scaled by 1/3, whose rational tables compute on an integer twin."""
    import itertools as it
    import random
    from dbrackets import jacobiator, weak_jacobiator
    from helpers import outer_generic, right_generic

    A = two_gen()
    fixtures = {
        "outer": outer_generic(A),
        "inner": swap_equivalent(outer_generic(A)),
        "right": right_generic(A),
        "left": swap_equivalent(right_generic(A)),
    }
    gens = [A.gen(0), A.gen(1)]
    sample = random.Random(3).sample(list(it.product(range(1, 4), repeat=6)),
                                     32)
    for n, scale, tuples in (
            (2, 1, list(it.product(range(1, 3), repeat=6))),
            (3, 1, sample), (3, Fraction(1, 3), sample)):
        for kind, db in fixtures.items():
            if scale != 1:
                db = _scaled(db, scale)
            ps = induce(db, n)
            for ga, gb, gc in it.product(range(2), repeat=3):
                a, b, c = gens[ga], gens[gb], gens[gc]
                for i, j, k, l, u, v in tuples:
                    lhs = jacobi_defect(ps, CPoly.var((ga, i, j)),
                                        CPoly.var((gb, k, l)),
                                        CPoly.var((gc, u, v)))
                    if kind == "outer":
                        rhs = (_tensor3_entries(jacobiator(db, a, b, c), n,
                                                (u, j), (i, l), (k, v))
                               - _tensor3_entries(jacobiator(db, a, c, b), n,
                                                  (k, j), (i, v), (u, l)))
                    elif kind == "inner":
                        rhs = (_tensor3_entries(jacobiator(db, a, b, c), n,
                                                (i, v), (k, j), (u, l))
                               - _tensor3_entries(jacobiator(db, a, c, b), n,
                                                  (i, l), (u, j), (k, v)))
                    elif kind == "right":
                        rhs = _tensor3_entries(
                            weak_jacobiator(db, "12", "12", a, b, c), n,
                            (i, j), (k, l), (u, v))
                    else:  # left
                        rhs = (_tensor3_entries(jacobiator(db, a, b, c), n,
                                                (u, v), (i, j), (k, l))
                               - _tensor3_entries(jacobiator(db, b, a, c), n,
                                                  (u, v), (k, l), (i, j)))
                    assert lhs == rhs, (n, scale, kind, ga, gb, gc,
                                        i, j, k, l, u, v)


def test_entry_brackets_of_words_match_arrangements():
    """poisson_eval extends the generator-entry table so that the bracket
    of entries of arbitrary words is the arranged bracket value; this is
    the defining property, and it exercises the twisted Leibniz path."""
    import itertools as it
    from dbrackets import eval_bracket
    from helpers import twisted_ctr, right_generic

    A = two_gen()
    n = 2
    rng = range(1, n + 1)
    x, y = xy(A)
    alpha = AlgEndo(A, {"x": y, "y": x})
    twisted_right = DoubleBracket.from_pairs(
        Bimodule("right", alpha, alpha),
        {("x", "y"): A.t2(x, A.one()) - A.t2(A.one(), y)})
    for db, arrange in (
            (outer_poisson(A), lambda i, j, k, l: ((k, j), (i, l))),
            (twisted_ctr(A), lambda i, j, k, l: ((k, j), (i, l))),
            (right_generic(A), lambda i, j, k, l: ((i, j), (k, l))),
            (twisted_right, lambda i, j, k, l: ((i, j), (k, l))),
            (swap_equivalent(right_generic(A)),
             lambda i, j, k, l: ((k, l), (i, j))),
            (swap_equivalent(outer_poisson(A)),
             lambda i, j, k, l: ((i, l), (k, j)))):
        ps = induce(db, n)
        words = [A.monomial(w) for w in A.words_up_to(2, 1)]
        for a in words:
            for b in words:
                d = eval_bracket(db, a, b)
                ma, mb = eval_nc(a, n), eval_nc(b, n)
                for i, j, k, l in it.product(rng, repeat=4):
                    idx1, idx2 = arrange(i, j, k, l)
                    expect = CPoly.zero()
                    for (w1, w2), c in d.terms.items():
                        expect = expect + (
                            eval_nc(A.monomial(w1), n).entry(*idx1)
                            * eval_nc(A.monomial(w2), n).entry(*idx2)).scale(c)
                    got = poisson_eval(ps, ma.entry(i, j), mb.entry(k, l))
                    assert got == expect, (db.kind(), a, b, i, j, k, l)


# -- the integer twin of a rational structure ----------------------------------

def _scaled(db, lam):
    return DoubleBracket.from_full_table_unchecked(
        db.bimodule, {key: d.scale(lam) for key, d in db.gen_table.items()})


def _fraction_bracket(ps, f, g):
    """{f, g} by the biderivation rules over ``ps.table`` itself."""
    twist = None if ps.is_untwisted() else ps._twist_poly
    return poisson_biderivation(ps.pair_bracket, f, g, twist=twist)


def _fraction_sweep(ps):
    """(count, witness, defect) of the first failing variable triple in
    product order, every defect computed over ``ps.table`` in Fractions."""
    def br(f, g):
        return _fraction_bracket(ps, f, g)
    count = 0
    for vs in itertools.product(ps.variables(), repeat=3):
        count += 1
        f, g, h = map(CPoly.var, vs)
        defect = br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))
        if not defect.is_zero():
            return count, tuple(map(ps.format_entry, vs)), defect
    return count, None, None


def _rational_structures():
    """(structure, does Jacobi hold): rational tables of the four untwisted
    kinds, Poisson ones and failing ones, at n = 2 and one at n = 3."""
    A = two_gen()
    holding = [_scaled(outer_poisson(A), Fraction(3, 2)),
               swap_equivalent(_scaled(outer_poisson(A), Fraction(-2, 5))),
               right_const(A, Fraction(2, 3)),
               swap_equivalent(right_const(A, Fraction(5, 4)))]
    failing = [_scaled(outer_generic(A), Fraction(2, 5)),
               swap_equivalent(_scaled(outer_generic(A), Fraction(-5, 3))),
               _scaled(right_generic(A), Fraction(3, 4)),
               swap_equivalent(_scaled(right_generic(A), Fraction(-1, 6)))]
    out = [(induce(db, 2), True) for db in holding]
    out += [(induce(db, 2), False) for db in failing]
    out.append((induce(failing[0], 3), False))
    return out


def test_a_rational_structure_keeps_an_integer_twin():
    A = two_gen()
    structures = [ps for ps, _ in _rational_structures()]
    structures.append(induce(_scaled(twisted_ctr(A), Fraction(3, 2)), 2))
    assert induce(outer_poisson(A), 2)._twin is None
    for ps in structures:
        den = math.lcm(*(c.denominator for p in ps.table.values()
                         for c in p.terms.values()))
        assert den > 1 and ps._inv == Fraction(1, den)
        twin = ps._twin
        assert twin._twin is None
        assert (twin.alg, twin.n, twin.kind, twin.twist) == \
            (ps.alg, ps.n, ps.kind, ps.twist)
        assert twin.table == {k: p.scale(den) for k, p in ps.table.items()}
        assert all(type(c) is int for p in twin.table.values()
                   for c in p.terms.values())


def test_jacobi_sweep_on_the_twin_equals_the_fraction_route():
    """Witness, count and defect; the defect is quadratic in the table, so
    it is rescaled by 1/D^2."""
    kinds = set()
    for ps, holds in _rational_structures():
        kinds.add((ps.kind, holds))
        r = jacobi_sweep(ps)
        assert r.holds == holds
        assert (r.tuples, r.witness, r.defect) == _fraction_sweep(ps)
    assert len(kinds) == 8


def test_brackets_on_the_twin_equal_the_fraction_route():
    """poisson_eval, trace_bracket and matrix_tensor_bracket in both
    conventions, untwisted and flip-twisted, with rational arguments."""
    A = two_gen()
    x, y = xy(A)
    structures = [ps for ps, _ in _rational_structures()]
    structures.append(induce(_scaled(twisted_ctr(A), Fraction(3, 2)), 2))
    a, b = x * y.scale(Fraction(1, 3)) - y, x * x + y * x.scale(-2)
    for ps in structures:
        ma, mb = eval_nc(a, ps.n), eval_nc(b, ps.n)
        f, g = ma.entry(1, 2) * mb.entry(2, 1), ma.trace() + mb.entry(1, 1)
        assert poisson_eval(ps, f, g) == _fraction_bracket(ps, f, g)
        assert trace_bracket(ps, a, b) == \
            _fraction_bracket(ps, ma.trace(), mb.trace())
        rng = range(1, ps.n + 1)
        for convention in ("vdb", "tensor"):
            expect = {}
            for i, j, k, l in itertools.product(rng, repeat=4):
                br = _fraction_bracket(ps, ma.entry(i, j), mb.entry(k, l))
                if not br.is_zero():
                    expect[(k, j, i, l) if convention == "vdb"
                           else (i, j, k, l)] = br
            got = matrix_tensor_bracket(ps, convention, a, b)
            assert got == expect and list(got) == list(expect)
            assert got


def test_a_finished_structure_is_freed_without_the_cyclic_collector():
    """No structure holds a reference cycle, so its twin goes with it."""
    A = two_gen()
    x, y = xy(A)
    gc.disable()
    try:
        for lam in (1, Fraction(3, 2)):
            ps = induce(right_const(A, lam), 2)
            assert (ps._twin is None) == (lam == 1)
            assert jacobi_sweep(ps).holds
            trace_bracket(ps, x * y, y)
            matrix_tensor_bracket(ps, "vdb", x, y * y)
            ref = weakref.ref(ps)
            del ps
            assert ref() is None
    finally:
        gc.enable()


def _one_generator_bracket(kind):
    """<v,v> = v (x) 1 - 1 (x) v on one generator v."""
    A = FreeAlgebra(["v"])
    v = A.gen(0)
    return DoubleBracket.from_pairs(Bimodule(kind, alg=A), {
        ("v", "v"): A.t2(v, A.one()) - A.t2(A.one(), v)})


def test_induce_admits_rings_up_to_the_variable_bound():
    assert MAX_ENTRY_VARIABLES == 32  # 2 generators at n = 4
    assert len(induce(outer_poisson(two_gen()), 4).variables()) == 32
    db = _one_generator_bracket("outer")
    assert len(induce(db, 5).variables()) == 25
    with pytest.raises(ValueError, match="36 entry variables, above the "
                                         "largest, 32"):
        induce(db, 6)


def test_induce_refuses_a_large_ring_before_any_work():
    A = FreeAlgebra(["p", "q"])
    db = DoubleBracket.from_pairs(Bimodule("outer", alg=A),
                                  {("p", "q"): A.unit2()})
    with pytest.raises(ValueError, match=r"Rep\(A, 50\) of 2 generator\(s\) "
                                         r"has 5000 entry variables"):
        induce(db, 50)
    with pytest.raises(ValueError, match="3 generator"):
        induce(DoubleBracket.zero(Bimodule("right", alg=FreeAlgebra(
            ["a", "b", "c"]))), 4)
    assert not [key for key in repspace._WORD_CACHE if key[0] == A.names]


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("kind,sign", [("outer", 1), ("inner", -1)])
def test_tensor_notation_ties_induce_entry_bracket_and_tensor_grid(
        kind, sign, N):
    """<v,v> = v (x) 1 - 1 (x) v induces sign/2 times the entry bracket of
    P = casimir(N), and its "tensor" grid is {X (x), X} = sign [P, X (x) 1]:
    delta_il x_kj - delta_jk x_il at E_ij (x) E_kl."""
    ps = induce(_one_generator_bracket(kind), N)
    entry = entry_bracket(casimir(N)).poisson_structure().table
    assert ps.table == {key: p.scale(Fraction(sign, 2))
                        for key, p in entry.items()}
    v = ps.alg.gen(0)
    expected = {}
    for i, j, k, l in itertools.product(range(1, N + 1), repeat=4):
        p = ((var(0, k, j) if i == l else CPoly.zero())
             - (var(0, i, l) if j == k else CPoly.zero()))
        if not p.is_zero():
            expected[(i, j, k, l)] = p.scale(sign)
    assert matrix_tensor_bracket(ps, "tensor", v, v) == expected
