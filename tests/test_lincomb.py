"""The shared linear-combination core under all six coefficient classes.

Each class contributes a pair of elements of one ambient space and, where
the class has more than one space, an element of another space; the linear
identities, hashing and the space check are then the same test.  The
printed forms are pinned per class.
"""

import itertools
import random
from fractions import Fraction

import pytest

from dbrackets import (CPoly, FreeAlgebra, MatTensor2, MatTensor3, Tensor3,
                       casimir, poly_mul, standard_r, tensor2_alg_mul)

A = FreeAlgebra(["x", "y"])
B = FreeAlgebra(["x"])
X, Y = A.gens()
ONE = A.one()


def _ncpoly():
    return (X * Y - Y.scale(2) + ONE.scale("1/2"), Y * X + ONE.scale(3),
            B.gen("x"))


def _tensor2():
    return (A.t2(X, Y) - A.unit2().scale(2), A.t2(Y, X * X), B.unit2())


def _tensor3():
    return (A.t3(X, ONE, Y).scale("-1/2") + A.t3(Y, Y, Y), A.t3(ONE, X, ONE),
            B.t3(B.one(), B.one(), B.gen("x")))


def _cpoly():
    a, b = CPoly.var("a"), CPoly.var("b")
    return (a * b - CPoly.const("1/3"), CPoly.var("a", 2) + b, None)


def _mattensor2():
    return standard_r(2), casimir(2).scale("2/3"), standard_r(3)


def _mattensor3():
    return (standard_r(2).embed((1, 2)), casimir(2).embed((1, 3)),
            standard_r(3).embed((1, 2)))


CASES = {"NCPoly": _ncpoly, "Tensor2": _tensor2, "Tensor3": _tensor3,
         "CPoly": _cpoly, "MatTensor2": _mattensor2, "MatTensor3": _mattensor3}

# per class, two elements built from integers only
INTEGRAL = {
    "NCPoly": lambda: (X * Y - Y.scale(2) + ONE.scale(3), Y * X),
    "Tensor2": lambda: (A.t2(X, Y) - A.unit2().scale(2), A.t2(Y, X * X)),
    "Tensor3": lambda: (A.t3(X, ONE, Y).scale(-2) + A.t3(Y, Y, Y),
                        A.t3(ONE, X, ONE)),
    "CPoly": lambda: (CPoly.var("a") * CPoly.var("b") - CPoly.const(3),
                      CPoly.var("a", 2)),
    "MatTensor2": lambda: (casimir(2).scale(3),
                           MatTensor2(2, {(1, 2, 1, 2): 5})),
    "MatTensor3": lambda: (casimir(2).embed((1, 2)), casimir(2).embed((1, 3))),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_linear_identities(name):
    a, b, _ = CASES[name]()
    assert type(a).__name__ == name
    assert not a.is_zero() and not b.is_zero()
    assert a + b - b == a
    assert b + a == a + b
    assert -(-a) == a
    assert 2 * a == a + a == a.scale(2)
    assert Fraction(1, 2) * a + a.scale("1/2") == a
    assert a - a == a.scale(0)
    assert a.scale(0).is_zero()
    assert (a + (-a)).is_zero()
    # coefficients are nonzero rationals, never floats; integral inputs
    # keep them integers
    assert all(type(c) in (int, Fraction) and c
               for c in (a + b).terms.values())
    i, j = INTEGRAL[name]()
    assert all(type(c) is int
               for c in (i.scale(3) - j + (-i)).terms.values())
    assert 0 not in (a + b - a).terms.values()


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_values_hash_equal(name):
    a, b, _ = CASES[name]()
    same = (a + b) - b
    assert same == a and same is not a
    assert hash(same) == hash(a)
    assert len({a, same, b}) == 2
    assert a != b and a != 0 and a != "a"


# commutative polynomials have a single ambient ring
@pytest.mark.parametrize("name", sorted(set(CASES) - {"CPoly"}))
def test_mixing_ambient_spaces_raises(name):
    a, _, other = CASES[name]()
    assert a != other
    with pytest.raises(ValueError):
        a + other
    with pytest.raises(ValueError):
        a - other
    with pytest.raises(ValueError):
        other + a


def test_mattensor_products_check_size():
    with pytest.raises(ValueError):
        standard_r(2).embed((1, 2)) * standard_r(3).embed((1, 2))


def test_mattensor2_keeps_its_index_check():
    with pytest.raises(ValueError):
        MatTensor2(2, {(1, 2, 3, 1): 1})
    # arithmetic results are built without re-checking, and stay in range
    r = standard_r(2) + casimir(2)
    assert all(1 <= i <= 2 for key in r.terms for i in key)


# -- printed forms ------------------------------------------------------------

def test_ncpoly_printing():
    assert str(ONE) == "1"
    assert str(A.zero()) == "0"
    assert str(ONE.scale(-3)) == "-3"
    assert str(-X + Y) == "-x + y"
    assert str(ONE.scale(-3) + (X * Y).scale("1/2") + Y * Y) == \
        "-3 + 1/2*x*y + y*y"
    assert repr(X - ONE) == "<NCPoly -1 + x>"


def test_tensor_printing():
    assert str(A.unit2()) == "1 (x) 1"
    assert str(A.t2(X, Y) - A.unit2().scale(2)) == "-2*1 (x) 1 + x (x) y"
    assert str(A.t3(X, ONE, Y).scale("-1/2") + A.t3(Y, Y, Y)) == \
        "-1/2*x (x) 1 (x) y + y (x) y (x) y"
    assert str(Tensor3(A, {})) == "0"
    assert repr(A.t2(Y, X)) == "<Tensor2 y (x) x>"


def test_cpoly_printing():
    a, b = CPoly.var("a"), CPoly.var("b")
    p = CPoly.const(-3) + CPoly.var("a", 2).scale("1/2") + a * b
    assert str(p) == "-3 + a*b + 1/2*a^2"
    assert str(CPoly.one()) == "1"
    assert str(-b + a * a * a) == "-b + a^3"
    assert p.to_str(lambda v: v.upper()) == "-3 + A*B + 1/2*A^2"
    assert repr(CPoly.zero()) == "<CPoly 0>"


def test_mattensor_printing():
    assert str(standard_r(2)) == ("1/2*e[1,1](x)e[1,1] + 1*e[1,2](x)e[2,1] "
                                  "+ 1/2*e[2,2](x)e[2,2]")
    assert str(-MatTensor2(2, {(1, 2, 2, 1): 1})) == "-1*e[1,2](x)e[2,1]"
    assert str(MatTensor2(1, {(1, 1, 1, 1): 2}).embed((1, 2))) == \
        "2*e[1,1](x)e[1,1](x)e[1,1]"
    assert str(MatTensor3(2)) == "0"
    assert repr(MatTensor2(2, {(2, 1, 1, 2): "1/3"})) == \
        "<MatTensor2 N=2 1/3*e[2,1](x)e[1,2]>"


def test_negative_powers_raise():
    with pytest.raises(ValueError):
        CPoly.var("a") ** -1
    with pytest.raises(ValueError):
        X ** -1
    assert CPoly.var("a") ** 0 == CPoly.one()


# -- the one product: LinComb.__mul__ ----------------------------------------

def test_products_across_classes_raise_type_error():
    # an operand of another class is taken for a scalar, and is not one
    with pytest.raises(TypeError):
        X * A.t2(X, Y)
    with pytest.raises(TypeError):
        CPoly.var("a") * X
    with pytest.raises(TypeError):
        standard_r(2).embed((1, 2)) * standard_r(2)


def test_poly_mul_and_tensor2_alg_mul_are_the_product():
    for p, q in itertools.permutations(_ncpoly()[:2]):
        assert poly_mul(p, q) == p * q
    for d, e in itertools.permutations(_tensor2()[:2]):
        assert tensor2_alg_mul(d, e) == d * e
    assert poly_mul(X, Y).terms == {(0, 1): 1}
    assert tensor2_alg_mul(A.t2(X, Y), A.t2(Y, ONE)) == A.t2(X * Y, Y)


def _dense(t, N):
    """A MatTensor3 as its Kronecker matrix of size N^3, rows from (i, k, u)
    and columns from (j, l, v) of each key e_ij (x) e_kl (x) e_uv."""
    def index(a, b, c):
        return ((a - 1) * N + b - 1) * N + c - 1

    m = [[0] * N ** 3 for _ in range(N ** 3)]
    for (i, j, k, l, u, v), c in t.terms.items():
        m[index(i, k, u)][index(j, l, v)] += c
    return m


def _random_mattensor3(rng, N, terms):
    return MatTensor3(N, {tuple(rng.randint(1, N) for _ in range(6)):
                          Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                          for _ in range(terms)})


@pytest.mark.parametrize("seed", range(5))
def test_mattensor3_product_matches_kronecker_matrices(seed):
    """(A (x) B (x) C)(A' (x) B' (x) C') = AA' (x) BB' (x) CC', and the
    Kronecker product turns this into one matrix product of size N^3."""
    N = 2
    rng = random.Random(seed)
    s, t = (_random_mattensor3(rng, N, 12) for _ in range(2))
    ds, dt = _dense(s, N), _dense(t, N)
    naive = [[sum(ds[r][k] * dt[k][c] for k in range(N ** 3))
              for c in range(N ** 3)] for r in range(N ** 3)]
    assert _dense(s * t, N) == naive
    assert all(c for c in (s * t).terms.values())
