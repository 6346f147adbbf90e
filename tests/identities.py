"""Background identities of double brackets, kept as test oracles.

Each function checks or computes one identity from M. Van den Bergh,
"Double Poisson algebras" (Trans. AMS 360, 2008): morphisms of double
brackets and of the induced brackets on Rep(A, n), the Loday defects of
the multiplication bracket, the twisted Jacobiators and the Lie bracket on
cyclic words.  No command, demo or benchmark job reaches them, so the
package does not export them.  None checks its preconditions: each
docstring states what its callers must ensure.
"""

import functools
import itertools

from dbrackets import (NCPoly, Necklace, Tensor3, apply_endo_tensor2,
                       bracket_left, bracket_pair_right, eval_bracket, induce,
                       mult_bracket, poisson_eval)
from dbrackets.dbracket import _cyclic, _eval_words, _mono, _multilinear
from dbrackets.freealg import _expand, _tadd
from dbrackets.repspace import _entry_images


def apply_slotwise(e, t, slots):
    """t with e applied to the words in the given slots of every key, over
    e's codomain; the other slots keep their words, so a map between two
    algebras must be given every slot."""
    data = {}
    for key, c in t.terms.items():
        _expand(data, [e.apply_word(w) if s in slots
                       else NCPoly(e.codomain, {w: 1})
                       for s, w in enumerate(key)], c)
    return type(t)(e.codomain, data)


def check_morphism(phi, db1, db2) -> bool:
    """Does phi intertwine the two brackets?

    Verified on generator pairs of the source, which suffices because both
    sides satisfy the same Leibniz rules in the images.  The two brackets
    must share one untwisted kind, so that those rules really do coincide,
    and phi must map db1's algebra to db2's.
    """
    alg1 = db1.alg
    return all(eval_bracket(db2, phi(alg1.gen(i)), phi(alg1.gen(j)))
               == apply_endo_tensor2(phi, db1.gen_table[(i, j)])
               for i, j in itertools.product(range(alg1.ngens), repeat=2))


def check_rep_morphism(phi, db1, db2, n: int) -> bool:
    """Does the entrywise extension of phi intertwine the induced brackets?

    phi must be a verified morphism of the double brackets, which share an
    untwisted outer or right kind; the check runs over all generator-entry
    pairs of the source ring.
    """
    ps1, ps2 = induce(db1, n), induce(db2, n)
    phi_n = _entry_images(phi, n)
    return all(poisson_eval(ps2, phi_n[v], phi_n[w])
               == ps1.pair_bracket(v, w).substitute(phi_n.__getitem__)
               for v, w in itertools.product(ps1.variables(), repeat=2))


def loday_defect(db, side: str, a, b, c) -> NCPoly:
    """Failure of the left or right Loday identity for the mult bracket."""
    br = functools.partial(mult_bracket, db)
    if side == "left":
        return br(a, br(b, c)) - br(br(a, b), c) - br(b, br(a, c))
    if side == "right":
        return br(br(a, b), c) - br(a, br(b, c)) - br(br(a, c), b)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def twisted_jacobiator(db, side: str, alpha, a, b, c) -> Tensor3:
    """Jacobiator with a twist applied inside each cyclic summand.

    The left version twists the third tensor slot of each left pairing; the
    right version twists the first slot of each pair-right term.  With the
    identity twist the left version is the Jacobiator itself, and the right
    version matches it after conjugation by the (12) factor swap.  alpha
    must be an endomorphism of the bracket's algebra.
    """
    if side == "left":
        def term(db, x, y, z):
            return apply_slotwise(alpha, bracket_left(
                db, _mono(db.alg, x), _eval_words(db, y, z)), (2,))
    elif side == "right":
        def term(db, x, y, z):
            return apply_slotwise(alpha, bracket_pair_right(
                db, _eval_words(db, x, y), _mono(db.alg, z)), (0,))
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _multilinear(db, lambda db, u, v, w: _cyclic(
        functools.partial(term, db), u, v, w), (a, b, c), Tensor3, 2)


def necklace_project(p: NCPoly) -> dict:
    """Project onto A/[A,A]: map each word to its necklace class.

    Returns a map Necklace -> coefficient with zero classes removed; the
    difference of a product taken in either order projects to zero.
    """
    out = {}
    for w, c in p.terms.items():
        _tadd(out, Necklace(p.alg, w), c)
    return out


def lie_on_necklaces(db, na, nb) -> dict:
    """The bracket induced on cyclic words by the mult bracket.

    The bracket must be of the outer or inner kind with equal twists, where
    the mult bracket descends on both sides; the result then does not
    depend on the chosen lifts and is antisymmetric.
    """
    return necklace_project(mult_bracket(db, na.lift(), nb.lift()))
