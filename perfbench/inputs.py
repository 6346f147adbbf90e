"""Plain-data inputs of the benchmark and the seeded scalings applied to them.

Everything here is standard-library Python, so the program side
(``workloads.py``) and the independent oracle (``oracle.py``) build their
objects from the same specifications without sharing any code beyond them.

Words are tuples of generator names; ``()`` is the unit word.  A tensor
specification is a list of ``(coefficient, left word, right word)`` terms.
A bracket specification gives the bimodule kind, an optional twist (the
same images are used for alpha and beta) and the generator-pair entries;
reversed pairs follow from cyclic antisymmetry, as in the library.

The seed draws one nonzero scaling per bracket, potential and r-tensor, in
a fixed order per workload.  An input tagged ``"int"`` gets an integer in
[-9, 9] \\ {0}; an input tagged ``"rat"`` gets p/q with 2 <= q <= 7 and
gcd(p, q) = 1, so its denominator is never 1.  Scaling never changes a
verdict or a witness: tables scale by lambda and Jacobiator defects, being
quadratic in the bracket, by lambda squared.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

WORKLOADS = ("word-sweep", "gradient", "rep-space")

XY = ("x", "y")
X123 = ("x1", "x2", "x3")


def _lin(g):
    """g (x) 1 - 1 (x) g."""
    return [(1, (g,), ()), (-1, (), (g,))]


# ---------------------------------------------------------------------------
# double brackets on Q<x, y>
# ---------------------------------------------------------------------------

BRACKETS = {
    "outer_poisson": {"kind": "outer", "twist": None,
                      "entries": {("x", "x"): _lin("x"), ("y", "y"): _lin("y")}},
    "right_const": {"kind": "right", "twist": None,
                    "entries": {("x", "y"): [(1, (), ())]}},
    "right_generic": {"kind": "right", "twist": None,
                      "entries": {("x", "x"): [(1, ("x",), ("y",)),
                                               (-1, ("y",), ("x",))],
                                  ("x", "y"): [(1, ("x",), ()),
                                               (1, (), ("y",))]}},
    "outer_generic": {"kind": "outer", "twist": None,
                      "entries": {("x", "x"): [(1, ("x", "y"), ()),
                                               (-1, (), ("x", "y"))],
                                  ("x", "y"): [(1, ("y",), ("y",)),
                                               (2, (), ("x",))]}},
    "inner_generic": {"kind": "inner", "twist": None,
                      "entries": {("x", "y"): [(1, ("y",), ("y",))]}},
    # the swap-of-generators twist of outer_poisson
    "twisted_ctr": {"kind": "outer", "twist": {"x": "y", "y": "x"},
                    "entries": {("x", "x"): _lin("y"), ("y", "y"): _lin("x")}},
    # linear in x, quadratic in y: Poisson on generators fails only for
    # the y-block, so the n = 4 entry sweep runs long before its witness
    "xy_quadratic": {"kind": "outer", "twist": None,
                     "entries": {("x", "x"): _lin("x"),
                                 ("y", "y"): [(1, ("y", "y"), ()),
                                              (-1, (), ("y", "y"))]}},
}

_SWAP_KIND = {"outer": "inner", "inner": "outer", "left": "right", "right": "left"}


def swap_spec(spec):
    """The swap-equivalent bracket: swapped kind, every entry swapped."""
    return {"kind": _SWAP_KIND[spec["kind"]], "twist": spec["twist"],
            "entries": {pair: [(c, r, l) for c, l, r in terms]
                        for pair, terms in spec["entries"].items()}}


def bracket_spec(name):
    """Spec by name; ``swap:NAME`` is the swap-equivalent of NAME."""
    if name.startswith("swap:"):
        return swap_spec(BRACKETS[name[5:]])
    return BRACKETS[name]


# the seven-bracket corpus: all four kinds, generic and special
CORPUS = ("outer_poisson", "swap:outer_poisson", "right_const",
          "swap:right_const", "right_generic", "outer_generic", "inner_generic")


# ---------------------------------------------------------------------------
# gradient potentials on Q<x1, x2, x3>
# ---------------------------------------------------------------------------

def sum_power(d):
    """(x1 + x2 + x3)^d as {word: coefficient}."""
    return {w: 1 for w in itertools.product(X123, repeat=d)}


def symmetrized(letters):
    """Sum of the word over all position permutations, multiplicities kept."""
    out = {}
    for perm in itertools.permutations(letters):
        out[perm] = out.get(perm, 0) + 1
    return out


POTENTIALS = {
    "sum_power_4": sum_power(4),
    "monomial_x2_8": {("x2",) * 8: 1},
    "sym_x1x2x3": symmetrized(("x1", "x2", "x3")),
    "sym_x1x1x2x3": symmetrized(("x1", "x1", "x2", "x3")),
    "sym_x1x1x2x2x3x3": symmetrized(("x1", "x1", "x2", "x2", "x3", "x3")),
}


# ---------------------------------------------------------------------------
# matrix tensors r in Mat_N (x) Mat_N: {(i, j, k, l): coefficient}
# ---------------------------------------------------------------------------

def standard_r_terms(N):
    terms = {(i, i, i, i): Fraction(1, 2) for i in range(1, N + 1)}
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            terms[(i, j, j, i)] = Fraction(1)
    return terms


R_TENSORS = {
    "standard_6": (6, standard_r_terms(6)),
    "standard_3": (3, standard_r_terms(3)),
    "e12e12_4": (4, {(1, 2, 1, 2): Fraction(1)}),
    # h (x) e - e (x) h with h = e11 - e22, e = e12: skew, solves both forms
    "jordanian": (2, {(1, 1, 1, 2): Fraction(1), (2, 2, 1, 2): Fraction(-1),
                      (1, 2, 1, 1): Fraction(-1), (1, 2, 2, 2): Fraction(1)}),
}


# arguments of the trace and matrix-tensor brackets at n = 3
TRACE_A = {("x", "x", "y"): 1, ("y", "x"): 2}
TRACE_B = {("x", "y", "y"): 1, ("x",): -1}

# the kept-failing operation takes the trace bracket of x^KEPT_POWER with y
KEPT_POWER = 1200


# ---------------------------------------------------------------------------
# CLI sessions (the three demo sessions, with scaled bracket coefficients)
# ---------------------------------------------------------------------------

SESSIONS = {
    "constant_right_weak": {
        "bracket": "right_const",
        "commands": ["check weak-poisson --sigma 12",
                     "check poisson --degree 4",
                     "rep induce 2",
                     "rep tensor 2 --convention tensor x y"]},
    "linear_poisson": {
        "bracket": "outer_poisson",
        "commands": ["check antisym", "check poisson", "rep jacobi 2",
                     "rep trace-bracket 2 x*y x"]},
    "twisted_not_poisson": {
        "bracket": "twisted_ctr",
        "commands": ["jacobiator x y y", "check poisson"]},
}


def format_word(w):
    return "*".join(w) if w else "1"


def format_coeff_term(c, body, first):
    """One signed term of a sum; the parser wants the sign folded in."""
    c = Fraction(c)
    mag = abs(c)
    txt = body if mag == 1 else f"{mag}*{body}"
    if first:
        return f"-{txt}" if c < 0 else txt
    return ("- " if c < 0 else "+ ") + txt


def format_tensor_spec(terms, lam):
    parts = [format_coeff_term(c * lam, f"{format_word(l)} (x) {format_word(r)}",
                               not k)
             for k, (c, l, r) in enumerate(terms)]
    return " ".join(parts) if parts else "0"


def session_text(name, lam):
    """Session source with every bracket entry scaled by lam."""
    s = SESSIONS[name]
    spec = BRACKETS[s["bracket"]]
    lines = ["algebra { gens: x, y }"]
    block = f"bimodule {{ kind: {spec['kind']}"
    if spec["twist"]:
        images = ", ".join(f"{g} -> {h}" for g, h in spec["twist"].items())
        block += f" ; alpha: {images} ; beta: {images}"
    lines.append(block + " }")
    entries = " ; ".join(f"<{g},{h}> = {format_tensor_spec(terms, lam)}"
                         for (g, h), terms in spec["entries"].items())
    lines.append(f"bracket {{ {entries} }}")
    lines.extend(s["commands"])
    return "\n".join(lines) + "\n"


def format_poly(poly, lam):
    """Polynomial text for ``dbrackets gradient classify --poly``."""
    items = sorted(poly.items(), key=lambda it: (len(it[0]), it[0]))
    return " ".join(format_coeff_term(c * lam, format_word(w), not k)
                    for k, (w, c) in enumerate(items))


# ---------------------------------------------------------------------------
# which inputs each workload scales, in draw order, with the scaling type
# ---------------------------------------------------------------------------

SCALED_INPUTS = {
    "word-sweep": [
        ("weak_outer", "int"), ("weak_right13", "rat"),
        ("corpus:outer_poisson", "int"), ("corpus:swap:outer_poisson", "rat"),
        ("corpus:right_const", "rat"), ("corpus:swap:right_const", "int"),
        ("corpus:right_generic", "int"), ("corpus:outer_generic", "rat"),
        ("corpus:inner_generic", "int"),
        ("antisym_outer_generic", "rat"),
        ("refute_right_const", "rat"), ("refute_right_generic", "int"),
        ("refute_twisted_ctr", "rat"),
        ("session:constant_right_weak", "rat"), ("session:linear_poisson", "int"),
        ("session:twisted_not_poisson", "rat"),
    ],
    "gradient": [(f"potential:{name}", "int") for name in POTENTIALS],
    "rep-space": [
        ("induce_outer_4", "rat"), ("induce_inner_3", "int"),
        ("induce_right_3", "rat"), ("induce_xy_4", "int"),
        ("trace_xy_3", "rat"),
        ("r:standard_6", "rat"), ("r:e12e12_4", "int"), ("r:jordanian", "rat"),
        ("r:standard_3", "int"), ("kept_x1200", "int"),
    ],
}


def _draw(rng, how):
    if how == "int":
        return Fraction(rng.choice([k for k in range(-9, 10) if k]))
    q = rng.randint(2, 7)
    p = rng.choice([k for k in range(-9, 10) if k and math.gcd(k, q) == 1])
    return Fraction(p, q)


def scalings(workload, seed):
    """{input id: lambda} for one workload and seed."""
    if workload not in SCALED_INPUTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    return {name: _draw(rng, how) for name, how in SCALED_INPUTS[workload]}
