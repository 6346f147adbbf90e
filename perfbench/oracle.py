"""An independent reference for the benchmark's correctness checks.

Plain Python on the standard library only; nothing here imports
``dbrackets``.  Every computation is written from the conventions stated in
the project README, not from the library's code paths:

* a naive Leibniz evaluator that peels one letter at a time off either
  argument (the library instead sums over all letter pairs at once);
* the double Jacobiator and its weak variants from their definitions, with
  the left S_3-action "factor i of tau_s(t) is factor s^-1(i) of t";
* induced brackets on representation spaces from the slot arrangements
  (outer (kj, il), inner (il, kj), right (ij, kl), left (kl, ij)), with
  closed forms for the linear brackets;
* Jacobi sweeps over entry variables through the biderivation rule;
* the Yang-Baxter defect as dense N^3 x N^3 matrix commutators, and the
  entry bracket [r, V (x) 1] - [swap(r), 1 (x) V] by multiplying matrix
  units.

Coefficients are exact: ints where integral (much faster), else
Fractions.  Free-algebra elements are dicts {word: coefficient} with words
tuples of generator names; tensors are dicts keyed by tuples of words;
commutative polynomials are dicts keyed by sorted tuples of (variable,
exponent) with variables (generator, row, column).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# ---------------------------------------------------------------------------
# sparse linear algebra on dicts
# ---------------------------------------------------------------------------


def add_into(dst, src, scale=1):
    for k, c in src.items():
        v = dst.get(k, 0) + c * scale
        if v:
            dst[k] = v
        else:
            dst.pop(k, None)
    return dst


def num(c):
    """An exact number as an int when it is integral (ints are much faster)."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def add1(dst, k, c):
    v = dst.get(k, 0) + c
    if v:
        dst[k] = v
    else:
        dst.pop(k, None)


def scaled(d, s):
    return {k: c * s for k, c in d.items()} if s else {}


def poly_mul(p, q):
    out = {}
    for u, cu in p.items():
        for v, cv in q.items():
            add1(out, u + v, cu * cv)
    return out


def word_image(images, w):
    """Image of a word under the algebra map given on generators."""
    if not images:
        return {w: 1}
    out = {(): 1}
    for g in w:
        out = poly_mul(out, images[g])
    return out


def swap2(d):
    return {(r, l): c for (l, r), c in d.items()}


def tau(sigma, t):
    """Left S_3-action on the tensor cube: factor i is factor sigma^-1(i)."""
    inv = [0, 0, 0]
    for i, s in enumerate(sigma):
        inv[s - 1] = i
    return {(k[inv[0]], k[inv[1]], k[inv[2]]): c for k, c in t.items()}


CYCLE = (2, 3, 1)            # 1 -> 2 -> 3 -> 1
CYCLE2 = (3, 1, 2)
TRANSPOSITION = {"12": (2, 1, 3), "13": (3, 2, 1), "23": (1, 3, 2)}


# ---------------------------------------------------------------------------
# double brackets, naively
# ---------------------------------------------------------------------------

class NaiveBracket:
    """A double bracket given by a spec from ``inputs`` and a scaling."""

    def __init__(self, spec, lam=1):
        self.kind = spec["kind"]
        twist = spec.get("twist")
        self.images = ({g: {(h,): 1} for g, h in twist.items()}
                       if twist else None)
        table = {}
        for (g, h), terms in spec["entries"].items():
            d = {}
            for c, l, r in terms:
                add1(d, (tuple(l), tuple(r)), num(Fraction(c) * lam))
            table[(g, h)] = d
            table.setdefault((h, g), scaled(swap2(d), -1))
        self.table = table
        self._memo = {}

    def _gen_value(self, g, h):
        return self.table.get((g, h), {})

    def act(self, a, d, b):
        """The README action of (a, b) on d, for words a and b."""
        pa = word_image(self.images, a)
        pb = word_image(self.images, b)
        out = {}
        for (l, r), c in d.items():
            for u, cu in pa.items():
                for v, cv in pb.items():
                    if self.kind == "outer":
                        key = (u + l, r + v)
                    elif self.kind == "inner":
                        key = (l + v, u + r)
                    elif self.kind == "left":
                        key = (u + l + v, r)
                    else:
                        key = (l, u + r + v)
                    add1(out, key, c * cu * cv)
        return out

    def star(self, a, d, b):
        """The swap bimodule: swap o act o swap."""
        return swap2(self.act(a, swap2(d), b))

    def words(self, u, v):
        """<<u, v>> for words, one Leibniz step at a time."""
        if not u or not v:
            return {}
        key = (u, v)
        out = self._memo.get(key)
        if out is not None:
            return out
        if len(v) > 1:
            # <<u, v'g>> = v' . <<u, g>> + <<u, v'>> . g
            head, g = v[:-1], v[-1:]
            out = add_into(self.act(head, self.words(u, g), ()),
                           self.act((), self.words(u, head), g))
        elif len(u) > 1:
            # <<u'h, g>> = u' * <<h, g>> + <<u', g>> * h  (swap bimodule)
            head, h = u[:-1], u[-1:]
            out = add_into(self.star(head, self.words(h, v), ()),
                           self.star((), self.words(head, v), h))
        else:
            out = dict(self._gen_value(u[0], v[0]))
        self._memo[key] = out
        return out

    def bracket(self, a, b):
        """Bilinear extension to polynomials {word: coefficient}."""
        out = {}
        for u, cu in a.items():
            for v, cv in b.items():
                add_into(out, self.words(u, v), cu * cv)
        return out

    def left_pairing(self, u, d):
        """<<u, d'>> (x) d''."""
        out = {}
        for (l, r), c in d.items():
            for (p, q), ci in self.words(u, l).items():
                add1(out, (p, q, r), c * ci)
        return out

    def jacobiator(self, a, b, c):
        """<<a,<<b,c>>>>_L + tau_(123) <<b,<<c,a>>>>_L + tau_(123)^2 <<c,<<a,b>>>>_L."""
        out = dict(self.left_pairing(a, self.words(b, c)))
        add_into(out, tau(CYCLE, self.left_pairing(b, self.words(c, a))))
        add_into(out, tau(CYCLE2, self.left_pairing(c, self.words(a, b))))
        return out

    def weak_jacobiator(self, s, sp, a, b, c):
        """J(a,b,c) - tau_s^-1 J(args permuted by s'), for transpositions."""
        sigma, sigma_p = TRANSPOSITION[s], TRANSPOSITION[sp]
        args = (a, b, c)
        perm = tuple(args[sigma_p.index(i + 1)] for i in range(3))
        return add_into(dict(self.jacobiator(a, b, c)),
                        tau(sigma, self.jacobiator(*perm)), -1)


def words_up_to(gens, degree, min_degree=1):
    for d in range(min_degree, degree + 1):
        yield from itertools.product(gens, repeat=d)


def sweep_iter(gens, degree):
    """Word triples, each factor of length 1..degree, in the library's sweep
    order: by total degree, then lexicographically on the factors' tuples of
    generator indices.  Lazy, one total degree at a time."""
    index = {g: i for i, g in enumerate(gens)}
    by_len = {d: list(itertools.product(gens, repeat=d))
              for d in range(1, degree + 1)}

    def key(t):
        return tuple(tuple(index[g] for g in w) for w in t)

    for total in range(3, 3 * degree + 1):
        block = []
        for l1 in range(1, degree + 1):
            for l2 in range(1, degree + 1):
                l3 = total - l1 - l2
                if 1 <= l3 <= degree:
                    block.extend(itertools.product(by_len[l1], by_len[l2],
                                                   by_len[l3]))
        block.sort(key=key)
        yield from block


def gen_triples(gens):
    return [((a,), (b,), (c,)) for a, b, c in itertools.product(gens, repeat=3)]


# ---------------------------------------------------------------------------
# gradient brackets
# ---------------------------------------------------------------------------

EPSILON = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}


def double_partial(gen, poly):
    """Split every word at each occurrence of gen: prefix (x) suffix."""
    out = {}
    for w, c in poly.items():
        for pos, letter in enumerate(w):
            if letter == gen:
                add1(out, (w[:pos], w[pos + 1:]), num(c))
    return out


def gradient_spec(gens, poly):
    """Outer bracket spec with <g_i, g_j> = sum_k eps_ijk d_k(poly)."""
    partials = [double_partial(g, poly) for g in gens]
    entries = {}
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            acc = {}
            for k in range(3):
                e = EPSILON.get((i, j, k))
                if e:
                    add_into(acc, partials[k], e)
            entries[(gi, gj)] = [(c, l, r) for (l, r), c in acc.items()]
    return {"kind": "outer", "twist": None, "entries": entries}


# ---------------------------------------------------------------------------
# representation spaces
# ---------------------------------------------------------------------------

def cmul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            add1(out, tuple(sorted(exps.items())), c1 * c2)
    return out


def cvar(v):
    return {((v, 1),): 1}


def word_matrix(w, n):
    """X(w) as an n x n list of commutative polynomials, built iteratively."""
    m = [[{(): 1} if i == j else {} for j in range(n)] for i in range(n)]
    for g in w:
        nxt = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for k in range(n):
                if not m[i][k]:
                    continue
                for j in range(n):
                    add_into(nxt[i][j], cmul(m[i][k], cvar((g, k + 1, j + 1))))
        m = nxt
    return m


def poly_matrix(poly, n):
    out = [[{} for _ in range(n)] for _ in range(n)]
    for w, c in poly.items():
        m = word_matrix(w, n)
        for i in range(n):
            for j in range(n):
                add_into(out[i][j], m[i][j], num(c))
    return out


def arranged(kind, i, j, k, l):
    if kind == "outer":
        return (k, j), (i, l)
    if kind == "inner":
        return (i, l), (k, j)
    if kind == "right":
        return (i, j), (k, l)
    return (k, l), (i, j)


def induced_table(spec, n, lam=1):
    """{((g,i,j), (h,k,l)): poly} for an untwisted bracket spec."""
    nb = NaiveBracket(spec, lam)
    gens = sorted({g for pair in nb.table for g in pair})
    mats = {}

    def entry(w, p, q):
        if w not in mats:
            mats[w] = word_matrix(w, n)
        return mats[w][p - 1][q - 1]

    table = {}
    rng = range(1, n + 1)
    for (g, h), d in nb.table.items():
        for i, j, k, l in itertools.product(rng, repeat=4):
            (p1, q1), (p2, q2) = arranged(spec["kind"], i, j, k, l)
            acc = {}
            for (w1, w2), c in d.items():
                add_into(acc, cmul(entry(w1, p1, q1), entry(w2, p2, q2)), c)
            if acc:
                table[((g, i, j), (h, k, l))] = acc
    return gens, table


def closed_linear_outer(gens, n, lam=1):
    """{x_ij, x_kl} = lam (delta_il x_kj - delta_kj x_il), cross pairs zero.

    The table of <<g, g>> = g (x) 1 - 1 (x) g on every generator, and also of
    its swap-equivalent on the inner kind, whose slot arrangement (il, kj)
    gives the same formula.
    """
    table = {}
    rng = range(1, n + 1)
    for g in gens:
        for i, j, k, l in itertools.product(rng, repeat=4):
            acc = {}
            if i == l:
                add_into(acc, cvar((g, k, j)), lam)
            if k == j:
                add_into(acc, cvar((g, i, l)), -lam)
            if acc:
                table[((g, i, j), (g, k, l))] = acc
    return table


def closed_right_const(n, lam=1):
    """<<x, y>> = lam 1 (x) 1 on the right kind: {x_ij, y_kl} = lam d_ij d_kl."""
    table = {}
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            table[(("x", i, i), ("y", k, k))] = {(): num(lam)}
            table[(("y", k, k), ("x", i, i))] = {(): -num(lam)}
    return table


def partial(p, v):
    out = {}
    for m, c in p.items():
        for idx, (w, e) in enumerate(m):
            if w == v:
                rest = m[:idx] + (((w, e - 1),) if e > 1 else ()) + m[idx + 1:]
                add1(out, rest, c * e)
    return out


def variables_of(p):
    return sorted({v for m in p for v, _ in m})


class EntryPoisson:
    """The biderivation extension of a table on entry variables."""

    def __init__(self, table):
        self.table = table
        self._rows = {}
        for (v, w), p in table.items():
            self._rows.setdefault(v, {})[w] = p

    def var_bracket(self, v, p):
        """{v, p} = sum_w dp/dw {v, w}."""
        row = self._rows.get(v, {})
        out = {}
        for w in variables_of(p):
            br = row.get(w)
            if br:
                add_into(out, cmul(partial(p, w), br))
        return out

    def bracket(self, f, g):
        out = {}
        for v in variables_of(f):
            fv = partial(f, v)
            for w in variables_of(g):
                br = self.table.get((v, w))
                if br:
                    add_into(out, cmul(cmul(fv, partial(g, w)), br))
        return out

    def jacobi(self, v1, v2, v3):
        t = self.table
        out = dict(self.var_bracket(v1, t.get((v2, v3), {})))
        add_into(out, self.var_bracket(v2, t.get((v3, v1), {})))
        add_into(out, self.var_bracket(v3, t.get((v1, v2), {})))
        return out


def entry_variables(gens, n):
    return [(g, i, j) for g in gens for i in range(1, n + 1)
            for j in range(1, n + 1)]


def first_jacobi_failure(ps, variables, stop=None):
    """(count, witness, defect) of the first nonzero Jacobi defect over the
    product order of variable triples, or (count, None, {}) if none; with
    ``stop`` the sweep ends after that many tuples."""
    count = 0
    for t in itertools.product(variables, repeat=3):
        count += 1
        d = ps.jacobi(*t)
        if d:
            return count, t, d
        if stop is not None and count >= stop:
            break
    return count, None, {}


def trace_poly(poly, n):
    m = poly_matrix(poly, n)
    out = {}
    for i in range(n):
        add_into(out, m[i][i])
    return out


def matrix_tensor(ps, poly_a, poly_b, n, convention):
    """{(i,j,k,l): {X(a)_ij, X(b)_kl}} collected per convention."""
    ma, mb = poly_matrix(poly_a, n), poly_matrix(poly_b, n)
    out = {}
    rng = range(1, n + 1)
    for i, j, k, l in itertools.product(rng, repeat=4):
        br = ps.bracket(ma[i - 1][j - 1], mb[k - 1][l - 1])
        if br:
            key = (k, j, i, l) if convention == "vdb" else (i, j, k, l)
            add_into(out.setdefault(key, {}), br)
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# Yang-Baxter tensors
# ---------------------------------------------------------------------------

def _triple_index(N, a, b, c):
    return ((a - 1) * N + (b - 1)) * N + (c - 1)


def _dense(N):
    size = N ** 3
    return [[0] * size for _ in range(size)]


def embed_dense(N, r, slots):
    """r_ab placed in slots (a, b) of Mat_N^{(x)3} as a dense N^3 x N^3 matrix.

    Row index (i, k, u) and column index (j, l, v) stand for the matrix unit
    e_ij (x) e_kl (x) e_uv.
    """
    m = _dense(N)
    a, b = slots
    other = 6 - a - b
    for (i, j, k, l), c in r.items():
        for x in range(1, N + 1):
            rows, cols = [0, 0, 0], [0, 0, 0]
            rows[a - 1], cols[a - 1] = i, j
            rows[b - 1], cols[b - 1] = k, l
            rows[other - 1], cols[other - 1] = x, x
            m[_triple_index(N, *rows)][_triple_index(N, *cols)] += c
    return m


def dense_mul(a, b):
    size = len(a)
    nz_b = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    out = [[0] * size for _ in range(size)]
    for i, row in enumerate(a):
        acc = out[i]
        for k, x in enumerate(row):
            if x:
                for j, y in nz_b[k]:
                    acc[j] += x * y
    return out


def dense_commutator(a, b):
    ab, ba = dense_mul(a, b), dense_mul(b, a)
    return [[p - q for p, q in zip(r1, r2)] for r1, r2 in zip(ab, ba)]


def dense_add(*ms):
    return [[sum(xs) for xs in zip(*rows)] for rows in zip(*ms)]


def casimir_terms(N):
    return {(i, j, j, i): 1 for i in range(1, N + 1)
            for j in range(1, N + 1)}


def swap_r(r):
    return {(k, l, i, j): c for (i, j, k, l), c in r.items()}


def casimir_commutator(N, r):
    """[C_23, r_13] densely."""
    return dense_commutator(embed_dense(N, casimir_terms(N), (2, 3)),
                            embed_dense(N, r, (1, 3)))


def reversed_cybe(N, r):
    """[r12, r13] + [r12, r23] + [r32, r13] densely."""
    r12, r13 = embed_dense(N, r, (1, 2)), embed_dense(N, r, (1, 3))
    r23, r32 = embed_dense(N, r, (2, 3)), embed_dense(N, swap_r(r), (2, 3))
    return dense_add(dense_commutator(r12, r13), dense_commutator(r12, r23),
                     dense_commutator(r32, r13))


def sparse_to_dense(N, terms):
    """{(i,j,k,l,u,v): c} to the dense matrix of the same element."""
    m = _dense(N)
    for (i, j, k, l, u, v), c in terms.items():
        m[_triple_index(N, i, k, u)][_triple_index(N, j, l, v)] += c
    return m


def entry_bracket_table(N, r):
    """{v_ij, v_kl} = coefficient of e_ij (x) e_kl in [r, V (x) 1] - [r°, 1 (x) V].

    Elements of Mat_N (x) Mat_N are {(i,j,k,l): poly}; products multiply
    matrix units e_ab e_cd = delta_bc e_ad in each factor.
    """
    rng = range(1, N + 1)
    V1 = {(p, q, m, m): cvar(("v", p, q)) for p in rng for q in rng for m in rng}
    V2 = {(m, m, p, q): cvar(("v", p, q)) for p in rng for q in rng for m in rng}

    def mul(x, y):
        out = {}
        for (a, b, c, d), p in x.items():
            for (e, f, g, h), q in y.items():
                if b == e and d == g:
                    add_into(out.setdefault((a, f, c, h), {}), cmul(p, q))
        return out

    def comm(x, y):
        out = mul(x, y)
        for k, p in mul(y, x).items():
            add_into(out.setdefault(k, {}), p, -1)
        return out

    R = {k: {(): num(c)} for k, c in r.items()}
    Rs = {k: {(): num(c)} for k, c in swap_r(r).items()}
    total = comm(R, V1)
    for k, p in comm(Rs, V2).items():
        add_into(total.setdefault(k, {}), p, -1)
    return {((i, j), (k, l)): p for (i, j, k, l), p in total.items() if p}


def entry_poisson(N, r):
    """The entry bracket as an EntryPoisson on variables ("v", i, j)."""
    table = {(("v",) + ij, ("v",) + kl): p
             for (ij, kl), p in entry_bracket_table(N, r).items()}
    return EntryPoisson(table)
