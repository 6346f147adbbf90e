"""Text grammar for algebra elements, tensors, and batch sessions.

Words render as ``x*y*x``; tensors use the ASCII separator ``(x)`` between
two polynomial factors, as in ``x*y (x) 1 - 1 (x) y``.  The exact
three-character sequence ``(x)`` always lexes as the tensor separator, so
a generator named ``x`` cannot be written inside bare parentheses.  A
session is up to three declaration blocks followed by command lines::

    algebra { gens: x, y }
    bimodule { kind: outer ; alpha: x -> y, y -> x }
    bracket { <x,x> = x (x) 1 - 1 (x) x ; <x,y> = 0 }
    check poisson --degree 4

Omitted bracket pairs default to zero and the reversed pairs are filled in
by cyclic antisymmetry; an explicitly conflicting entry is an error.
"""

from __future__ import annotations

import re
import shlex
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .bimodule import Bimodule, BimodKind
from .dbracket import DoubleBracket
from .freealg import (AlgEndo, FreeAlgebra, NCPoly, Tensor2, _digits,
                      _expansion_breach, _power_breach)


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.reason = message  # without the position
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


# each level of parentheses costs four parser frames, so this limit keeps
# the parse well inside the interpreter's recursion limit
_MAX_NESTING = 100

# the line breaks of str.splitlines, which splits the command lines; "\r\n"
# is one break
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@dataclass
class Token:
    kind: str  # NAME | NUMBER | TENSOR | symbol | EOF
    value: str
    line: int
    col: int
    pos: int


# one alternative per token kind, tried in order; \w is str.isalnum or "_",
# so a NAME match that starts with neither a letter nor "_" ("²", "½") is
# refused, as is any other character
_TOKEN = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("BREAK", f"\r\n|[{_LINE_BREAKS}]"),
    ("BLANK", "[ \t]+"),
    ("COMMENT", f"#[^{_LINE_BREAKS}]*"),
    ("TENSOR", r"\(x\)"),
    ("NUMBER", "[0-9]+"),  # \d and str.isdigit take other scripts' digits
    ("NAME", r"\w+"),
    ("SYMBOL", r"->|[{}()<>,;:=+\-*^/]"),
    ("ERROR", "."))))


def tokenize_lazily(text: str):
    """Yield tokens on demand, so trailing free-form command lines are
    never lexed once the declaration blocks have been consumed.  Positions
    count from the text's ``at`` (line, column), if it has one (_Arg); a
    comment takes no columns."""
    line, col = getattr(text, "at", (1, 1))
    for m in _TOKEN.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind == "BREAK":
            line, col = line + 1, 1
            continue
        if kind == "ERROR" or kind == "NAME" and not (
                value[0].isalpha() or value[0] == "_"):
            raise ParseError(f"unexpected character {value[0]!r}", line, col)
        if kind not in ("BLANK", "COMMENT"):  # a symbol's kind is its text
            yield Token(value if kind == "SYMBOL" else kind, value, line, col,
                        m.start())
        if kind != "COMMENT":
            col += len(value)
    yield Token("EOF", "", line, col, len(text))


class _Cursor:
    """The tokens of ``text``, read lazily through a one-token lookahead."""

    def __init__(self, text: str):
        self._source = tokenize_lazily(text)
        self._ahead = None
        self.depth = 0  # open parentheses

    def peek(self) -> Token:
        if self._ahead is None:
            self._ahead = next(self._source)
        return self._ahead

    def next(self) -> Token:
        t = self.peek()
        if t.kind != "EOF":
            self._ahead = None
        return t

    def accept(self, kind) -> Optional[Token]:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.value!r}",
                             t.line, t.col)
        return self.next()

    def fail(self, message):
        t = self.peek()
        raise ParseError(message, t.line, t.col)


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

def _number(cur: _Cursor) -> tuple:
    """The next token, a NUMBER, and its value; a ParseError at the token
    when it has more digits than the interpreter converts
    (``sys.get_int_max_str_digits``)."""
    t = cur.expect("NUMBER")
    try:
        return t, int(t.value)
    except ValueError:
        raise ParseError(f"a number of {len(t.value)} digits is over the "
                         f"interpreter's limit for integer conversion",
                         t.line, t.col) from None


def _parse_integer(cur: _Cursor) -> int:
    """``[-]p``, p in the digits 0-9."""
    sign = -1 if cur.accept("-") else 1
    return sign * _number(cur)[1]


def _parse_rational(cur: _Cursor) -> Fraction:
    """``[-]p[/q]``; in a polynomial the sum reads the sign, not the atom."""
    num = _parse_integer(cur)
    if cur.accept("/"):
        den, q = _number(cur)
        if q == 0:
            raise ParseError("zero denominator", den.line, den.col)
        return Fraction(num, q)
    return Fraction(num)


def _gen_index(cur: _Cursor, alg: FreeAlgebra) -> int:
    """The index of the generator that the next token names."""
    t = cur.expect("NAME")
    try:
        return alg.gen_index(t.value)
    except ValueError:
        raise ParseError(f"undeclared generator {t.value!r}",
                         t.line, t.col) from None


def _parse_atom(cur: _Cursor, alg: FreeAlgebra) -> NCPoly:
    t = cur.peek()
    if t.kind == "NUMBER":
        return alg.one().scale(_parse_rational(cur))
    if t.kind == "NAME":
        return alg.gen(_gen_index(cur, alg))
    if t.kind == "(":
        if cur.depth == _MAX_NESTING:
            cur.fail(f"parentheses nested more than {_MAX_NESTING} deep")
        cur.next()
        cur.depth += 1
        p = _parse_poly_expr(cur, alg)
        cur.expect(")")
        cur.depth -= 1
        return p
    cur.fail(f"expected a polynomial, found {t.value!r}")


def _within_budget(what: str, breach, at: Token) -> None:
    """Raise a ParseError at ``at`` when the expansion ``what`` would
    make is over the budgets (``breach`` is the reason, or None)."""
    if breach is not None:
        raise ParseError(f"the {what} has {breach}", at.line, at.col)


def _parse_factor(cur: _Cursor, alg: FreeAlgebra) -> NCPoly:
    p = _parse_atom(cur, alg)
    if cur.accept("^"):
        e, n = _number(cur)
        _within_budget("power", _power_breach(p, n), e)
        return p ** n
    return p


def _parse_term(cur: _Cursor, alg: FreeAlgebra) -> NCPoly:
    p = _parse_factor(cur, alg)
    while (star := cur.accept("*")) is not None:
        q = _parse_factor(cur, alg)
        _within_budget("product", _expansion_breach(
            len(p.terms) * len(q.terms),
            max(p.degree(), 0) + max(q.degree(), 0),
            _digits(p) + _digits(q)), star)
        p = p * q
    return p


def _parse_sum(cur: _Cursor, summand):
    """``[-] s {(+|-) s}`` where ``summand(cur)`` reads each s."""
    sign = -1 if cur.accept("-") else 1
    total = summand(cur).scale(sign)
    while True:
        if cur.accept("+"):
            total = total + summand(cur)
        elif cur.accept("-"):
            total = total - summand(cur)
        else:
            return total


def _parse_poly_expr(cur: _Cursor, alg: FreeAlgebra) -> NCPoly:
    return _parse_sum(cur, lambda cur: _parse_term(cur, alg))


def _parse_tensor_term(cur: _Cursor, alg: FreeAlgebra) -> Tensor2:
    left = _parse_term(cur, alg)
    sep = cur.accept("TENSOR")
    if sep is not None:
        right = _parse_term(cur, alg)
        _within_budget("tensor", _expansion_breach(
            len(left.terms) * len(right.terms), 0,
            _digits(left) + _digits(right)), sep)
        return alg.t2(left, right)
    # a plain polynomial term stands for itself tensored with 1, which only
    # makes sense when it is 0 (the empty tensor)
    if not left.is_zero():
        cur.fail("expected the tensor separator '(x)'")
    return alg.zero2()


def _parse_tensor_expr(cur: _Cursor, alg: FreeAlgebra) -> Tensor2:
    return _parse_sum(cur, lambda cur: _parse_tensor_term(cur, alg))


def _parse_all(text: str, parse):
    """``parse(cursor)`` over the whole of ``text``."""
    cur = _Cursor(text)
    value = parse(cur)
    cur.expect("EOF")
    return value


def parse_poly(alg: FreeAlgebra, text: str) -> NCPoly:
    return _parse_all(text, lambda cur: _parse_poly_expr(cur, alg))


def parse_rational(text: str) -> Fraction:
    """A rational number of the grammar, ``[-]p[/q]``."""
    return _parse_all(text, _parse_rational)


def parse_integer(text: str) -> int:
    """An integer of the grammar, ``[-]p``: no '+', no digit separator and
    no other script's digits."""
    return _parse_all(text, _parse_integer)


def parse_tensor2(alg: FreeAlgebra, text: str) -> Tensor2:
    return _parse_all(text, lambda cur: _parse_tensor_expr(cur, alg))


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

@dataclass
class SessionSpec:
    algebra: FreeAlgebra
    bimodule: Optional[Bimodule]
    bracket: Optional[DoubleBracket]
    commands: list = field(default_factory=list)  # list of token tuples


class _Arg(str):
    """A command argument; ``at`` is the session (line, column) where its
    text starts, after the quote if quoted, and where it is lexed from."""


def _split_command(text: str, line: int, col: int) -> tuple:
    """shlex-split a command whose text starts at (line, col) into _Args."""
    lex = shlex.shlex(text, posix=True)
    lex.whitespace_split, lex.commenters = True, ""
    args = []
    while True:
        start = lex.instream.tell()  # just past the previous argument
        while start < len(text) and text[start] in lex.whitespace:
            start += 1
        token = lex.get_token()
        if token is None:
            return tuple(args)
        args.append(_Arg(token))
        args[-1].at = (line, col + start + (text[start] in lex.quotes))


def _parse_endo_map(cur: _Cursor, alg: FreeAlgebra) -> dict:
    images = {}
    while True:
        idx = _gen_index(cur, alg)
        cur.expect("->")
        images[idx] = _parse_poly_expr(cur, alg)
        if not cur.accept(","):
            return images


def _parse_bimodule_block(cur: _Cursor, alg: FreeAlgebra) -> Bimodule:
    cur.expect("{")
    kind = None
    alpha_map = None
    beta_map = None
    while not cur.accept("}"):
        key = cur.expect("NAME")
        cur.expect(":")
        if key.value == "kind":
            name = cur.expect("NAME")
            try:
                kind = BimodKind(name.value)
            except ValueError:
                raise ParseError(f"unknown bimodule kind {name.value!r}",
                                 name.line, name.col) from None
        elif key.value == "alpha":
            alpha_map = _parse_endo_map(cur, alg)
        elif key.value == "beta":
            beta_map = _parse_endo_map(cur, alg)
        else:
            raise ParseError(f"unknown bimodule field {key.value!r}",
                             key.line, key.col)
        cur.accept(";")
    if kind is None:
        cur.fail("bimodule block needs a kind")

    def endo(mapping):
        if mapping is None:
            return AlgEndo.identity(alg)
        full = {i: mapping.get(i, alg.gen(i)) for i in range(alg.ngens)}
        return AlgEndo(alg, full)

    return Bimodule(kind, endo(alpha_map), endo(beta_map))


def _parse_bracket_block(cur: _Cursor, alg: FreeAlgebra,
                         bimodule: Bimodule) -> DoubleBracket:
    block = cur.expect("{")
    entries = {}
    while not cur.accept("}"):
        open_tok = cur.expect("<")
        i = _gen_index(cur, alg)
        cur.expect(",")
        key = (i, _gen_index(cur, alg))
        cur.expect(">")
        cur.expect("=")
        value = _parse_tensor_expr(cur, alg)
        if key in entries:
            g1, g2 = (alg.names[g] for g in key)
            raise ParseError(f"duplicate bracket entry <{g1},{g2}>",
                             open_tok.line, open_tok.col)
        entries[key] = value
        cur.accept(";")
    try:
        return DoubleBracket.from_pairs(bimodule, entries)
    except ValueError as exc:
        raise ParseError(str(exc), block.line, block.col) from None


def parse_session(text: str) -> SessionSpec:
    cur = _Cursor(text)

    tok = cur.peek()
    if not (tok.kind == "NAME" and tok.value == "algebra"):
        raise ParseError("a session starts with an algebra block",
                         tok.line, tok.col)
    cur.next()
    cur.expect("{")
    key = cur.expect("NAME")
    if key.value != "gens":
        raise ParseError("algebra block declares 'gens'", key.line, key.col)
    cur.expect(":")
    names = [cur.expect("NAME").value]
    while cur.accept(","):
        names.append(cur.expect("NAME").value)
    cur.expect("}")
    try:
        alg = FreeAlgebra(names)
    except ValueError as exc:
        raise ParseError(str(exc), key.line, key.col) from None

    bimodule = None
    bracket = None
    while True:
        tok = cur.peek()
        if tok.kind == "NAME" and tok.value == "bimodule" and bimodule is None \
                and bracket is None:
            cur.next()
            bimodule = _parse_bimodule_block(cur, alg)
        elif tok.kind == "NAME" and tok.value == "bracket" and bracket is None:
            cur.next()
            if bimodule is None:
                bimodule = Bimodule(BimodKind.OUTER, alg=alg)
            bracket = _parse_bracket_block(cur, alg, bimodule)
        else:
            break

    rest = cur.peek()
    commands = []
    for k, raw in enumerate(text[rest.pos:].splitlines()):
        line = raw.split("#", 1)[0]
        body = line.strip()
        if not body:
            continue
        at = (rest.line + k, (1 if k else rest.col) + line.index(body))
        try:
            commands.append(_split_command(body, *at))
        except ValueError as exc:
            raise ParseError(f"bad command line {raw!r}: {exc}", *at) from None
    return SessionSpec(alg, bimodule, bracket, commands)
