"""Canonical plain-data forms shared by the worker's serializer and the checks.

Both sides turn their values into the same string-keyed dicts, so a check
compares a program result with an oracle result by plain equality:

* a free-algebra word is its generators joined by ``*``, or ``1``;
* a tensor term key joins its words with ``|``;
* a commutative monomial joins ``name[i,j]`` or ``name[i,j]^e`` factors,
  sorted by (name, i, j), with ``1`` for the constant monomial;
* coefficients are ``str(Fraction)``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def word(w) -> str:
    return "*".join(w) if w else "1"


def tensor(items) -> dict:
    """items: ((word tuple, ...), coefficient) pairs with name tuples."""
    out = {}
    for key, c in items:
        if c:
            out["|".join(word(w) for w in key)] = str(Fraction(c))
    return out


def entry(v) -> str:
    name, i, j = v
    return f"{name}[{i},{j}]"


def monomial(factors) -> str:
    """factors: ((name, i, j), exponent) pairs, in any order."""
    parts = [entry(v) + (f"^{e}" if e > 1 else "")
             for v, e in sorted(factors)]
    return "*".join(parts) if parts else "1"


def cpoly(items) -> dict:
    """items: (factors, coefficient) pairs."""
    out = {}
    for factors, c in items:
        if c:
            out[monomial(factors)] = str(Fraction(c))
    return out


def digest(value) -> str:
    """Stable short fingerprint of any JSON-serialisable value."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=12).hexdigest()
