"""Fresh single-run timings of the baseline rows listed in ROADMAP.md.

    python3 perfbench/reference.py            # every row
    python3 perfbench/reference.py sum_power_5 criterion_6

Run from the root of a checkout.  Each row builds its own inputs (from
``inputs.py``, unscaled) so every bracket starts with cold caches, and runs
once in this process; the output is one ``name seconds`` line per row.
These are reference figures, not benchmark metrics: the benchmark proper
is ``run.py``.
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from dbrackets import (FreeAlgebra, classify, induce, is_weak_poisson,  # noqa: E402
                       jacobi_sweep, jacobiator, jacobiator_form)

import inputs  # noqa: E402
import workloads  # noqa: E402


def _bracket(name):
    return workloads.make_bracket(FreeAlgebra(inputs.XY),
                                  inputs.bracket_spec(name), 1)


def _sum_power(d):
    return lambda: classify(FreeAlgebra(inputs.X123), "sum-power", degree=d)


def _criterion_6():
    """The four Jacobiator forms agree on the corpus for monomial triples
    up to degree 3 (acceptance criterion 6 of the test suite)."""
    alg = FreeAlgebra(inputs.XY)
    monos = [alg.monomial(w) for w in alg.words_up_to(3, min_degree=1)]
    for name in inputs.CORPUS:
        db = _bracket(name)
        for a, b, c in itertools.product(monos, repeat=3):
            j = jacobiator(db, a, b, c)
            for form in ("mixed", "right", "pair-right"):
                assert jacobiator_form(db, form, a, b, c) == j


ROWS = {
    "sum_power_3": _sum_power(3),
    "sum_power_4": _sum_power(4),
    "sum_power_5": _sum_power(5),
    "weak_outer_poisson_d4":
        lambda: is_weak_poisson(_bracket("outer_poisson"), "12", "12", 4),
    "criterion_6": _criterion_6,
    "jacobi_sweep_outer_n3": lambda: jacobi_sweep(induce(_bracket("outer_poisson"), 3)),
    "jacobi_sweep_outer_n4": lambda: jacobi_sweep(induce(_bracket("outer_poisson"), 4)),
}


def main(argv=None):
    names = (argv if argv is not None else sys.argv[1:]) or list(ROWS)
    for name in names:
        if name not in ROWS:
            print(f"unknown row {name!r}; choose from {', '.join(ROWS)}",
                  file=sys.stderr)
            return 2
    for name in names:
        t = time.perf_counter()
        ROWS[name]()
        print(f"{name} {time.perf_counter() - t:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
