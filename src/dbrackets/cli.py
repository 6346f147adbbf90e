"""Batch command surface over the library.

``dbrackets run session.txt`` executes the commands of a session file (or
stdin with ``-``); ``dbrackets ybe ...`` and ``dbrackets gradient ...``
expose the matrix Yang-Baxter checks and the gradient-bracket classifier
directly.  Exit codes: 0 when every check passed, 1 when some check
produced a counterexample (printed with its witness), 2 on usage or parse
errors, 3 when a computation failed for any other reason (an ``error:``
line names the exception; no traceback is printed).  Output is
deterministic for identical input bytes; ``--format kv`` switches to
key=value lines for machines.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .bimodule import check_swap_commuting
from .dbracket import (check_antisymmetry, is_poisson, is_weak_poisson,
                       jacobiator)
from .freealg import FreeAlgebra
from .gradient import FAMILIES, classify
from .parsing import ParseError, SessionSpec, parse_poly, parse_session
from .repspace import (entry_name, induce, jacobi_sweep, matrix_tensor_bracket,
                       trace_bracket)
from .ybe import (check_entry_jacobi, cybe_defect, entry_bracket,
                  format_mat_tensor2, parse_mat_tensor2, standard_r)

OK, FAIL, USAGE, INTERNAL = 0, 1, 2, 3


class CommandError(ValueError):
    """Malformed session command; reported with exit code 2."""


class Reporter:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines = []
        self.failed = False

    def say(self, plain: str, **kv):
        if self.fmt == "kv":
            for key, value in kv.items():
                self.lines.append(f"{key}={value}")
        else:
            self.lines.append(plain)

    def outcome(self, ok: bool):
        if not ok:
            self.failed = True
        self.say(f"status: {'ok' if ok else 'FAIL'}", status="ok" if ok else "fail")

    def text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")


def _opts(args, spec, count, usage):
    """Split trailing --key value options from positional arguments, and
    raise ``usage`` unless there are ``count`` of the latter."""
    pos, opts = [], {}
    i = 0
    while i < len(args):
        a = args[i]
        if a.startswith("--"):
            if a not in spec:
                raise CommandError(f"unknown option {a}")
            if i + 1 >= len(args):
                raise CommandError(f"option {a} needs a value")
            opts[a] = spec[a](args[i + 1])
            i += 2
        else:
            pos.append(a)
            i += 1
    if len(pos) != count:
        raise CommandError(usage)
    return pos, opts


def _need_bracket(session: SessionSpec):
    if session.bracket is None:
        raise CommandError("this command needs a bracket declaration")
    return session.bracket


def _parse_args_polys(session, args, count):
    if len(args) != count:
        raise CommandError(f"expected {count} polynomial argument(s), "
                           f"got {len(args)}")
    return [parse_poly(session.algebra, a) for a in args]


# ---------------------------------------------------------------------------
# session commands
# ---------------------------------------------------------------------------

def _cmd_check(session, args, rep):
    if not args:
        raise CommandError("check needs a subject: antisym | swap-commuting "
                           "| poisson | weak-poisson")
    what, rest = args[0], args[1:]
    no_positional = f"check {what} takes no positional arguments"
    if what == "antisym":
        _, opts = _opts(rest, {"--degree": int}, 0, no_positional)
        r = check_antisymmetry(_need_bracket(session), opts.get("--degree", 3))
        rep.say(str(r), check="antisym", holds=str(r.holds).lower(),
                pairs=r.pairs, degree=r.degree_bound)
        rep.outcome(r.holds)
    elif what == "swap-commuting":
        _, opts = _opts(rest, {"--degree": int}, 0, no_positional)
        if session.bimodule is None:
            raise CommandError("this command needs a bimodule declaration")
        r = check_swap_commuting(session.bimodule, opts.get("--degree", 3))
        rep.say(str(r), check="swap-commuting", holds=str(r.holds).lower(),
                cases=r.cases, trials=r.trials, degree=r.degree_bound)
        rep.outcome(r.holds)
    elif what == "poisson":
        _, opts = _opts(rest, {"--degree": int}, 0, no_positional)
        v = is_poisson(_need_bracket(session), opts.get("--degree", 4))
        rep.say(str(v), check="poisson", verdict=str(v))
        rep.outcome(v.holds())
    elif what == "weak-poisson":
        _, opts = _opts(rest, {"--degree": int, "--sigma": str,
                               "--sigma-prime": str}, 0, no_positional)
        if "--sigma" not in opts:
            raise CommandError("check weak-poisson needs --sigma")
        sigma = opts["--sigma"]
        sigma_prime = opts.get("--sigma-prime", sigma)
        v = is_weak_poisson(_need_bracket(session), sigma, sigma_prime,
                            opts.get("--degree", 4))
        rep.say(str(v), check="weak-poisson", sigma=sigma,
                sigma_prime=sigma_prime, verdict=str(v))
        rep.outcome(v.holds())
    else:
        raise CommandError(f"unknown check {what!r}")


def _cmd_jacobiator(session, args, rep):
    a, b, c = _parse_args_polys(session, args, 3)
    value = jacobiator(_need_bracket(session), a, b, c)
    rep.say(f"jacobiator({a}, {b}, {c}) = {value}", jacobiator=str(value))


def _cmd_rep(session, args, rep):
    if not args:
        raise CommandError("rep needs a subject: induce | jacobi | "
                           "trace-bracket | tensor")
    what, rest = args[0], args[1:]
    if what == "induce":
        pos, _ = _opts(rest, {}, 1, "rep induce needs the matrix size")
        n = int(pos[0])
        ps = induce(_need_bracket(session), n)
        rep.say(f"induced structure, kind {ps.kind}, n={n}", kind=str(ps.kind), n=n)
        for (v, w), p in sorted(ps.table.items()):
            body = p.to_str(lambda u: entry_name(ps.alg, u))
            rep.say(f"{{{entry_name(ps.alg, v)}, {entry_name(ps.alg, w)}}} = {body}",
                    **{f"br.{entry_name(ps.alg, v)}.{entry_name(ps.alg, w)}": body})
    elif what == "jacobi":
        pos, _ = _opts(rest, {}, 1, "rep jacobi needs the matrix size")
        r = jacobi_sweep(induce(_need_bracket(session), int(pos[0])))
        rep.say(str(r))
        if rep.fmt == "kv":
            rep.lines.extend(r.kv_lines())
        rep.outcome(r.holds)
    elif what == "trace-bracket":
        pos, _ = _opts(rest, {}, 3, "rep trace-bracket needs: N a b")
        n = int(pos[0])
        a, b = _parse_args_polys(session, pos[1:], 2)
        ps = induce(_need_bracket(session), n)
        value = trace_bracket(ps, a, b)
        body = value.to_str(lambda u: entry_name(ps.alg, u))
        rep.say(f"{{tr X({a}), tr X({b})}} = {body}", trace_bracket=body)
    elif what == "tensor":
        pos, opts = _opts(rest, {"--convention": str}, 3,
                          "rep tensor needs: N a b")
        convention = opts.get("--convention", "tensor")
        n = int(pos[0])
        a, b = _parse_args_polys(session, pos[1:], 2)
        ps = induce(_need_bracket(session), n)
        grid = matrix_tensor_bracket(ps, convention, a, b)
        rep.say(f"matrix tensor bracket, convention {convention}, n={n}",
                convention=convention, n=n)
        for (i, j, k, l), p in sorted(grid.items()):
            body = p.to_str(lambda u: entry_name(ps.alg, u))
            rep.say(f"E[{i},{j}](x)E[{k},{l}]: {body}",
                    **{f"E{i}{j}.E{k}{l}": body})
    else:
        raise CommandError(f"unknown rep command {what!r}")


def _read(path) -> str:
    """The text of a file, or of stdin for '-'."""
    if path == "-":
        return sys.stdin.read()
    with open(path) as f:
        return f.read()


def _cmd_ybe(args, rep):
    if not args:
        raise CommandError("ybe needs a subject: check | standard | entry-jacobi")
    what, rest = args[0], args[1:]
    if what == "standard":
        pos, _ = _opts(rest, {}, 1, "ybe standard needs N")
        text = format_mat_tensor2(standard_r(int(pos[0])))
        for line in text.splitlines():
            rep.say(line, term=line)
    elif what == "check":
        pos, _ = _opts(rest, {}, 1, "ybe check needs a tensor file")
        r = parse_mat_tensor2(_read(pos[0]))
        defect = cybe_defect(r)
        ok = defect.is_zero()
        rep.say(f"cybe defect: {defect}", cybe_defect=str(defect))
        rep.outcome(ok)
    elif what == "entry-jacobi":
        standard = "--standard" in rest
        pos, opts = _opts(rest, {"--standard": int}, 0 if standard else 1,
                          "give either a file or --standard N" if standard else
                          "ybe entry-jacobi needs a tensor file or --standard N")
        r = (standard_r(opts["--standard"]) if standard
             else parse_mat_tensor2(_read(pos[0])))
        report = check_entry_jacobi(entry_bracket(r))
        kv = {"tuples": report.tuples, "n": report.n,
              "holds": str(report.holds).lower()}
        if not report.holds:
            kv["witness"] = ",".join(str(v) for v in report.witness)
            kv["defect"] = report.defect.to_str(report.format_var)
        rep.say(str(report), **kv)
        rep.outcome(report.holds)
    else:
        raise CommandError(f"unknown ybe command {what!r}")


def _cmd_gradient(args, rep):
    if not args or args[0] != "classify":
        raise CommandError("gradient supports: classify")
    # --poly is kept as given, so that a session argument keeps its position
    _, opts = _opts(args[1:], {"--family": str, "--gen": str, "--degree": int,
                               "--coeffs": str, "--poly": lambda a: a}, 0,
                    "gradient classify takes no positional arguments")
    alg = FreeAlgebra(["x1", "x2", "x3"])
    kwargs = {}
    if "--poly" in opts:
        family = opts.get("--family", "custom")
        if family != "custom":
            raise CommandError("--poly implies --family custom")
        kwargs["poly"] = parse_poly(alg, opts["--poly"])
        family = "custom"
    else:
        if "--family" not in opts:
            raise CommandError("gradient classify needs --family or --poly")
        family = opts["--family"]
        if family not in FAMILIES:
            raise CommandError(f"unknown family {family!r}; choose from {FAMILIES}")
        if family == "monomial":
            kwargs["gen"] = opts.get("--gen", "x1")
            kwargs["degree"] = opts.get("--degree", 1)
        elif family == "sum-power":
            kwargs["degree"] = opts.get("--degree", 1)
        elif family == "linear":
            raw = opts.get("--coeffs", "0,1,1,1")
            kwargs["coeffs"] = [Fraction(x) for x in raw.split(",")]
        else:
            raise CommandError("custom family needs --poly")
    report = classify(alg, family, **kwargs)
    for line in str(report).splitlines():
        rep.say(line)
    if rep.fmt == "kv":
        rep.say("", family=report.family, potential=str(report.potential),
                verdict=str(report.verdict),
                casimir=str(report.casimir_ok).lower())
    rep.outcome(report.verdict.holds() and report.casimir_ok)


_SESSION_COMMANDS = {
    "check": _cmd_check,
    "jacobiator": _cmd_jacobiator,
    "rep": _cmd_rep,
}


def run(session: SessionSpec, fmt: str = "plain") -> tuple:
    """Execute the commands of a parsed session; return (report text, code).
    A failing command's output is replaced by its ``error:`` line."""
    rep = Reporter(fmt)
    done = 0
    try:
        for cmd in session.commands:
            name, args = cmd[0], list(cmd[1:])
            rep.say(f"$ {' '.join(cmd)}", command=" ".join(cmd))
            if name in _SESSION_COMMANDS:
                _SESSION_COMMANDS[name](session, args, rep)
            elif name == "ybe":
                _cmd_ybe(args, rep)
            elif name == "gradient":
                _cmd_gradient(args, rep)
            else:
                raise CommandError(f"unknown command {name!r}")
            done = len(rep.lines)
    except Exception as exc:  # the CLI boundary: never exit 1 on a crash
        message, code = _failure(exc)
        rep.lines[done:] = [message]
        return rep.text(), code
    return rep.text(), (FAIL if rep.failed else OK)


def run_text(text: str, fmt: str = "plain") -> tuple:
    """Parse and run a session given as text; return (report text, exit code)."""
    try:
        session = parse_session(text)
    except Exception as exc:  # the CLI boundary: never exit 1 on a crash
        message, code = _failure(exc)
        return message + "\n", code
    return run(session, fmt)


def _failure(exc: Exception) -> tuple:
    """The ``error:`` line and exit code for an exception at the CLI."""
    if isinstance(exc, (ParseError, CommandError, ValueError, OSError)):
        return f"error: {exc}", USAGE
    return f"error: internal failure ({type(exc).__name__}): {exc}", INTERNAL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dbrackets",
        description="exact double-bracket computations and verdicts")
    parser.add_argument("--format", choices=("plain", "kv"), default="plain")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a session file ('-' for stdin)")
    p_run.add_argument("session")

    p_ybe = sub.add_parser("ybe", help="matrix Yang-Baxter checks")
    p_ybe.add_argument("args", nargs=argparse.REMAINDER)

    p_grad = sub.add_parser("gradient", help="gradient bracket classifier")
    p_grad.add_argument("args", nargs=argparse.REMAINDER)

    ns = parser.parse_args(argv)
    if ns.command == "run":
        try:
            text = _read(ns.session)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE
        out, code = run_text(text, ns.format)
        sys.stdout.write(out)
        return code
    rep = Reporter(ns.format)
    try:
        if ns.command == "ybe":
            _cmd_ybe(ns.args, rep)
        else:
            _cmd_gradient(ns.args, rep)
    except Exception as exc:  # the CLI boundary: never exit 1 on a crash
        message, code = _failure(exc)
        print(message, file=sys.stderr)
        return code
    sys.stdout.write(rep.text())
    return FAIL if rep.failed else OK


if __name__ == "__main__":
    sys.exit(main())
