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

from .bimodule import check_swap_commuting
from .dbracket import (check_antisymmetry, is_poisson, is_weak_poisson,
                       jacobiator)
from .freealg import FreeAlgebra
from .gradient import classify
from .parsing import (ParseError, SessionSpec, parse_integer, parse_poly,
                      parse_rational, parse_session)
from .repspace import (induce, jacobi_sweep, matrix_tensor_bracket,
                       trace_bracket)
from .ybe import (MAX_MATRIX_SIZE, check_entry_jacobi, cybe_defect,
                  entry_bracket, format_mat_tensor2, parse_mat_tensor2,
                  standard_r)

OK, FAIL, USAGE, INTERNAL = 0, 1, 2, 3


class CommandError(ValueError):
    """Malformed session command; reported with exit code 2."""


class Reporter:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines = []
        self.failed = False
        self.done = 0  # the lines kept when a later command fails

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
    if what not in ("antisym", "swap-commuting", "poisson", "weak-poisson"):
        raise CommandError(f"unknown check {what!r}")
    sigmas = ({"--sigma": str, "--sigma-prime": str}
              if what == "weak-poisson" else {})
    _, opts = _opts(rest, {"--degree": parse_integer, **sigmas}, 0,
                    f"check {what} takes no positional arguments")
    degree = opts.get("--degree",
                      4 if what in ("poisson", "weak-poisson") else 3)
    if what == "antisym":
        r = check_antisymmetry(_need_bracket(session), degree)
        rep.say(str(r), check="antisym", holds=str(r.holds).lower(),
                pairs=r.pairs, degree=r.degree_bound)
        rep.outcome(r.holds)
    elif what == "swap-commuting":
        if session.bimodule is None:
            raise CommandError("this command needs a bimodule declaration")
        r = check_swap_commuting(session.bimodule, degree)
        rep.say(str(r), check="swap-commuting", holds=str(r.holds).lower(),
                cases=r.cases, trials=r.trials, degree=r.degree_bound)
        rep.outcome(r.holds)
    elif what == "poisson":
        v = is_poisson(_need_bracket(session), degree)
        rep.say(str(v), check="poisson", verdict=str(v))
        rep.outcome(v.holds())
    else:
        if "--sigma" not in opts:
            raise CommandError("check weak-poisson needs --sigma")
        sigma = opts["--sigma"]
        sigma_prime = opts.get("--sigma-prime", sigma)
        v = is_weak_poisson(_need_bracket(session), sigma, sigma_prime,
                            degree)
        rep.say(str(v), check="weak-poisson", sigma=sigma,
                sigma_prime=sigma_prime, verdict=str(v))
        rep.outcome(v.holds())


def _cmd_jacobiator(session, args, rep):
    a, b, c = _parse_args_polys(session, args, 3)
    value = jacobiator(_need_bracket(session), a, b, c)
    rep.say(f"jacobiator({a}, {b}, {c}) = {value}", jacobiator=str(value))


# rep subject -> (polynomial arguments after N, options, usage)
_REP_ARGS = {
    "induce": (0, {}, "rep induce needs the matrix size"),
    "jacobi": (0, {}, "rep jacobi needs the matrix size"),
    "trace-bracket": (2, {}, "rep trace-bracket needs: N a b"),
    "tensor": (2, {"--convention": str}, "rep tensor needs: N a b"),
}


def _cmd_rep(session, args, rep):
    if not args:
        raise CommandError("rep needs a subject: induce | jacobi | "
                           "trace-bracket | tensor")
    what, rest = args[0], args[1:]
    if what not in _REP_ARGS:
        raise CommandError(f"unknown rep command {what!r}")
    arity, spec, usage = _REP_ARGS[what]
    pos, opts = _opts(rest, spec, 1 + arity, usage)
    n = parse_integer(pos[0])
    polys = _parse_args_polys(session, pos[1:], arity)
    ps = induce(_need_bracket(session), n)
    name = ps.format_entry
    if what == "induce":
        rep.say(f"induced structure, kind {ps.kind}, n={n}", kind=str(ps.kind), n=n)
        for (v, w), p in sorted(ps.table.items()):
            body = p.to_str(name)
            rep.say(f"{{{name(v)}, {name(w)}}} = {body}",
                    **{f"br.{name(v)}.{name(w)}": body})
    elif what == "jacobi":
        r = jacobi_sweep(ps)
        rep.say(str(r), n=r.n, tuples_checked=r.tuples,
                max_defect=0 if r.holds else r.defect.to_str(r.format_var))
        rep.outcome(r.holds)
    elif what == "trace-bracket":
        a, b = polys
        body = trace_bracket(ps, a, b).to_str(name)
        rep.say(f"{{tr X({a}), tr X({b})}} = {body}", trace_bracket=body)
    else:
        convention = opts.get("--convention", "tensor")
        grid = matrix_tensor_bracket(ps, convention, *polys)
        rep.say(f"matrix tensor bracket, convention {convention}, n={n}",
                convention=convention, n=n)
        for (i, j, k, l), p in sorted(grid.items()):
            body = p.to_str(name)
            rep.say(f"E[{i},{j}](x)E[{k},{l}]: {body}",
                    **{f"E{i}{j}.E{k}{l}": body})


def _read(path) -> str:
    """The text of a file, or of stdin for '-'."""
    if path == "-":
        return sys.stdin.read()
    with open(path) as f:
        return f.read()


def _matrix_size(text: str) -> int:
    """The N of ``ybe standard N`` and ``--standard N``, checked against
    the largest matrix size before any work."""
    n = parse_integer(text)
    if n > MAX_MATRIX_SIZE:
        raise CommandError(
            f"matrix size {n} is above the largest, {MAX_MATRIX_SIZE}")
    return n


def _cmd_ybe(session, args, rep):
    if not args:
        raise CommandError("ybe needs a subject: check | standard | entry-jacobi")
    what, rest = args[0], args[1:]
    if what == "standard":
        pos, _ = _opts(rest, {}, 1, "ybe standard needs N")
        text = format_mat_tensor2(standard_r(_matrix_size(pos[0])))
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
        pos, opts = _opts(rest, {"--standard": _matrix_size},
                          0 if standard else 1,
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


def _cmd_gradient(session, args, rep):
    if not args or args[0] != "classify":
        raise CommandError("gradient supports: classify")
    # --poly is kept as given, so that a session argument keeps its position
    _, opts = _opts(args[1:], {"--family": str, "--gen": str,
                               "--degree": parse_integer, "--coeffs": str,
                               "--poly": lambda a: a}, 0,
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
        if family == "monomial":
            kwargs["gen"] = opts.get("--gen", "x1")
            kwargs["degree"] = opts.get("--degree", 1)
        elif family == "sum-power":
            kwargs["degree"] = opts.get("--degree", 1)
        elif family == "linear":
            raw = opts.get("--coeffs", "0,1,1,1")
            try:
                kwargs["coeffs"] = [parse_rational(x) for x in raw.split(",")]
            except ParseError as exc:
                raise CommandError(f"{exc.reason} in --coeffs {raw}") from None
        elif family == "custom":
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
    "ybe": _cmd_ybe,
    "gradient": _cmd_gradient,
}


def run(session, fmt: str = "plain") -> tuple:
    """Execute a session, given as text or parsed; return (report text,
    exit code).  A failing command's output is replaced by its ``error:``
    line."""
    out, error, code = _run(fmt, lambda rep: _session(session, rep))
    return out + error, code


run_text = run


def _session(session, rep: Reporter):
    """Run the commands of a session, parsing it first if it is text; a
    command error names the session position of the command."""
    if isinstance(session, str):
        session = parse_session(session)
    for cmd in session.commands:
        name = cmd[0]
        rep.say(f"$ {' '.join(cmd)}", command=" ".join(cmd))
        try:
            _command(session, cmd, rep)
        except CommandError as exc:
            raise ParseError(str(exc), *getattr(name, "at", ())) from None
        rep.done = len(rep.lines)


def _command(session, cmd, rep: Reporter):
    """Run one command; a result with a coefficient too long for the
    interpreter's integer conversion is a CommandError that names it."""
    name = cmd[0]
    if name not in _SESSION_COMMANDS:
        raise CommandError(f"unknown command {name!r}")
    try:
        _SESSION_COMMANDS[name](session, list(cmd[1:]), rep)
    except ValueError as exc:  # the interpreter's, raised while printing
        if type(exc) is not ValueError or "string conversion" not in str(exc):
            raise
        raise CommandError(
            f"{name}: the result has a coefficient over the interpreter's "
            f"limit of {sys.get_int_max_str_digits()} digits for integer "
            f"conversion") from None


def _run(fmt: str, body) -> tuple:
    """Run ``body(reporter)`` behind the CLI boundary; return (the output it
    kept, the ``error:`` line if it failed or "", exit code)."""
    rep = Reporter(fmt)
    try:
        body(rep)
    except Exception as exc:  # the CLI boundary: never exit 1 on a crash
        message, code = _failure(exc)
        del rep.lines[rep.done:]
        return rep.text(), message + "\n", code
    return rep.text(), "", (FAIL if rep.failed else OK)


def _failure(exc: Exception) -> tuple:
    """The ``error:`` line and exit code for an exception at the CLI."""
    if isinstance(exc, (ValueError, OSError)):  # ParseError, CommandError too
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
    out, error, code = _run(ns.format, lambda rep: (
        _session(_read(ns.session), rep) if ns.command == "run"
        else _command(None, [ns.command, *ns.args], rep)))
    sys.stdout.write(out)
    sys.stderr.write(error)
    return code


if __name__ == "__main__":
    sys.exit(main())
