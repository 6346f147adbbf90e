"""Batch command surface over the library.

One grammar, kept in ``_COMMANDS``, reads the console's arguments and every
session command: ``COMMAND [SUBJECT] ARG... [--option VALUE]...``, each
option at most once, after an optional leading ``--format plain|kv`` on the
console.  ``dbrackets run session.txt`` executes a session file (or stdin
with ``-``); ``dbrackets ybe ...`` and ``dbrackets gradient ...`` reach the
matrix Yang-Baxter checks and the gradient-bracket classifier directly.
Exit codes: 0 when every check passed, 1 when some check produced a
counterexample (printed with its witness), 2 on usage or parse errors, 3
when a computation failed for any other reason; either error is one
``error:`` line on stderr, without a traceback.  Output is deterministic
for identical input bytes; ``--format kv`` gives key=value lines.
"""

from __future__ import annotations

import sys

from .bimodule import check_swap_commuting
from .dbracket import (check_antisymmetry, is_poisson, is_weak_poisson,
                       jacobiator)
from .freealg import FreeAlgebra
from .gradient import FAMILIES, classify
from .parsing import (_LINE_BREAKS, ParseError, SessionSpec, parse_integer,
                      parse_poly, parse_rational, parse_session)
from .repspace import (induce, jacobi_sweep, matrix_tensor_bracket,
                       trace_bracket)
from .ybe import (MAX_MATRIX_SIZE, check_entry_jacobi, cybe_defect,
                  entry_bracket, format_mat_tensor2, parse_mat_tensor2,
                  standard_r)

OK, FAIL, USAGE, INTERNAL = 0, 1, 2, 3

_HELP = ("usage: dbrackets [--format plain|kv] run FILE | ybe check|standard|"
         "entry-jacobi ... | gradient classify --family F|--poly P ...")


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


def _opts(args, counts, spec, usage):
    """Split --key value options, each read once by its parser in ``spec``,
    from positional arguments, and raise ``usage`` unless the number of the
    latter is in ``counts``."""
    pos, opts = [], {}
    i = 0
    while i < len(args):
        a = args[i]
        if a.startswith("--"):
            if a not in spec:
                raise CommandError(f"unknown option {a}")
            if a in opts:
                raise CommandError(f"repeated option {a}")
            if i + 1 >= len(args):
                raise CommandError(f"option {a} needs a value")
            opts[a] = spec[a](args[i + 1])
            i += 2
        else:
            pos.append(a)
            i += 1
    if len(pos) not in counts:
        raise CommandError(usage)
    return pos, opts


def _need_bracket(session: SessionSpec):
    if session.bracket is None:
        raise CommandError("this command needs a bracket declaration")
    return session.bracket


# ---------------------------------------------------------------------------
# commands: (session or None, subject, positionals, options, reporter)
# ---------------------------------------------------------------------------

def _cmd_run(session, what, pos, opts, rep):
    _session(_read(pos[0]), rep)


def _cmd_check(session, what, pos, opts, rep):
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


def _cmd_jacobiator(session, what, pos, opts, rep):
    a, b, c = (parse_poly(session.algebra, p) for p in pos)
    value = jacobiator(_need_bracket(session), a, b, c)
    rep.say(f"jacobiator({a}, {b}, {c}) = {value}", jacobiator=str(value))


def _cmd_rep(session, what, pos, opts, rep):
    n = parse_integer(pos[0])
    polys = [parse_poly(session.algebra, a) for a in pos[1:]]
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


def _cmd_ybe(session, what, pos, opts, rep):
    if what == "standard":
        text = format_mat_tensor2(standard_r(_matrix_size(pos[0])))
        for line in text.splitlines():
            rep.say(line, term=line)
    elif what == "check":
        defect = cybe_defect(parse_mat_tensor2(_read(pos[0])))
        rep.say(f"cybe defect: {defect}", cybe_defect=str(defect))
        rep.outcome(defect.is_zero())
    else:
        if len(pos) == ("--standard" in opts):  # neither, or both
            raise CommandError("give either a file or --standard N")
        r = (parse_mat_tensor2(_read(pos[0])) if pos
             else standard_r(opts["--standard"]))
        report = check_entry_jacobi(entry_bracket(r))
        kv = {"tuples": report.tuples, "n": report.n,
              "holds": str(report.holds).lower()}
        if not report.holds:
            kv["witness"] = ",".join(str(v) for v in report.witness)
            kv["defect"] = report.defect.to_str(report.format_var)
        rep.say(str(report), **kv)
        rep.outcome(report.holds)


_GRADIENT_ALGEBRA = FreeAlgebra(["x1", "x2", "x3"])

# gradient family -> the classify keywords that it reads, each given by the
# option of its name, and their defaults; the custom family needs its --poly
_FAMILY_OPTIONS = {
    "monomial": {"gen": "x1", "degree": 1},
    "sum-power": {"degree": 1},
    "linear": {"coeffs": [0, 1, 1, 1]},
    "custom": {"poly": None},
}


def _coeffs(raw: str) -> list:
    try:
        return [parse_rational(x) for x in raw.split(",")]
    except ParseError as exc:
        raise CommandError(f"{exc.reason} in --coeffs {raw}") from None


def _cmd_gradient(session, what, pos, opts, rep):
    family = opts.pop("--family", "custom" if "--poly" in opts else None)
    if family is None:
        raise CommandError("gradient classify needs --family or --poly")
    if family not in _FAMILY_OPTIONS:
        raise CommandError(f"unknown family {family!r}; choose from {FAMILIES}")
    kwargs = {key: opts.pop(f"--{key}", default)
              for key, default in _FAMILY_OPTIONS[family].items()}
    if opts:
        raise CommandError(f"{family} family does not read {next(iter(opts))}")
    if None in kwargs.values():
        raise CommandError(f"{family} family needs --poly")
    report = classify(_GRADIENT_ALGEBRA, family, **kwargs)
    for line in str(report).splitlines():
        rep.say(line)
    if rep.fmt == "kv":
        rep.say("", family=report.family, potential=str(report.potential),
                verdict=str(report.verdict),
                casimir=str(report.casimir_ok).lower())
    rep.outcome(report.verdict.holds() and report.casimir_ok)


# command -> (function, {subject: (positional counts, options and their
# parsers, usage)}); a command without subjects has the one subject ""
_COMMANDS = {
    "run": (_cmd_run, {"": ((1,), {}, "run needs a session file, or '-'")}),
    "check": (_cmd_check, {
        what: ((0,), {"--degree": parse_integer, **sigmas},
               f"check {what} takes no positional arguments")
        for what, sigmas in (
            ("antisym", {}), ("swap-commuting", {}), ("poisson", {}),
            ("weak-poisson", {"--sigma": str, "--sigma-prime": str}))}),
    "jacobiator": (_cmd_jacobiator, {"": ((3,), {}, "jacobiator needs: a b c")}),
    "rep": (_cmd_rep, {
        "induce": ((1,), {}, "rep induce needs the matrix size"),
        "jacobi": ((1,), {}, "rep jacobi needs the matrix size"),
        "trace-bracket": ((3,), {}, "rep trace-bracket needs: N a b"),
        "tensor": ((3,), {"--convention": str}, "rep tensor needs: N a b")}),
    "ybe": (_cmd_ybe, {
        "check": ((1,), {}, "ybe check needs a tensor file"),
        "standard": ((1,), {}, "ybe standard needs N"),
        "entry-jacobi": ((0, 1), {"--standard": _matrix_size},
                         "ybe entry-jacobi needs a tensor file or --standard N")}),
    "gradient": (_cmd_gradient, {"classify": ((0,), {
        "--family": str, "--gen": str, "--degree": parse_integer,
        "--coeffs": _coeffs,
        "--poly": lambda text: parse_poly(_GRADIENT_ALGEBRA, text)},
        "gradient classify takes no positional arguments")}),
}
# the console's commands; the others need a session, which cannot run one
_CONSOLE = ("run", "ybe", "gradient")


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
    """Run one command, its subject and options read by ``_COMMANDS``; a
    result with a coefficient too long for the interpreter's integer
    conversion is a CommandError that names the command."""
    name, args = cmd[0], list(cmd[1:])
    if name not in (_CONSOLE if session is None else _COMMANDS.keys() - {"run"}):
        raise CommandError(f"unknown command {name!r}")
    function, subjects = _COMMANDS[name]
    what = "" if "" in subjects else args.pop(0) if args else None
    if what is None:
        raise CommandError(f"{name} needs a subject: {' | '.join(subjects)}")
    if what not in subjects:
        raise CommandError(f"unknown {name} command {what!r}")
    try:
        function(session, what, *_opts(args, *subjects[what]), rep)
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
    """The ``error:`` line and exit code for an exception at the CLI; a line
    break that the message quotes from an argument is escaped."""
    text = str(exc).translate({ord(c): repr(c)[1:-1] for c in _LINE_BREAKS})
    if isinstance(exc, (ValueError, OSError)):  # ParseError, CommandError too
        return f"error: {text}", USAGE
    return f"error: internal failure ({type(exc).__name__}): {text}", INTERNAL


def _format(text: str) -> str:
    if text not in ("plain", "kv"):
        raise CommandError(f"unknown format {text!r}: use plain or kv")
    return text


def main(argv=None) -> int:
    """The console script: ``[--format plain|kv] COMMAND ...``, or ``-h``
    or ``--help`` alone for the usage line."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv in (["-h"], ["--help"]):
        print(_HELP)
        return OK

    def body(rep, args=argv):
        if args[:1] == ["--format"]:
            _, opts = _opts(args[:2], (0,), {"--format": _format}, "")
            rep.fmt, args = opts["--format"], args[2:]
        if not args:
            raise CommandError(
                f"dbrackets needs a command: {' | '.join(_CONSOLE)}")
        _command(None, args, rep)

    out, error, code = _run("plain", body)
    sys.stdout.write(out)
    sys.stderr.write(error)
    return code


if __name__ == "__main__":
    sys.exit(main())
