"""Command-line front-end: parse a problem file, run a variational
operation or a numeric check, print the result.

Exit codes: 0 success; 1 usage or parse error; 2 semantic error (unknown
name, arity/order mismatch); 3 a numeric check failed beyond tolerance.

Each subcommand accepts ``input``, ``--format``, ``--output`` and only
the flags its handler reads, as ``COMMANDS`` lists them; any other flag
is refused as a usage error.  Some take effect only beside another:
jacobi's ``--fields``, ``--nodes`` and ``--tol`` with ``--section``, and
check-critical's ``--step`` with ``--fields``.

A call pays only for its own subcommand.  A plain call, one input and
flags the subcommand reads, each given once, is read straight from
``COMMANDS`` by ``read_argv``; argparse is imported and built, whole,
only for what that declines: help and every refusal.  Only the numeric
subcommands (check-critical, second-var, jacobi --section) import
``numeric``, and with it numpy.

A subcommand's handler computes and does not print: it returns the
structured payload, the text lines and the check's verdict, and ``run``
alone renders them in the requested format.
"""

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace

from . import expr as ex
from .expr import JetExpr
from .jetcalc import VerticalField
from .numconfig import SETTINGS, NotCritical, NumericError, parse_setting
from .textio import (ParseError, ProblemFile, dump_structured, object_to_dict,
                     parse_problem_file, parse_structured, print_object)
from .variational import (BilinearForm, Lagrangian, SourceForm, adjoint,
                          euler_lagrange, helmholtz, quotient_variation,
                          vertical_differential)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SEMANTIC = 2
EXIT_CHECK_FAILED = 3

# the payload values that run writes through object_to_dict
_FORMS = (JetExpr, SourceForm, BilinearForm)


class SemanticError(ValueError):
    pass


class _UsageError(ValueError):
    pass


FORMATS = ("plain", "latex", "structured")

# argparse keywords of each flag a subcommand may read; the flag of a
# numeric setting is typed by numconfig.parse_setting
_FLAGS = {
    "lagrangian": dict(metavar="NAME"),
    "source": dict(metavar="NAME"),
    "section": dict(metavar="NAME"),
    "fields": dict(metavar="NAME,NAME",
                   help="comma-separated variation field names"),
    "nodes": dict(metavar="N"),
    "step": dict(metavar="H"),
    "tol": dict(metavar="T"),
    "bilinear": dict(metavar="PATH", required=True,
                     help="structured-format bilinear form ('-' for stdin)"),
}


def build_parser():
    """The command-line parser, an argparse.ArgumentParser with one
    subparser per row of ``COMMANDS``."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # usage errors exit 1, not argparse's 2
            raise _UsageError(message)

    def checked(name: str):
        def parse(text: str):
            try:
                return parse_setting(name, text)
            except ValueError as err:
                raise argparse.ArgumentTypeError(str(err)) from None
        return parse

    # the help text is the docstring's first two paragraphs
    description = "\n\n".join(__doc__.split("\n\n")[:2])
    p = Parser(prog="jetvar", description=description,
               formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name, handler, help, flags in COMMANDS:
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        sp.add_argument("input", help="problem file path")
        sp.add_argument("--format", choices=FORMATS, default="plain")
        sp.add_argument("--output", metavar="PATH",
                        help="write output to PATH instead of stdout")
        for flag in flags:
            typed = dict(type=checked(flag)) if flag in SETTINGS else {}
            sp.add_argument(f"--{flag}", **_FLAGS[flag], **typed)
    return p


def read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a plain call, as ``build_parser()`` parses them,
    read from ``COMMANDS``: a subcommand, then one input and flags the
    subcommand reads, each once, as ``--flag value`` or ``--flag=value``,
    where the input and each value is '-' or does not start with '-', and
    each value is one its flag accepts.  None for any other argv (help, a
    usage error, an abbreviation, a repeated flag, ``--``, a negative
    number), which argparse then parses, answers or refuses."""
    found = next((c for c in COMMANDS if argv and c[0] == argv[0]), None)
    if found is None:
        return None
    name, handler, _help, flags = found
    values = {"format": "plain", "output": None, **dict.fromkeys(flags)}
    given, inputs = set(), []
    words = iter(argv[1:])
    for word in words:
        if word == "-" or not word.startswith("-"):
            inputs.append(word)
            continue
        flag, eq, value = word[2:].partition("=")
        if word[1] != "-" or flag not in values or flag in given:
            return None
        if not eq and (value := next(words, None)) is None:
            return None
        if value.startswith("-") and value != "-":
            return None
        if flag == "format" and value not in FORMATS:
            return None
        if flag in SETTINGS:
            try:
                value = parse_setting(flag, value)
            except ValueError:
                return None
        given.add(flag)
        values[flag] = value
    if len(inputs) != 1 or any(_FLAGS[flag].get("required")
                               and flag not in given for flag in flags):
        return None
    return SimpleNamespace(command=name, handler=handler, input=inputs[0],
                           **values)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _pick(table: dict, name: str | None, what: str):
    if name is not None:
        if name not in table:
            raise SemanticError(f"unknown {what} {name!r}; file defines "
                                f"{sorted(table) or 'none'}")
        return table[name]
    if len(table) == 1:
        return next(iter(table.values()))
    if not table:
        raise SemanticError(f"the problem file defines no {what}")
    raise SemanticError(f"several {what}s defined ({sorted(table)}); "
                        f"select one with --{what}")


def _lagrangian(pf: ProblemFile, args) -> Lagrangian:
    return _pick(pf.lagrangians, args.lagrangian, "lagrangian")


def _source(pf: ProblemFile, args) -> SourceForm:
    """A source form: --source NAME, or the Euler-Lagrange form of a
    selected Lagrangian, or whichever of the two the file defines uniquely."""
    if args.source is not None:
        return _pick(pf.sources, args.source, "source")
    if args.lagrangian is not None:
        return euler_lagrange(_lagrangian(pf, args))
    if pf.sources and not pf.lagrangians:
        return _pick(pf.sources, None, "source")
    if pf.lagrangians and not pf.sources:
        return euler_lagrange(_pick(pf.lagrangians, None, "lagrangian"))
    raise SemanticError("select a source form with --source NAME or a "
                        "lagrangian with --lagrangian NAME")


def _variations(pf: ProblemFile, args, count: int | None = None
                ) -> list[tuple[str, tuple[JetExpr, ...]]]:
    """(name, components) of each field named by --fields, in order."""
    names = [w.strip() for w in (args.fields or "").split(",")]
    if names == [""]:
        raise SemanticError("this command needs --fields NAME[,NAME...]")
    if "" in names:
        raise SemanticError(f"--fields {args.fields!r}: entry "
                            f"{names.index('') + 1} is empty")
    if count is not None and len(names) != count:
        raise SemanticError(f"this command needs exactly {count} field names")
    for nm in names:
        if nm not in pf.variations:
            raise SemanticError(f"unknown variation field {nm!r}; file defines "
                                f"{sorted(pf.variations) or 'none'}")
    return [(nm, pf.variations[nm]) for nm in names]


def _numeric_setup(pf: ProblemFile, args):
    """(lagrangian, section) of a numeric check; the lagrangian, the
    numeric block, its bounds and the section are refused, when they
    cannot be had, in that order.  Each setting that no flag gave is set
    on args from the block."""
    from .numeric import NumericSection
    lag = _lagrangian(pf, args)
    if pf.numeric is None:
        raise SemanticError("this command needs a numeric block in the "
                            "problem file")
    domain = pf.numeric.bounds()
    for name, value in pf.numeric.settings.items():
        if getattr(args, name, None) is None:
            setattr(args, name, value)
    exprs = _pick(pf.sections, args.section, "section")
    return lag, NumericSection(pf.ctx, exprs, domain, args.nodes)


def _read(path: str | None) -> str:
    """The text of the file at path, or of stdin when path is None; a
    file that cannot be read or is not UTF-8 is a usage error."""
    try:
        if path is None:
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        where = "stdin" if path is None else repr(path)
        raise _UsageError(f"cannot read {where}: {err}") from None


def _emit(args, text: str) -> None:
    if not args.output:
        print(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as err:
        raise _UsageError(f"cannot write {args.output!r}: {err}") from None


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, lines, held) for run to render.
# payload holds the structured keys, a form as the object itself; each of
# lines is a text line or a (form, name) pair; held is the check's verdict.
# ---------------------------------------------------------------------------


def _cmd_el(pf: ProblemFile, args):
    e = euler_lagrange(_lagrangian(pf, args))
    return {"source_form": e}, [(e, "A")], True


def _cmd_helmholtz(pf: ProblemFile, args):
    # H* = -H (see variational.helmholtz): the skew slots, kept, repeat H
    h = helmholtz(_source(pf, args))
    variational = h.is_zero
    lines = [(h, "H")]
    if not variational:
        lines += ["skew part:", (h, "H")]
    lines.append("verdict: " + ("locally variational" if variational
                                else "not locally variational"))
    return ({"helmholtz": h, "helmholtz_skew": h,
             "locally_variational": variational}, lines, True)


def _cmd_jacobi(pf: ProblemFile, args):
    # J = V* = V by the Helmholtz conditions: J repeats V, the verdict is yes
    ve = vertical_differential(_lagrangian(pf, args))
    payload = {"vertical_differential": ve, "jacobi": ve,
               "formally_self_adjoint": True}
    lines = [(ve, "V"), "", (ve, "J"), "", "formally self-adjoint: yes"]
    if args.section is None:
        return payload, lines, True
    from .numeric import check_onshell_symmetry
    lag, sec = _numeric_setup(pf, args)
    if not args.fields:
        raise SemanticError("--section also needs --fields A,B for the "
                            "on-shell report")
    (_, xi1), (_, xi2) = _variations(pf, args, 2)
    rep = check_onshell_symmetry(lag, sec, xi1, xi2, crit_tol=args.tol)
    held = rep.symmetric(args.tol)
    payload["onshell_symmetry"] = {
        "lhs": rep.lhs, "rhs": rep.rhs, "difference": rep.difference,
        "pointwise_max": rep.pointwise_max,
        "criticality_residual": rep.residual, "symmetric": held}
    lines += [f"on-shell symmetry: lhs = {rep.lhs!r}, rhs = {rep.rhs!r}, "
              f"difference = {rep.difference!r}",
              f"symmetric (rel tol {args.tol:g}): {'yes' if held else 'no'}"]
    return payload, lines, held


def _cmd_variation(pf: ProblemFile, args, count: int | None = None):
    lag = _lagrangian(pf, args)
    fields = [VerticalField(pf.ctx, comps)
              for _, comps in _variations(pf, args, count)]
    v = quotient_variation(lag, fields)
    return {"order": len(fields), "density": v.density}, [(v.density, "A")], True


def _criticality(rep) -> dict:
    """The structured keys of a criticality report."""
    return {"max_residual": rep.max_residual,
            "per_component": list(rep.per_component),
            "tol": rep.tol, "critical": rep.is_critical}


def _cmd_check_critical(pf: ProblemFile, args):
    from .numeric import check_critical, first_variation_pair
    lag, sec = _numeric_setup(pf, args)
    rep = check_critical(lag, sec, tol=args.tol)
    first_vars = {}
    lines = [f"max residual: {rep.max_residual!r}",
             "per component: " + ", ".join(map(repr, rep.per_component)),
             f"critical (tol {args.tol:g}): "
             f"{'yes' if rep.is_critical else 'no'}"]
    if args.fields:
        for nm, comps in _variations(pf, args):
            fd, sym = first_variation_pair(lag, sec, comps, step=args.step)
            first_vars[nm] = {"finite_difference": fd, "integral": sym}
            lines.append(f"first variation [{nm}]: fd = {fd!r}, "
                         f"integral = {sym!r}")
    return ({**_criticality(rep), "first_variations": first_vars}, lines,
            rep.is_critical)


def _cmd_second_var(pf: ProblemFile, args):
    from .numeric import second_variation_check
    lag, sec = _numeric_setup(pf, args)
    (_, xi1), (_, xi2) = _variations(pf, args, 2)
    rep = second_variation_check(lag, sec, xi1, xi2, step=args.step,
                                 crit_tol=args.tol)
    held = rep.consistent(args.tol)
    lines = [
        f"finite-difference second variation: {rep.finite_difference!r}",
        f"integral against vertical differential: "
        f"{rep.integral_vertical_differential!r}",
        f"integral against jacobi morphism: {rep.integral_jacobi!r}",
        f"consistent (rel tol {args.tol:g}): {'yes' if held else 'no'}"]
    return ({"finite_difference": rep.finite_difference,
             "integral_vertical_differential":
                 rep.integral_vertical_differential,
             "integral_jacobi": rep.integral_jacobi,
             "criticality_residual": rep.residual,
             "consistent": held}, lines, held)


def _cmd_adjoint(pf: ProblemFile, args):
    text = _read(None if args.bilinear == "-" else args.bilinear)
    try:
        form = parse_structured(text, pf.ctx)
    except ValueError as err:
        raise SemanticError(f"cannot read bilinear form: {err}") from None
    if not isinstance(form, BilinearForm):
        raise SemanticError("--bilinear input is not a bilinear form")
    out = adjoint(form)
    return {"adjoint": out}, [(out, "A")], True


# the flags of a numeric check
_CHECK = ("lagrangian", "section", "fields", "nodes", "step", "tol")

# (name, handler, help, the flags of _FLAGS that the handler reads)
COMMANDS = (
    ("el", _cmd_el, "Euler-Lagrange source form", ("lagrangian",)),
    ("jacobi", _cmd_jacobi, "vertical differential, its adjoint, and an "
                            "on-shell report",
     ("lagrangian", "section", "fields", "nodes", "tol")),
    ("helmholtz", _cmd_helmholtz, "Helmholtz obstruction and "
                                  "local-variationality verdict",
     ("lagrangian", "source")),
    ("hessian", functools.partial(_cmd_variation, count=2),
     "Hessian density for two fields", ("lagrangian", "fields")),
    ("variation", _cmd_variation, "iterated quotient variation",
     ("lagrangian", "fields")),
    ("check-critical", _cmd_check_critical, "criticality residuals", _CHECK),
    ("second-var", _cmd_second_var, "numeric second-variation check", _CHECK),
    ("adjoint", _cmd_adjoint, "adjoint of a bilinear form", ("bilinear",)),
)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run(args) -> tuple[str, int]:
    """The command's output, rendered in the requested format, and exit
    code: a failed check's report, or a check's refusal of a section that
    is not critical (its criticality report, or the refusal as a line), is
    still the requested output."""
    pf = parse_problem_file(_read(args.input))
    try:
        payload, lines, held = args.handler(pf, args)
    except NotCritical as err:
        payload, lines, held = _criticality(err.report), [str(err)], False
    if args.format == "structured":
        # each form once, though V fills the J key too and H the skew one
        forms = {id(v): v for v in payload.values() if isinstance(v, _FORMS)}
        dicts = {i: object_to_dict(v) for i, v in forms.items()}
        text = dump_structured({"command": args.command, **{
            k: dicts.get(id(v), v) for k, v in payload.items()}})
    else:
        text = "\n".join(ln if isinstance(ln, str)
                         else print_object(ln[0], args.format, ln[1])
                         for ln in lines)
    return text, EXIT_OK if held else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = read_argv(argv) or build_parser().parse_args(argv)
        text, code = run(args)
        _emit(args, text)
    except SystemExit:   # argparse has printed the --help text
        return EXIT_OK
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (SemanticError, ex.ExprError, NumericError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SEMANTIC
    if code == EXIT_CHECK_FAILED:
        print("check failed beyond tolerance", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
