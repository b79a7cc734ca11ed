"""Byte-identity sweep of the command line: run every subcommand on
problem files, in one process, and print one line per argv with its exit
code and the SHA-256 of its stdout and of its stderr.  Two checkouts
print the same lines exactly when their outputs agree byte for byte:

    python scripts/cli_sweep.py > new.txt
    python ../other/scripts/cli_sweep.py > old.txt
    diff old.txt new.txt

With no FILES it sweeps problems/*.vp.  The argv of a file come from the
names it defines, each in the three formats: every subcommand bare; el,
jacobi and helmholtz with each lagrangian, helmholtz with each source;
hessian on each ordered pair of fields, variation on each field and
pair; on each section, check-critical bare, with each field and with
all of them, and second-var and jacobi --section on each ordered pair,
each at the file's node count, at 7 nodes and at a large rule (1024
nodes in 1-D, 16 per axis otherwise); adjoint on the structured V and J
of each lagrangian and H of each source, fed on stdin.  The jetvar it
runs is the src/ of the checkout that holds this script.

    python scripts/cli_sweep.py [FILES...]
"""

import contextlib
import hashlib
import io
import itertools
import json
import pathlib
import shlex
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from jetvar import cli  # noqa: E402
from jetvar.textio import ParseError, parse_problem_file  # noqa: E402

FORMATS = ("plain", "latex", "structured")


def _call(argv: list[str], stdin: str = "") -> tuple[str, str, str]:
    """(exit code, stdout, stderr) of one cli.main call; an exception that
    escapes main, a breach of the exit-code contract, shows as the code
    'Traceback:<type>'."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = str(cli.main(argv))
    except Exception as exc:
        code = f"Traceback:{type(exc).__name__}"
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _bilinear_inputs(path: str, lags: list[str], sources: list[str]
                     ) -> list[str]:
    """Structured bilinear forms for adjoint: V and J of each lagrangian,
    and H of each source, each as jetvar prints it."""
    runs = [(["jacobi", path, "--lagrangian", n], key)
            for n in lags for key in ("vertical_differential", "jacobi")]
    runs += [(["helmholtz", path, "--source", n], "helmholtz")
             for n in sources]
    forms = []
    for argv, key in runs:
        code, out, _ = _call(argv + ["--format", "structured"])
        if code == "0":
            forms.append(json.dumps(json.loads(out)[key]))
    return forms


def corpus(path: str) -> list[tuple[list[str], str]]:
    """(argv after the file, stdin) for each call on one problem file."""
    try:
        with open(path, encoding="utf-8") as fh:
            pf = parse_problem_file(fh.read())
    except (OSError, UnicodeDecodeError, ParseError):
        pf = None     # each subcommand still runs once per format, bare
    lags = sorted(pf.lagrangians) if pf else []
    sources = sorted(pf.sources) if pf else []
    sections = sorted(pf.sections) if pf else []
    fields = sorted(pf.variations) if pf else []
    big = "1024" if pf is None or pf.ctx.n == 1 else "16"
    nodes = ([], ["--nodes", "7"], ["--nodes", big])
    lag_opts = [["--lagrangian", n] for n in lags]
    pairs = [f"{a},{b}" for a, b in itertools.product(fields, repeat=2)]
    every = [",".join(fields)] if len(fields) > 1 else []
    tuples = fields + pairs + (every if len(fields) > 2 else [])
    calls = []
    for cmd in ("el", "helmholtz", "jacobi", "hessian", "variation",
                "check-critical", "second-var"):
        calls.append([cmd])
    calls += [["el", *lag] for lag in lag_opts]
    calls += [["jacobi", *lag] for lag in lag_opts]
    calls += [["helmholtz", *lag] for lag in lag_opts]
    calls += [["helmholtz", "--source", n] for n in sources]
    for lag in lag_opts:
        calls += [["hessian", *lag, "--fields", p] for p in pairs]
        calls += [["variation", *lag, "--fields", f] for f in tuples]
        for sec, n in itertools.product(sections, nodes):
            at = [*lag, "--section", sec, *n]
            calls.append(["check-critical", *at])
            calls += [["check-critical", *at, "--fields", f]
                      for f in fields + every]
            calls += [[cmd, *at, "--fields", p] for p in pairs
                      for cmd in ("second-var", "jacobi")]
    out = [(argv, "") for argv in calls]
    out += [(["adjoint", "--bilinear", "-"], form)
            for form in _bilinear_inputs(path, lags, sources)]
    return [(argv + ["--format", fmt], stdin)
            for argv, stdin in out for fmt in FORMATS]


def _shown(path: str) -> str:
    """The file as printed: relative to the checkout when inside it, so
    that two checkouts print the same argv."""
    try:
        return str(pathlib.Path(path).resolve().relative_to(ROOT))
    except ValueError:
        return path


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv: list[str]) -> int:
    paths = argv or [str(p) for p in sorted((ROOT / "problems").glob("*.vp"))]
    count = 0
    for path in paths:
        for rest, stdin in corpus(path):
            code, out, err = _call([rest[0], path, *rest[1:]], stdin)
            shown = shlex.join([rest[0], _shown(path), *rest[1:]])
            if stdin:
                shown += f" <stdin:{_digest(stdin)[:16]}"
            print(f"{shown}\t{code}\t{_digest(out)}\t{_digest(err)}")
            count += 1
    print(f"{count} argv", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
