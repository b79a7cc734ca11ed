"""The numeric CLI subcommands against recorded outputs.

``check-critical``, ``second-var`` and ``jacobi --section`` are run with
``--format structured`` and ``--format plain`` on every section of each
problem file that has a numeric block, at 7, 64 and 1024 Gauss nodes, and
compared with ``numeric_golden.json``.  Exit codes and verdicts must match
exactly, and so must the words of a plain report, its numbers masked.
Floats cannot be pinned byte for byte, since they move with the last bits
of the quadrature rule and of the numpy build, so they are compared with
tolerances instead:

- quadrature integrals (``integral*``, ``lhs``, ``rhs``) within 1e-13
  relative;
- finite differences within 1e-8 absolute, the noise of a step of 1e-3;
- the on-shell ``difference`` and ``pointwise_max``, rounding noise when
  the form is symmetric, within 1e-13 relative to ``lhs`` and ``rhs``;
- residuals within 1e-13 relative, with an absolute floor of 1e-13.

Regenerate the fixture with ``python tests/test_numeric_golden.py``.
"""

import contextlib
import io
import itertools
import json
import math
import pathlib
import re
import sys

import pytest

from jetvar.cli import main
from jetvar.textio import parse_problem_file

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"
FIXTURE = pathlib.Path(__file__).resolve().parent / "numeric_golden.json"

NODES = (7, 64, 1024)
COMMANDS = ("check-critical", "second-var", "jacobi")
# the key of a structured case carries no format suffix
FORMATS = (("structured", ""), ("plain", " plain"))


def _cases():
    for path in sorted(PROBLEMS.glob("*.vp")):
        pf = parse_problem_file(path.read_text(encoding="utf-8"))
        if pf.numeric is None:
            continue
        fields = ",".join(sorted(pf.variations)[:2])
        for section in sorted(pf.sections):
            for command in COMMANDS:
                for nodes, (fmt, suffix) in itertools.product(NODES,
                                                              FORMATS):
                    argv = [command, str(path), "--section", section,
                            "--fields", fields, "--nodes", str(nodes),
                            "--format", fmt]
                    key = " ".join([path.name, command, section, str(nodes)])
                    yield key + suffix, argv


CASES = dict(_cases())


def _run(argv) -> dict:
    """Exit code and stdout of one call, stdout as JSON when it is."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    text = out.getvalue()
    try:
        return {"exit": code, "output": json.loads(text)}
    except ValueError:
        return {"exit": code, "output": text}


_NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def _compare(path: str, got, want, scale: float = 1.0) -> None:
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        scale = max(abs(want.get("lhs", 0.0)), abs(want.get("rhs", 0.0)),
                    scale)
        for k in want:
            _compare(f"{path}.{k}", got[k], want[k], scale)
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(f"{path}[{i}]", g, w, scale)
    elif isinstance(want, float):
        name = path.rsplit(".", 1)[-1].split("[")[0]
        if name.startswith("integral") or name in ("lhs", "rhs"):
            bound = 1e-13 * abs(want)
        elif name == "finite_difference":
            bound = 1e-8
        else:
            bound = 1e-13 * max(abs(want), scale)
        assert math.isfinite(got) and abs(got - want) <= bound, \
            f"{path}: {got!r} against {want!r}"
    elif isinstance(want, str):
        # a message that quotes a rounded number: the words must match
        assert _NUMBER.sub("#", got) == _NUMBER.sub("#", want), path
    else:   # verdicts, exit codes, the command name
        assert got == want, path


@pytest.mark.parametrize("key", sorted(CASES))
def test_numeric_cli_matches_recorded_output(key):
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))[key]
    _compare(key, _run(CASES[key]), want)


def test_fixture_covers_every_case():
    assert sorted(json.loads(FIXTURE.read_text(encoding="utf-8"))) \
        == sorted(CASES)


if __name__ == "__main__":
    recorded = {key: _run(argv) for key, argv in CASES.items()}
    FIXTURE.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n",
                       encoding="utf-8")
    sys.exit(0)
