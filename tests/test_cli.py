import contextlib
import functools
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from jetvar import (BilinearForm, JetContext, NumericSection, check_critical,
                    second_variation_check)
from jetvar import cli
from jetvar.cli import COMMANDS, _UsageError, build_parser, main, read_argv
from jetvar.multiindex import MultiIndex
from jetvar.textio import parse_problem_file, print_object

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"
OSC = str(PROBLEMS / "oscillator.vp")
BEAM = str(PROBLEMS / "beam.vp")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path(problems_dir, name):
    return str(problems_dir / name)


def test_el_golden(capsys, problems_dir):
    code, out, err = run(capsys, "el", path(problems_dir, "oscillator.vp"))
    assert code == 0
    assert out.strip() == "e_1 = -y - y_tt"


def test_el_latex(capsys, problems_dir):
    code, out, _ = run(capsys, "el", path(problems_dir, "oscillator.vp"),
                       "--format", "latex")
    assert code == 0
    assert out.strip() == "e_{1} = -y - y_{t t}"


EL_STRUCTURED_GOLDEN = {
    "command": "el",
    "source_form": {
        "type": "source_form",
        "components": [
            {"terms": [
                {"coeff": "-1",
                 "factors": [{"atom": {"kind": "jet", "field": "y",
                                       "counts": [0]}, "power": 1}]},
                {"coeff": "-1",
                 "factors": [{"atom": {"kind": "jet", "field": "y",
                                       "counts": [2]}, "power": 1}]},
            ]}
        ],
    },
}


def test_el_structured_golden(capsys, problems_dir):
    """The structured schema is the stability-guaranteed interface; this
    golden pins it."""
    code, out, _ = run(capsys, "el", path(problems_dir, "oscillator.vp"),
                       "--format", "structured")
    assert code == 0
    assert json.loads(out) == EL_STRUCTURED_GOLDEN


def test_el_structured_deterministic(capsys, problems_dir):
    code1, out1, _ = run(capsys, "el", path(problems_dir, "oscillator.vp"),
                         "--format", "structured")
    code2, out2, _ = run(capsys, "el", path(problems_dir, "oscillator.vp"),
                         "--format", "structured")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["command"] == "el"
    assert payload["source_form"]["type"] == "source_form"


def test_helmholtz_not_variational(capsys, problems_dir):
    code, out, _ = run(capsys, "helmholtz", path(problems_dir, "oscillator.vp"),
                       "--source", "drift")
    assert code == 0
    assert "H^{t}_{1 1} = 2" in out
    assert "not locally variational" in out


def test_helmholtz_skew_slot_is_h(capsys, problems_dir):
    """H is skew-adjoint, so the structured skew part is H itself."""
    code, out, _ = run(capsys, "helmholtz", path(problems_dir, "oscillator.vp"),
                       "--source", "drift", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["helmholtz"]["entries"]
    assert doc["helmholtz_skew"] == doc["helmholtz"]


def test_helmholtz_variational(capsys, problems_dir):
    code, out, _ = run(capsys, "helmholtz", path(problems_dir, "oscillator.vp"),
                       "--source", "curvature")
    assert code == 0
    assert "verdict: locally variational" in out


def test_helmholtz_of_lagrangian(capsys, problems_dir):
    code, out, _ = run(capsys, "helmholtz", path(problems_dir, "oscillator.vp"),
                       "--lagrangian", "osc")
    assert code == 0
    assert "verdict: locally variational" in out


def test_jacobi_plain(capsys, problems_dir):
    code, out, _ = run(capsys, "jacobi", path(problems_dir, "oscillator.vp"))
    assert code == 0
    assert "V^{0}_{1 1} = -1" in out
    assert "V^{t t}_{1 1} = -1" in out
    assert "J^{0}_{1 1} = -1" in out
    assert "formally self-adjoint: yes" in out


def test_jacobi_with_onshell_report(capsys, problems_dir):
    code, out, _ = run(capsys, "jacobi", path(problems_dir, "oscillator.vp"),
                       "--section", "sol", "--fields", "b1,b2",
                       "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    rep = payload["onshell_symmetry"]
    assert abs(rep["lhs"] - rep["rhs"]) <= 1e-6 * max(abs(rep["lhs"]), 1.0)


def test_jacobi_noncritical_section_exit_3(capsys, problems_dir):
    code, out, err = run(capsys, "jacobi", path(problems_dir, "oscillator.vp"),
                         "--section", "bad", "--fields", "b1,b2")
    assert code == 3
    assert "not critical" in out
    assert "check failed" in err


def test_jacobi_asymmetric_report_exit_3(capsys):
    """At 7 nodes the b1, b3 contractions disagree: the report is still
    printed, as JSON in structured form, and the check exits 3; the plain
    report ends with its verdict."""
    argv = ("jacobi", OSC, "--lagrangian", "osc", "--section", "sol",
            "--nodes", "7", "--fields", "b1,b3")
    code, out, err = run(capsys, *argv, "--format", "structured")
    assert code == 3 and "check failed" in err
    rep = json.loads(out)["onshell_symmetry"]
    assert not math.isclose(rep["lhs"], rep["rhs"], rel_tol=1e-6)
    assert rep["symmetric"] is False
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert "formally self-adjoint: yes" in out
    assert re.search(r"^on-shell symmetry: lhs = \S+, rhs = \S+, "
                     r"difference = \S+$", out, re.M)
    assert out.endswith("\nsymmetric (rel tol 1e-06): no\n")


def test_hessian(capsys, problems_dir):
    code, out, _ = run(capsys, "hessian", path(problems_dir, "oscillator.vp"),
                       "--fields", "b1,b1")
    assert code == 0
    assert out.strip() == "-1"


def test_variation_first(capsys, problems_dir):
    code, out, _ = run(capsys, "variation", path(problems_dir, "oscillator.vp"),
                       "--fields", "b1")
    assert code == 0
    assert out.strip() == "-y - y_tt"


def test_variation_third_order(capsys, problems_dir):
    code, out, _ = run(capsys, "variation", path(problems_dir, "oscillator.vp"),
                       "--fields", "b1,b1,b1")
    assert code == 0
    assert out.strip() == "0"


def test_check_critical_ok(capsys, problems_dir):
    code, out, _ = run(capsys, "check-critical",
                       path(problems_dir, "oscillator.vp"),
                       "--section", "sol", "--fields", "b1,b2")
    assert code == 0
    assert "critical (tol 1e-06): yes" in out


def test_check_critical_at_the_point_cap(capsys, problems_dir):
    """The largest admitted 1-D section runs to a verdict, in well under
    a second on a laptop."""
    code, out, _ = run(capsys, "check-critical",
                       path(problems_dir, "oscillator.vp"),
                       "--section", "sol", "--fields", "b1,b2",
                       "--nodes", "65536")
    assert code == 0
    assert "critical (tol 1e-06): yes" in out


def test_check_critical_fails_exit_3(capsys, problems_dir):
    code, out, err = run(capsys, "check-critical",
                         path(problems_dir, "oscillator.vp"),
                         "--section", "bad")
    assert code == 3
    assert "critical (tol 1e-06): no" in out
    assert "check failed" in err


def test_second_var(capsys, problems_dir):
    code, out, _ = run(capsys, "second-var",
                       path(problems_dir, "oscillator.vp"),
                       "--section", "sol", "--fields", "b1,b2",
                       "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["consistent"] is True
    fd = payload["finite_difference"]
    ive = payload["integral_vertical_differential"]
    assert abs(fd - ive) <= 1e-6 * max(abs(fd), abs(ive))


def test_second_var_beam(capsys, problems_dir):
    code, out, _ = run(capsys, "second-var", path(problems_dir, "beam.vp"),
                       "--section", "cubic", "--fields", "b1,b2")
    assert code == 0
    assert "consistent (rel tol 1e-06): yes" in out


def test_second_var_noncritical_exit_3(capsys, problems_dir):
    code, out, err = run(capsys, "second-var", path(problems_dir, "beam.vp"),
                         "--section", "sag", "--fields", "b1,b2")
    assert code == 3
    assert "not critical" in out
    assert "check failed" in err


def test_adjoint_roundtrip(capsys, tmp_path, problems_dir):
    ctx = JetContext.make("t", "y")
    form = BilinearForm(ctx, {(MultiIndex((2,)), 0, 0): ctx.fiber("y")})
    form_path = tmp_path / "form.json"
    form_path.write_text(print_object(form, "structured"))
    code, out, _ = run(capsys, "adjoint", path(problems_dir, "oscillator.vp"),
                       "--bilinear", str(form_path))
    assert code == 0
    assert "A^{0}_{1 1} = y_tt" in out
    assert "A^{t}_{1 1} = 2*y_t" in out
    assert "A^{t t}_{1 1} = y" in out


def test_adjoint_rejects_wrong_payload(capsys, tmp_path, problems_dir):
    form_path = tmp_path / "notaform.json"
    form_path.write_text('{"type": "expr", "terms": []}')
    code, _out, err = run(capsys, "adjoint",
                          path(problems_dir, "oscillator.vp"),
                          "--bilinear", str(form_path))
    assert code == 2
    assert "not a bilinear form" in err


def test_missing_file_exit_1(capsys):
    code, _out, err = run(capsys, "el", "no/such/file.vp")
    assert code == 1
    assert "cannot read" in err


def test_unknown_name_exit_2(capsys, problems_dir):
    code, _out, err = run(capsys, "el", path(problems_dir, "oscillator.vp"),
                          "--lagrangian", "nope")
    assert code == 2
    assert "unknown lagrangian" in err


def test_parse_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.vp"
    bad.write_text("context\n base t\n field y\nlagrangian l\n y_t +\n")
    code, _out, err = run(capsys, "el", str(bad))
    assert code == 1
    assert "parse error" in err and "line" in err


def test_usage_error_exit_1(capsys):
    code, _out, err = run(capsys, "frobnicate", "x.vp")
    assert code == 1
    assert "error" in err


def test_output_flag_writes_file(capsys, tmp_path, problems_dir):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "el", path(problems_dir, "oscillator.vp"),
                       "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().strip() == "e_1 = -y - y_tt"


def test_el_metric_fixture(capsys, problems_dir):
    code, out, _ = run(capsys, "el", path(problems_dir, "geodesic_metric.vp"))
    assert code == 0
    assert "g11_{q1}(q1, q2)" in out
    assert out.startswith("e_1 = ")


def test_nodes_override(capsys, problems_dir):
    code, out, _ = run(capsys, "check-critical",
                       path(problems_dir, "geodesic_flat.vp"),
                       "--section", "line", "--nodes", "16")
    assert code == 0


BAD_BILINEAR = (
    "[]",
    '{"type": "bilinear_form", "entries": 5}',
    '{"type": "bilinear_form", "entries": [{"sigma": [0], "i": "y", '
    '"j": "y", "value": {"terms": [{"coeff": "1/0", "factors": []}]}}]}',
)



def _bilinear(i: str, atom: dict, power: int) -> str:
    """A structured bilinear form with the single entry atom^power at
    sigma [1], fields (i, i)."""
    term = {"coeff": "1", "factors": [{"atom": atom, "power": power}]}
    return json.dumps({"type": "bilinear_form", "entries": [
        {"sigma": [1], "i": i, "j": i, "value": {"terms": [term]}}]})


GEO = str(PROBLEMS / "geodesic_metric.vp")
OSC_FORM = _bilinear("y", {"kind": "jet", "field": "y", "counts": [1]}, 2)
BASE_FORM = _bilinear("y", {"kind": "base", "name": "t"}, 1)
GEO_FORM = _bilinear("q1", {
    "kind": "opaque", "name": "g11", "orders": [1, 0],
    "args": [{"terms": [{"coeff": "1", "factors": [{"atom": {
        "kind": "jet", "field": q, "counts": [0]}, "power": 1}]}]}
        for q in ("q1", "q2")]}, 1)
# one value of each integer or string field of the structured format, of
# a JSON type that the reader once converted silently:
# (file, form, old, new, error)
MISTYPED = (
    (OSC, OSC_FORM, '"sigma": [1]', '"sigma": [1.7]', "int, got 1.7"),
    (OSC, OSC_FORM, '"counts": [1]', '"counts": [true]', "int, got True"),
    (GEO, GEO_FORM, '"orders": [1, 0]', '"orders": [1.0, 0]', "int, got 1.0"),
    (OSC, OSC_FORM, '"power": 2', '"power": 2.9', "int, got 2.9"),
    (OSC, OSC_FORM, '"power": 2', '"power": "3"', "int, got '3'"),
    (OSC, OSC_FORM, '"coeff": "1"', '"coeff": 1', "str, got 1"),
    (OSC, OSC_FORM, '"field": "y"', '"field": 0', "str, got 0"),
    (OSC, BASE_FORM, '"name": "t"', '"name": 0', "str, got 0"),
)


class _Edited:
    """oscillator.vp with lines replaced, written out when a test runs."""

    def __init__(self, old: str, new: str, *more: tuple[str, str]):
        self.edits = ((old, new), *more)

    def write(self, directory: pathlib.Path) -> str:
        text = pathlib.Path(OSC).read_text()
        for old, new in self.edits:
            assert old in text
            text = text.replace(old, new)
        target = directory / "edited.vp"
        target.write_text(text)
        return str(target)


def _nested_edit(depth: int) -> _Edited:
    """oscillator.vp with L = y_t^2/2 + y*N(t) on [0, 1], N(t) being
    sin(...)^2 nested depth deep, and the section y = t^2/2, where the
    Euler-Lagrange residual is N(t) - 1: from eight nestings on N is
    below 1e-12, so the check fails with max residual 1.0."""
    potential = "sin(" * depth + "t" + ")^2" * depth
    return _Edited("1/2*(y_t^2 - y^2)", f"y_t^2/2 + y*{potential}",
                   ("y = sin(t)", "y = t^2/2"),
                   ("domain t 0 pi", "domain t 0 1"))


def _order_edit(r: int, section: str) -> _Edited:
    """oscillator.vp with the order-r Lagrangian 1/2*(D^r y)^2 on [0, 1],
    critical along the section, with fields 1 and t as b1, b2."""
    return _Edited("1/2*(y_t^2 - y^2)", f"1/2*y_{'t' * r}^2",
                   ("y = sin(t)", f"y = {section}"),
                   ("domain t 0 pi", "domain t 0 1"))


class _Raw:
    """A file of the given bytes, written when a test runs."""

    def __init__(self, name: str, data: bytes):
        self.name, self.data = name, data

    def write(self, directory: pathlib.Path) -> str:
        target = directory / self.name
        target.write_bytes(self.data)
        return str(target)


NOT_UTF8 = b"\xff\xfe\x00"
# sections opq and shifted and field opq hold an opaque function; section
# sol and fields b1 and b2 hold none
OPAQUE_PROBLEM = _Raw("opaque.vp", b"""\
context
  base t
  field y
  opaque g(t)

lagrangian osc
  1/2*(y_t^2 - y^2)

section sol
  y = sin(t)

section opq
  y = g(t)

section shifted
  y = t + g(1)

variation b1
  y = 1

variation b2
  y = t

variation opq
  y = g(t)

numeric
  domain t 0 pi
  nodes 7
""")
# a file that defines source forms and no Lagrangian
SOURCES_ONLY = _Raw("sources.vp", b"""\
context
  base t
  field y

source drift
  y = y_t
""")
# a Lagrangian with an opaque function of the base coordinate; no section
# or field holds one
OPAQUE_DENSITY = _Raw("density.vp", b"""\
context
  base t
  field y
  opaque f(t)

lagrangian L
  f(t)*y_t^2

section s
  y = t

variation b1
  y = 1

variation b2
  y = t

numeric
  domain t 0 1
  nodes 7
""")
MISSING_DIR = "no/such/dir"

# argv that argparse refuses; each exits 1
USAGE_ERRORS = (
    ["check-critical", OSC, "--section", "sol", "--nodes", "-1"],
    ["check-critical", OSC, "--section", "sol", "--fields", "b1",
     "--step=-1e-3"],
    ["check-critical", OSC, "--section", "sol", "--nodes", "0"],
    ["check-critical", OSC, "--section", "sol", "--step", "0"],
    ["check-critical", OSC, "--section", "sol", "--step", "inf"],
    ["check-critical", OSC, "--section", "sol", "--tol=nan"],
    ["check-critical", OSC, "--section", "sol", "--tol=-1"],
    ["second-var", BEAM, "--section", "cubic", "--fields", "b1,b2",
     "--nodes", "x"],
)

NUMERIC_BLOCK_EDITS = (
    ("nodes 64", "nodes 0"),
    ("nodes 64", "nodes x"),
    ("step 1e-3", "step"),
    ("step 1e-3", "step nan"),
    ("tol 1e-6", "tol -1"),
    ("domain t 0 pi", "domain t log(0) pi"),
    ("domain t 0 pi", "domain t sqrt(0-1) pi"),
    ("domain t 0 pi", "domain t 0 exp(1000)"),
)


@pytest.mark.parametrize("argv, stdin, code", [
    *((argv, None, 1) for argv in USAGE_ERRORS),
    *((["adjoint", OSC, "--bilinear", "-"], text, 2) for text in BAD_BILINEAR),
    *((["check-critical", _Edited(old, bad), "--section", "sol"], None, 1)
      for old, bad in NUMERIC_BLOCK_EDITS),
    *((["check-critical", _Edited("1/2*(y_t^2 - y^2)", f"{big}*(y_t^2 - y^2)"),
        "--section", "bad"], None, 2) for big in ("10^400", "10^5000")),
    *(([cmd, _Edited("1/2*(y_t^2 - y^2)", "10^5000*(y_t^2 - y^2)"), *more,
        "--format", fmt], None, 2)
      for cmd, *more in (["el"], ["jacobi"], ["hessian", "--fields", "b1,b1"],
                         ["variation", "--fields", "b1"])
      for fmt in ("plain", "structured")),
    (["helmholtz", _Edited("1/2*(y_t^2 - y^2)", "1" * 4400 + "*y_t^2")],
     None, 1),
    (["check-critical", OSC, "--section", "sol", "--nodes", "10000000"],
     None, 2),
    # the middle of 7 nodes on [0, pi] is the field's pole at pi/2
    *(([cmd, _Edited("1 + t^2", "1/(t - pi/2)"), "--section", "sol",
        "--fields", fields, "--nodes", "7"], None,
       (2, "numeric evaluation failed"))
      for cmd, fields in (("second-var", "b1,b3"), ("check-critical", "b3"),
                          ("jacobi", "b1,b3"))),
    # an opaque function in a section or field is refused where it is
    # built, named as the file writes it, not in the box's scaled
    # coordinates
    *(([cmd, _Edited("1 + t^2", "f(t)", ("field y", "field y\n  opaque f(t)")),
        "--section", "sol", "--fields", fields, "--nodes", "7"], None,
       (2, "opaque function f(t) has no numeric value"))
      for cmd, fields in (("second-var", "b1,b3"), ("check-critical", "b3"),
                          ("jacobi", "b1,b3"))),
    # past order 4 the bump's exponent is the Lagrangian's order, so an
    # order-5 Lagrangian is checked, and passes
    *(([cmd, _order_edit(5, "t^9"), "--section", "sol", "--fields", "b1,b2"],
       None, 0)
      for cmd in ("second-var", "check-critical", "jacobi")),
    # paths that cannot be read or written, and input that is not UTF-8
    (["el", OSC, "--output", f"{MISSING_DIR}/out.txt"], None,
     (1, "cannot write")),
    (["check-critical", OSC, "--section", "bad", "--output",
      f"{MISSING_DIR}/out.txt"], None, (1, "cannot write")),
    (["adjoint", OSC, "--bilinear", f"{MISSING_DIR}/form.json"], None,
     (1, "cannot read")),
    (["el", _Raw("latin.vp", NOT_UTF8)], None, (1, "cannot read")),
    (["adjoint", OSC, "--bilinear", _Raw("latin.json", NOT_UTF8)], None,
     (1, "cannot read")),
    (["adjoint", OSC, "--bilinear", "-"], NOT_UTF8, (1, "cannot read stdin")),
    # a step whose square underflows to zero
    (["second-var", OSC, "--section", "sol", "--fields", "b1,b1", "--step",
      "1e-170"], None, (2, "division by zero")),
    (["second-var", _Edited("step 1e-3", "step 1e-200"), "--section", "sol",
      "--fields", "b1,b1"], None, (2, "division by zero")),
    # a step that leaves every varied jet equal to the unvaried one
    (["second-var", OSC, "--section", "sol", "--fields", "b1,b2", "--step",
      "1e-100"], None, (2, "step 1e-100 is too small")),
    (["check-critical", OSC, "--section", "sol", "--fields", "b1", "--step",
      "1e-300"], None, (2, "step 1e-300 is too small")),
    # a structured value of the wrong JSON type is refused, not converted;
    # its well-typed twin is read
    *((["adjoint", path, "--bilinear", "-"], form, 0)
      for path, form in ((OSC, OSC_FORM), (OSC, BASE_FORM),
                         (GEO, GEO_FORM))),
    *((["adjoint", path, "--bilinear", "-"], form.replace(old, new),
       (2, f"expected {error}"))
      for path, form, old, new, error in MISTYPED),
    # a potential nested deeper than Python source may nest parentheses
    (["check-critical", _nested_edit(100), "--section", "sol", "--fields",
      "b1"], None, (3, "max residual: 1.0\n")),
    # input nested deeper than the parser's stack
    *((["el", _Edited("1/2*(y_t^2 - y^2)", lagrangian)], None,
       (1, "nested too deeply"))
      for lagrangian in ("-" * 1200 + "y_t^2",
                         "sin(" * 180 + "y_t" + ")" * 180)),
    # an empty name in --fields is refused, not dropped: b1,,b2 is not the
    # pair (b1, b2), nor b1, the single b1
    *(([cmd, OSC, *more, "--fields", fields], None,
       (2, f"--fields {fields!r}: entry {entry} is empty"))
      for cmd, more, fields, entry in (
          ("hessian", (), "b1,,b2", 2),
          ("hessian", (), "b1,", 2),
          ("variation", (), ",b1", 1),
          ("variation", (), ",", 1),
          ("check-critical", ("--section", "sol"), "b1,b2, ", 3))),
    # likewise for sections and a field of a file of their own, with a
    # coordinate or a constant as the opaque function's argument
    *(([cmd, OPAQUE_PROBLEM, "--section", section, "--fields", fields], None,
       (2, f"opaque function {atom} has no numeric value"))
      for cmd in ("check-critical", "second-var", "jacobi")
      for section, fields, atom in (("opq", "b1,b2", "g(t)"),
                                    ("sol", "b1,opq", "g(t)"),
                                    ("shifted", "b1,b2", "g(1)"))),
    # a constant power within expr.MAX_POWER_BITS is not refused (see
    # test_el_on_a_huge_constant_power_exits_1_within_5_s)
    (["el", _Edited("1/2*(y_t^2 - y^2)", "10^5000*y - 10^5000*y + y")], None,
     0),
    # problem-file refusals
    (["el", _Raw("argument.vp", b"context x\n  base t\n  field y\n")], None,
     (1, "context declaration takes no argument")),
    (["el", _Edited("variation b3", "numeric\n  domain t 0 1\n\nvariation b3")],
     None, (1, "duplicate numeric block")),
    (["el", _Edited("lagrangian osc\n  1/2*(y_t^2 - y^2)", "lagrangian osc")],
     None, (1, "lagrangian 'osc' has no expression")),
    # names and blocks a command needs and the file lacks
    (["el", SOURCES_ONLY], None, (2, "defines no lagrangian")),
    (["hessian", _Edited("variation b1", "variation b"), "--fields", "b,c"],
     None, (2, "unknown variation field 'c'")),
    (["check-critical", GEO, "--section", "s"], None,
     (2, "needs a numeric block")),
    # helmholtz takes the one source form of a file without a Lagrangian
    (["helmholtz", SOURCES_ONLY], None, 0),
    # the Lagrangian's opaque function is named as the file writes it, not
    # in the box's scaled coordinates
    *(([cmd, OPAQUE_DENSITY, "--section", "s", *more], None,
       (2, "opaque function f_t(t) has no numeric value"))
      for cmd, *more in (["check-critical"],
                         ["second-var", "--fields", "b1,b2"])),
    # the structured reader knows expressions, source forms and bilinear
    # forms only
    (["adjoint", OSC, "--bilinear", "-"],
     '{"type": "lagrangian", "density": {"terms": []}}',
     (2, "unknown structured object type 'lagrangian'")),
    # problem-file and structured-reader refusals
    (["el", _Raw("orphan.vp", b"  y = 1\ncontext\n  base t\n  field y\n")],
     None, (1, "line 1, col 1: expected a section keyword (context, ")),
    (["el", _Edited("  y = sin(t)", "  y t")], None,
     (1, "line 18, col 1: section lines must read 'field = expression'")),
    (["el", _Edited("1/2*(y_t^2 - y^2)", "y_{}^2")], None,
     (1, "line 7, col 4: empty derivative suffix")),
    (["el", _Edited("1/2*(y_t^2 - y^2)", "y_+1")], None,
     (1, "line 7, col 5: malformed derivative suffix")),
    (["adjoint", OSC, "--bilinear", "-"], _bilinear("y", {"kind": "zzz"}, 1),
     (2, "cannot read bilinear form: unknown atom kind 'zzz'")),
    # a power of a sum whose largest product stays within
    # expr.MAX_POWER_PAIRS pairs of terms is not refused (see
    # test_el_on_a_huge_power_of_a_sum_exits_1_within_5_s)
    *((["el", _Edited("1/2*(y_t^2 - y^2)", power)], None, 0)
      for power in ("(y + y_t + y_tt)^100", "(y + y^2 + y^3)^300",
                    "(1 + y)^1000")),
    # a power that a division takes is refused at the /, with a position
    (["el", _Edited("1/2*(y_t^2 - y^2)", "y/(1/(y + y_t + y_tt))^300")],
     None, (1, "line 7, col 4: power 300 of a sum of 3 terms would")),
    # a number literal is refused where its exact value needs more digits
    # than int() reads from text, its mantissa's plus its exponent's
    # magnitude (see test_el_on_a_huge_decimal_exponent_exits_1_within_5_s)
    *((["el", _Edited("1/2*(y_t^2 - y^2)", lagrangian)], None,
       (1, "line 7, col 3: number literal has more than 4300 digits"))
      for lagrangian in ("1e100000000*y", "1.5E-100000000*y", "1e4300*y",
                         "1e" + "9" * 5000 + "*y")),
    (["el", _Edited("1/2*(y_t^2 - y^2)", "1e4299*y - 1e4299*y + y")], None,
     0),
    # the structured reader reads a coefficient only as coeff_text writes
    # it: p or p/q in ASCII digits
    *((["adjoint", OSC, "--bilinear", "-"],
       OSC_FORM.replace('"coeff": "1"', f'"coeff": "{coeff}"'),
       (2, f"coeff must read p or p/q, got {coeff!r}"))
      for coeff in ("1e5", "1.5", "+2", " 1 ", "1_0", "\u0661")),
    (["adjoint", OSC, "--bilinear", "-"],
     OSC_FORM.replace('"coeff": "1"', '"coeff": "-3/2"'), 0),
])
def test_exit_code_contract(capsys, monkeypatch, tmp_path, argv, stdin, code):
    """Exit code, and a phrase of the error where code is (code, phrase),
    of the report where code is 3; stdin given as bytes is read as UTF-8."""
    code, phrase = code if isinstance(code, tuple) else (code, "")
    argv = [a if isinstance(a, str) else a.write(tmp_path) for a in argv]
    if isinstance(stdin, bytes):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin),
                                                          encoding="utf-8"))
    elif stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    got, out, err = run(capsys, *argv)
    assert got == code
    assert phrase in (out if code == 3 else err)
    assert "Traceback" not in err


def test_deepest_accepted_nesting_runs(capsys, tmp_path):
    """At the deepest nesting of the potential that the parser accepts,
    el and check-critical run to their answers; one level deeper is a
    parse error with a position.  el's structured output, there and at 81
    deep, is written or refused with exit 2 and one error line."""
    def el(depth):
        return run(capsys, "el", _nested_edit(depth).write(tmp_path))

    accepted, refused = 1, 400
    assert el(accepted)[0] == 0
    assert el(refused)[0] == 1
    while refused - accepted > 1:
        mid = (accepted + refused) // 2
        if el(mid)[0] == 0:
            accepted = mid
        else:
            refused = mid
    code, out, err = el(accepted)
    assert code == 0 and out.startswith("e_1 = -y_tt + sin(") and not err
    code, _out, err = el(refused)
    assert code == 1
    assert re.fullmatch(r"parse error: line \d+, col \d+: expression "
                        r"nested too deeply\n", err)
    code, out, _err = run(capsys, "check-critical",
                          _nested_edit(accepted).write(tmp_path),
                          "--section", "sol", "--fields", "b1")
    assert code == 3 and out.startswith("max residual: 1.0\n")
    for depth in (81, accepted):
        code, out, err = run(capsys, "el", _nested_edit(depth).write(tmp_path),
                             "--format", "structured")
        assert (code, err) in (
            (0, ""), (2, "error: the output is nested too deeply to write\n"))


# seconds allowed for el on sin nested 100 deep around y_t, about 1 s on a
# 2-core Xeon; before function atoms kept their nesting height in their
# key the same run took about 20 minutes
NESTED_EL_BUDGET = 30


def test_el_on_deeply_nested_functions_is_bounded(capsys, tmp_path):
    """el on L = sin(sin(...sin(y_t)...)), 100 deep, exits 0 within its
    budget: comparing two cos factors of different depths, as the chain
    rule's products do, takes one step."""
    lag = _Edited("1/2*(y_t^2 - y^2)", "sin(" * 100 + "y_t" + ")" * 100)
    start = time.perf_counter()
    code, out, err = run(capsys, "el", lag.write(tmp_path))
    elapsed = time.perf_counter() - start
    assert code == 0 and out.startswith("e_1 = ") and not err
    assert elapsed < NESTED_EL_BUDGET


def test_el_on_a_huge_constant_power_exits_1_within_5_s(tmp_path):
    """The power is refused at its caret, from its exponent and the base's
    bit length, before any squaring; in a fresh process, so that a hang
    is a timeout."""
    target = _Edited("1/2*(y_t^2 - y^2)", "10^99999999999999999999")
    env = {**os.environ, "PYTHONPATH": str(PROBLEMS.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "jetvar.cli", "el", target.write(tmp_path)],
        env=env, capture_output=True, text=True, timeout=5)
    assert done.returncode == 1
    assert done.stderr == (
        "parse error: line 7, col 5: power 99999999999999999999 of a 4-bit "
        "coefficient would pass 4194304 bits\n")


def test_el_on_a_huge_power_of_a_sum_exits_1_within_5_s(tmp_path):
    """The power is refused at its caret before a product of its squarings
    multiplies more than expr.MAX_POWER_PAIRS pairs of terms; in a fresh
    process, so that a hang is a timeout."""
    target = _Edited("1/2*(y_t^2 - y^2)", "(y + y_t + y_tt)^300")
    env = {**os.environ, "PYTHONPATH": str(PROBLEMS.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "jetvar.cli", "el", target.write(tmp_path)],
        env=env, capture_output=True, text=True, timeout=5)
    assert done.returncode == 1
    assert done.stderr == (
        "parse error: line 7, col 19: power 300 of a sum of 3 terms would "
        "multiply more than 4194304 pairs of terms\n")


def test_el_on_a_huge_product_of_sums_exits_1_within_5_s(capsys, tmp_path):
    """A product is refused at its * before it multiplies more than
    expr.MAX_POWER_PAIRS pairs of terms, here 2556^2; in a fresh process,
    so that a hang is a timeout.  A product within the bound runs, to the
    answer of the one power it equals."""
    cube = "(y + y_t + y_tt)"
    target = _Edited("1/2*(y_t^2 - y^2)", f"{cube}^70*{cube}^70")
    env = {**os.environ, "PYTHONPATH": str(PROBLEMS.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "jetvar.cli", "el", target.write(tmp_path)],
        env=env, capture_output=True, text=True, timeout=5)
    assert done.returncode == 1
    assert done.stderr == (
        "parse error: line 7, col 22: a product of sums of 2556 and 2556 "
        "terms would multiply more than 4194304 pairs of terms\n")
    outs = [run(capsys, "el", _Edited("1/2*(y_t^2 - y^2)", lag).write(tmp_path))
            for lag in (f"{cube}^20*{cube}^20", f"{cube}^40")]
    assert outs[0] == outs[1] and outs[0][0] == 0


def _cli_within_5_s(argv: list[str], stdin: str | None = None
                    ) -> subprocess.CompletedProcess:
    """jetvar's command line run on argv in a fresh process, so that a
    hang is a timeout, with 5 s to finish."""
    env = {**os.environ, "PYTHONPATH": str(PROBLEMS.parent / "src")}
    return subprocess.run([sys.executable, "-m", "jetvar.cli", *argv],
                          env=env, input=stdin, capture_output=True,
                          text=True, timeout=5)


def test_el_on_a_huge_decimal_exponent_exits_1_within_5_s(tmp_path):
    """A literal whose exact value needs more digits than int() reads
    from text is refused at its column before Fraction builds it, here
    an integer of 330 million bits."""
    target = _Edited("1/2*(y_t^2 - y^2)", "1e100000000*y")
    done = _cli_within_5_s(["el", target.write(tmp_path)])
    assert done.returncode == 1
    assert done.stderr == ("parse error: line 7, col 3: number literal has "
                           "more than 4300 digits\n")


def test_adjoint_on_a_huge_structured_product_exits_2_within_5_s():
    """The structured reader's products are bounded as the parser's are:
    a term holding two inverses of y + y_t + y_tt at power -70 is refused
    before its two powers, of 2556 terms each, multiply."""
    body = {"terms": [{"coeff": "1", "factors": [{"atom": {
        "kind": "jet", "field": "y", "counts": [c]}, "power": 1}]}
        for c in (0, 1, 2)]}
    inverse = {"atom": {"kind": "inv", "body": body}, "power": -70}
    payload = json.dumps({"type": "bilinear_form", "entries": [{
        "sigma": [1], "i": "y", "j": "y", "value": {"terms": [
            {"coeff": "1", "factors": [inverse, inverse]}]}}]})
    done = _cli_within_5_s(["adjoint", OSC, "--bilinear", "-"], payload)
    assert done.returncode == 2
    assert done.stderr == (
        "error: cannot read bilinear form: a product of sums of 2556 and "
        "2556 terms would multiply more than 4194304 pairs of terms\n")


# a derivative of order 10 million in the value, 200 bytes, which made
# adjoint write 20 MB; a sigma of order 20000 on the value 1, 131 bytes,
# which made adjoint write labels that grow with the square of the order
HUGE_ORDERS = (
    ('{"type": "bilinear_form", "entries": [{"sigma": [1], "i": "y", "j": '
     '"y", "value": {"terms": [{"coeff": "1", "factors": [{"atom": {"kind": '
     '"jet", "field": "y", "counts": [10000000]}, "power": 1}]}]}}]}',
     10000000, 200),
    ('{"type": "bilinear_form", "entries": [{"sigma": [20000], "i": "y", '
     '"j": "y", "value": {"terms": [{"coeff": "1", "factors": []}]}}]}',
     20000, 131),
)


@pytest.mark.parametrize("payload, order, size", HUGE_ORDERS)
def test_adjoint_on_a_huge_structured_derivative_order_exits_2_within_5_s(
        payload, order, size):
    """The structured reader refuses a derivative order past
    textio.MAX_ORDER as it reads it, before adjoint takes a derivative."""
    assert len(payload) == size
    done = _cli_within_5_s(["adjoint", OSC, "--bilinear", "-"], payload)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == ("error: cannot read bilinear form: derivative "
                           f"order {order} passes 10\n")


# oscillator.vp with a section whose max |E| residual at 64 nodes,
# 1.19e-07, lies between 1e-8 and the default tolerance 1e-6, and with
# no tol line, so that the command takes the default as the library does
NEAR_CRITICAL = _Edited("y = sin(t)", "y = sin(t) + 1/100000000*t^2",
                        ("\n  tol 1e-6", ""))


def test_library_and_cli_judge_a_near_critical_section_alike(capsys,
                                                             tmp_path):
    """With no tolerance given, check_critical and check-critical give one
    verdict, and second_variation_check and second-var both accept the
    section, from the same default in numconfig.SETTINGS."""
    target = NEAR_CRITICAL.write(tmp_path)
    pf = parse_problem_file(pathlib.Path(target).read_text())
    lag = pf.lagrangians["osc"]
    sec = NumericSection(pf.ctx, pf.sections["sol"], pf.numeric.bounds())
    crit = check_critical(lag, sec)
    assert 1e-8 < crit.max_residual < 1e-6
    code, out, _ = run(capsys, "check-critical", target, "--section", "sol")
    assert (code, out.splitlines()[-1]) == (0, "critical (tol 1e-06): yes")
    assert crit.is_critical
    rep = second_variation_check(lag, sec, pf.variations["b1"],
                                 pf.variations["b2"])
    code, out, _ = run(capsys, "second-var", target, "--section", "sol",
                       "--fields", "b1,b2")
    assert (code, out.splitlines()[-1]) == (
        0, "consistent (rel tol 1e-06): yes")
    assert rep.consistent()


# recorded at the order-4 limit, where the bump's exponent is still 4
ORDER_FOUR_OUTPUT = {
    "second-var": (
        "finite-difference second variation: 2097152.0000020973\n"
        "integral against vertical differential: 2097151.9999999963\n"
        "integral against jacobi morphism: 2097151.9999999963\n"
        "consistent (rel tol 1e-06): yes\n"),
    "check-critical": (
        "max residual: 0.0\n"
        "per component: 0.0\n"
        "critical (tol 1e-06): yes\n"
        "first variation [b1]: fd = 0.0, integral = 0.0\n"
        "first variation [b2]: fd = 0.0, integral = 0.0\n"),
    "jacobi": (
        "V^{t t t t t t t t}_{1 1} = 1\n\n"
        "J^{t t t t t t t t}_{1 1} = 1\n\n"
        "formally self-adjoint: yes\n"
        "on-shell symmetry: lhs = 2097151.9999999963, "
        "rhs = 2097151.999999996, difference = 2.3283064365386963e-10\n"
        "symmetric (rel tol 1e-06): yes\n"),
}


def _numbers_close(got: str, want: str) -> bool:
    """The same text, with each number equal to rounding."""
    number = r"-?\d+(?:\.\d*)?(?:e-?\d+)?"
    if re.sub(number, "#", got) != re.sub(number, "#", want):
        return False
    return all(math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-6)
               for a, b in zip(re.findall(number, got),
                               re.findall(number, want)))


@pytest.mark.parametrize("r, section", [(4, "t^7"), (5, "t^9"), (6, "t^11")])
@pytest.mark.parametrize("cmd", sorted(ORDER_FOUR_OUTPUT))
def test_order_r_lagrangian_is_checked(capsys, tmp_path, bumped_pairing, cmd,
                                       r, section):
    """1/2*(D^r y)^2 along the critical t^(2r - 1) passes every check on
    bumped fields: at r = 4 with its output unchanged, past it with the
    second variation that sympy integrates against the bump of exponent r."""
    target = _order_edit(r, section).write(tmp_path)
    code, out, _ = run(capsys, cmd, target, "--section", "sol",
                       "--fields", "b1,b2")
    assert code == 0
    if r == 4:
        assert _numbers_close(out, ORDER_FOUR_OUTPUT[cmd])
    elif cmd == "second-var":
        assert "consistent (rel tol 1e-06): yes" in out
        got = re.search(r"vertical differential: (\S+)", out).group(1)
        exact = bumped_pairing("t", [(r,)], "1", "t", r)
        assert math.isclose(float(got), float(exact), rel_tol=1e-9)


def test_numeric_structured_output_is_deterministic():
    """The numeric subcommands print the same bytes in two fresh
    interpreters, each with its own string-hash seed."""
    script = "\n".join([
        "from jetvar.cli import main",
        "for f, sec in (('laplace2d.vp', 'prod'), ('beam.vp', 'cubic')):",
        "    for cmd in ('check-critical', 'second-var', 'jacobi'):",
        f"        main([cmd, {str(PROBLEMS)!r} + '/' + f, '--section', sec,",
        "              '--fields', 'b1,b2', '--format', 'structured'])",
    ])
    env = {**os.environ, "PYTHONPATH": str(PROBLEMS.parent / "src")}
    env.pop("PYTHONHASHSEED", None)
    outs = [subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True, timeout=300,
                           check=True).stdout
            for _ in range(2)]
    assert outs[0].count('"command"') == 6
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# one subparser per call
# ---------------------------------------------------------------------------

# the invocation shapes of the benchmark's cli workload
WORKLOAD_SHAPES = (
    ["el", OSC], ["helmholtz", OSC, "--source", "drift"],
    ["helmholtz", OSC, "--lagrangian", "osc"], ["helmholtz", BEAM],
    ["jacobi", OSC], ["hessian", OSC, "--fields", "b1,b2"],
    ["variation", OSC, "--fields", "b1,b2,b3"],
    ["adjoint", OSC, "--bilinear", "-"],
    ["check-critical", OSC, "--section", "sol", "--fields", "b1,b2"],
    ["check-critical", OSC, "--section", "bad"],
    ["second-var", BEAM, "--section", "cubic", "--fields", "b1,b2"],
    ["jacobi", OSC, "--section", "sol", "--fields", "b1,b2"],
)
PARSER_ARGVS = (
    *(shape + more for shape in WORKLOAD_SHAPES
      for more in (["--format", "plain"], ["--format", "structured"],
                   ["--nodes", "1024", "--format", "structured"])),
    *([name, OSC, flag] for name, *_ in COMMANDS
      for flag in ("-h", "--bogus", "--nodes")),
    *USAGE_ERRORS,
    ["--help"], ["-h"], [], ["frobnicate", OSC], [OSC],
)


def _parsed(parser, argv, capsys):
    """What parsing argv gives: the arguments, with the handler as the
    function and keywords it calls; or the usage error; or the exit code
    and the help text printed."""
    try:
        args = vars(parser.parse_args(argv))
    except _UsageError as err:
        return "usage error", str(err)
    except SystemExit as exit_:
        return "exit", exit_.code, capsys.readouterr().out
    handler = args.pop("handler")
    if isinstance(handler, functools.partial):
        return "args", args, handler.func, handler.keywords
    return "args", args, handler, {}


@pytest.mark.parametrize("argv", PARSER_ARGVS)
def test_one_subparser_parses_as_all_of_them(capsys, monkeypatch, argv):
    """The parser built for argv[0] alone parses argv, prints help and
    refuses it as the parser of every subcommand does."""
    monkeypatch.setenv("COLUMNS", "80")
    one = _parsed(build_parser(argv[0] if argv else None), argv, capsys)
    every = _parsed(build_parser(), argv, capsys)
    assert one == every


def test_top_level_help_lists_every_subcommand(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    listed = re.search(r"\{([a-z,-]+)\}", out).group(1).split(",")
    assert listed == [name for name, *_ in COMMANDS]
    assert len(listed) == 8


def _run_fresh(script: str, *flags: str) -> None:
    """Run script in a fresh interpreter started with the given flags; it
    fails by raising."""
    env = {**os.environ, "PYTHONPATH": str(PROBLEMS.parent / "src")}
    subprocess.run([sys.executable, *flags, "-c", script], env=env,
                   timeout=300, check=True)


SYMBOLIC_COMMANDS = ("el", "helmholtz", "jacobi", "hessian", "variation",
                     "adjoint")


def test_symbolic_subcommands_load_no_numpy(tmp_path):
    """Each symbolic subcommand, in every format, runs without importing
    numpy, on a problem file that has a numeric block; check-critical
    then loads it.  Neither importing the command line nor running those
    subcommands loads dataclasses, typing, inspect, or argparse and what
    it imports (gettext, locale): under -S, since a site .pth file may
    import typing on its own.  Nor does check-critical add argparse.
    Help still goes through argparse, and prints its help text."""
    ctx = JetContext.make("t", "y")
    form = print_object(
        BilinearForm(ctx, {(MultiIndex((2,)), 0, 0): ctx.fiber("y")}),
        "structured")
    (tmp_path / "form.json").write_text(form)
    extra = {"helmholtz": ["--source", "drift"],
             "hessian": ["--fields", "b1,b2"], "variation": ["--fields", "b1"],
             "adjoint": ["--bilinear", str(tmp_path / "form.json")]}
    calls = [[cmd, OSC, *extra.get(cmd, ()), "--format", fmt]
             for cmd in SYMBOLIC_COMMANDS
             for fmt in ("plain", "latex", "structured")]
    calls += [["helmholtz", OSC, "--lagrangian", "osc"],
              ["adjoint", OSC, "--bilinear", "-"]]
    symbolic = [
        "import contextlib, io, sys",
        "from jetvar.cli import main",
        f"sys.stdin = io.StringIO({form!r})",
        f"for argv in {calls!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert main(argv) == 0, argv",
        "assert 'numpy' not in sys.modules"]
    _run_fresh("\n".join(symbolic + [
        "before = set(sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert main(['check-critical', {OSC!r}, '--section', 'sol']) == 0",
        "assert 'numpy' in sys.modules",
        "assert not {'argparse', 'gettext', 'locale'} & (sys.modules.keys() "
        "- before)"]))
    unused = ("loaded = {'dataclasses', 'typing', 'inspect', 'argparse', "
              "'gettext', 'locale'} & sys.modules.keys()\n"
              "assert not loaded, loaded")
    helps = [
        "from jetvar.cli import build_parser",
        f"for argv in (['-h'], ['el', '-h'], ['adjoint', {OSC!r}, '--help']):",
        "    got, want = io.StringIO(), io.StringIO()",
        "    with contextlib.redirect_stdout(got):",
        "        assert main(argv) == 0",
        "    assert 'argparse' in sys.modules",
        "    with contextlib.redirect_stdout(want), "
        "contextlib.suppress(SystemExit):",
        "        build_parser(argv[0]).parse_args(argv)",
        "    assert got.getvalue() == want.getvalue() != '', argv"]
    _run_fresh("\n".join(symbolic[:2] + [unused] + symbolic[2:] + [unused]
                         + helps), "-S")


def test_import_jetvar_loads_no_numpy():
    """Importing the package leaves numpy out; its numeric names still
    resolve, on first use."""
    script = "\n".join([
        "import sys",
        "import jetvar",
        "assert 'numpy' not in sys.modules",
        "from jetvar import NumericSection, check_critical",
        "from jetvar.numeric import NumericSection as cls, check_critical as fn",
        "assert (NumericSection, check_critical) == (cls, fn)",
        "try:",
        "    jetvar.no_such_name",
        "except AttributeError:",
        "    pass",
        "else:",
        "    raise AssertionError('jetvar.no_such_name resolved')",
    ])
    _run_fresh(script)


def test_every_export_resolves():
    """Each name in jetvar.__all__ resolves, and each name resolved on
    first use is exported, so a deleted name cannot leave a broken
    export behind."""
    import jetvar
    for name in jetvar.__all__:
        assert getattr(jetvar, name) is not None, name
    assert set(jetvar._NUMERIC) <= set(jetvar.__all__)
    assert len(set(jetvar.__all__)) == len(jetvar.__all__)


@pytest.mark.parametrize("bound, el_code", [
    # fail only when evaluated: a parse error of the numeric subcommands
    ("log(0)", 0), ("sqrt(0-1)", 0), ("exp(1000)", 0), ("-10^5000", 0),
    # refused by every subcommand when the file is parsed: a coordinate,
    # or rational bounds with lo >= hi
    ("t", 1), ("y_t", 1), ("5", 1),
])
def test_domain_bounds_are_evaluated_by_numeric_subcommands(
        capsys, tmp_path, bound, el_code):
    target = _Edited("domain t 0 pi", f"domain t {bound} 2").write(tmp_path)
    code, out, err = run(capsys, "el", target)
    assert code == el_code
    if el_code == 0:
        assert out.strip() == "e_1 = -y - y_tt"
    line = _OSC_LINES.index("  domain t 0 pi") + 1
    code, _out, err = run(capsys, "check-critical", target, "--section", "sol")
    assert code == 1
    # the column of the lower bound, which each case refuses
    col = len("  domain t ") + 1
    assert err.startswith(f"parse error: line {line}, col {col}: domain bound")


def test_long_exact_domain_bound_is_its_float_value(capsys, tmp_path):
    """A bound whose reduced coefficient has more digits than Python
    writes out is evaluated to its nearest float, here 1.0."""
    target = _Edited("domain t 0 pi",
                     "domain t (10^5000+1)/10^5000 2").write(tmp_path)
    (tmp_path / "plain").mkdir()
    plain = _Edited("domain t 0 pi", "domain t 1 2").write(tmp_path / "plain")
    argv = ("check-critical", "--section", "sol", "--fields", "b1")
    got = run(capsys, argv[0], target, *argv[1:])
    assert got == run(capsys, argv[0], plain, *argv[1:])
    assert got[0] == 0


def test_explicit_zero_tolerance_is_not_replaced(capsys):
    code, out, _ = run(capsys, "check-critical", OSC, "--section", "sol",
                       "--tol", "0")
    assert code == 0
    assert "critical (tol 0): yes" in out


# oscillator.vp with a quartic potential, so that the finite difference
# moves with the step
_QUARTIC = ("1/2*(y_t^2 - y^2)", "1/2*y_t^2 - 1/4*y^4")
# each numeric setting: its default, a value for the numeric block and one
# for the flag, each telling apart in a check-critical report
_SETTING_VALUES = {"nodes": ("64", "16", "7"), "step": ("1e-3", "1e-2", "1e-1"),
                   "tol": ("1e-6", "1e-3", "2")}


@pytest.mark.parametrize("name", sorted(_SETTING_VALUES))
def test_a_flag_beats_the_block_and_the_block_the_default(capsys, tmp_path,
                                                          name):
    default, block, flag = _SETTING_VALUES[name]
    runs = iter(range(8))

    def report(value, *argv):
        """The structured check-critical report on the file whose block
        gives the setting value (None: no line for it)."""
        directory = tmp_path / str(next(runs))
        directory.mkdir()
        # oscillator.vp's block gives each setting its default
        line = f"  {name} {value}" if value else ""
        target = _Edited(f"  {name} {default}", line, _QUARTIC).write(directory)
        code, out, _ = run(capsys, "check-critical", target, "--section", "bad",
                           "--fields", "b1", "--format", "structured", *argv)
        assert code == 3
        return json.loads(out)

    bare = report(None)
    assert bare == report(None, f"--{name}", default)
    in_block = report(block)
    assert in_block != bare
    assert in_block == report(None, f"--{name}", block)
    flagged = report(block, f"--{name}", flag)
    assert flagged not in (bare, in_block)
    assert flagged == report(None, f"--{name}", flag)


def test_a_block_of_domains_only_runs_at_the_defaults(capsys, tmp_path):
    """64 nodes, step 1e-3 and tolerance 1e-6 when the block names none."""
    target = _Edited("  nodes 64", "", ("  step 1e-3", ""), ("  tol 1e-6", ""),
                     _QUARTIC).write(tmp_path)
    argv = ("check-critical", target, "--section", "bad", "--fields", "b1")
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert "critical (tol 1e-06): no" in out
    code, out, err = run(capsys, *argv, "--format", "structured")
    assert code == 3
    assert '"tol": 1e-06' in out
    explicit = run(capsys, *argv, "--nodes", "64", "--step", "1e-3",
                   "--format", "structured")
    assert explicit == (3, out, err)
    # the step moves this finite difference, so the one above is at 1e-3
    assert json.loads(out) != json.loads(
        run(capsys, *argv, "--step", "1e-2", "--format", "structured")[1])


def test_bounds_are_refused_before_the_section(capsys, tmp_path):
    target = _Edited("domain t 0 pi", "domain t log(0) 2").write(tmp_path)
    code, _out, err = run(capsys, "second-var", target, "--section", "nosuch",
                          "--fields", "b1,b2")
    assert code == 1
    assert "domain bound 'log(0)'" in err


# ---------------------------------------------------------------------------
# the exit-code contract as a property
# ---------------------------------------------------------------------------

# Leaves carry their powers, so generated expressions stay small.
_LEAVES = ("y", "y_t", "y_tt", "t", "0", "1", "2", "1/2", "pi", "y^2",
           "y_t^-1", "(1 + y)^-2", "t^3")
_expressions = st.recursive(
    st.sampled_from(_LEAVES),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda p: f"({p[0]} {p[1]} {p[2]})"),
        st.tuples(st.sampled_from(("sin", "cos", "exp", "log", "sqrt")),
                  inner).map(lambda p: f"{p[0]}({p[1]})")),
    max_leaves=5)
# Junk lines can spell no keyword, and in 8 characters no costly power.
_junk = st.text(alphabet="yt12+-*/^()_ ,.e=#{}", max_size=8)
_OSC_LINES = pathlib.Path(OSC).read_text().splitlines()


@st.composite
def _problem_texts(draw):
    lines = list(_OSC_LINES)
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines) - 1))
        head, eq, _rhs = lines[k].partition("=")
        expr = draw(_expressions)
        lines[k] = draw(st.one_of(
            st.just(f"{head}= {expr}" if eq else f"  {expr}"), _junk,
            st.sampled_from(("", "  nodes 4", "  nodes 0", "  step 0.5",
                             "  tol nan", "  domain t 1 2", "  domain t 2 1",
                             "section s", "variation v", "lagrangian osc"))))
    return "\n".join(lines) + "\n"


# Values repeat to weight the draws toward commands that get past parsing.
_OPTIONS = {
    "--format": ("plain", "latex", "structured", "yaml"),
    "--lagrangian": ("osc", "osc", "nope"),
    "--source": ("drift", "curvature", "nope"),
    "--section": ("sol", "sol", "bad", "bad", "nope"),
    "--fields": ("b1", "b1,b2", "b3,b1", "b3,b1", "b2,b3,b1", "nope", ","),
    "--nodes": ("4", "16", "16", "1", "0", "x", "10000000"),
    "--step": ("1e-3", "1e-3", "0.5", "0", "nan", "1e-170"),
    "--tol": ("1e-6", "1e-6", "0", "-1"),
    "--bilinear": ("{bilinear}", "{bilinear}", "{missing}/form.json"),
    "--output": ("{output}", "{output}", "{missing}/out.txt"),
}

# the flags each subcommand reads besides --format and --output, written
# out here rather than read from cli.COMMANDS
_CHECK_FLAGS = ("--lagrangian", "--section", "--fields", "--nodes", "--step",
                "--tol")
READ_FLAGS = {
    "el": ("--lagrangian",),
    "helmholtz": ("--lagrangian", "--source"),
    "hessian": ("--lagrangian", "--fields"),
    "variation": ("--lagrangian", "--fields"),
    "jacobi": ("--lagrangian", "--section", "--fields", "--nodes", "--tol"),
    "check-critical": _CHECK_FLAGS,
    "second-var": _CHECK_FLAGS,
    "adjoint": ("--bilinear",),
}


@pytest.mark.parametrize("flag", sorted(_OPTIONS))
@pytest.mark.parametrize("command", sorted(READ_FLAGS))
def test_each_subcommand_accepts_only_the_flags_it_reads(
        capsys, monkeypatch, tmp_path, command, flag):
    """A flag the subcommand reads gets past argparse; any other exits 1,
    naming the flag.  adjoint always gets its required --bilinear, so that
    argparse gets as far as the flag."""
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    value = _OPTIONS[flag][0].format(bilinear="-", output=tmp_path / "out.txt")
    argv = [command, OSC, flag, value]
    if command == "adjoint" and flag != "--bilinear":
        argv += ["--bilinear", "-"]
    code, _out, err = run(capsys, *argv)
    assert "Traceback" not in err
    if flag in ("--format", "--output", *READ_FLAGS[command]):
        assert "unrecognized arguments" not in err
    else:
        assert code == 1
        assert err == f"error: unrecognized arguments: {flag} {value}\n"


# each subcommand draws only the flags it reads, so that a draw gets past
# argparse to the handler; the unknown command draws every flag
_FLAGS = {**{cmd: ("--format", "--output", *flags)
             for cmd, flags in READ_FLAGS.items()},
          "nope": tuple(_OPTIONS)}
_commands = st.sampled_from(sorted(_FLAGS)).flatmap(lambda cmd: st.tuples(
    st.just(cmd),
    st.fixed_dictionaries({}, optional={
        flag: st.sampled_from(_OPTIONS[flag]) for flag in _FLAGS[cmd]}),
    st.sampled_from(((),) * 6 + (("-h",), ("--bogus",), ("--nodes",)))))
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
              st.sampled_from(("y", "1/2", "1/0", "x", ""))),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(
                                ("type", "entries", "terms", "coeff")),
                                inner, max_size=3)),
    max_leaves=6)
_entries = st.fixed_dictionaries({
    "sigma": st.one_of(st.sampled_from(([0], [1], [2], [], [-1])), _json),
    "i": st.sampled_from(("y", "z", 0)),
    "j": st.sampled_from(("y", "z", 0)),
    "value": st.one_of(_json, st.fixed_dictionaries({"terms": st.lists(
        st.fixed_dictionaries({
            "coeff": st.sampled_from(("1", "-1/2", "1/0", "x", 2, "1e5")),
            "factors": st.lists(st.fixed_dictionaries({
                "atom": st.sampled_from(({"kind": "jet", "field": "y",
                                          "counts": [1]},
                                         {"kind": "base", "name": "t"},
                                         {"kind": "jet", "field": 0,
                                          "counts": [1]},
                                         {"kind": "base", "name": 0},
                                         {"kind": "elem", "fn": "sin"},
                                         {"kind": "opaque"})),
                "power": st.sampled_from((1, 2, -1, "2"))}), max_size=2)}),
        max_size=2)}))})
_payloads = st.one_of(
    _json.map(json.dumps),
    st.lists(_entries, max_size=2).map(lambda es: json.dumps(
        {"type": "bilinear_form", "entries": es})),
    st.just("{"))


@pytest.fixture(scope="module")
def property_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("exit_codes")


@settings(max_examples=60, deadline=None)
@given(command=_commands,
       source=st.one_of(_problem_texts(), st.sampled_from(
           (PROBLEMS / "oscillator.vp", PROBLEMS / "beam.vp",
            PROBLEMS / "missing.vp"))),
       payload=_payloads)
# a refused check of a section that is not critical
@example(command=("second-var", {"--section": "bad", "--fields": "b1,b2",
                                 "--format": "structured"}, ()),
         source=PROBLEMS / "oscillator.vp", payload="{")
@example(command=("jacobi", {"--section": "bad", "--fields": "b1,b2",
                             "--format": "structured"}, ()),
         source=PROBLEMS / "oscillator.vp", payload="{")
def test_main_returns_an_exit_code_and_never_raises(property_dir, command,
                                                   source, payload):
    """For any argv, problem-file text and --bilinear payload, main()
    returns 0, 1, 2 or 3; it never raises.  What it prints in structured
    format, other than help, is one JSON document."""
    problem = source
    if isinstance(source, str):
        problem = property_dir / "problem.vp"
        problem.write_text(source)
    bilinear = property_dir / "bilinear.json"
    bilinear.write_text(payload)
    name, flags, extra = command
    argv = [name, str(problem), *extra]
    for flag, value in flags.items():
        argv += [flag, value.format(bilinear=bilinear,
                                    output=property_dir / "out.txt",
                                    missing=property_dir / "missing")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if (flags.get("--format") == "structured" and "-h" not in extra
            and out.getvalue()):
        json.loads(out.getvalue())


# ---------------------------------------------------------------------------
# a plain call is read without argparse
# ---------------------------------------------------------------------------


class _Reached(Exception):
    """Raised in place of running a command, with its arguments."""


def _argparse_args(argv: list[str]) -> dict | None:
    """The arguments argparse parses from argv; None where it prints help
    or refuses argv."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return vars(build_parser(argv[0] if argv else None)
                        .parse_args(argv))
    except (_UsageError, SystemExit):
        return None


def _check_reader(argv: list[str]) -> None:
    """If read_argv accepts argv, its arguments are argparse's and main
    runs them without building a parser; if it declines argv, main hands
    argv to build_parser."""
    read = read_argv(argv)
    built, real = [], cli.build_parser

    def spy(command=None):
        built.append(command)
        return real(command)

    def stop(args):
        raise _Reached(args)

    reached = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_parser", spy)
        mp.setattr(cli, "run", stop)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                main(argv)
        except _Reached as err:
            reached = vars(err.args[0])
    if read is None:
        assert built == [argv[0] if argv else None]
        assert reached == _argparse_args(argv)
    else:
        assert built == []
        assert vars(read) == reached == _argparse_args(argv)


# the cli workload's argv, and each in the --flag=value form
WORKLOAD_ARGVS = [
    shape + ["--nodes", "1024"] * ("--section" in shape) + ["--format", fmt]
    for shape in WORKLOAD_SHAPES for fmt in ("plain", "structured")]
WORKLOAD_ARGVS += [[argv[0], argv[1], *(f"{flag}={value}" for flag, value
                                        in zip(argv[2::2], argv[3::2]))]
                   for argv in WORKLOAD_ARGVS]


@pytest.mark.parametrize("argv", WORKLOAD_ARGVS)
def test_workload_argv_are_read_without_argparse(argv):
    """Every argv shape of the benchmark's cli workload is a plain call."""
    assert read_argv(argv) is not None


# values of every kind: valid for some flag, invalid for others, starting
# with '-', empty, holding '='
_WORDS = ("plain", "structured", "osc", "sol", "b1,b2", "16", "1e-3", "-",
          "latex", "yaml", "0", "nan", "x", "", "-1", "-h", "--format",
          "a=b", OSC)
_VALID = {"--format": ("plain", "latex", "structured"), "--nodes": ("16",),
          "--step": ("1e-3",), "--tol": ("0", "1e-6")}
_FLAG_WORDS = ("--format", "--output", "--lagrangian", "--source",
               "--section", "--fields", "--nodes", "--step", "--tol",
               "--bilinear", "--form", "--lag", "--node", "--bogus", "-h",
               "--help", "--", "-f", "--format=", "--=plain")


def _flag(flag: str, value: str, joined: bool) -> list[str]:
    return [f"{flag}={value}"] if joined else [flag, value]


def _pieces(cmd: str):
    """Pieces of an argv after the subcommand: mostly a flag the command
    reads with a value it may accept, or any flag with any value, or a
    lone word (a flag missing its value, an extra input)."""
    read = st.sampled_from(("--format", "--output", *READ_FLAGS.get(cmd, ())))
    plain = read.flatmap(lambda flag: st.builds(
        _flag, st.just(flag), st.sampled_from(_VALID.get(flag, _WORDS[:8])),
        st.booleans()))
    anything = st.builds(_flag, st.sampled_from(_FLAG_WORDS),
                         st.sampled_from(_WORDS), st.booleans())
    lone = st.sampled_from((*_FLAG_WORDS, "-", "extra", OSC)).map(
        lambda word: [word])
    return st.one_of(plain, plain, plain, anything, lone)


def _argv(cmd: str, pieces: list[list[str]], given: list[str], at: int):
    """cmd, then the pieces with the input words given at index at."""
    words = [*pieces[:at], given, *pieces[at:]]
    return [cmd, *(word for piece in words for word in piece)]


_argvs = st.one_of(st.just([]), st.sampled_from((*READ_FLAGS, "nope")).flatmap(
    lambda cmd: st.builds(
        _argv, st.just(cmd), st.lists(_pieces(cmd), max_size=5),
        st.sampled_from(([OSC], [OSC], ["-"], [])), st.integers(0, 5))))


@pytest.mark.parametrize("argv", [*PARSER_ARGVS, *WORKLOAD_ARGVS])
def test_argv_reader_agrees_with_argparse(argv):
    """read_argv accepts an argv only as argparse parses it, and main
    hands every argv it declines (help, usage errors, abbreviations) to
    argparse."""
    _check_reader(argv)


@settings(max_examples=400, deadline=None)
@given(argv=_argvs)
@example(argv=["el", OSC, "--format", "plain", "--format", "latex"])
@example(argv=["el", OSC, "--form", "latex"])
@example(argv=["el", OSC, "--lagrangian", "-h"])
@example(argv=["el", "--", OSC])
@example(argv=["check-critical", OSC, "--nodes", "-1"])
@example(argv=["adjoint", OSC, "--bilinear"])
@example(argv=["el", OSC, "--format=", "--lagrangian", ""])
def test_argv_reader_agrees_with_argparse_on_any_argv(argv):
    """As above, on drawn argv: flags in any order, in either form,
    repeated or abbreviated, help anywhere, values that start with '-',
    missing values, '--', extra inputs."""
    _check_reader(argv)
