import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from jetvar import BilinearForm, JetContext
from jetvar.cli import main
from jetvar.multiindex import MultiIndex
from jetvar.textio import print_object

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


class _Edited:
    """oscillator.vp with one line replaced, written out when a test runs."""

    def __init__(self, old: str, new: str):
        self.old, self.new = old, new

    def write(self, directory: pathlib.Path) -> str:
        text = pathlib.Path(OSC).read_text()
        assert self.old in text
        target = directory / "edited.vp"
        target.write_text(text.replace(self.old, self.new))
        return str(target)


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
    (["check-critical", OSC, "--section", "sol", "--nodes", "-1"], None, 1),
    (["check-critical", OSC, "--section", "sol", "--fields", "b1",
      "--step=-1e-3"], None, 1),
    (["check-critical", OSC, "--section", "sol", "--nodes", "0"], None, 1),
    (["check-critical", OSC, "--section", "sol", "--step", "0"], None, 1),
    (["check-critical", OSC, "--section", "sol", "--step", "inf"], None, 1),
    (["check-critical", OSC, "--section", "sol", "--tol=nan"], None, 1),
    (["check-critical", OSC, "--section", "sol", "--tol=-1"], None, 1),
    (["second-var", BEAM, "--section", "cubic", "--fields", "b1,b2",
      "--nodes", "x"], None, 1),
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
])
def test_exit_code_contract(capsys, monkeypatch, tmp_path, argv, stdin, code):
    argv = [a.write(tmp_path) if isinstance(a, _Edited) else a for a in argv]
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    got, _out, err = run(capsys, *argv)
    assert got == code
    assert "Traceback" not in err


def test_explicit_zero_tolerance_is_not_replaced(capsys):
    code, out, _ = run(capsys, "check-critical", OSC, "--section", "sol",
                       "--tol", "0")
    assert code == 0
    assert "critical (tol 0): yes" in out


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
    "--step": ("1e-3", "1e-3", "0.5", "0", "nan"),
    "--tol": ("1e-6", "1e-6", "0", "-1"),
    "--bilinear": ("{bilinear}",),
    "--output": ("{output}",),
}
_COMMON = ("--format", "--lagrangian", "--source", "--section", "--fields",
           "--output")
_NUMERIC = _COMMON + ("--nodes", "--step", "--tol")
_FLAGS = {"el": _COMMON, "helmholtz": _COMMON, "hessian": _COMMON,
          "variation": _COMMON, "jacobi": _NUMERIC, "check-critical": _NUMERIC,
          "second-var": _NUMERIC, "adjoint": _COMMON + ("--bilinear",),
          "nope": _COMMON}
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
            "coeff": st.sampled_from(("1", "-1/2", "1/0", "x", 2)),
            "factors": st.lists(st.fixed_dictionaries({
                "atom": st.sampled_from(({"kind": "jet", "field": "y",
                                          "counts": [1]},
                                         {"kind": "base", "name": "t"},
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
def test_main_returns_an_exit_code_and_never_raises(property_dir, command,
                                                   source, payload):
    """For any argv, problem-file text and --bilinear payload, main()
    returns 0, 1, 2 or 3; it never raises."""
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
                                    output=property_dir / "out.txt")]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
