import io
import json
import pathlib

import pytest

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
