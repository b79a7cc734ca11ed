"""cli workload: every subcommand on problems/*.vp through
``jetvar.cli.main(argv)`` in-process, stdout captured, in plain and
structured formats.  The only workload that exercises ``cli`` and
``textio``, and the numeric path that oracle-bind skips: 1-D sections, so
binding stays small, and 1024 Gauss nodes, so that building the grid
(``numpy.polynomial.legendre.leggauss``, cubic in the node count) and the
per-point loops carry weight next to binding.

A group holds the twenty symbolic invocations in both formats plus the
fourteen numeric ones in one format (plain and structured alternate between
groups), in seeded order.  Numeric calls are then about a quarter of the
operations: the median falls among the millisecond symbolic calls (front
end) and the 90th percentile among the numeric ones (grid, bind and
quadrature).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from jetvar import cli
from jetvar.randgen import random_bilinear_form
from jetvar.textio import object_to_dict, parse_problem_file

from .workload import Op, Workload

NODES = "1024"
OSC, BEAM = "problems/oscillator.vp", "problems/beam.vp"
FLAT, METRIC = "problems/geodesic_flat.vp", "problems/geodesic_metric.vp"
FIELDS = {OSC: ("b1", "b2", "b3"), BEAM: ("b1", "b2"), FLAT: ("b1", "b2")}
CRITICAL = {(OSC, "sol"), (BEAM, "cubic"), (BEAM, "taut"), (FLAT, "line"),
            (FLAT, "affine")}
NOT_CRITICAL = {(OSC, "bad"), (BEAM, "sag"), (FLAT, "bent")}


def _terms(expr_dict) -> set:
    """An expression in the structured format, as a set of
    (coeff, ((atom kind, field or name, counts), power)...) tuples."""
    out = set()
    for t in expr_dict["terms"]:
        factors = tuple(sorted(
            ((f["atom"]["kind"], f["atom"].get("field", f["atom"].get("name")),
              tuple(f["atom"].get("counts", ()))), f["power"])
            for f in t["factors"]))
        out.add((t["coeff"], factors))
    return out


OSC_EL = {("-1", ((("jet", "y", (0,)), 1),)), ("-1", ((("jet", "y", (2,)), 1),))}


class Expect:
    """Known answer for one invocation: exit code plus a verdict read from
    the captured stdout."""

    def __init__(self, code=0, plain=None, structured=None):
        self.code = code
        self.plain = plain              # substring the plain output must hold
        self.structured = structured    # predicate on the parsed JSON

    def __call__(self, fmt: str, code: int, out: str) -> str | None:
        if code != self.code:
            return f"exit {code}, expected {self.code}"
        if fmt == "plain":
            if self.plain is not None and self.plain not in out:
                return f"plain output lacks {self.plain!r}"
            return None
        if self.structured is None and self.code != 0:
            return None   # a refused check reports in prose, not JSON
        try:
            doc = json.loads(out)
        except ValueError:
            return "structured output is not JSON"
        if self.structured is not None and not self.structured(doc):
            return "structured output has the wrong verdict"
        return None


def _first_variations_vanish(doc) -> bool:
    return all(abs(v["finite_difference"]) <= 1e-6 and abs(v["integral"]) <= 1e-6
               for v in doc["first_variations"].values())


class CliRuns:
    def __init__(self, seed: int, root: Path):
        rng = random.Random(seed)
        self.root = root
        ctxs = {p: parse_problem_file((root / p).read_text(encoding="utf-8")).ctx
                for p in (OSC, FLAT)}

        def pair(path):
            return ",".join(rng.choice(FIELDS[path]) for _ in range(2))

        def form(path):
            return json.dumps(object_to_dict(random_bilinear_form(
                rng, ctxs[path], max_sigma_order=2, max_entries=3)))

        variational = Expect(plain="verdict: locally variational",
                             structured=lambda d: d["locally_variational"])
        selfadj = Expect(plain="formally self-adjoint: yes",
                         structured=lambda d: d["formally_self_adjoint"])
        symbolic = [
            (["el", OSC], None, Expect(
                plain="e_1 = -y - y_tt",
                structured=lambda d: _terms(d["source_form"]["components"][0])
                == OSC_EL)),
            (["el", BEAM], None, Expect(plain="e_1 = y_xxxx")),
            (["el", FLAT], None, Expect(plain="e_1 = -q1_tt\ne_2 = -q2_tt")),
            (["el", METRIC], None, Expect()),
            (["helmholtz", OSC, "--source", "drift"], None, Expect(
                plain="verdict: not locally variational",
                structured=lambda d: not d["locally_variational"])),
            (["helmholtz", OSC, "--source", "curvature"], None, variational),
            (["helmholtz", OSC, "--lagrangian", "osc"], None, variational),
            (["helmholtz", BEAM], None, variational),
            (["helmholtz", METRIC], None, variational),
            (["jacobi", OSC], None, selfadj),
            (["jacobi", BEAM], None, selfadj),
            (["jacobi", METRIC], None, selfadj),
            (["hessian", OSC, "--fields", pair(OSC)], None, Expect()),
            (["hessian", BEAM, "--fields", pair(BEAM)], None, Expect()),
            (["hessian", FLAT, "--fields", pair(FLAT)], None, Expect()),
            (["variation", OSC, "--fields", rng.choice(FIELDS[OSC])], None,
             Expect()),
            (["variation", FLAT, "--fields", rng.choice(FIELDS[FLAT])], None,
             Expect()),
            (["variation", OSC, "--fields",
              ",".join(rng.choice(FIELDS[OSC]) for _ in range(3))], None,
             Expect(structured=lambda d: d["order"] == 3)),
            (["adjoint", OSC, "--bilinear", "-"], form(OSC), Expect(
                structured=lambda d: d["adjoint"]["type"] == "bilinear_form")),
            (["adjoint", FLAT, "--bilinear", "-"], form(FLAT), Expect(
                structured=lambda d: d["adjoint"]["type"] == "bilinear_form")),
        ]
        numeric = []
        for path, sec in sorted(CRITICAL | NOT_CRITICAL):
            argv = ["check-critical", path, "--section", sec]
            if (path, sec) in CRITICAL:
                if sec in ("sol", "cubic", "line"):
                    argv += ["--fields", pair(path)]
                expect = Expect(0, "critical (tol 1e-06): yes",
                                lambda d: d["critical"]
                                and _first_variations_vanish(d))
            else:
                expect = Expect(3, "critical (tol 1e-06): no",
                                lambda d: not d["critical"])
            numeric.append((argv, None, expect))
        consistent = Expect(0, "consistent (rel tol 1e-06): yes",
                            lambda d: d["consistent"])
        for path, sec in ((OSC, "sol"), (BEAM, "cubic"), (FLAT, "affine")):
            numeric.append((["second-var", path, "--section", sec, "--fields",
                             pair(path)], None, consistent))
        numeric.append((["second-var", OSC, "--section", "bad", "--fields",
                         pair(OSC)], None, Expect(3)))
        onshell = Expect(0, "on-shell symmetry:",
                         lambda d: "onshell_symmetry" in d)
        for path, sec in ((OSC, "sol"), (FLAT, "line")):
            numeric.append((["jacobi", path, "--section", sec, "--fields",
                             pair(path)], None, onshell))

        self.invocations = []   # (argv, stdin text, expect)
        for numeric_fmt in ("plain", "structured"):
            group = [(argv + ["--format", fmt], stdin, exp)
                     for argv, stdin, exp in symbolic
                     for fmt in ("plain", "structured")]
            group += [(argv + ["--nodes", NODES, "--format", numeric_fmt],
                       stdin, exp) for argv, stdin, exp in numeric]
            rng.shuffle(group)
            self.invocations += group
        self.group = len(self.invocations) // 2
        self.digests: dict[int, str] = {}

    def op(self, idx: int) -> Op:
        argv, stdin, expect = self.invocations[idx]
        fmt = argv[argv.index("--format") + 1]

        def run():
            out, err = io.StringIO(), io.StringIO()
            saved = sys.stdin
            if stdin is not None:
                sys.stdin = io.StringIO(stdin)
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(list(argv))
            finally:
                sys.stdin = saved
            return code, out.getvalue()

        def check(result):
            code, out = result
            why = expect(fmt, code, out)
            if why is None and fmt == "structured":
                digest = hashlib.sha256(out.encode()).hexdigest()
                if self.digests.setdefault(idx, digest) != digest:
                    why = "structured output changed between repeats"
            return why

        return Op(" ".join(argv), run, check)

    def inputs_text(self) -> str:
        files = [f"{p}: " + hashlib.sha256((self.root / p).read_bytes())
                 .hexdigest() for p in (OSC, BEAM, FLAT, METRIC)]
        return "\n".join(files + [
            " ".join(argv) + (f" <<< {stdin}" if stdin else "")
            for argv, stdin, _e in self.invocations])


def build(seed: int, root: Path) -> Workload:
    runs = CliRuns(seed, root)
    ops = [runs.op(i) for i in range(len(runs.invocations))]
    return Workload("cli", ops, group=runs.group,
                    inputs_text=runs.inputs_text())
