"""oracle-bind workload: the numeric oracle on 2-D Laplace at 16 Gauss nodes
per axis.

Almost all of its time goes to symbolic expansion inside
``NumericSection.bind`` (few, very large expressions); quadrature on a
16 x 16 grid is negligible.  Every operation builds a fresh section, as a
command-line call would, so no binding is reused across operations.

Sections: the harmonic ``u*v`` and ``u^2-v^2`` (critical) and ``u^2+v^2``
(not critical, E = -4).  The seed draws the field pair: a constant and an
affine field with random rational coefficients.  The four operations are
criticality and the first variation on ``u*v``, the second-variation check
on ``u^2-v^2``, on-shell symmetry on ``u*v``, and all three checks on
``u^2+v^2``; each takes 0.7-3 s, so each runs four or five times in a
30 s run.

On the unit square the bumped fields make every integrand a polynomial of
degree <= 18 per axis, which 16 Gauss nodes integrate exactly, so the exact
rational values from ``reference`` must match to the problem tolerance.
"""

from __future__ import annotations

import random
from fractions import Fraction

from jetvar import numeric
from jetvar.expr import JetContext, JetExpr, to_plain
from jetvar.variational import Lagrangian

from . import reference as ref
from .workload import Op, Workload

NODES = 16
BOX = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))
TOL = 1e-6      # relative, as in the problem files
FLOOR = 1e-8    # absolute floor, as in jetvar.numeric.rel_close
CRIT_TOL = 1e-8
STEP = 1e-3
ITEMS = 1


def close(a: float, b: float, rel: float = TOL, floor: float = FLOOR) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), floor)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                    rng.choice((1, 2, 3)))


class OracleBind:
    def __init__(self, seed: int):
        rng = random.Random(seed)
        ctx = self.ctx = JetContext.make("u v", "w")
        u, v = ctx.base("u"), ctx.base("v")
        self.lag = Lagrangian(
            ctx, (ctx.jet("w", "u") ** 2 + ctx.jet("w", "v") ** 2) / 2)
        self.harmonic = (u * v, u ** 2 - v ** 2)
        self.off_shell = u ** 2 + v ** 2
        self.domain = [(float(a), float(b)) for a, b in BOX]
        self.items = []   # (section expr, xi1 expr, xi2 expr, xi1 poly, xi2 poly)
        for k in range(ITEMS):
            c0, c1, c2 = _rational(rng), _rational(rng), _rational(rng)
            xi1 = JetExpr.constant(c0)
            xi2 = JetExpr.constant(c1) + JetExpr.constant(c2) * u
            self.items.append((self.harmonic[k % 2], xi1, xi2,
                               {(0, 0): c0}, {(0, 0): c1, (1, 0): c2}))
        # op index -> recorded floats, compared with the exact values later
        self.recorded: dict[int, list[tuple[str, tuple[float, ...]]]] = {}

    def section(self, expr):
        return numeric.NumericSection(self.ctx, (expr,), self.domain,
                                      nodes=NODES)

    def ops(self) -> list[Op]:
        out = []
        for k, (h, xi1, xi2, _p1, _p2) in enumerate(self.items):
            other = self.harmonic[(k + 1) % 2]
            out += [self._critical(k, h, xi1),
                    self._second(k, other, xi1, xi2),
                    self._onshell(k, h, xi1, xi2), self._off_shell(k, xi1)]
        return out

    def _record(self, idx: int, kind: str, values) -> None:
        self.recorded.setdefault(idx, []).append((kind, tuple(values)))

    def _critical(self, k, h, xi1) -> Op:
        idx = 4 * k

        def run():
            sec = self.section(h)
            rep = numeric.check_critical(self.lag, sec, CRIT_TOL)
            return rep, numeric.first_variation_pair(self.lag, sec, (xi1,),
                                                     step=STEP)

        def check(result):
            rep, pair = result
            if not rep.is_critical:
                return f"harmonic section not critical ({rep.max_residual})"
            self._record(idx, "first-zero", pair)
            return None

        return Op(f"critical-{k}", run, check)

    def _second(self, k, h, xi1, xi2) -> Op:
        idx = 4 * k + 1

        def run():
            return numeric.second_variation_check(
                self.lag, self.section(h), (xi1,), (xi2,), step=STEP,
                crit_tol=CRIT_TOL)

        def check(rep):
            if not rep.consistent(TOL):
                return "second variation not consistent"
            self._record(idx, "second", (rep.finite_difference,
                                         rep.integral_vertical_differential,
                                         rep.integral_jacobi))
            return None

        return Op(f"second-variation-{k}", run, check)

    def _onshell(self, k, h, xi1, xi2) -> Op:
        idx = 4 * k + 2

        def run():
            return numeric.check_onshell_symmetry(
                self.lag, self.section(h), (xi1,), (xi2,), crit_tol=CRIT_TOL)

        def check(rep):
            if not rep.symmetric(TOL):
                return "vertical differential not symmetric on shell"
            self._record(idx, "second", (rep.lhs, rep.rhs))
            return None

        return Op(f"onshell-symmetry-{k}", run, check)

    def _off_shell(self, k, xi1) -> Op:
        idx = 4 * k + 3

        def run():
            sec = self.section(self.off_shell)
            rep = numeric.check_critical(self.lag, sec, CRIT_TOL)
            pair = numeric.first_variation_pair(self.lag, sec, (xi1,),
                                                step=STEP)
            try:
                numeric.second_variation_check(self.lag, sec, (xi1,), (xi1,),
                                               step=STEP, crit_tol=CRIT_TOL)
            except numeric.NotCritical:
                return rep, pair, True
            return rep, pair, False

        def check(result):
            rep, pair, refused = result
            if rep.is_critical or not close(rep.max_residual, 4.0):
                return f"u^2+v^2 residual {rep.max_residual}, expected 4"
            if not refused:
                return "second_variation_check accepted a non-critical section"
            self._record(idx, "first-offshell", pair)
            return None

        return Op(f"off-shell-{k}", run, check)

    def inputs_text(self) -> str:
        return "\n".join(
            f"{to_plain(h)} | {to_plain(x1)} | {to_plain(x2)}"
            for h, x1, x2, _p1, _p2 in self.items)

    def reference(self) -> dict[int, str]:
        """Compare every recorded value with the exact rational one."""
        exact = {}
        bad = {}
        for idx, rows in sorted(self.recorded.items()):
            k = idx // 4
            _h, _x1, _x2, p1, p2 = self.items[k]
            for kind, values in rows:
                key = (k, kind)
                if key not in exact:
                    if kind == "second":
                        exact[key] = ref.laplace_second_variation(p1, p2, BOX)
                    elif kind == "first-offshell":
                        exact[key] = ref.integral_against(
                            p1, {(0, 0): Fraction(-4)}, BOX)
                    else:
                        exact[key] = Fraction(0)
                want = float(exact[key])
                if not all(close(x, want) for x in values):
                    bad[idx] = f"{kind} values {values} differ from exact {want}"
        return bad


def build(seed: int, root=None) -> Workload:
    ob = OracleBind(seed)
    return Workload("oracle-bind", ob.ops(), group=4,
                    inputs_text=ob.inputs_text(), reference=ob.reference)
