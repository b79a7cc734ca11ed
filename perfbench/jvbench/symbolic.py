"""symbolic workload: the variational pipeline on polynomial Lagrangians and
four named fixtures, exercising expr, jetcalc and variational only.

Cost depends on the shape of a Lagrangian (which jet coordinates occur, to
which powers) far more than on its coefficients: two random shapes of the
same class can differ a hundredfold.  So the shapes come from a fixed
catalogue, five per (n, m, order) class for n <= 3 base variables, m <= 2
fields and jet order 1-3, drawn once by ``jetvar.randgen`` with a fixed
seed; the run seed draws every coefficient anew and relabels base axes and
fields.  Runs with different seeds then do comparable work.  The 90 shapes
and four fixtures make 94 operations, enough for ten to lie beyond p90.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

from jetvar import variational
from jetvar.expr import (BaseCoord, JetContext, JetCoord, JetExpr, ZERO, sqrt,
                         to_plain)
from jetvar.jetcalc import VerticalField
from jetvar.multiindex import MultiIndex
from jetvar.randgen import random_polynomial, random_vertical_field
from jetvar.textio import parse_problem_file
from jetvar.variational import Lagrangian

from .workload import Op, Workload

SHAPE_SEED = 20260809
SHAPES_PER_CLASS = 5
CLASSES = tuple(itertools.product((1, 2, 3), (1, 2), (1, 2, 3)))
SYMPY_ITEMS = 24
BASE_NAMES = ("x", "y", "z")
FIBER_NAMES = ("u", "v")


def _context(n: int, m: int) -> JetContext:
    return JetContext.make(BASE_NAMES[:n], FIBER_NAMES[:m])


def _shapes():
    """The fixed catalogue: (ctx, density, xi1, xi2) per slot."""
    rng = random.Random(SHAPE_SEED)
    out = []
    for n, m, r in CLASSES:
        ctx = _context(n, m)
        for _ in range(SHAPES_PER_CLASS):
            dens = random_polynomial(rng, ctx, max_order=r, max_monomials=5,
                                     max_factors=2, max_power=2)
            counts = [0] * n
            for _ in range(r):
                counts[rng.randrange(n)] += 1
            top = ctx.jet(rng.randrange(m), MultiIndex(tuple(counts)))
            dens = dens + top ** 2 / 2   # pins the jet order to r
            xi1 = random_vertical_field(rng, ctx, max_order=1)
            xi2 = random_vertical_field(rng, ctx, max_order=1)
            out.append((ctx, dens, xi1, xi2))
    return out


class _Relabel:
    """Seeded permutation of base axes and fields plus fresh coefficients."""

    def __init__(self, rng: random.Random, ctx: JetContext):
        self.rng = rng
        self.ctx = ctx
        self.axes = list(range(ctx.n))
        self.fields = list(range(ctx.m))
        rng.shuffle(self.axes)
        rng.shuffle(self.fields)

    def atom(self, atom) -> JetExpr:
        if isinstance(atom, BaseCoord):
            return self.ctx.base(self.axes[atom.axis])
        if isinstance(atom, JetCoord):
            counts = [0] * self.ctx.n
            for a, c in enumerate(atom.sigma.counts):
                counts[self.axes[a]] = c
            return self.ctx.jet(self.fields[atom.index],
                                MultiIndex(tuple(counts)))
        raise ValueError(f"unexpected atom in a polynomial shape: {atom!r}")

    def expr(self, e: JetExpr) -> JetExpr:
        total = ZERO
        for mono, _coeff in e.terms:
            coeff = Fraction(self.rng.choice((-1, 1)) * self.rng.randint(1, 5),
                             self.rng.choice((1, 2, 3)))
            term = JetExpr.constant(coeff)
            for atom, k in mono:
                term = term * self.atom(atom) ** k
            total = total + term
        return total

    def field(self, xi: VerticalField) -> VerticalField:
        comps = [ZERO] * self.ctx.m
        for i, c in enumerate(xi.components):
            comps[self.fields[i]] = self.expr(c)
        return VerticalField(self.ctx, tuple(comps))


# ---------------------------------------------------------------------------
# fixtures with hand-written Euler-Lagrange forms
# ---------------------------------------------------------------------------


def minimal_surface():
    ctx = JetContext.make("u v", "w")
    wu, wv = ctx.jet("w", "u"), ctx.jet("w", "v")
    wuu, wuv, wvv = ctx.jet("w", "uu"), ctx.jet("w", "uv"), ctx.jet("w", "vv")
    s = sqrt(1 + wu ** 2 + wv ** 2)
    lag = Lagrangian(ctx, s)
    # -div(grad w / S), expanded: the mean-curvature operator
    el = -((wuu + wvv) * s ** -1
           - (wu ** 2 * wuu + 2 * wu * wv * wuv + wv ** 2 * wvv) * s ** -3)
    return lag, (el,)


def potential_kdv():
    ctx = JetContext.make("x t", "w")
    wx, wt, wxx = ctx.jet("w", "x"), ctx.jet("w", "t"), ctx.jet("w", "xx")
    lag = Lagrangian(ctx, wx * wt / 2 + wx ** 3 - wxx ** 2 / 2)
    # -(u_t + 6 u u_x + u_xxx) with u = w_x
    el = -(ctx.jet("w", "xt") + 6 * wx * wxx + ctx.jet("w", "xxxx"))
    return lag, (el,)


def biharmonic_quartic():
    ctx = JetContext.make("x y z", "w")
    lap = ctx.jet("w", "xx") + ctx.jet("w", "yy") + ctx.jet("w", "zz")
    w = ctx.fiber("w")
    lag = Lagrangian(ctx, lap ** 2 / 2 + w ** 4)
    # Delta^2 w + 4 w^3
    el = 4 * w ** 3
    for a in "xyz":
        el = el + ctx.jet("w", a * 4)
    for a, b in itertools.combinations("xyz", 2):
        el = el + 2 * ctx.jet("w", a * 2 + b * 2)
    return lag, (el,)


def geodesic_metric(root: Path):
    pf = parse_problem_file((root / "problems" / "geodesic_metric.vp")
                            .read_text(encoding="utf-8"))
    lag = pf.lagrangians["geodesic"]
    ctx = lag.ctx
    qd = [ctx.jet("q1", "t"), ctx.jet("q2", "t")]
    qdd = [ctx.jet("q1", "tt"), ctx.jet("q2", "tt")]
    sym = {(0, 0): "g11", (0, 1): "g12", (1, 0): "g12", (1, 1): "g22"}

    def g(a, b, wrt=None):
        orders = [0, 0]
        if wrt is not None:
            orders[wrt] = 1
        return ctx.opaque(sym[(a, b)], tuple(orders))

    # -(g_ab q''^b + Gamma_{a,bc} q'^b q'^c), Christoffel symbols of the
    # first kind Gamma_{a,bc} = (d_b g_ac + d_c g_ab - d_a g_bc) / 2
    els = []
    for a in range(2):
        e = ZERO
        for b in range(2):
            e = e - g(a, b) * qdd[b]
            for c in range(2):
                gamma = (g(a, c, b) + g(a, b, c) - g(b, c, a)) / 2
                e = e - gamma * qd[b] * qd[c]
        els.append(e)
    return lag, tuple(els)


# ---------------------------------------------------------------------------
# the operation and its known-answer gate
# ---------------------------------------------------------------------------


def pipeline(lag, xi1, xi2):
    """EL -> Helmholtz -> vertical differential -> Jacobi -> adjoint of the
    Jacobi morphism -> second-variation split -> certificate -> Hessian."""
    v = variational
    e = v.euler_lagrange(lag)
    h = v.helmholtz(e)
    vd = v.vertical_differential(lag)
    jac = v.jacobi(lag)
    back = v.adjoint(jac)
    s1, s2 = v.second_variation_decomposition(lag, xi1, xi2)
    cert = v.first_summand_certificate(lag, xi1, xi2)
    hess = v.hessian(lag, xi1, xi2)
    return e, h, vd, back, s1, s2, cert, hess


def gate(result, expected_el=None) -> str | None:
    e, h, vd, back, s1, s2, cert, hess = result
    if not h.is_zero:
        return "Helmholtz form of an Euler-Lagrange form is not zero"
    if back != vd:
        return "adjoint(adjoint(V)) != V"
    if not (s1.density + s2.density - hess.density).is_zero:
        return "S1 + S2 != hessian"
    if variational.reconstruct_from_certificate(e, cert) != s1.density:
        return "certificate does not rebuild S1"
    if expected_el is not None and e.components != tuple(expected_el):
        return "Euler-Lagrange form differs from the hand-written one"
    return None


class Symbolic:
    def __init__(self, seed: int, root: Path):
        rng = random.Random(seed)
        self.items = []   # (label, lag, xi1, xi2, expected_el, polynomial)
        for k, (ctx, dens, xi1, xi2) in enumerate(_shapes()):
            rel = _Relabel(rng, ctx)
            n, m = ctx.n, ctx.m
            self.items.append((f"poly-n{n}m{m}-{k}",
                               Lagrangian(ctx, rel.expr(dens)),
                               rel.field(xi1), rel.field(xi2), None, True))
        shape_rng = random.Random(SHAPE_SEED + 1)
        for label, (lag, el), poly in (
                ("minimal-surface", minimal_surface(), False),
                ("potential-kdv", potential_kdv(), True),
                ("biharmonic-w4", biharmonic_quartic(), True),
                ("geodesic-metric", geodesic_metric(root), False)):
            rel = _Relabel(rng, lag.ctx)
            rel.axes = list(range(lag.ctx.n))     # fixtures keep their labels
            rel.fields = list(range(lag.ctx.m))
            xi1 = rel.field(random_vertical_field(shape_rng, lag.ctx,
                                                  max_order=1))
            xi2 = rel.field(random_vertical_field(shape_rng, lag.ctx,
                                                  max_order=1))
            self.items.append((label, lag, xi1, xi2, el, poly))
        rng.shuffle(self.items)
        self.el_seen: dict[int, object] = {}

    def op(self, idx: int) -> Op:
        label, lag, xi1, xi2, expected, _poly = self.items[idx]

        def check(result):
            self.el_seen.setdefault(idx, result[0])
            return gate(result, expected)

        return Op(label, lambda: pipeline(lag, xi1, xi2), check)

    def inputs_text(self) -> str:
        lines = []
        for label, lag, xi1, xi2, _el, _poly in self.items:
            ctx = lag.ctx
            lines.append(f"{label} | {ctx.base_names} {ctx.fiber_names} | "
                         f"{to_plain(lag.density)} | "
                         + " ; ".join(to_plain(c) for c in xi1.components)
                         + " | "
                         + " ; ".join(to_plain(c) for c in xi2.components))
        return "\n".join(lines)

    def reference(self) -> dict[int, str]:
        """Cross-check polynomial Euler-Lagrange forms against sympy: the
        first SYMPY_ITEMS in the seeded order, which differ between seeds
        (sympy takes about 50 ms an item)."""
        from .reference import sympy_euler_lagrange_matches
        bad = {}
        polys = [i for i in sorted(self.el_seen) if self.items[i][5]]
        for idx in polys[:SYMPY_ITEMS]:
            _label, lag, _x1, _x2, _exp, _poly = self.items[idx]
            if not sympy_euler_lagrange_matches(lag, self.el_seen[idx]):
                bad[idx] = "Euler-Lagrange form disagrees with sympy"
        return bad


def build(seed: int, root: Path) -> Workload:
    sym = Symbolic(seed, root)
    ops = [sym.op(i) for i in range(len(sym.items))]
    return Workload("symbolic", ops, group=len(ops),
                    inputs_text=sym.inputs_text(), reference=sym.reference)
