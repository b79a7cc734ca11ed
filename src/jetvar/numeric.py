"""Numerical verification along prolonged sections: evaluation, action
integrals by Gauss-Legendre quadrature, finite-difference variations of
the action along linear variations, criticality and on-shell symmetry
checks.

Evaluation is composition, L o j^r s: an integrand L is compiled once
with the jet coordinates as inputs, each jet entry d_sigma s^i it needs
is compiled from exact partials of the section's closed form, and both
run as numpy arrays at the Gauss nodes.  Each compiled piece is first
rewritten exactly in the box's scaled coordinates s = (x - mid)/half,
and the bump factor below, which variation fields carry so that
divergence terms drop from every integration by parts, is written there
directly: in raw coordinates it has huge cancelling coefficients away
from the origin.  A finite-difference action is the compiled integrand
applied to jet arrays, since j(s + t phi) = j s + t j phi.  Faults and
non-finite values raise NumericError."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import expr as ex
from .expr import (ExprError, JetContext, JetExpr, jet_coords, partial,
                   substitute, to_code)
from .variational import (BilinearForm, Lagrangian, euler_lagrange, jacobi,
                          vertical_differential)


class NumericError(RuntimeError):
    """Numeric evaluation failure (domain error, opaque symbol, ...)."""


class NotCritical(NumericError):
    """A check requiring a critical section was given a non-critical one."""

    def __init__(self, report: "CriticalityReport"):
        super().__init__(
            f"section is not critical: max |E| residual "
            f"{report.max_residual:.3e} exceeds tolerance {report.tol:.1e}")
        self.report = report


@dataclass(frozen=True)
class NumericConfig:
    """Numeric block of a problem file: domain box, quadrature nodes per
    axis, finite-difference step, acceptance tolerance."""

    domain: tuple[tuple[float, float], ...]
    nodes: int = 64
    step: float = 1e-3
    tol: float = 1e-6


def rel_close(a: float, b: float, rel: float = 1e-6, floor: float = 1e-8) -> bool:
    """|a - b| within rel * max(|a|, |b|), with an absolute floor."""
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), floor)


# ---------------------------------------------------------------------------
# compiled evaluation
# ---------------------------------------------------------------------------


@contextmanager
def _float_guard():
    """Trap floating-point faults; report them as NumericError."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            yield
    except (ArithmeticError, ValueError) as err:
        raise NumericError(f"numeric evaluation failed: {err}") from None


def compile_expr(e: JetExpr) -> Callable[[Mapping[ex.Atom, Any]], Any]:
    """Compile e to a numpy function of a mapping from its coordinates to
    floats or arrays.  Faults, non-finite values and unbound coordinates
    raise NumericError.  Reentrant and deterministic."""
    names: dict[ex.Atom, str] = {}
    try:
        code = to_code(e, names)
    except ExprError as err:    # an opaque function or too long a coefficient
        raise NumericError(str(err)) from None
    raw = eval(f"lambda v: {code}",
               {"_np": np, **{f"_a{k}": a for k, a in enumerate(names)}})

    @_float_guard()
    def run(env: Mapping[ex.Atom, Any]):
        try:
            out = raw(env)
        except KeyError as err:
            raise NumericError(f"coordinate {err.args[0]!r} left unbound") \
                from None
        if not np.all(np.isfinite(out)):
            raise NumericError("evaluation gave a value that is not finite")
        return out

    return run


# ---------------------------------------------------------------------------
# quadrature rule
# ---------------------------------------------------------------------------

MAX_POINTS = 65536   # points per section; bounds grid memory and time


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes on [-1, 1], ascending, and their
    weights: Newton's method on P_n from Tricomi's initial guesses, with
    P_n and P_{n-1} from the three-term recurrence, for the nonnegative
    half of the nodes; O(n^2) time and O(n) memory."""
    # Tricomi's guess (1 - (n-1)/(8n^3)) cos(pi(4k-1)/(4n+2)), written as
    # a sine so that the middle node of an odd rule is exactly 0
    j = np.arange(1 - n % 2, n, 2)
    x = (1 - (n - 1) / (8 * n ** 3)) * np.sin(np.pi * j / (2 * n + 1))
    for _ in range(100):
        p0, p1 = np.ones_like(x), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        dp = n * (p0 - x * p1) / ((1 - x) * (1 + x))
        dx = p1 / dp
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    else:
        raise NumericError(
            f"the {n}-point Gauss-Legendre rule did not converge")
    w = 2 / ((1 - x) * (1 + x) * dp ** 2)
    return (np.concatenate((-x[n % 2:][::-1], x)),
            np.concatenate((w[n % 2:][::-1], w)))


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


class NumericSection:
    """Closed-form section, one base-coordinate expression per field,
    with quadrature configuration."""

    def __init__(self, ctx: JetContext, exprs: Sequence[JetExpr],
                 domain: Sequence[tuple[float, float]], nodes: int = 64):
        if len(exprs) != ctx.m:
            raise ValueError(f"section needs {ctx.m} component expressions")
        for e in exprs:
            if jet_coords(e):
                raise ValueError(
                    "section expressions must use base coordinates only")
        if len(domain) != ctx.n:
            raise ValueError(f"domain needs {ctx.n} axis intervals")
        for lo, hi in domain:
            if not lo < hi:
                raise ValueError("domain bounds must satisfy lo < hi")
        if nodes < 1:
            raise ValueError("need at least one quadrature node per axis")
        if nodes ** ctx.n > MAX_POINTS:
            raise NumericError(
                f"{nodes} nodes on each of {ctx.n} axes exceed the limit of "
                f"{MAX_POINTS} quadrature points")
        self.ctx = ctx
        self.exprs = tuple(exprs)
        self.domain = tuple((float(lo), float(hi)) for lo, hi in domain)
        self.nodes = nodes
        self._axes = tuple(ctx.base_atom(ax) for ax in range(ctx.n))
        # exact affine map to the Gauss-native cube: x = mid + half * s
        self._mid = tuple((Fraction(lo) + Fraction(hi)) / 2
                          for lo, hi in self.domain)
        self._half = tuple((Fraction(hi) - Fraction(lo)) / 2
                           for lo, hi in self.domain)
        self._scaled_exprs = tuple(self._scaled(e) for e in self.exprs)
        self._jets: dict[ex.JetCoord, Callable] = {}
        self._bound: dict[JetExpr, Callable] = {}
        self._fields: dict[tuple[JetExpr, ...], NumericSection] = {}
        self._grid: tuple[np.ndarray, np.ndarray] | None = None

    # -- prolongation ---------------------------------------------------

    def _scaled(self, e: JetExpr) -> JetExpr:
        """e rewritten exactly in the scaled coordinates of the box."""
        return substitute(e, {
            a: JetExpr.constant(m) + JetExpr.constant(h) * ex.atom_expr(a)
            for a, m, h in zip(self._axes, self._mid, self._half)})

    def _jet(self, jc: ex.JetCoord) -> Callable:
        """The compiled jet entry d_sigma s^i for jc = y^i_sigma, taken in
        scaled coordinates, where d/dx = (1/half) d/ds."""
        got = self._jets.get(jc)
        if got is None:
            d = self._scaled_exprs[jc.index]
            for a, h, count in zip(self._axes, self._half, jc.sigma.counts):
                for _ in range(count):
                    d = partial(d, a) / JetExpr.constant(h)
            got = self._jets[jc] = compile_expr(d)
        return got

    def bind(self, e: JetExpr) -> Callable[[Sequence[Any]], Any]:
        """Evaluator of e along the prolonged section, as a function of
        the base point (one float or array per axis): e compiled once with
        the jet coordinates as inputs, composed with its jet entries."""
        got = self._bound.get(e)
        if got is not None:
            return got
        entries = [(jc, self._jet(jc)) for jc in jet_coords(e)]
        f = compile_expr(self._scaled(e))

        def got(x):
            env = self._scaled_point(x)
            for jc, g in entries:
                env[jc] = g(env)
            return f(env)

        self._bound[e] = got
        return got

    def _scaled_point(self, x) -> dict[ex.Atom, Any]:
        """The scaled coordinates of a base point (one float or array per
        axis), keyed by the axis atoms."""
        return {a: (xa - float(m)) / float(h) for a, m, h, xa
                in zip(self._axes, self._mid, self._half, x)}

    def _field(self, comps: Sequence[JetExpr]) -> "NumericSection":
        """The bumped field bump * xi as a section over the same box, built
        once per field: its jet entries are the derivatives
        D_sigma(bump * xi), to any order.  The bump is written directly in
        scaled coordinates, prod_axis (1 - s^2)^4, which is bump_factor
        rescaled exactly; the field section's exprs stay the unbumped xi,
        since evaluation reads only the scaled forms."""
        comps = tuple(comps)
        got = self._fields.get(comps)
        if got is None:
            if len(comps) != self.ctx.m:
                raise ValueError(
                    f"variation fields need {self.ctx.m} components")
            got = NumericSection(self.ctx, comps, self.domain, self.nodes)
            bump = ex.ONE
            for a in self._axes:
                bump = bump * (1 - ex.atom_expr(a) ** 2) ** 4
            got._scaled_exprs = tuple(bump * e for e in got._scaled_exprs)
            got._grid = self.grid()
            self._fields[comps] = got
        return got

    # -- quadrature -------------------------------------------------------

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Tensor-product Gauss-Legendre points over the box, one row per
        node in row-major order, and their weights."""
        if self._grid is None:
            xs, ws = gauss_legendre(self.nodes)
            halves = [(hi - lo) / 2.0 for lo, hi in self.domain]
            points = np.meshgrid(*[(hi + lo) / 2.0 + h * xs for h, (lo, hi)
                                   in zip(halves, self.domain)], indexing="ij")
            weights = np.meshgrid(*[h * ws for h in halves], indexing="ij")
            self._grid = (np.column_stack([p.ravel() for p in points]),
                          np.multiply.reduce(weights).ravel())
        return self._grid

    def _at_nodes(self, e: JetExpr):
        """e along the prolonged section at every quadrature node."""
        return self.bind(e)(self.grid()[0].T)

    @_float_guard()
    def _integral(self, values) -> float:
        """Quadrature of values at the nodes, as a compensated sum."""
        return math.fsum(self.grid()[1] * values)


def eval_on_section(e: JetExpr, section: NumericSection,
                    point: Sequence[float]) -> float:
    """Value of e along the prolonged section at a base point."""
    return float(section.bind(e)(point))


def integrate_on_section(e: JetExpr, section: NumericSection) -> float:
    return section._integral(section._at_nodes(e))


def action(lag: Lagrangian, section: NumericSection) -> float:
    """The action integral of the Lagrangian over the section's box."""
    return integrate_on_section(lag.density, section)


def action_report(lag: Lagrangian, section: NumericSection
                  ) -> tuple[float, float]:
    """Action value plus a quadrature error estimate (the change under
    halving the node count; on smooth integrands doubling the nodes
    moves the value by less than this)."""
    value = action(lag, section)
    coarse = NumericSection(section.ctx, section.exprs, section.domain,
                            max(1, section.nodes // 2))
    return value, abs(value - action(lag, coarse))


# ---------------------------------------------------------------------------
# variations
# ---------------------------------------------------------------------------

def bump_factor(ctx: JetContext, domain: Sequence[tuple[float, float]]
                ) -> JetExpr:
    """prod_axis ((x-a)(b-x))^4, normalized to peak value 1.  Vanishes to
    fourth order on the boundary, enough to kill divergence terms for
    operators up to fourth order."""
    out = ex.ONE
    for axis, (lo, hi) in enumerate(domain):
        a = Fraction(lo)
        b = Fraction(hi)
        x = ctx.base(axis)
        peak = ((b - a) ** 2 / 4) ** 4
        out = out * ((x - a) * (b - x)) ** 4 / JetExpr.constant(peak)
    return out


@dataclass
class VariationConfig:
    """Variation fields (closed forms in the base coordinates; the bump
    factor is multiplied in by the engine) and the finite-difference
    step."""

    fields: Sequence[tuple[JetExpr, ...]] = ()
    step: float = 1e-3
    richardson: bool = False

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("finite-difference step must be positive")
        for comps in self.fields:
            for c in comps:
                if jet_coords(c):
                    raise ValueError(
                        "variation fields must be closed forms in the base "
                        "coordinates")


def finite_diff_variation(lag: Lagrangian, section: NumericSection,
                          vc: VariationConfig, i: int) -> float:
    """i-th variation of the action along s + sum_k t_k * bump * xi_k, as a
    central finite difference at t = 0 (i in {1, 2}).  Prolongation is
    linear in the fibre, j(s + t phi) = j s + t j phi, so each action is
    the compiled integrand applied to the jet arrays of the section plus
    t_k times those of each bumped field, at the Gauss nodes."""
    if i not in (1, 2):
        raise ValueError("only first and second variations are supported")
    if len(vc.fields) < i:
        raise ValueError(f"need {i} variation fields, got {len(vc.fields)}")
    fields = [section._field(comps) for comps in vc.fields[:i]]
    f = compile_expr(section._scaled(lag.density))
    scaled = section._scaled_point(section.grid()[0].T)
    jets = [(jc, section._jet(jc)(scaled), [fs._jet(jc)(scaled)
                                            for fs in fields])
            for jc in jet_coords(lag.density)]

    @_float_guard()
    def a(*ts: float) -> float:
        env = dict(scaled)
        for jc, j0, js in jets:
            env[jc] = j0 + sum(t * j for t, j in zip(ts, js))
        return section._integral(f(env))

    def diff(h: float) -> float:
        if i == 1:
            return (a(h) - a(-h)) / (2 * h)
        return (a(h, h) - a(h, -h) - a(-h, h) + a(-h, -h)) / (4 * h * h)

    h = vc.step
    if not vc.richardson:
        return diff(h)
    return (4 * diff(h / 2) - diff(h)) / 3


def _contraction(a: BilinearForm, section: NumericSection,
                 f1: NumericSection, f2: NumericSection):
    """sum A^sigma_ij xi1^i D_sigma xi2^j at the nodes, factor by factor."""
    ctx = section.ctx
    factors = [(section._at_nodes(val), f1._at_nodes(ctx.fiber(i)),
                f2._at_nodes(ctx.jet(j, sigma)))
               for (sigma, i, j), val in a.entries()]
    with _float_guard():
        return sum(v * p * q for v, p, q in factors)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalityReport:
    max_residual: float
    per_component: tuple[float, ...]
    tol: float

    @property
    def is_critical(self) -> bool:
        return self.max_residual <= self.tol


def check_critical(lag: Lagrangian, section: NumericSection,
                   tol: float = 1e-8) -> CriticalityReport:
    """Max over quadrature nodes of |e_i| along the prolonged section."""
    per = tuple(float(np.max(np.abs(section._at_nodes(c))))
                for c in euler_lagrange(lag).components)
    return CriticalityReport(max(per), per, tol)


@dataclass(frozen=True)
class OnshellSymmetryReport:
    lhs: float
    rhs: float
    difference: float
    pointwise_max: float
    residual: float

    def symmetric(self, rel: float = 1e-6, floor: float = 1e-8) -> bool:
        return rel_close(self.lhs, self.rhs, rel, floor)


def check_onshell_symmetry(lag: Lagrangian, section: NumericSection,
                           xi1: tuple[JetExpr, ...], xi2: tuple[JetExpr, ...],
                           crit_tol: float = 1e-8) -> OnshellSymmetryReport:
    """Integrated symmetry of the vertical differential along a critical
    section, for compactly supported fields.

    Both contractions are integrated over the box; pointwise they may
    differ by a total divergence, so the pointwise maximum difference is
    reported for inspection without being asserted small.  Refuses
    non-critical sections.
    """
    crit = check_critical(lag, section, crit_tol)
    if not crit.is_critical:
        raise NotCritical(crit)
    f1, f2 = section._field(xi1), section._field(xi2)
    ve = vertical_differential(lag)
    e12 = _contraction(ve, section, f1, f2)
    e21 = _contraction(ve, section, f2, f1)
    lhs, rhs = section._integral(e12), section._integral(e21)
    with _float_guard():
        pointwise = float(np.max(np.abs(e12 - e21)))
    return OnshellSymmetryReport(lhs, rhs, lhs - rhs, pointwise,
                                 crit.max_residual)


@dataclass(frozen=True)
class SecondVariationReport:
    finite_difference: float
    integral_vertical_differential: float
    integral_jacobi: float
    residual: float

    def consistent(self, rel: float = 1e-6, floor: float = 1e-8) -> bool:
        return (rel_close(self.finite_difference,
                          self.integral_vertical_differential, rel, floor)
                and rel_close(self.finite_difference, self.integral_jacobi,
                              rel, floor))


def second_variation_check(lag: Lagrangian, section: NumericSection,
                           xi1: tuple[JetExpr, ...], xi2: tuple[JetExpr, ...],
                           step: float = 1e-3, crit_tol: float = 1e-8
                           ) -> SecondVariationReport:
    """Compare the finite-difference second variation of the action along
    a critical section against the integrated contraction of the fields
    into the vertical differential and into the Jacobi morphism."""
    crit = check_critical(lag, section, crit_tol)
    if not crit.is_critical:
        raise NotCritical(crit)
    vc = VariationConfig(fields=(xi1, xi2), step=step)
    fd = finite_diff_variation(lag, section, vc, 2)
    f1, f2 = section._field(xi1), section._field(xi2)
    ive = section._integral(
        _contraction(vertical_differential(lag), section, f1, f2))
    ijac = section._integral(_contraction(jacobi(lag), section, f1, f2))
    return SecondVariationReport(fd, ive, ijac, crit.max_residual)


def first_variation_pair(lag: Lagrangian, section: NumericSection,
                         xi: tuple[JetExpr, ...], step: float = 1e-3
                         ) -> tuple[float, float]:
    """(finite-difference first variation, integral of xi | E along the
    section) for a bump-localized field; the two agree as step -> 0 and
    both vanish on critical sections."""
    vc = VariationConfig(fields=(xi,), step=step)
    fd = finite_diff_variation(lag, section, vc, 1)
    f = section._field(xi)
    factors = [(f._at_nodes(section.ctx.fiber(i)), section._at_nodes(c))
               for i, c in enumerate(euler_lagrange(lag).components)]
    with _float_guard():
        pairing = sum(p * e for p, e in factors)
    return fd, section._integral(pairing)
