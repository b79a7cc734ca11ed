"""Numerical verification along prolonged sections: evaluation, action
integrals by Gauss-Legendre quadrature, finite-difference variations of
the action along linear variations, criticality and on-shell symmetry
checks.

A section is only ever read at its tensor Gauss-Legendre nodes, and it
keeps one table of values there, keyed by expression in scaled
coordinates and each evaluated once: the factors below, and each bound
expression L o j^r s, which is L with the arrays of its jet entries as
jet coordinates.  An expression is evaluated term by term in canonical
order, with the floats of its Python source, after an exact rewrite in
the box's scaled coordinates s = (x - mid)/half.  There the bump that
variation fields carry, so that divergence terms drop from every
integration by parts, is the separable product prod_axis b(s_a),
b(s) = (1 - s^2)^p with p = max(4, r) for a Lagrangian of order r; in
raw coordinates it has huge cancelling coefficients away from the
origin.  The bump is never expanded into a field: a field is a pair
(xi, per-axis weights), b(s_a) for a bumped field and 1 for the section
itself, whose jet entry is the Leibniz sum of the derivatives of each
weight times those of xi, the factors.  A derivative d/dx_a is jetcalc's
total derivative along s_a over half_a, taken once per section and
shared with its bumped fields.  A finite-difference action is the
scaled integrand evaluated on jet arrays, since
j(s + t phi) = j s + t j phi.  Opaque functions are refused where a
section or bumped field is built, and in a bound expression before
anything is evaluated; faults and non-finite values raise NumericError."""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Callable, Mapping, Sequence
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from . import expr as ex
from .expr import JetContext, JetExpr, jet_coords, substitute
from .jetcalc import total_derivative
from .multiindex import MultiIndex
# these names live apart so that a symbolic command can use them
# without importing numpy
from .numconfig import SETTINGS, NotCritical, NumericError
from .variational import (BilinearForm, Lagrangian, SourceForm,
                          euler_lagrange, linearize)


def _default(name: str):
    """The default of the numeric setting name: numconfig.SETTINGS is the
    one place that writes it, for the library and the command line alike."""
    return SETTINGS[name][-1]


def rel_close(a: float, b: float, rel: float = _default("tol")) -> bool:
    """|a - b| within rel * max(|a|, |b|), with an absolute floor of 1e-8."""
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), 1e-8)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@contextmanager
def _float_guard():
    """Trap floating-point faults; report them as NumericError."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            yield
    except (ArithmeticError, ValueError) as err:
        raise NumericError(f"numeric evaluation failed: {err}") from None


def _finite(out):
    """out, or NumericError if any of its values is not finite."""
    if not np.all(np.isfinite(out)):
        raise NumericError("evaluation gave a value that is not finite")
    return out


def _refuse_opaque(e: JetExpr) -> None:
    """NumericError at the first opaque function in e, arguments included."""
    for m, _n in e._terms:
        for atom, _k in m:
            if isinstance(atom, ex.OpaqueFn):
                raise NumericError(
                    f"opaque function {atom!r} has no numeric value")
            for arg in atom.args:
                _refuse_opaque(arg)


def _value(e: JetExpr, env: Mapping[ex.Atom, object]):
    """e at env by the float operations of its Python source
    p/q*a*b**k*1.0/(c)*(1.0/(d))**j + ...: each term is p/q times its
    factors from left to right, and the terms are added in canonical
    order from the first on."""
    out = None
    for m, p, q in e._ratios():
        term = p / q
        for atom, k in m:
            kind = type(atom)
            if kind is ex.InvSum:
                v = _value(atom.body, env)
                term = term / v if k == 1 else term * (1.0 / v) ** k
                continue
            if kind is ex.ElemFn:
                v = getattr(np, atom.fn)(_value(atom.arg, env))
            elif kind is ex.ConstSym:
                v = ex.KNOWN_CONSTANTS[atom.name]
            else:
                v = env[atom]
            term = term * (v if k == 1 else v ** k)
        out = term if out is None else out + term
    return 0.0 if out is None else out


def _evaluate(e: JetExpr, env: Mapping[ex.Atom, object]):
    """e at env, a mapping from its coordinates to floats or arrays.
    Faults, non-finite values and unbound coordinates raise NumericError."""
    with _float_guard():
        try:
            return _finite(_value(e, env))
        except KeyError as err:
            raise NumericError(f"coordinate {err.args[0]!r} left unbound") \
                from None


def compile_expr(e: JetExpr) -> Callable[[Mapping[ex.Atom, object]], object]:
    """e as a function of a mapping from its coordinates to floats or
    arrays (see _evaluate), once an opaque function in e is refused."""
    _refuse_opaque(e)
    return lambda env: _evaluate(e, env)


def _factor(e: JetExpr) -> tuple[float, JetExpr | None]:
    """e as a factor of a Leibniz term: (c, None) if e is the constant c,
    else (1.0, e)."""
    c = e.constant_value()
    if c is None:
        return 1.0, e
    try:
        return float(c), None
    except OverflowError as err:
        raise NumericError(f"numeric evaluation failed: {err}") from None


def _components(exprs: Sequence[JetExpr]) -> None:
    """Refuse components that use a jet coordinate, then any opaque
    function in them, so that no jet entry of a section or field has one."""
    if any(jet_coords(e) for e in exprs):
        raise ValueError("section expressions must use base coordinates only")
    for e in exprs:
        _refuse_opaque(e)


# ---------------------------------------------------------------------------
# quadrature rule
# ---------------------------------------------------------------------------

# points per section; bounds the memory of the grid and of the arrays a
# section keeps at its nodes (one per factor, jet entry and bound
# expression), and the time to build the 1-D rule (about 20 ms on a
# 2-core Xeon)
MAX_POINTS = 65536

# Terms kept of the Stieltjes series of P_n(cos theta); a node takes the
# series only where the first omitted term is below machine precision,
# which leaves about six nodes at each end of [-1, 1] for the exact sum.
_SERIES_TERMS = 20
# Below this degree every node takes the exact sum: it is then cheaper
# than the series' fixed cost.
_SERIES_FROM_DEGREE = 128
# A Newton step d leaves about cot(theta) d^2/2 in a node and
# (cot(theta) d)^2 + (n d)^3 in its weight.  A node leaves the loop once
# both are below eps/16: |d| (|cot theta| + 1) <= 2^-28, n |d| <= 2^-19.
_STEP_FLOOR, _NSTEP_FLOOR = 2.0 ** -28, 2.0 ** -19
# a_k = binom(2k, k)/4^k by the recurrence below this index, by the
# expansion sqrt(pi k) a_k = 1 - 1/(8k) + 1/(128k^2) + ... from it on,
# whose 7 terms leave an error under 1e-17 there; the recurrence alone
# drifts by 2e-14 over 65536 steps.
_GAMMA_RATIO_FROM = 128
_GAMMA_RATIO = (869 / 4194304, -399 / 262144, -21 / 32768, 5 / 1024,
                1 / 128, -1 / 8, 1.0)

# j_(0,k), k = 1..30, the first zeros of the Bessel function J_0, from
# mpmath.besseljzero(0, k): Olver's guesses for the 30 outermost nodes.
_BESSEL_J0_ZEROS = np.array((
    2.404825557695773, 5.520078110286311, 8.653727912911013,
    11.791534439014281, 14.930917708487787, 18.071063967910924,
    21.21163662987926, 24.352471530749302, 27.493479132040253,
    30.634606468431976, 33.77582021357357, 36.917098353664045,
    40.05842576462824, 43.19979171317673, 46.341188371661815,
    49.482609897397815, 52.624051841115, 55.76551075501998,
    58.90698392608094, 62.048469190227166, 65.18996480020687,
    68.3314693298568, 71.47298160359374, 74.61450064370183,
    77.75602563038805, 80.89755587113763, 84.0390907769382,
    87.18062984364116, 90.32217263721049, 93.46371878194478))


def _central_binomials(n: int) -> np.ndarray:
    """a_k = binom(2k, k) / 4^k for k = 0..n, each to a few ulps."""
    k = np.arange(1, min(n, _GAMMA_RATIO_FROM - 1) + 1)
    a = np.concatenate(([1.0], np.cumprod((2 * k - 1) / (2 * k))))
    if n < _GAMMA_RATIO_FROM:
        return a
    k = np.arange(_GAMMA_RATIO_FROM, n + 1, dtype=float)
    return np.concatenate(
        (a, np.polyval(_GAMMA_RATIO, 1 / k) / np.sqrt(np.pi * k)))


def _legendre_sum(theta: np.ndarray, c: np.ndarray, m: np.ndarray):
    """P_n(cos theta) and dP_n/dtheta from the finite sum
    sum_k c_k cos(m_k theta), summed pairwise along each row."""
    mt = theta[:, None] * m
    return ((np.cos(mt) * c).sum(axis=-1),
            -(np.sin(mt) * (c * m)).sum(axis=-1))


def _legendre_series(theta: np.ndarray, n: int, h: np.ndarray, cn: float):
    """P_n(cos theta) and dP_n/dtheta from the Stieltjes series
    C_n sum_m h_m cos(alpha_m) / (2 sin theta)^(m + 1/2), as the real part
    of e^(i alpha_0) (2 sin theta)^(-1/2) sum_m h_m u^m with
    u = -i e^(i theta) / (2 sin theta); d/dtheta turns term m into
    (i n + (m + 1/2)(i - cot theta)) times itself."""
    s2 = 2 * np.sin(theta)
    u = -1j * np.exp(1j * theta) / s2
    # both sums in one Horner loop, as the rows of st
    hd = np.stack((h, h * (np.arange(len(h)) + 0.5)), axis=1)[:, :, None]
    st = np.empty((2, len(theta)), dtype=complex)
    st[:] = hd[-1]
    for k in range(len(h) - 2, -1, -1):
        st *= u
        st += hd[k]
    s, t = st
    lead = cn * np.exp(1j * ((n + 0.5) * theta - np.pi / 4)) / np.sqrt(s2)
    return ((lead * s).real,
            (lead * (1j * n * s + (1j - 1 / np.tan(theta)) * t)).real)


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes on [-1, 1], ascending, and their
    weights, in O(n) time and memory.

    Newton's method runs on phi = pi/2 - theta for the nonnegative nodes
    x = sin(phi) = cos(theta), from Olver's Bessel-zero guesses for the
    30 outermost nodes and Tricomi's for the rest; an odd rule's middle
    node is exactly 0.  P_n(cos theta) and its theta derivative come from
    the Stieltjes series (Hale and Townsend, SIAM J. Sci. Comput. 35,
    2013) at interior nodes, and from the exact sum P_n(cos theta) =
    sum_k a_k a_(n-k) cos((n - 2k) theta), a_k = binom(2k, k)/4^k, near
    +-1 and for every node of a small rule.  A node leaves the loop once
    the error its last step leaves is below rounding; from 64 nodes on,
    every node does so after its first step.  The weights are
    2/(dP_n/dtheta)^2 at the roots, taken to second order over that last
    step, so no 1 - x^2 cancels.  Against a 40-digit reference the nodes
    are within 4e-16 absolute and the weights within 2e-15 relative
    from n = 128 up to 65536; below 128, where every node takes the
    exact sum, the weights are within 5e-14."""
    if n < 1:
        raise ValueError("need at least one quadrature node")
    # Tricomi's guess (1 - (n-1)/(8n^3)) cos(pi(4k-1)/(4n+2)), written as
    # a sine so that the middle node of an odd rule is exactly 0
    j = np.arange(1 - n % 2, n, 2)
    phi = np.arcsin((1 - (n - 1) / (8 * n ** 3))
                    * np.sin(np.pi * j / (2 * n + 1)))
    # Olver's theta = psi + (psi cot psi - 1)/(8 psi rho^2), psi =
    # j_(0,k)/rho, rho = n + 1/2, for the k-th node from +1
    rho = n + 0.5
    psi = _BESSEL_J0_ZEROS[:n // 2][::-1] / rho
    phi[len(phi) - len(psi):] = np.pi / 2 - psi - (
        (psi / np.tan(psi) - 1) / (8 * psi * rho ** 2))
    a = _central_binomials(n)
    # the exact sum, terms k and n - k paired
    k = np.arange((n + 1) // 2)
    c, m = 2 * a[k] * a[n - k], n - 2 * k
    if n % 2 == 0:
        c, m = np.append(c, a[n // 2] ** 2), np.append(m, 0)
    series = np.zeros(phi.shape, dtype=bool)
    if n >= _SERIES_FROM_DEGREE:
        i = np.arange(1, _SERIES_TERMS + 1)
        h = np.cumprod((i - 0.5) ** 2 / (i * (n + i + 0.5)))
        h = np.concatenate(([1.0], h))
        # the omitted tail is below 2 h_M / (2 sin theta)^M relative
        floor = (2 * h[-1] / np.finfo(float).eps) ** (1 / _SERIES_TERMS)
        series = 2 * np.cos(phi) >= floor
        cn = 4 / (np.pi * (2 * n + 1) * a[n])
    # an odd rule's middle node is the root 0, where |dP_n/dtheta| =
    # |P_n'(0)| = n a_((n-1)/2); Newton's method runs on the others
    dp, d = np.zeros((2, len(phi)))
    dp[:n % 2] = n * a[n // 2]
    nodes = np.arange(n % 2, len(phi))
    inner = series[n % 2:]
    # the largest step that leaves a node converged, from its guess
    stop = np.minimum(_STEP_FLOOR / (np.abs(np.tan(phi)) + 1),
                      _NSTEP_FLOOR / n)
    for todo, evaluate in (
            (nodes[~inner], lambda theta: _legendre_sum(theta, c, m)),
            (nodes[inner],
             lambda theta: _legendre_series(theta, n, h[:-1], cn))):
        for _ in range(100):
            if not todo.size:
                break
            at = phi[todo]
            p, q = evaluate(np.pi / 2 - at)
            step = p / q
            dp[todo], d[todo] = q, step
            at += step
            phi[todo] = at
            # a NaN step keeps its node in the loop
            todo = todo[~(np.abs(step) <= stop[todo])]
        else:
            raise NumericError(
                f"the {n}-point Gauss-Legendre rule did not converge")
    x = np.sin(phi)
    # dP_n/dtheta at the root, not at the last iterate, whose theta near
    # +-1 is as coarse as the ulp of pi/2: over the last step d it scales
    # by 1 + d cot(theta) + d^2 (n(n+1) - 1)/2 to second order, theta
    # being the root's, by Legendre's equation P'' + cot(theta) P' +
    # n(n+1) P = 0 in theta
    w = 2 / (dp * (1 + d * (np.tan(phi) + d * ((n * (n + 1) - 1) / 2)))) ** 2
    return (np.concatenate((-x[n % 2:][::-1], x)),
            np.concatenate((w[n % 2:][::-1], w)))


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


class NumericSection:
    """Closed-form section, one expression per field in the base
    coordinates and free of opaque functions, with quadrature settings."""

    def __init__(self, ctx: JetContext, exprs: Sequence[JetExpr],
                 domain: Sequence[tuple[float, float]],
                 nodes: int = _default("nodes")):
        if len(exprs) != ctx.m:
            raise ValueError(f"section needs {ctx.m} component expressions")
        _components(exprs)
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
        self._box = {a: JetExpr.constant(m)
                     + JetExpr.constant(h) * ex.atom_expr(a)
                     for a, m, h in zip(self._axes, self._mid, self._half)}
        # the section as a field (see _field), weighted by 1
        self._own = (tuple(self._scaled(e) for e in self.exprs),
                     (ex.ONE,) * ctx.n)
        # d e / dx_a by (e, a), jet entries by (field, jc), and values at
        # the nodes by scaled expression (see _values)
        self._derivatives: dict[tuple[JetExpr, int], JetExpr] = {}
        self._jets: dict[tuple[tuple, ex.JetCoord], object] = {}
        self._evaluated: dict[JetExpr, object] = {}
        self._grid: tuple[np.ndarray, np.ndarray] | None = None

    # -- prolongation ---------------------------------------------------

    def _scaled(self, e: JetExpr) -> JetExpr:
        """e rewritten exactly in the scaled coordinates of the box; e
        itself if it holds no base coordinate."""
        if ex.all_atoms(e).isdisjoint(self._axes):
            return e
        return substitute(e, self._box)

    def _d_dx(self, e: JetExpr, axis: int) -> JetExpr:
        """d e / dx_a = (1/half_a) D_(s_a) e, a = axis, by jetcalc's total
        derivative, for e base-only in scaled coordinates; once per (e, a)."""
        got = self._derivatives.get((e, axis))
        if got is None:
            got = self._derivatives[e, axis] = total_derivative(
                e, axis, self.ctx) / JetExpr.constant(self._half[axis])
        return got

    def _partial(self, e: JetExpr, tau: MultiIndex) -> JetExpr:
        """d_tau e: one derivative of d_parent e (see MultiIndex.parent)."""
        if not any(tau):
            return e
        axis, parent = tau.parent()
        return self._d_dx(self._partial(e, parent), axis)

    def _jet(self, jc: ex.JetCoord, field: tuple | None = None):
        """The jet entry d_sigma(w xi^i), jc = y^i_sigma, of the field
        (xi, w) of _field, else of the section, at the nodes, once per
        section: over w = prod_axis w_a(s_a), the Leibniz sum
        sum_(rho <= sigma) C(sigma, rho) prod_a w_a^(rho_a) d_(sigma-rho) xi^i
        of terms c * prod(factor values), added from the first on (an
        empty sum is 0.0).  Constant factors fold into c, and a term with
        a vanishing factor is dropped; a unit c multiplies nothing, since
        1.0 * x == x, so with w = 1 the entry is the value-table array of
        d_sigma s^i itself.  Callers never write into a jet entry."""
        field = self._own if field is None else field
        got = self._jets.get((field, jc))
        if got is None:
            exprs, weight = field
            terms = []
            for rho, rest, binom in jc.sigma.splits():
                # d^k w_a / dx_a^k: k steps along axis a
                factors = [_factor(functools.reduce(self._d_dx, [a] * k,
                                                    weight[a]))
                           for a, k in enumerate(rho)]
                if any(w == 0.0 for w, _ in factors):
                    continue
                factors.append(_factor(self._partial(exprs[jc.index], rest)))
                c = binom * math.prod(w for w, _ in factors)
                if c != 0.0:
                    terms.append((c, [f for _, f in factors if f is not None]))
            with _float_guard():
                values = (functools.reduce(operator.mul,
                                           map(self._values, factors))
                          if c == 1.0 and factors else
                          math.prod(map(self._values, factors), start=c)
                          for c, factors in terms)
                got = self._jets[field, jc] = _finite(functools.reduce(
                    operator.add, values, next(values, 0.0)))
        return got

    def _values(self, e: JetExpr):
        """e, in the scaled coordinates, at the nodes, each jet coordinate
        bound to the section's own jet entry: the one table of values a
        section keeps, of jet-entry factors and bound expressions alike,
        each evaluated once per section.  e holds no opaque function."""
        got = self._evaluated.get(e)
        if got is None:
            env = self._nodes | {jc: self._jet(jc) for jc in jet_coords(e)}
            got = self._evaluated[e] = _evaluate(e, env)
        return got

    def bind(self, e: JetExpr):
        """e along the prolonged section at every quadrature node, as the
        values of e in scaled coordinates (see _values), which callers never
        write into.  An opaque function in e is refused before anything is
        evaluated, named as written; the section's components hold none."""
        _refuse_opaque(e)
        return self._values(self._scaled(e))

    @functools.cached_property
    def _nodes(self) -> dict[ex.Atom, np.ndarray]:
        """The scaled coordinates of the quadrature nodes, one array per
        axis, keyed by the axis atoms."""
        return {a: (x - float(m)) / float(h) for a, m, h, x
                in zip(self._axes, self._mid, self._half, self.grid()[0].T)}

    def _field(self, comps: Sequence[JetExpr], order: int) -> tuple:
        """The bumped field bump * xi for a Lagrangian of the given order,
        as the pair (xi in scaled coordinates, per-axis bump factors) whose
        jet entries _jet takes.  The bump is separable and written directly
        in scaled coordinates, prod_axis (1 - s_a^2)^p with
        p = max(BUMP_ORDER, order), which for p = 4 is bump_factor rescaled
        exactly.  Equal pairs share jet entries, and all share the
        section's derivative and value tables, so each derivative of a
        bump is taken and evaluated once per section.  Components are
        refused as the section's are."""
        if len(comps) != self.ctx.m:
            raise ValueError(f"variation fields need {self.ctx.m} components")
        _components(comps)
        p = max(BUMP_ORDER, order)
        return (tuple(self._scaled(e) for e in comps),
                tuple((1 - ex.atom_expr(a) ** 2) ** p for a in self._axes))

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

    @_float_guard()
    def _integral(self, values) -> float:
        """Quadrature of values at the nodes, as a compensated sum."""
        return math.fsum((self.grid()[1] * values).tolist())


def integrate_on_section(e: JetExpr, section: NumericSection) -> float:
    return section._integral(section.bind(e))


def action(lag: Lagrangian, section: NumericSection) -> float:
    """The action integral of the Lagrangian over the section's box."""
    return integrate_on_section(lag.density, section)


# ---------------------------------------------------------------------------
# variations
# ---------------------------------------------------------------------------

# The least exponent of the bump.  A boundary term of an order-r Lagrangian
# pairs D^a xi1 with D^b xi2, a + b <= 2r - 1, so min(a, b) <= r - 1 on each
# axis, and a bump of exponent p = max(BUMP_ORDER, r) kills all of them.
BUMP_ORDER = 4


def bump_factor(ctx: JetContext, domain: Sequence[tuple[float, float]]
                ) -> JetExpr:
    """prod_axis ((x-a)(b-x))^4, normalized to peak value 1: the order-4
    bump in raw coordinates, against which the scaled bump of a bumped
    field is checked.  Its derivatives below the fourth vanish on the
    boundary, which kills the divergence terms of the first and second
    variation for Lagrangians up to fourth order (see BUMP_ORDER)."""
    out = ex.ONE
    for axis, (lo, hi) in enumerate(domain):
        a = Fraction(lo)
        b = Fraction(hi)
        x = ctx.base(axis)
        peak = ((b - a) ** 2 / 4) ** BUMP_ORDER
        out = out * ((x - a) * (b - x)) ** BUMP_ORDER / JetExpr.constant(peak)
    return out


def finite_diff_variation(lag: Lagrangian, section: NumericSection,
                          fields: Sequence[tuple[JetExpr, ...]],
                          step: float = _default("step")) -> float:
    """The len(fields)-th variation of the action along
    s + sum_k t_k * bump * xi_k, as a central finite difference at t = 0:
    the first variation for one field, the second for two.  Each field is
    a closed form in the base coordinates; the bump, of exponent
    max(BUMP_ORDER, lag.order), is multiplied in here.  The Richardson
    value is (4 * fd(step/2) - fd(step)) / 3."""
    if len(fields) not in (1, 2):
        raise ValueError("only first and second variations are supported")
    return _difference_quotient(
        lag, section, [section._field(comps, lag.order) for comps in fields],
        step)


def _difference_quotient(lag: Lagrangian, section: NumericSection,
                         fields: Sequence[tuple], step: float) -> float:
    """The central difference of finite_diff_variation along one or two
    bumped fields.  Prolongation is linear in the fibre,
    j(s + t phi) = j s + t j phi, so each action is the scaled integrand
    evaluated on the jet arrays of the section plus t_k times those of each
    bumped field, at the Gauss nodes."""
    if step <= 0:
        raise ValueError("finite-difference step must be positive")
    _refuse_opaque(lag.density)
    density = section._scaled(lag.density)
    jets = [(jc, section._jet(jc), [section._jet(jc, fs) for fs in fields])
            for jc in jet_coords(lag.density)]

    def a(*ts: float) -> float:
        env = dict(section._nodes)
        for jc, j0, js in jets:
            env[jc] = j0 + sum(t * j for t, j in zip(ts, js))
        return section._integral(_evaluate(density, env))

    # the k-th central difference, k = len(fields): sum over signs of
    # prod(signs) * a(signs * step), over (2 * step)^k (0 if it underflows)
    with _float_guard():
        out = -0.0      # not 0.0: -0.0 + x is x, for x = -0.0 too
        for signs in itertools.product((1, -1), repeat=len(fields)):
            out += math.prod(signs) * a(*(sg * step for sg in signs))
        out /= math.prod([2 * step] * len(fields))
        if not math.isfinite(out):
            raise NumericError("the finite difference is not finite")
        # a field whose jets the step leaves below their ulp varies no
        # action, and the difference would read 0 whatever the truth
        for k in range(len(fields)):
            pairs = [(j0, js[k]) for _, j0, js in jets]
            if (any(np.any(j) for _, j in pairs)
                    and all(np.all(j0 + step * j == j0) for j0, j in pairs)):
                raise NumericError(f"the finite-difference step {step!r} is "
                                   "too small to move the section")
    return out


def _contraction(a: BilinearForm, section: NumericSection,
                 f1: tuple, f2: tuple):
    """sum A^sigma_ij xi1^i D_sigma xi2^j at the nodes, factor by factor."""
    ctx = section.ctx
    factors = [(section.bind(val), section._jet(ctx.jet_atom(i), f1),
                section._jet(ctx.jet_atom(j, sigma), f2))
               for (sigma, i, j), val in a.entries()]
    with _float_guard():
        return sum(v * p * q for v, p, q in factors)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


class CriticalityReport:
    __slots__ = ("max_residual", "per_component", "tol")

    def __init__(self, max_residual: float, per_component: tuple[float, ...],
                 tol: float):
        self.max_residual, self.per_component = max_residual, per_component
        self.tol = tol

    @property
    def is_critical(self) -> bool:
        return self.max_residual <= self.tol


def check_critical(lag: Lagrangian, section: NumericSection,
                   tol: float = _default("tol")) -> CriticalityReport:
    """Max over quadrature nodes of |e_i| along the prolonged section."""
    return _residual(euler_lagrange(lag), section, tol)


def _residual(e: SourceForm, section: NumericSection, tol: float):
    per = tuple(float(np.max(np.abs(section.bind(c))))
                for c in e.components)
    return CriticalityReport(max(per), per, tol)


def _critical_pair(lag: Lagrangian, section: NumericSection,
                   xi1: tuple[JetExpr, ...], xi2: tuple[JetExpr, ...],
                   crit_tol: float):
    """The common start of the checks on two bumped fields: refuse a
    section that is not critical, then (its criticality residual, both
    bumped fields as pairs of _field, V), from one Euler-Lagrange form E."""
    e = euler_lagrange(lag)
    crit = _residual(e, section, crit_tol)
    if not crit.is_critical:
        raise NotCritical(crit)
    return (crit.max_residual, section._field(xi1, lag.order),
            section._field(xi2, lag.order), linearize(e))


class OnshellSymmetryReport:
    __slots__ = ("lhs", "rhs", "difference", "pointwise_max", "residual")

    def __init__(self, lhs: float, rhs: float, difference: float,
                 pointwise_max: float, residual: float):
        self.lhs, self.rhs, self.difference = lhs, rhs, difference
        self.pointwise_max, self.residual = pointwise_max, residual

    def symmetric(self, rel: float = _default("tol")) -> bool:
        return rel_close(self.lhs, self.rhs, rel)


def check_onshell_symmetry(lag: Lagrangian, section: NumericSection,
                           xi1: tuple[JetExpr, ...], xi2: tuple[JetExpr, ...],
                           crit_tol: float = _default("tol")
                           ) -> OnshellSymmetryReport:
    """Integrated symmetry of the vertical differential along a critical
    section, for compactly supported fields.

    Both contractions are integrated over the box; pointwise they may
    differ by a total divergence, so the pointwise maximum difference is
    reported for inspection without being asserted small.  Refuses
    non-critical sections.
    """
    res, f1, f2, ve = _critical_pair(lag, section, xi1, xi2, crit_tol)
    e12 = _contraction(ve, section, f1, f2)
    e21 = _contraction(ve, section, f2, f1)
    lhs, rhs = section._integral(e12), section._integral(e21)
    with _float_guard():
        pointwise = float(np.max(np.abs(e12 - e21)))
    return OnshellSymmetryReport(lhs, rhs, lhs - rhs, pointwise, res)


class SecondVariationReport:
    __slots__ = ("finite_difference", "integral_vertical_differential", "residual")

    def __init__(self, finite_difference: float,
                 integral_vertical_differential: float, residual: float):
        self.finite_difference = finite_difference
        self.integral_vertical_differential = integral_vertical_differential
        self.residual = residual

    @property
    def integral_jacobi(self) -> float:
        """The integral against J, which is V (see variational.jacobi)."""
        return self.integral_vertical_differential

    def consistent(self, rel: float = _default("tol")) -> bool:
        return rel_close(self.finite_difference,
                         self.integral_vertical_differential, rel)


def second_variation_check(lag: Lagrangian, section: NumericSection,
                           xi1: tuple[JetExpr, ...], xi2: tuple[JetExpr, ...],
                           step: float = _default("step"),
                           crit_tol: float = _default("tol")
                           ) -> SecondVariationReport:
    """Compare the finite-difference second variation of the action along
    a critical section against the integrated contraction of the fields
    into V, and so into the Jacobi morphism J = V (see variational.jacobi)."""
    res, f1, f2, ve = _critical_pair(lag, section, xi1, xi2, crit_tol)
    fd = _difference_quotient(lag, section, (f1, f2), step)
    ive = section._integral(_contraction(ve, section, f1, f2))
    return SecondVariationReport(fd, ive, res)


def first_variation_pair(lag: Lagrangian, section: NumericSection,
                         xi: tuple[JetExpr, ...],
                         step: float = _default("step")
                         ) -> tuple[float, float]:
    """(finite-difference first variation, integral of xi | E along the
    section) for a bump-localized field; the two agree as step -> 0 and
    both vanish on critical sections."""
    f = section._field(xi, lag.order)
    fd = _difference_quotient(lag, section, (f,), step)
    factors = [(section._jet(section.ctx.jet_atom(i), f), section.bind(c))
               for i, c in enumerate(euler_lagrange(lag).components)]
    with _float_guard():
        pairing = sum(p * e for p, e in factors)
    return fd, section._integral(pairing)
