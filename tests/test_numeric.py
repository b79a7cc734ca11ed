import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jetvar import (JetContext, JetExpr, Lagrangian, NumericSection,
                    VariationConfig, action, check_critical,
                    check_onshell_symmetry, euler_lagrange, eval_on_section,
                    finite_diff_variation, second_variation_check,
                    total_derivative)
from jetvar.expr import ONE, sin
from jetvar.numeric import (MAX_POINTS, NotCritical, NumericError,
                            bump_factor, compile_expr, first_variation_pair,
                            gauss_legendre, integrate_on_section, rel_close)
from jetvar.randgen import random_polynomial

seeds = st.integers(0, 10**9)


@pytest.fixture
def oscillator(ode_ctx):
    yt = ode_ctx.jet("y", "t")
    y = ode_ctx.fiber("y")
    return Lagrangian(ode_ctx, (yt ** 2 - y ** 2) / 2)


@pytest.fixture
def sin_section(ode_ctx):
    return NumericSection(ode_ctx, (sin(ode_ctx.base("t")),),
                          [(0.0, math.pi)], nodes=64)


# ---------------------------------------------------------------------------
# evaluation along sections
# ---------------------------------------------------------------------------


def test_eval_examples(ode_ctx, oscillator, sin_section):
    yt = ode_ctx.jet("y", "t")
    y = ode_ctx.fiber("y")
    ytt = ode_ctx.jet("y", "tt")
    assert eval_on_section(yt, sin_section, (0.0,)) == pytest.approx(1.0)
    for t in (0.3, 1.1, 2.9):
        assert eval_on_section(ytt + y, sin_section, (t,)) == pytest.approx(0.0)
    e = euler_lagrange(oscillator)
    quad = NumericSection(ode_ctx, (ode_ctx.base("t") ** 2,), [(0.0, math.pi)])
    assert eval_on_section(e.components[0], quad, (1.0,)) == pytest.approx(-3.0)


def test_eval_domain_error(ode_ctx):
    from jetvar.expr import log
    t = ode_ctx.base("t")
    sec = NumericSection(ode_ctx, (t,), [(0.0, 1.0)])
    with pytest.raises(NumericError):
        eval_on_section(log(0 - ode_ctx.fiber("y")), sec, (0.5,))


def test_opaque_not_evaluable():
    ctx = JetContext.make("t", "q", opaque={"g": ["q"]})
    sec = NumericSection(ctx, (ctx.base("t"),), [(0.0, 1.0)])
    with pytest.raises(NumericError, match="has no numeric value"):
        eval_on_section(ctx.opaque("g"), sec, (0.5,))


def test_long_coefficient_is_a_numeric_error(ode_ctx):
    """A coefficient too long to write out fails with the printers'
    message, not with the interpreter's int/str conversion error."""
    y = ode_ctx.fiber("y")
    with pytest.raises(NumericError, match="more than 4300 digits"):
        compile_expr(JetExpr.constant(10 ** 5000) * y)


def test_section_validation(ode_ctx):
    with pytest.raises(ValueError):
        NumericSection(ode_ctx, (ode_ctx.jet("y", "t"),), [(0.0, 1.0)])
    with pytest.raises(ValueError):
        NumericSection(ode_ctx, (ode_ctx.base("t"),), [(1.0, 0.0)])


def test_grid_size_is_bounded(ode_ctx, pde_ctx):
    """More than MAX_POINTS quadrature points is refused before any grid
    is built; exactly MAX_POINTS is accepted."""
    t, u = ode_ctx.base("t"), pde_ctx.base("u")
    for ctx, e, n in ((ode_ctx, t, MAX_POINTS), (pde_ctx, u, 256)):
        box = [(0.0, 1.0)] * ctx.n
        assert n ** ctx.n == MAX_POINTS
        NumericSection(ctx, (e,), box, nodes=n)
        with pytest.raises(NumericError, match="quadrature points"):
            NumericSection(ctx, (e,), box, nodes=n + 1)
    with pytest.raises(NumericError):
        NumericSection(ode_ctx, (t,), [(0.0, 1.0)], nodes=10_000_000)


# ---------------------------------------------------------------------------
# action integrals
# ---------------------------------------------------------------------------


def test_action_examples(ode_ctx, oscillator, sin_section):
    t = ode_ctx.base("t")
    unit = NumericSection(ode_ctx, (t,), [(0.0, 1.0)])
    assert action(Lagrangian(ode_ctx, ONE), unit) == pytest.approx(1.0, abs=1e-12)
    yt = ode_ctx.jet("y", "t")
    assert action(Lagrangian(ode_ctx, yt ** 2 / 2), unit) == \
        pytest.approx(0.5, abs=1e-10)
    assert action(oscillator, sin_section) == pytest.approx(0.0, abs=1e-8)


def test_quadrature_convergence(ode_ctx):
    t = ode_ctx.base("t")
    from jetvar.expr import exp
    lag = Lagrangian(ode_ctx, exp(sin(ode_ctx.fiber("y"))))
    secs = {n: NumericSection(ode_ctx, (t,), [(0.0, 2.0)], nodes=n)
            for n in (8, 16, 64)}
    a8, a16, a64 = (action(lag, secs[n]) for n in (8, 16, 64))
    assert abs(a16 - a64) <= abs(a8 - a64) + 1e-15
    assert abs(a16 - a64) < 1e-10


def test_action_error_estimate(ode_ctx):
    """Doubling the node count moves the action by less than the
    reported estimate on smooth integrands."""
    from jetvar.expr import exp
    from jetvar.numeric import action_report
    t = ode_ctx.base("t")
    lag = Lagrangian(ode_ctx, exp(sin(ode_ctx.fiber("y"))))
    sec16 = NumericSection(ode_ctx, (t,), [(0.0, 2.0)], nodes=16)
    sec32 = NumericSection(ode_ctx, (t,), [(0.0, 2.0)], nodes=32)
    v16, est16 = action_report(lag, sec16)
    v32, _est32 = action_report(lag, sec32)
    assert abs(v32 - v16) <= est16 + 1e-15


def test_grid_is_deterministic(ode_ctx, pde_ctx):
    """Two sections built alike get bit-identical grids."""
    for ctx, e, nodes in ((ode_ctx, ode_ctx.base("t"), 1025),
                          (pde_ctx, pde_ctx.base("u"), 17)):
        box = [(0.5, 2.0)] * ctx.n
        p1, w1 = NumericSection(ctx, (e,), box, nodes=nodes).grid()
        p2, w2 = NumericSection(ctx, (e,), box, nodes=nodes).grid()
        assert p1.shape == (nodes ** ctx.n, ctx.n)
        assert np.array_equal(p1, p2) and np.array_equal(w1, w2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 17, 64, 127, 128, 255, 1024,
                               1025])
def test_gauss_legendre_rule(n):
    """Ascending symmetric nodes, positive symmetric weights summing to 2,
    and every even monomial of degree up to 2n - 1 integrated exactly."""
    x, w = gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0) and np.all(np.abs(x) < 1)
    assert np.array_equal(x, -x[::-1])
    assert np.all(w > 0) and np.array_equal(w, w[::-1])
    assert abs(math.fsum(w) - 2) <= 1e-14
    for k in range(1, n):   # 2k <= 2n - 1
        exact = 2 / (2 * k + 1)
        assert math.fsum(w * x ** (2 * k)) == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 64, 100, 123, 128])
def test_gauss_legendre_matches_golub_welsch(n):
    """The same rule as numpy's leggauss, the eigenvalue method of Golub
    and Welsch: nodes within 1e-15 absolute, weights within 5e-11
    relative.  leggauss's own weights are off by up to 2e-11 at n = 123
    against a 40-digit reference, so the weights are held to 1e-13 by
    the test below instead."""
    x, w = gauss_legendre(n)
    xr, wr = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - xr)) <= 1e-15
    assert np.max(np.abs(w - wr) / wr) <= 5e-11


def _multiprecision_node(mpmath, n, x):
    """The root of P_n next to the float x, and its weight, by Newton's
    method in 40-digit arithmetic."""
    with mpmath.workdps(40):
        xi = mpmath.mpf(float(x))
        for _ in range(3):
            p = mpmath.legendre(n, xi, maxterms=10 ** 6)
            q = mpmath.legendre(n - 1, xi, maxterms=10 ** 6)
            dp = n * (q - xi * p) / (1 - xi ** 2)
            xi -= p / dp
        return xi, 2 / ((1 - xi ** 2) * dp ** 2)


def _outer_nodes(n, k=10):
    """The k outermost nodes at each end: the rule takes about six of them
    at each end from the exact sum and the rest from the series, so these
    cover the switch on both sides."""
    return sorted(set(range(min(k, n))) | set(range(max(n - k, 0), n)))


@pytest.mark.parametrize("n", [17, 128, 255, 1024, 1025, 4096])
def test_gauss_legendre_matches_multiprecision(n):
    """The middle node and the outer ones, where the weights are hardest
    and where the rule switches from the exact sum to the series, against
    a 40-digit reference: nodes within 1e-15 absolute, weights within
    1e-13 relative."""
    mpmath = pytest.importorskip("mpmath")
    x, w = gauss_legendre(n)
    for i in sorted({n // 2, *_outer_nodes(n)}):
        xi, wi = _multiprecision_node(mpmath, n, x[i])
        assert abs(x[i] - xi) <= 1e-15
        assert abs(w[i] / wi - 1) <= 1e-13


@pytest.mark.parametrize("n", [0, -3])
def test_gauss_legendre_needs_a_node(n):
    with pytest.raises(ValueError, match="need at least one quadrature node"):
        gauss_legendre(n)


def test_gauss_legendre_at_the_point_cap():
    """A 1-D section may have MAX_POINTS nodes, and the rule for it is
    still exact to rounding: ascending symmetric nodes, positive weights
    summing to 2, outer nodes matching the 40-digit reference."""
    mpmath = pytest.importorskip("mpmath")
    n = MAX_POINTS
    x, w = gauss_legendre(n)
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
    assert np.all(w > 0) and np.array_equal(w, w[::-1])
    assert abs(math.fsum(w) - 2) <= 1e-13
    for i in _outer_nodes(n)[-10:]:
        xi, wi = _multiprecision_node(mpmath, n, x[i])
        assert abs(x[i] - xi) <= 1e-15
        assert abs(w[i] / wi - 1) <= 1e-13


# ---------------------------------------------------------------------------
# criticality
# ---------------------------------------------------------------------------


def test_check_critical_examples(ode_ctx, plane_ctx, oscillator, sin_section):
    assert check_critical(oscillator, sin_section).max_residual < 1e-12
    bad = NumericSection(ode_ctx, (ode_ctx.base("t"),), [(0.0, math.pi)])
    rep = check_critical(oscillator, bad)
    # e = -(y + y_tt) along y = t is -t; max over interior nodes
    assert rep.max_residual == pytest.approx(math.pi, abs=1e-2)
    assert not rep.is_critical
    qt = plane_ctx.jet("q1", "t")
    q2t = plane_ctx.jet("q2", "t")
    free = Lagrangian(plane_ctx, (qt ** 2 + q2t ** 2) / 2)
    line = NumericSection(plane_ctx, (3 * plane_ctx.base("t") + 1,
                                      plane_ctx.base("t")), [(0.0, 1.0)])
    assert check_critical(free, line).max_residual < 1e-12


# ---------------------------------------------------------------------------
# finite-difference variations
# ---------------------------------------------------------------------------


def test_first_variation_critical(ode_ctx, oscillator, sin_section):
    t = ode_ctx.base("t")
    for comps in [(ONE,), (t,), (1 + t ** 2,)]:
        fd, sym = first_variation_pair(oscillator, sin_section, comps)
        assert abs(fd) < 1e-8
        assert abs(sym) < 1e-10


def test_first_variation_generic_matches_integral(ode_ctx, oscillator):
    t = ode_ctx.base("t")
    sec = NumericSection(ode_ctx, (t ** 2,), [(0.0, 1.0)])
    fd, sym = first_variation_pair(oscillator, sec, (1 + t,))
    # quadratic action: the central difference is exact up to roundoff
    assert rel_close(fd, sym, rel=1e-9, floor=1e-9)


def test_first_variation_rate(ode_ctx):
    """Central differences converge at O(h^2) on a cubic action."""
    t = ode_ctx.base("t")
    y = ode_ctx.fiber("y")
    yt = ode_ctx.jet("y", "t")
    lag = Lagrangian(ode_ctx, y ** 3 + yt ** 2 / 2)
    sec = NumericSection(ode_ctx, (t,), [(0.0, 1.0)])
    _fd, exact = first_variation_pair(lag, sec, (ONE,), step=1e-5)
    errors = {}
    for h in (1e-2, 2e-2):
        fd, _ = first_variation_pair(lag, sec, (ONE,), step=h)
        errors[h] = abs(fd - exact)
    ratio = errors[2e-2] / errors[1e-2]
    assert 3.5 < ratio < 4.5


def test_richardson_extrapolation(ode_ctx):
    t = ode_ctx.base("t")
    y = ode_ctx.fiber("y")
    yt = ode_ctx.jet("y", "t")
    lag = Lagrangian(ode_ctx, y ** 4 + yt ** 2 / 2)
    sec = NumericSection(ode_ctx, (t,), [(0.0, 1.0)])
    vc_plain = VariationConfig(fields=((ONE,),), step=1e-2)
    vc_rich = VariationConfig(fields=((ONE,),), step=1e-2, richardson=True)
    _fd, exact = first_variation_pair(lag, sec, (ONE,), step=1e-6)
    err_plain = abs(finite_diff_variation(lag, sec, vc_plain, 1) - exact)
    err_rich = abs(finite_diff_variation(lag, sec, vc_rich, 1) - exact)
    assert err_rich < err_plain / 10


def test_second_variation_theorem_oscillator(ode_ctx, oscillator, sin_section):
    t = ode_ctx.base("t")
    rep = second_variation_check(oscillator, sin_section, (ONE,), (t,))
    assert rep.consistent(rel=1e-6)
    assert rel_close(rep.finite_difference,
                     rep.integral_vertical_differential, rel=1e-6)
    assert rep.integral_vertical_differential == \
        pytest.approx(rep.integral_jacobi, abs=1e-12)


def test_second_variation_theorem_beam():
    ctx = JetContext.make("x", "y")
    x = ctx.base("x")
    lag = Lagrangian(ctx, ctx.jet("y", "xx") ** 2 / 2)
    sec = NumericSection(ctx, (x ** 3,), [(0.0, 1.0)])
    rep = second_variation_check(lag, sec, (ONE,), (x,))
    assert rep.consistent(rel=1e-6)


def test_second_variation_refuses_noncritical(ode_ctx, oscillator):
    sec = NumericSection(ode_ctx, (ode_ctx.base("t"),), [(0.0, math.pi)])
    with pytest.raises(NotCritical):
        second_variation_check(oscillator, sec, (ONE,), (ONE,))


def test_fd_needs_fields(ode_ctx, oscillator, sin_section):
    with pytest.raises(ValueError):
        finite_diff_variation(oscillator, sin_section,
                              VariationConfig(fields=()), 1)
    with pytest.raises(ValueError):
        finite_diff_variation(oscillator, sin_section,
                              VariationConfig(fields=((ONE,),)), 3)


def test_variation_config_validation(ode_ctx):
    with pytest.raises(ValueError):
        VariationConfig(fields=((ode_ctx.jet("y", "t"),),))
    with pytest.raises(ValueError):
        VariationConfig(fields=(), step=0.0)


@pytest.mark.parametrize("domain", [(0.0, 1.0), (100.0, 101.0)])
def test_fd_matches_actions_of_varied_sections(ode_ctx, domain):
    """The engine's finite differences of jet arrays equal central
    differences of the actions of explicitly built sections
    s + sum_k t_k * bump * xi_k, on a non-quadratic action; the field
    bump, written in scaled coordinates, is bump_factor rescaled."""
    t = ode_ctx.base("t")
    y, yt = ode_ctx.fiber("y"), ode_ctx.jet("y", "t")
    lag = Lagrangian(ode_ctx, y ** 4 + yt ** 2 / 2)
    sec = NumericSection(ode_ctx, (sin(t),), [domain])
    bump = bump_factor(ode_ctx, [domain])
    fields = ((ONE,), (t,))
    assert sec._field(fields[1])._scaled_exprs == (sec._scaled(bump * t),)

    def a(*ts):
        varied = sin(t)
        for u, xi in zip(ts, fields):
            varied = varied + Fraction(u) * bump * xi[0]
        return action(lag, NumericSection(ode_ctx, (varied,), [domain]))

    def diff(i, h):
        if i == 1:
            return (a(h) - a(-h)) / (2 * h)
        return (a(h, h) - a(h, -h) - a(-h, h) + a(-h, -h)) / (4 * h * h)

    h = 1e-2
    for i in (1, 2):
        for richardson in (False, True):
            vc = VariationConfig(fields=fields, step=h, richardson=richardson)
            ref = (4 * diff(i, h / 2) - diff(i, h)) / 3 if richardson \
                else diff(i, h)
            got = finite_diff_variation(lag, sec, vc, i)
            assert rel_close(got, ref, rel=1e-9, floor=0.0), (i, richardson)


def test_scaled_bump_is_the_rescaled_bump_factor(pde_ctx):
    domain = [(0.1, 0.7), (-3.0, 5.5)]
    sec = NumericSection(pde_ctx, (pde_ctx.base("u"),), domain)
    assert sec._field((ONE,))._scaled_exprs == \
        (sec._scaled(bump_factor(pde_ctx, domain)),)


# ---------------------------------------------------------------------------
# on-shell symmetry
# ---------------------------------------------------------------------------


def test_onshell_symmetry_oscillator(ode_ctx, oscillator, sin_section):
    t = ode_ctx.base("t")
    rep = check_onshell_symmetry(oscillator, sin_section, (ONE,), (t,))
    assert rep.symmetric(rel=1e-6)
    assert abs(rep.difference) <= 1e-6 * max(abs(rep.lhs), 1.0)
    # pointwise the contractions differ by a divergence
    assert rep.pointwise_max > 1e-3


def test_onshell_symmetry_same_field(ode_ctx, oscillator, sin_section):
    rep = check_onshell_symmetry(oscillator, sin_section, (ONE,), (ONE,))
    assert rep.difference == 0.0
    assert rep.pointwise_max == 0.0


def test_onshell_symmetry_flat_geodesics(plane_ctx):
    t = plane_ctx.base("t")
    q1t = plane_ctx.jet("q1", "t")
    q2t = plane_ctx.jet("q2", "t")
    lag = Lagrangian(plane_ctx, (q1t ** 2 + q2t ** 2) / 2)
    sec = NumericSection(plane_ctx, (t, 2 * t), [(0.0, 1.0)])
    rep = check_onshell_symmetry(lag, sec, (ONE, t), (t, 1 + t))
    assert rep.symmetric(rel=1e-6)


def test_onshell_symmetry_refuses_noncritical(ode_ctx, oscillator):
    sec = NumericSection(ode_ctx, (ode_ctx.base("t") ** 2,), [(0.0, 1.0)])
    with pytest.raises(NotCritical) as err:
        check_onshell_symmetry(oscillator, sec, (ONE,), (ONE,))
    assert err.value.report.max_residual > 1e-3


# ---------------------------------------------------------------------------
# contact compatibility and the bump factor
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_contact_compatibility(seed):
    """Along a prolonged section the total derivative agrees with the
    base derivative of the restriction (finite-difference check)."""
    rng = random.Random(seed)
    ctx = JetContext.make("t", "y")
    f = random_polynomial(rng, ctx, max_order=2, max_monomials=3)
    t = ctx.base("t")
    sec = NumericSection(ctx, (sin(t) + t ** 2 / 3,), [(0.0, 2.0)])
    df = total_derivative(f, 0, ctx)
    pt = 0.7 + 0.6 * rng.random()
    h = 1e-6
    approx = (eval_on_section(f, sec, (pt + h,))
              - eval_on_section(f, sec, (pt - h,))) / (2 * h)
    exact = eval_on_section(df, sec, (pt,))
    assert abs(approx - exact) < 1e-6 * max(1.0, abs(exact))


def test_bump_factor_properties(ode_ctx):
    bump = bump_factor(ode_ctx, [(0.0, 2.0)])
    sec = NumericSection(ode_ctx, (ode_ctx.base("t"),), [(0.0, 2.0)])
    assert eval_on_section(bump, sec, (1.0,)) == pytest.approx(1.0)
    for pt in (0.0, 2.0):
        assert eval_on_section(bump, sec, (pt,)) == 0.0
    d3 = bump
    for _ in range(3):
        d3 = total_derivative(d3, 0, ode_ctx)
    assert eval_on_section(d3, sec, (0.0,)) == pytest.approx(0.0, abs=1e-12)


def test_integrate_on_section_matches_action(ode_ctx, oscillator, sin_section):
    assert integrate_on_section(oscillator.density, sin_section) == \
        action(oscillator, sin_section)


# ---------------------------------------------------------------------------
# two base variables
# ---------------------------------------------------------------------------


def test_action_2d_volume_and_product(pde_ctx):
    u = pde_ctx.base("u")
    v = pde_ctx.base("v")
    box = [(0.0, 1.0), (0.0, 2.0)]
    sec = NumericSection(pde_ctx, (u * v,), box, nodes=16)
    assert action(Lagrangian(pde_ctx, ONE), sec) == pytest.approx(2.0)
    wu = pde_ctx.jet("w", "u")
    wv = pde_ctx.jet("w", "v")
    # w = uv gives w_u w_v = uv; integral over the box is 1
    assert action(Lagrangian(pde_ctx, wu * wv), sec) == pytest.approx(1.0)


def test_laplace_2d_criticality_and_first_variation(pde_ctx):
    u = pde_ctx.base("u")
    v = pde_ctx.base("v")
    wu = pde_ctx.jet("w", "u")
    wv = pde_ctx.jet("w", "v")
    lag = Lagrangian(pde_ctx, (wu ** 2 + wv ** 2) / 2)
    harmonic = NumericSection(pde_ctx, (u ** 2 - v ** 2,),
                              [(0.0, 1.0), (0.0, 1.0)], nodes=24)
    assert check_critical(lag, harmonic).max_residual < 1e-12
    fd, sym = first_variation_pair(lag, harmonic, (1 + u * v,))
    assert abs(fd) < 1e-8 and abs(sym) < 1e-10
    bent = NumericSection(pde_ctx, (u ** 2,), [(0.0, 1.0), (0.0, 1.0)],
                          nodes=24)
    assert check_critical(lag, bent).max_residual == pytest.approx(2.0)


def test_second_variation_2d(pde_ctx):
    u = pde_ctx.base("u")
    v = pde_ctx.base("v")
    wu = pde_ctx.jet("w", "u")
    wv = pde_ctx.jet("w", "v")
    lag = Lagrangian(pde_ctx, (wu ** 2 + wv ** 2) / 2)
    harmonic = NumericSection(pde_ctx, (u * v,), [(0.0, 1.0), (0.0, 1.0)],
                              nodes=24)
    rep = second_variation_check(lag, harmonic, (ONE,), (u + v,))
    assert rep.consistent(rel=1e-6)


def test_inverse_sum_evaluates(ode_ctx):
    t = ode_ctx.base("t")
    y = ode_ctx.fiber("y")
    sec = NumericSection(ode_ctx, (t,), [(0.0, 1.0)])
    val = eval_on_section(ONE / (1 + y ** 2), sec, (2.0,))
    assert val == pytest.approx(1 / 5)


def _off_origin_problem(case):
    """(Lagrangian, critical section, field pair) on a box far from the
    origin, where bump polynomials expanded in raw coordinates carry
    huge cancelling coefficients."""
    if case == "oscillator":
        ctx = JetContext.make("t", "y")
        t = ctx.base("t")
        lag = Lagrangian(ctx, (ctx.jet("y", "t") ** 2 - ctx.fiber("y") ** 2) / 2)
        return lag, NumericSection(ctx, (sin(t),), [(100.0, 101.0)]), (t,)
    if case == "beam":
        ctx = JetContext.make("x", "y")
        x = ctx.base("x")
        lag = Lagrangian(ctx, ctx.jet("y", "xx") ** 2 / 2)
        return lag, NumericSection(ctx, (x ** 3,), [(20.0, 21.0)]), (x,)
    ctx = JetContext.make("u v", "w")
    u, v = ctx.base("u"), ctx.base("v")
    lag = Lagrangian(ctx, (ctx.jet("w", "u") ** 2 + ctx.jet("w", "v") ** 2) / 2)
    sec = NumericSection(ctx, (u * v,), [(5.0, 6.0), (5.0, 6.0)], nodes=16)
    return lag, sec, (u + v,)


@pytest.mark.parametrize("case", ["oscillator", "beam", "laplace"])
def test_off_origin_accuracy(case):
    lag, sec, xi2 = _off_origin_problem(case)
    rep = second_variation_check(lag, sec, (ONE,), xi2)
    assert rep.consistent(rel=1e-6)
    for xi in ((ONE,), xi2):
        fd, sym = first_variation_pair(lag, sec, xi)
        assert abs(fd) < 1e-8 and abs(sym) < 1e-8
