import hashlib
import itertools
import math
import operator
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from jetvar import (BilinearForm, JetContext, Lagrangian, SourceForm,
                    VerticalField, adjoint, contract, contract_source,
                    euler_lagrange, helmholtz, hessian, jacobi,
                    quotient_variation,
                    second_variation_decomposition, total_derivative,
                    total_derivative_multi, vertical_differential)
from jetvar.expr import ONE, ZERO, ExprError, partial, sqrt, to_plain
from jetvar.multiindex import MultiIndex, enumerate_up_to
from jetvar.randgen import (random_bilinear_form, random_current,
                            random_lagrangian, random_polynomial,
                            random_vertical_field)
from jetvar.textio import parse_expr, parse_problem_file
from jetvar.variational import (first_summand_certificate, linearize,
                                reconstruct_from_certificate)

from onshell import prolong_relations, reduce_onshell

seeds = st.integers(0, 10**9)
PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture
def oscillator(ode_ctx):
    yt = ode_ctx.jet("y", "t")
    y = ode_ctx.fiber("y")
    return Lagrangian(ode_ctx, (yt ** 2 - y ** 2) / 2)


# ---------------------------------------------------------------------------
# Euler-Lagrange
# ---------------------------------------------------------------------------


def test_el_oscillator(ode_ctx, oscillator):
    e = euler_lagrange(oscillator)
    y = ode_ctx.fiber("y")
    ytt = ode_ctx.jet("y", "tt")
    assert e.components == (-(y + ytt),)
    assert e.order == 2


def test_el_geodesic_christoffel(metric_ctx):
    ctx = metric_ctx
    qd = [ctx.jet("q1", "t"), ctx.jet("q2", "t")]
    qdd = [ctx.jet("q1", "t t"), ctx.jet("q2", "t t")]
    names = {(0, 0): "g11", (0, 1): "g12", (1, 0): "g12", (1, 1): "g22"}

    def g(a, b, d=None):
        orders = [0, 0]
        if d is not None:
            orders[d] += 1
        return ctx.opaque(names[(a, b)], tuple(orders))

    def gamma(a, b, c):
        # Christoffel symbols of the first kind, in terms of metric partials
        return (g(a, c, b) + g(a, b, c) - g(b, c, a)) / 2

    density = sum((g(a, b) * qd[a] * qd[b] for a in range(2) for b in range(2)),
                  start=ZERO) / 2
    e = euler_lagrange(Lagrangian(ctx, density))
    for a in range(2):
        expected = -sum((g(a, b) * qdd[b] for b in range(2)), start=ZERO) \
            - sum((gamma(a, b, c) * qd[b] * qd[c]
                   for b in range(2) for c in range(2)), start=ZERO)
        assert (e.components[a] - expected).is_zero


def test_el_beam():
    ctx = JetContext.make("x", "y")
    yxx = ctx.jet("y", "xx")
    e = euler_lagrange(Lagrangian(ctx, yxx ** 2 / 2))
    assert e.components == (ctx.jet("y", "xxxx"),)


def test_el_of_total_divergence_vanishes():
    ctx = JetContext.make("t", "y")
    y = ctx.fiber("y")
    yt = ctx.jet("y", "t")
    current = y ** 2 * yt + ctx.base("t") * y
    lag = Lagrangian(ctx, total_derivative(current, 0, ctx))
    assert euler_lagrange(lag).is_zero


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_el_divergence_invariance(seed):
    rng = random.Random(seed)
    ctx = JetContext.make("x1 x2", "y")
    lag = random_lagrangian(rng, ctx, max_order=1, max_monomials=3)
    current = random_current(rng, ctx, max_order=1)
    div = sum((total_derivative(j, ax, ctx) for ax, j in enumerate(current)),
              start=ZERO)
    shifted = Lagrangian(ctx, lag.density + div)
    assert euler_lagrange(shifted) == euler_lagrange(lag)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_el_order_bound(seed):
    rng = random.Random(seed)
    ctx = JetContext.make("t", "y z")
    lag = random_lagrangian(rng, ctx, max_order=2, max_monomials=4)
    e = euler_lagrange(lag)
    assert e.order <= 2 * lag.order


def _assert_euler_lagrange_matches_sympy(lag, to_sympy, sp):
    """Each component of euler_lagrange(lag) equals the Euler operator
    sum over |sigma| <= order of (-1)^|sigma| D_sigma dF/dy_sigma, written
    out with sympy.diff on F = lag.density; sympy's euler_equations is not
    the reference, since it drops an equation that is constant (it gives
    none for 3*y(t))."""
    ctx = lag.ctx
    xs = [sp.Symbol(nm) for nm in ctx.base_names]
    density = to_sympy(lag.density, ctx, sp)

    def d(e, sigma):
        pairs = [(x, c) for x, c in zip(xs, sigma.counts) if c]
        return sp.diff(e, *pairs) if pairs else e

    for nm, ours in zip(ctx.fiber_names, euler_lagrange(lag).components):
        f = sp.Function(nm)(*xs)
        ref = sum((-1) ** sigma.order()
                  * d(sp.diff(density, d(f, sigma)), sigma)
                  for sigma in enumerate_up_to(ctx.n, lag.order))
        assert sp.expand(ref - to_sympy(ours, ctx, sp)) == 0


@pytest.mark.parametrize("seed", range(24))
def test_euler_lagrange_matches_sympy(seed, to_sympy):
    """euler_lagrange agrees with the Euler operator written out in sympy
    on random polynomial Lagrangians with up to three base variables and
    jet order up to three."""
    sp = pytest.importorskip("sympy")
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    ctx = JetContext.make(["x1", "x2", "x3"][:n],
                          ["y", "z"][:rng.randint(1, 2)])
    lag = Lagrangian(ctx, random_polynomial(
        rng, ctx, max_order=rng.randint(1, 3), max_monomials=4))
    _assert_euler_lagrange_matches_sympy(lag, to_sympy, sp)


@pytest.mark.parametrize("density", ["3*y", "t*y_t", "y_t*y_tt + 2*y"])
def test_euler_lagrange_matches_sympy_on_constant_equations(ode_ctx,
                                                            to_sympy,
                                                            density):
    """Euler-Lagrange expressions that are constants (3, -1 and 2) are
    compared too, where sympy's euler_equations returns no equation."""
    sp = pytest.importorskip("sympy")
    _assert_euler_lagrange_matches_sympy(
        Lagrangian(ode_ctx, parse_expr(density, ode_ctx)), to_sympy, sp)


# ---------------------------------------------------------------------------
# Helmholtz
# ---------------------------------------------------------------------------


def test_helmholtz_drift(ode_ctx):
    src = SourceForm(ode_ctx, (ode_ctx.jet("y", "t"),))
    ht = helmholtz(src)
    assert ht.component(MultiIndex((1,)), 0, 0) == 2
    assert len(ht.entries()) == 1
    assert not helmholtz(src).is_zero


def test_helmholtz_curvature(ode_ctx):
    src = SourceForm(ode_ctx, (ode_ctx.jet("y", "tt"),))
    assert helmholtz(src).is_zero


def _negated(form: BilinearForm) -> BilinearForm:
    return BilinearForm(form.ctx, {k: -v for k, v in form.entries()})


def _assert_skew_adjoint(src):
    h = helmholtz(src)
    assert adjoint(h) == _negated(h)


def test_helmholtz_is_skew_adjoint_on_fixed_sources(ode_ctx):
    """H* = -H, so H is its own skew part (H - H*)/2: on the oscillator
    file's drift (H != 0) and curvature (H = 0), and on a square root and
    a quotient by a sum."""
    y, yt, ytt = (ode_ctx.jet("y", s) for s in ("", "t", "tt"))
    for e in (yt, ytt, sqrt(1 + yt ** 2) * ytt, ytt / (1 + y ** 2)):
        _assert_skew_adjoint(SourceForm(ode_ctx, (e,)))


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_helmholtz_is_skew_adjoint(seed):
    """H* = -H on random, mostly not variational, source forms: the adjoint
    is an involution that commutes with the transpose."""
    rng = random.Random(seed)
    ctx = rng.choice([JetContext.make("t", "y"), JetContext.make("t", "y z"),
                      JetContext.make("x1 x2", "y"),
                      JetContext.make("x1 x2", "y z")])
    _assert_skew_adjoint(SourceForm(ctx, tuple(
        random_polynomial(rng, ctx, max_order=rng.randint(1, 3),
                          max_monomials=3)
        for _ in range(ctx.m))))


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_exactness(seed):
    rng = random.Random(seed)
    ctx = rng.choice([JetContext.make("t", "y"),
                      JetContext.make("t", "y z"),
                      JetContext.make("x1 x2", "y")])
    lag = random_lagrangian(rng, ctx, max_order=2, max_monomials=4)
    assert helmholtz(euler_lagrange(lag)).is_zero


def _helmholtz_by_formula(src):
    """H^sigma_{ij} = d^sigma_i e_j
    - sum over rho of (-1)^{|sigma+rho|} C(sigma+rho, rho) D_rho(d^{sigma+rho}_j e_i),
    summed over every sigma and rho up to the order of the source form."""
    ctx = src.ctx
    r = src.order
    comps = {}
    for sigma in enumerate_up_to(ctx.n, r):
        for i in range(ctx.m):
            for j in range(ctx.m):
                val = partial(src.components[j], ctx.jet_atom(i, sigma))
                for rho in enumerate_up_to(ctx.n, r - sigma.order()):
                    tau = MultiIndex(map(operator.add, sigma, rho))
                    p = partial(src.components[i], ctx.jet_atom(j, tau))
                    sign = -1 if tau.order() % 2 else 1
                    binom = math.prod(map(math.comb, tau, rho))
                    val = val - sign * binom * \
                        total_derivative_multi(p, rho, ctx)
                comps[(sigma, i, j)] = val
    return BilinearForm(ctx, comps)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_helmholtz_equals_linearization_defect(seed):
    """H = (V - V*)^T agrees with the Helmholtz conditions written out
    term by term, on random (mostly not variational) source forms."""
    rng = random.Random(seed)
    ctx = rng.choice([JetContext.make("t", "y"), JetContext.make("t", "y z"),
                      JetContext.make("x1 x2", "y"),
                      JetContext.make("x1 x2", "y z")])
    comps = tuple(
        random_lagrangian(rng, ctx, max_order=2, max_monomials=3).density
        for _ in range(ctx.m))
    src = SourceForm(ctx, comps)
    assert helmholtz(src) == _helmholtz_by_formula(src)


# ---------------------------------------------------------------------------
# adjoint
# ---------------------------------------------------------------------------


def test_adjoint_first_order(ode_ctx):
    a = BilinearForm(ode_ctx, {(MultiIndex((1,)), 0, 0): ONE})
    astar = adjoint(a)
    assert astar.component(MultiIndex((1,)), 0, 0) == -1
    assert astar.component(MultiIndex((0,)), 0, 0).is_zero


def test_adjoint_zero_order_self(ode_ctx):
    y = ode_ctx.fiber("y")
    a = BilinearForm(ode_ctx, {(MultiIndex((0,)), 0, 0): y ** 2 + 1})
    assert adjoint(a) == a


def test_adjoint_second_order(ode_ctx):
    a = BilinearForm(ode_ctx, {(MultiIndex((2,)), 0, 0): ONE})
    astar = adjoint(a)
    assert astar.component(MultiIndex((2,)), 0, 0) == 1
    assert len(astar.entries()) == 1


def test_adjoint_transposes_indices(plane_ctx):
    t = plane_ctx.base("t")
    a = BilinearForm(plane_ctx, {(MultiIndex((0,)), 0, 1): t})
    astar = adjoint(a)
    assert astar.component(MultiIndex((0,)), 1, 0) == t
    assert astar.component(MultiIndex((0,)), 0, 1).is_zero


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_adjoint_involution(seed):
    rng = random.Random(seed)
    ctx = rng.choice([JetContext.make("t", "y"),
                      JetContext.make("t", "y z"),
                      JetContext.make("x1 x2", "y")])
    a = random_bilinear_form(rng, ctx, max_sigma_order=3)
    assert adjoint(adjoint(a)) == a


# ---------------------------------------------------------------------------
# vertical differential and Jacobi morphism
# ---------------------------------------------------------------------------


def test_ve_oscillator(ode_ctx, oscillator):
    ve = vertical_differential(oscillator)
    assert ve.component(MultiIndex((0,)), 0, 0) == -1
    assert ve.component(MultiIndex((2,)), 0, 0) == -1
    assert len(ve.entries()) == 2
    assert jacobi(oscillator) == ve


def test_ve_flat_geodesics(plane_ctx):
    q1t = plane_ctx.jet("q1", "t")
    q2t = plane_ctx.jet("q2", "t")
    lag = Lagrangian(plane_ctx, (q1t ** 2 + q2t ** 2) / 2)
    ve = vertical_differential(lag)
    two = MultiIndex((2,))
    assert ve.component(two, 0, 0) == -1
    assert ve.component(two, 1, 1) == -1
    assert len(ve.entries()) == 2
    assert jacobi(lag) == ve


def test_ve_beam():
    ctx = JetContext.make("x", "y")
    lag = Lagrangian(ctx, ctx.jet("y", "xx") ** 2 / 2)
    ve = vertical_differential(lag)
    assert ve.component(MultiIndex((4,)), 0, 0) == 1
    assert len(ve.entries()) == 1
    assert jacobi(lag) == ve


def test_jacobi_on_cubic_lagrangian(ode_ctx):
    """The linearization of an Euler-Lagrange form is formally
    self-adjoint (the Helmholtz conditions in operator clothing), so the
    Jacobi morphism coincides with the vertical differential here too;
    the contraction difference then lies trivially in the ideal of the
    field equations."""
    y = ode_ctx.fiber("y")
    yt = ode_ctx.jet("y", "t")
    ytt = ode_ctx.jet("y", "tt")
    lag = Lagrangian(ode_ctx, y * yt * ytt)
    ve = vertical_differential(lag)
    jac = jacobi(lag)
    assert jac == ve
    xi1 = VerticalField(ode_ctx, (y,))
    xi2 = VerticalField(ode_ctx, (yt,))
    assert contract(xi1, xi2, ve) == contract(xi1, xi2, jac)


# The Helmholtz conditions: the linearization V of an Euler-Lagrange form is
# formally self-adjoint, so jacobi(L) = V* is V itself, on shell or off.  The
# CLI's jacobi and numeric.second_variation_check use V for J on this ground.

@pytest.mark.parametrize("seed", range(40))
def test_jacobi_is_vertical_differential_random(seed):
    """Random polynomial Lagrangians, n, m <= 2, of order 1-3: a square of
    a top-order coordinate, weighted by a random polynomial, keeps V of
    order twice the Lagrangian's."""
    rng = random.Random(seed)
    ctx = JetContext.make(rng.choice(["t", "x1 x2"]), rng.choice(["y", "y z"]))
    order = rng.randint(1, 3)
    sigma = rng.choice([s for s in enumerate_up_to(ctx.n, order)
                        if s.order() == order])
    top = ctx.jet(rng.randrange(ctx.m), sigma)
    poly = random_polynomial(rng, ctx, max_order=order, max_monomials=3)
    lag = Lagrangian(ctx, top ** 2 * (1 + poly) + poly)
    ve = vertical_differential(lag)
    assert ve.order == 2 * order
    assert jacobi(lag) == ve


@pytest.mark.parametrize("base, fields, density", [
    ("t", "y", "sqrt(1 + y_t^2)"),
    ("t", "y", "log(1 + y^2 + y_t^2)"),
    ("t", "y", "1/(1 + y^2 + y_t^2)"),
    ("t", "y z", "sin(y*z_t) + exp(y_tt)*z"),
    ("x1 x2", "y z", "y_{x1 x2}*z/(y + z^2 + 1) + sqrt(1 + y_{x1}^2)*z_{x2}"),
])
def test_jacobi_is_vertical_differential_non_polynomial(base, fields, density):
    ctx = JetContext.make(base, fields)
    lag = Lagrangian(ctx, parse_expr(density, ctx))
    assert jacobi(lag) == vertical_differential(lag)


@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.vp")),
                         ids=lambda p: p.name)
def test_jacobi_is_vertical_differential_on_problem_files(path):
    """Every Lagrangian of problems/*.vp, the opaque geodesic_metric.vp
    one among them."""
    pf = parse_problem_file(path.read_text(encoding="utf-8"))
    assert pf.lagrangians
    for lag in pf.lagrangians.values():
        assert jacobi(lag) == vertical_differential(lag)


def test_linearization_of_a_non_variational_source_is_not_self_adjoint(
        ode_ctx):
    """The identity is one of Euler-Lagrange forms: the source y = y_t is
    none, and its linearization differs from its adjoint."""
    ve = linearize(SourceForm(ode_ctx, (ode_ctx.jet("y", "t"),)))
    assert adjoint(ve) != ve
    assert adjoint(ve) == _negated(ve)


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_offshell_identity_secvar2(seed):
    """contract(xi1, xi2, VE) equals the adjoint-shaped sum
    sum (-1)^{|sigma|} xi1^j D_sigma(xi2^i d^sigma_j e_i) identically."""
    rng = random.Random(seed)
    ctx = rng.choice([JetContext.make("t", "y"), JetContext.make("t", "y z")])
    lag = random_lagrangian(rng, ctx, max_order=1, max_monomials=3)
    xi1 = random_vertical_field(rng, ctx)
    xi2 = random_vertical_field(rng, ctx)
    ve = vertical_differential(lag)
    lhs = contract(xi1, xi2, ve)
    rhs = contract(xi1, xi2, adjoint(ve))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# quotient variations and the Hessian
# ---------------------------------------------------------------------------


def test_quotient_variation_first(ode_ctx, oscillator):
    xi = VerticalField(ode_ctx, (ONE,))
    v = quotient_variation(oscillator, [xi])
    y = ode_ctx.fiber("y")
    ytt = ode_ctx.jet("y", "tt")
    assert v.density == -(y + ytt)


def test_quotient_variation_second(ode_ctx, oscillator):
    xi = VerticalField(ode_ctx, (ONE,))
    v = quotient_variation(oscillator, [xi, xi])
    assert v.density == -1
    assert hessian(oscillator, xi, xi).density == -1
    ve = vertical_differential(oscillator)
    assert contract(xi, xi, ve) == -1


def test_quotient_variation_third_order(ode_ctx):
    """Three iterated variations of a quartic potential."""
    y = ode_ctx.fiber("y")
    lag = Lagrangian(ode_ctx, y ** 4)
    xi = VerticalField(ode_ctx, (ONE,))
    assert quotient_variation(lag, [xi]).density == 4 * y ** 3
    assert quotient_variation(lag, [xi, xi]).density == 12 * y ** 2
    assert quotient_variation(lag, [xi, xi, xi]).density == 24 * y


def test_quotient_variation_degenerates_to_zero(ode_ctx, oscillator):
    xi = VerticalField(ode_ctx, (ONE,))
    v3 = quotient_variation(oscillator, [xi, xi, xi])
    assert v3.density.is_zero


def test_quotient_variation_needs_fields(oscillator):
    with pytest.raises(ValueError):
        quotient_variation(oscillator, [])


def test_hessian_matches_ve_contraction_for_base_fields(ode_ctx, oscillator):
    """For variation fields depending on the base coordinates only the
    first summand of the split vanishes, so the Hessian density equals
    the contraction into the vertical differential exactly."""
    t = ode_ctx.base("t")
    xi1 = VerticalField(ode_ctx, (t ** 2,))
    xi2 = VerticalField(ode_ctx, (1 + t ** 3,))
    h = hessian(oscillator, xi1, xi2)
    assert h.density == contract(xi1, xi2, vertical_differential(oscillator))


def _bracket(ctx, a, b):
    from jetvar.expr import partial as d
    comps = []
    for i in range(ctx.m):
        acc = ZERO
        for j in range(ctx.m):
            cj = ctx.jet_atom(j)
            acc = acc + a.components[j] * d(b.components[i], cj) \
                - b.components[j] * d(a.components[i], cj)
        comps.append(acc)
    return VerticalField(ctx, tuple(comps))


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_hessian_commutator_identity(seed):
    """Swapping the fields changes the Hessian by the contraction of
    their Lie bracket into the field equations, up to an exact
    divergence (which the EL operator annihilates)."""
    rng = random.Random(seed)
    ctx = rng.choice([JetContext.make("t", "y"), JetContext.make("t", "y z")])
    lag = random_lagrangian(rng, ctx, max_order=1, max_monomials=3)
    xi1 = random_vertical_field(rng, ctx)
    xi2 = random_vertical_field(rng, ctx)
    h12 = hessian(lag, xi1, xi2)
    h21 = hessian(lag, xi2, xi1)
    br = contract_source(_bracket(ctx, xi1, xi2), euler_lagrange(lag))
    defect = Lagrangian(ctx, h12.density - h21.density - br)
    assert euler_lagrange(defect).is_zero


def test_split_constant_second_field(ode_ctx, oscillator):
    xi1 = VerticalField(ode_ctx, (ode_ctx.fiber("y"),))
    xi2 = VerticalField(ode_ctx, (ONE,))
    s1, s2 = second_variation_decomposition(oscillator, xi1, xi2)
    assert s1.density.is_zero
    assert s2.density == hessian(oscillator, xi1, xi2).density


def test_split_reduces_onshell(ode_ctx, oscillator):
    y = ode_ctx.fiber("y")
    xi1 = VerticalField(ode_ctx, (ONE,))
    xi2 = VerticalField(ode_ctx, (y,))
    s1, s2 = second_variation_decomposition(oscillator, xi1, xi2)
    assert not s1.density.is_zero
    relations = {ode_ctx.jet_atom("y", "tt"): -y}
    assert reduce_onshell(s1.density, relations, ode_ctx).is_zero
    assert (s1.density + s2.density) == hessian(oscillator, xi1, xi2).density


@settings(max_examples=12, deadline=None)
@given(seeds)
def test_split_identity_and_certificate(seed):
    rng = random.Random(seed)
    ctx = rng.choice([JetContext.make("t", "y"), JetContext.make("t", "y z"),
                      JetContext.make("x1 x2", "y")])
    lag = random_lagrangian(rng, ctx, max_order=rng.randint(1, 2),
                            max_monomials=3)
    xi1 = random_vertical_field(rng, ctx)
    xi2 = random_vertical_field(rng, ctx)
    s1, s2 = second_variation_decomposition(lag, xi1, xi2)
    h = hessian(lag, xi1, xi2)
    assert (s1.density + s2.density) == h.density
    cert = first_summand_certificate(lag, xi1, xi2)
    e = euler_lagrange(lag)
    assert reconstruct_from_certificate(e, cert) == s1.density
    assert s2.density == contract(xi1, xi2, jacobi(lag))


def _split_corpus():
    """Seeded split inputs: random polynomial Lagrangians for n, m in
    {1, 2} at jet order 1 and 2, with fields of order 0 to 2, then the
    minimal surface (a sqrt density) and a geodesic Lagrangian with an
    opaque metric."""
    rng = random.Random(20261018)
    for n, m, r in itertools.product((1, 2), (1, 2), (1, 2)):
        ctx = JetContext.make(["x1", "x2"][:n], ["y", "z"][:m])
        for _ in range(5):
            lag = random_lagrangian(rng, ctx, max_order=r, max_monomials=3)
            yield (lag,
                   random_vertical_field(rng, ctx, max_order=rng.randint(0, 2)),
                   random_vertical_field(rng, ctx, max_order=rng.randint(0, 2)))
    ctx = JetContext.make("u v", "w")
    wu, wv = ctx.jet("w", "u"), ctx.jet("w", "v")
    yield (Lagrangian(ctx, sqrt(1 + wu ** 2 + wv ** 2)),
           random_vertical_field(rng, ctx, max_order=1),
           random_vertical_field(rng, ctx, max_order=1))
    ctx = JetContext.make(
        "t", "q1 q2",
        opaque={"g11": ["q1", "q2"], "g12": ["q1", "q2"], "g22": ["q1", "q2"]})
    qd = [ctx.jet("q1", "t"), ctx.jet("q2", "t")]
    g = [[ctx.opaque("g11", (0, 0)), ctx.opaque("g12", (0, 0))],
         [ctx.opaque("g12", (0, 0)), ctx.opaque("g22", (0, 0))]]
    density = sum((g[a][b] * qd[a] * qd[b] for a in range(2)
                   for b in range(2)), start=ZERO) / 2
    yield (Lagrangian(ctx, density),
           random_vertical_field(rng, ctx, max_order=1),
           random_vertical_field(rng, ctx, max_order=1))


# recorded with the split written as two hand-rolled Leibniz expansions
SPLIT_DIGEST = ("96cef12a280c11baa835ed34edae3c99"
                "d8fde2334c2e8d1d66a2a29ccfa00f93")


def test_split_and_certificate_digest():
    """S1, S2 and the sorted certificate print the same, byte for byte,
    as when the digest was recorded."""
    lines = []
    for lag, xi1, xi2 in _split_corpus():
        s1, s2 = second_variation_decomposition(lag, xi1, xi2)
        lines += [to_plain(s1.density), to_plain(s2.density)]
        cert = first_summand_certificate(lag, xi1, xi2)
        for (i, rho) in sorted(cert, key=lambda k: (k[0], k[1].counts)):
            lines.append(f"{i} {rho.counts} {to_plain(cert[(i, rho)])}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SPLIT_DIGEST


def test_every_certificate_entry_is_needed():
    """Dropping one entry c[(i, rho)] whose D_rho(e_i) is nonzero breaks
    sum c D_rho(e_i) + S2 == hessian: the canonical ring has no zero
    divisors, so the dropped product c * D_rho(e_i) is nonzero."""
    dropped = 0
    for lag, xi1, xi2 in _split_corpus():
        ctx = lag.ctx
        e = euler_lagrange(lag)
        _s1, s2 = second_variation_decomposition(lag, xi1, xi2)
        h = hessian(lag, xi1, xi2).density
        cert = first_summand_certificate(lag, xi1, xi2)
        assert reconstruct_from_certificate(e, cert) + s2.density == h
        for (i, rho) in cert:
            if total_derivative_multi(e.components[i], rho, ctx).is_zero:
                continue
            rest = {k: v for k, v in cert.items() if k != (i, rho)}
            assert reconstruct_from_certificate(e, rest) + s2.density != h
            dropped += 1
    assert dropped == 41   # of the corpus's 63 entries


def test_contract_zero_form(ode_ctx):
    xi = VerticalField(ode_ctx, (ode_ctx.fiber("y"),))
    zero = BilinearForm(ode_ctx, {})
    assert contract(xi, xi, zero).is_zero


def test_symmetry_defect_is_divergence_for_base_fields(ode_ctx):
    """For base-coordinate variation fields the symmetry defect of the
    vertical differential is an exact total divergence (nonzero
    pointwise), so the EL operator annihilates it identically."""
    y = ode_ctx.fiber("y")
    t = ode_ctx.base("t")
    yt = ode_ctx.jet("y", "t")
    ytt = ode_ctx.jet("y", "tt")
    xi1 = VerticalField(ode_ctx, (t ** 2,))
    xi2 = VerticalField(ode_ctx, (1 + t ** 3,))
    for density in [(yt ** 2 - y ** 2) / 2, yt ** 2 / 2 + y ** 3,
                    y * yt * ytt]:
        lag = Lagrangian(ode_ctx, density)
        ve = vertical_differential(lag)
        defect = contract(xi1, xi2, ve) - contract(xi2, xi1, ve)
        assert not defect.is_zero
        assert euler_lagrange(Lagrangian(ode_ctx, defect)).is_zero


def test_split_first_summand_dies_onshell_with_fiber_fields(ode_ctx):
    """With fiber-dependent fields the Hessian and the vertical
    differential differ by the first summand of the split, which lies in
    the ideal of the field equations and dies under on-shell reduction."""
    y = ode_ctx.fiber("y")
    yt = ode_ctx.jet("y", "t")
    lag = Lagrangian(ode_ctx, yt ** 2 / 2 + y ** 3)
    xi1 = VerticalField(ode_ctx, (ode_ctx.base("t") * y,))
    xi2 = VerticalField(ode_ctx, (y ** 2,))
    h = hessian(lag, xi1, xi2)
    s2 = contract(xi1, xi2, jacobi(lag))
    diff = h.density - s2
    assert not diff.is_zero
    relations = {ode_ctx.jet_atom("y", "tt"): 3 * y ** 2}
    assert reduce_onshell(diff, relations, ode_ctx).is_zero


def test_reduce_onshell_refuses_relations_without_fixed_point(ode_ctx):
    y = ode_ctx.fiber("y")
    with pytest.raises(ExprError, match="fixed point"):
        reduce_onshell(y, {ode_ctx.jet_atom("y"): y ** 2}, ode_ctx)


def test_prolong_relations(ode_ctx):
    y = ode_ctx.fiber("y")
    rel = prolong_relations(ode_ctx, {ode_ctx.jet_atom("y", "tt"): -y}, 4)
    assert rel[ode_ctx.jet_atom("y", "tt")] == -y
    assert rel[ode_ctx.jet_atom("y", "ttt")] == -ode_ctx.jet("y", "t")
    assert rel[ode_ctx.jet_atom("y", "tttt")] == y
