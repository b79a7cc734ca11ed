import random

import pytest
from hypothesis import given, settings, strategies as st

from jetvar import (JetContext, VerticalField, d_v, total_derivative,
                    total_derivative_multi)
from jetvar.expr import all_atoms, cos, elem, jet_coords, partial, sin, sqrt
from jetvar.jetcalc import derivative_lattice
from jetvar.multiindex import MultiIndex
from jetvar.randgen import random_polynomial

seeds = st.integers(0, 10**9)


def test_total_derivative_examples(ode_ctx):
    y = ode_ctx.fiber("y")
    yt = ode_ctx.jet("y", "t")
    ytt = ode_ctx.jet("y", "tt")
    assert total_derivative(y ** 2, 0, ode_ctx) == 2 * y * yt
    assert total_derivative(yt, 0, ode_ctx) == ytt


def test_total_derivative_opaque():
    ctx = JetContext.make("t", "q", opaque={"g": ["q"]})
    qt = ctx.jet("q", "t")
    qtt = ctx.jet("q", "tt")
    g = ctx.opaque("g")
    dg = ctx.opaque("g", (1,))
    assert total_derivative(g * qt, 0, ctx) == dg * qt ** 2 + g * qtt


def test_total_derivative_multi(ode_ctx, pde_ctx):
    y = ode_ctx.fiber("y")
    assert total_derivative_multi(y, MultiIndex((2,)), ode_ctx) == \
        ode_ctx.jet("y", "tt")
    e = y ** 3 + ode_ctx.base("t")
    assert total_derivative_multi(e, MultiIndex((0,)), ode_ctx) == e
    w = pde_ctx.fiber("w")
    assert total_derivative_multi(w, MultiIndex((1, 1)), pde_ctx) == \
        pde_ctx.jet("w", "u v")


def test_prolong_examples(ode_ctx):
    """The derivative lattice of a field component up to sigma is its jet
    prolongation: D_tau xi for every tau <= sigma."""
    y = ode_ctx.fiber("y")
    yt = ode_ctx.jet("y", "t")
    t = ode_ctx.base("t")
    zero = MultiIndex.zero(1)
    one = MultiIndex((1,))
    two = MultiIndex((2,))

    p = derivative_lattice(y, [one], ode_ctx)
    assert p[zero] == y and p[one] == yt

    p = derivative_lattice(y ** 0, [two], ode_ctx)
    assert p[zero] == 1 and p[one].is_zero and p[two].is_zero

    p = derivative_lattice(sin(t), [two], ode_ctx)
    assert p[zero] == sin(t)
    assert p[one] == cos(t)
    assert p[two] == -sin(t)


def test_d_v_examples(ode_ctx):
    y = ode_ctx.fiber("y")
    yt = ode_ctx.jet("y", "t")
    ytt = ode_ctx.jet("y", "tt")
    assert d_v(yt ** 2 / 2, ode_ctx) == {(0, MultiIndex((1,))): yt}
    assert d_v(ode_ctx.base("t"), ode_ctx) == {}
    assert d_v(y * ytt, ode_ctx) == {(0, MultiIndex((0,))): ytt,
                                     (0, MultiIndex((2,))): y}


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_total_derivatives_commute(seed):
    rng = random.Random(seed)
    ctx = JetContext.make("x1 x2", "y z")
    e = random_polynomial(rng, ctx, max_order=2, max_monomials=4)
    d01 = total_derivative(total_derivative(e, 0, ctx), 1, ctx)
    d10 = total_derivative(total_derivative(e, 1, ctx), 0, ctx)
    assert d01 == d10


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_total_derivative_is_a_derivation(seed):
    rng = random.Random(seed)
    ctx = JetContext.make("x1 x2", "y")
    f = random_polynomial(rng, ctx, max_order=2, max_monomials=3)
    g = random_polynomial(rng, ctx, max_order=2, max_monomials=3)
    ax = rng.randrange(2)
    lhs = total_derivative(f * g, ax, ctx)
    rhs = total_derivative(f, ax, ctx) * g + f * total_derivative(g, ax, ctx)
    assert lhs == rhs


def test_vertical_field_arity(plane_ctx):
    with pytest.raises(ValueError):
        VerticalField(plane_ctx, (plane_ctx.fiber("q1"),))


def _random_quotient(rng, ctx, k1=1, k2=1):
    """polynomial * f(polynomial)**k1 / (multi-term polynomial)**k2, f
    elementary."""
    def poly(**kw):
        return random_polynomial(rng, ctx, max_order=1, max_monomials=3,
                                 max_factors=2, **kw)

    arg = poly()
    while arg.constant_value() is not None:
        arg = poly()
    den = poly()
    while len(den.terms) < 2:
        den = poly()
    fn = rng.choice(["sin", "cos", "exp", "log", "sqrt"])
    return poly() * elem(fn, arg) ** k1 * den ** -k2


def _positive(e, ctx, sp):
    """e, a sympy image under to_sympy, with each derivative, applied
    function and base symbol replaced by a positive symbol of its own, so
    that sympy merges powers such as sqrt(u^3)^3 = u^(9/2) when it
    cancels."""
    from sympy.core.function import AppliedUndef
    out = {x: sp.Symbol(x.name, positive=True)
           for x in map(sp.Symbol, ctx.base_names)}
    out.update({a: sp.Symbol(str(a), positive=True)
                for a in e.atoms(sp.Derivative, AppliedUndef)})
    return e.xreplace(out)


# seeds 184, 197 and 354 hold differences that cancel to 0 only over
# positive symbols
@pytest.mark.parametrize("seed", [*range(40), 184, 197, 354])
def test_total_derivative_matches_sympy(seed, to_sympy):
    sp = pytest.importorskip("sympy")
    rng = random.Random(seed)
    ctx = rng.choice([JetContext.make("t", "y"), JetContext.make("t", "y z"),
                      JetContext.make("x1 x2", "y"),
                      JetContext.make("x1 x2", "y z")])
    e = _random_quotient(rng, ctx)
    lhs = to_sympy(e, ctx, sp)
    for ax, name in enumerate(ctx.base_names):
        got = to_sympy(total_derivative(e, ax, ctx), ctx, sp)
        diff = got - sp.diff(lhs, sp.Symbol(name))
        assert sp.cancel(_positive(diff, ctx, sp)) == 0


@pytest.mark.parametrize("k1", [-2, -1, 2, 3])
@pytest.mark.parametrize("k2", [2, 3])
def test_total_derivative_of_powers_matches_sympy(k1, k2, to_sympy):
    """poly * f(arg)^k1 / den^k2: the Leibniz rule on a factor whose
    exponent is not 1, for a function atom and an inverse sum, checked by
    sympy for D_lam and for an iterated D_sigma with |sigma| = 2."""
    sp = pytest.importorskip("sympy")
    rng = random.Random(100 * k1 + k2)
    ctx = rng.choice([JetContext.make("t", "y"), JetContext.make("x1 x2", "y")])
    e = _random_quotient(rng, ctx, k1, k2)
    powers = {(type(a).__name__, k) for m, _c in e.terms for a, k in m}
    assert {("ElemFn", k1), ("InvSum", k2)} <= powers
    lhs = to_sympy(e, ctx, sp)
    xs = [sp.Symbol(name) for name in ctx.base_names]
    ax = rng.randrange(ctx.n)
    got = to_sympy(total_derivative(e, ax, ctx), ctx, sp)
    assert sp.cancel(_positive(got - sp.diff(lhs, xs[ax]), ctx, sp)) == 0
    sigma = [0] * ctx.n
    sigma[ax] += 1
    sigma[rng.randrange(ctx.n)] += 1
    got = to_sympy(total_derivative_multi(e, MultiIndex(tuple(sigma)), ctx),
                   ctx, sp)
    want = sp.diff(lhs, *[(x, c) for x, c in zip(xs, sigma) if c])
    assert sp.cancel(_positive(got - want, ctx, sp)) == 0


def _jet_symbols(e, ctx, sp):
    """Each jet coordinate of e as its sympy image under to_sympy, mapped
    to a free symbol of its own: the jet coordinates as independent
    variables, as the fibre partials treat them.  The base symbols go to
    positive ones too, so that sympy merges powers such as
    sqrt(y_t^3)^3 = y_t^(9/2) when it cancels."""
    xs = [sp.Symbol(nm) for nm in ctx.base_names]
    out = {x: sp.Symbol(x.name, positive=True) for x in xs}
    out.update({sp.diff(sp.Function(c.field)(*xs), *zip(xs, c.sigma)):
                sp.Symbol(c.plain(), positive=True) for c in jet_coords(e)})
    return out


@pytest.mark.parametrize("seed", range(40))
def test_partial_matches_sympy(seed, to_sympy):
    """The partial along every jet coordinate and every base coordinate
    of poly * f(arg) / den, f elementary, agrees with sympy.diff with the
    jet coordinates read as independent symbols."""
    sp = pytest.importorskip("sympy")
    rng = random.Random(1000 + seed)
    ctx = rng.choice([JetContext.make("t", "y"), JetContext.make("t", "y z"),
                      JetContext.make("x1 x2", "y"),
                      JetContext.make("x1 x2", "y z")])
    e = _random_quotient(rng, ctx)
    symbols = _jet_symbols(e, ctx, sp)
    lhs = to_sympy(e, ctx, sp).xreplace(symbols)
    coords = jet_coords(e) + [ctx.base_atom(ax) for ax in range(ctx.n)]
    for c in coords:
        wrt = sp.Symbol(c.plain(), positive=True)
        got = to_sympy(partial(e, c), ctx, sp).xreplace(symbols)
        assert sp.cancel(got - sp.diff(lhs, wrt)) == 0


def test_partial_scales_coordinate_terms_by_a_fractional_chain_rule():
    """In sqrt(y)/3 + y^2/2 the sqrt term comes first, and the 1/2 of its
    derivative grows the common denominator before y^2 adds its term,
    which must be scaled to it; likewise for sqrt(t) under D_t."""
    ctx = JetContext.make("t", "y")
    y = ctx.fiber("y")
    e = sqrt(y) / 3 + y ** 2 / 2
    assert [type(m[0][0]).__name__ for m, _c in e.terms] == \
        ["ElemFn", "JetCoord"]
    assert partial(e, ctx.jet_atom("y")) == sqrt(y) ** -1 / 6 + y
    t = ctx.base("t")
    e = sqrt(t) + t ** 2 * ctx.jet("y", "t")
    assert total_derivative(e, 0, ctx) == (
        sqrt(t) ** -1 / 2 + 2 * t * ctx.jet("y", "t")
        + t ** 2 * ctx.jet("y", "tt"))


def _random_composite(rng, ctx):
    """A sum whose terms hold elementary, opaque and inverse-sum atoms,
    nested two deep, of random polynomials with rational coefficients."""
    def poly():
        return random_polynomial(rng, ctx, max_order=2, max_monomials=3,
                                 max_factors=2)

    e = poly()
    for _level in range(2):
        p, q = poly(), poly()
        e = (elem(rng.choice(["sin", "cos", "exp", "log", "sqrt"]), e + p) * q
             + ctx.opaque("g", args=(e, q)) * p + poly() / (e * p + q + 1))
    return e


@pytest.mark.parametrize("seed", range(12))
def test_d_v_is_the_partial_along_each_coordinate(seed):
    """d_v, which takes each coordinate's partial of only the terms that
    hold it, equals the partial of the whole expression along every jet
    coordinate that occurs, the zero ones left out."""
    rng = random.Random(seed)
    ctx = JetContext.make("x1 x2", "y z", opaque={"g": ["y", "z"]})
    e = _random_composite(rng, ctx)
    kinds = {type(a).__name__ for a in all_atoms(e)}
    assert {"ElemFn", "OpaqueFn", "InvSum"} <= kinds
    want = {}
    for c in jet_coords(e):
        p = partial(e, c)
        if not p.is_zero:
            want[(c.index, c.sigma)] = p
    assert d_v(e, ctx) == want
    assert list(d_v(e, ctx)) == list(want)
