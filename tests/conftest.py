import pathlib

import pytest

from jetvar import JetContext

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture
def ode_ctx():
    """One base variable, one field: the oscillator chart."""
    return JetContext.make("t", "y")


@pytest.fixture
def plane_ctx():
    """One base variable, two fields."""
    return JetContext.make("t", "q1 q2")


@pytest.fixture
def pde_ctx():
    """Two base variables, one field."""
    return JetContext.make("u v", "w")


@pytest.fixture
def metric_ctx():
    """Two fields with symbolic metric coefficient functions."""
    return JetContext.make(
        "t", "q1 q2",
        opaque={"g11": ["q1", "q2"], "g12": ["q1", "q2"], "g22": ["q1", "q2"]})


@pytest.fixture
def problems_dir():
    return PROBLEMS


def _to_sympy(e, ctx, sp):
    """The expression with each jet coordinate y^i_sigma read as the
    derivative D_sigma of a function y^i(x), so that sympy.diff along a
    base variable is the total derivative."""
    from jetvar.expr import BaseCoord, ConstSym, ElemFn, InvSum, JetCoord
    xs = [sp.Symbol(nm) for nm in ctx.base_names]

    def atom(a):
        if isinstance(a, BaseCoord):
            return xs[a.axis]
        if isinstance(a, JetCoord):
            f = sp.Function(a.field)(*xs)
            return sp.diff(f, *[(x, c) for x, c in zip(xs, a.sigma.counts)])
        if isinstance(a, ConstSym):
            return sp.pi
        if isinstance(a, ElemFn):
            return getattr(sp, a.fn)(_to_sympy(a.arg, ctx, sp))
        if isinstance(a, InvSum):
            return 1 / _to_sympy(a.body, ctx, sp)
        raise AssertionError(f"no sympy image for {a!r}")

    return sp.Add(*(sp.Rational(c.numerator, c.denominator)
                    * sp.Mul(*(atom(a) ** k for a, k in m))
                    for m, c in e.terms))


@pytest.fixture(scope="session")
def to_sympy():
    """The sympy image of a jet expression, as _to_sympy(e, ctx, sp)."""
    return _to_sympy


def _bumped_pairing(base, sigmas, xi1, xi2, order):
    """sum over sigma in sigmas of the integral over [0, 1]^n of
    D_sigma(B xi1) * D_sigma(B xi2), B = prod_a (1 - (2 x_a - 1)^2)^p,
    p = max(4, order), exactly by sympy: the second variation of
    sum 1/2 (y_sigma)^2 along the bumped fields xi1 and xi2, polynomials
    in the base names written as text."""
    sp = pytest.importorskip("sympy")
    xs = sp.symbols(base)
    xs = xs if isinstance(xs, tuple) else (xs,)
    bump = sp.Mul(*((1 - (2 * x - 1) ** 2) ** max(4, order) for x in xs))
    f1, f2 = (sp.Poly(bump * sp.sympify(xi), *xs) for xi in (xi1, xi2))

    def d(f, sigma):
        for x, k in zip(xs, sigma):
            for _ in range(k):
                f = f.diff(x)
        return f

    total = sum((d(f1, s) * d(f2, s) for s in sigmas), sp.Poly(0, *xs))
    # the integral of prod_a x_a^k_a over the unit box is prod_a 1/(k_a + 1)
    return sum(c / sp.Mul(*(k + 1 for k in ks)) for ks, c in total.terms())


@pytest.fixture
def bumped_pairing():
    """The exact second variation along bumped fields, as
    _bumped_pairing(base, sigmas, xi1, xi2, order)."""
    return _bumped_pairing
