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


@pytest.fixture
def to_sympy():
    """The sympy image of a jet expression, as _to_sympy(e, ctx, sp)."""
    return _to_sympy
