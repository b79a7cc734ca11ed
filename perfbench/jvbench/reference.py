"""Independent oracles: sympy for Euler-Lagrange forms, exact rational
polynomial integration for the Laplace variations.  Neither uses jetvar's
calculus; they only read its expression trees."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from jetvar.expr import BaseCoord, JetCoord

# ---------------------------------------------------------------------------
# sympy
# ---------------------------------------------------------------------------


def _to_sympy(e, xs, fs):
    import sympy
    total = sympy.Integer(0)
    for mono, coeff in e.terms:
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for atom, k in mono:
            if isinstance(atom, BaseCoord):
                base = xs[atom.axis]
            elif isinstance(atom, JetCoord):
                wrt = [(xs[a], c) for a, c in enumerate(atom.sigma.counts) if c]
                base = fs[atom.index].diff(*wrt) if wrt else fs[atom.index]
            else:
                raise ValueError(f"not a polynomial atom: {atom!r}")
            term = term * base ** k
        total = total + term
    return total


def sympy_euler_lagrange_matches(lag, el) -> bool:
    """True when sympy's euler_equations agree with el component-wise."""
    import sympy
    from sympy.calculus.euler import euler_equations
    ctx = lag.ctx
    xs = sympy.symbols(ctx.base_names)
    if not isinstance(xs, tuple):
        xs = (xs,)
    fs = [sympy.Function(nm)(*xs) for nm in ctx.fiber_names]
    density = _to_sympy(lag.density, xs, fs)
    # euler_equations drops an equation that evaluates to True or False
    # (0 == 0, 1/2 == 0); a free source term G keeps each one symbolic.
    g = sympy.Function("G")(*xs)
    for f, comp in zip(fs, el.components):
        (eq,) = euler_equations(density + f * g, [f], xs)
        if sympy.expand(eq.lhs - eq.rhs - g - _to_sympy(comp, xs, fs)) != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# exact polynomials in two variables: {(i, j): Fraction} for u^i v^j
# ---------------------------------------------------------------------------

Poly2 = dict


def p_mul(a: Poly2, b: Poly2) -> Poly2:
    out: Poly2 = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def p_add(a: Poly2, b: Poly2, scale=1) -> Poly2:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + scale * c
    return {k: c for k, c in out.items() if c}


def p_diff(a: Poly2, axis: int) -> Poly2:
    out: Poly2 = {}
    for (i, j), c in a.items():
        e = (i, j)[axis]
        if e:
            key = (i - 1, j) if axis == 0 else (i, j - 1)
            out[key] = c * e
    return out


def p_integrate(a: Poly2, box: Sequence[tuple[Fraction, Fraction]]) -> Fraction:
    (a0, b0), (a1, b1) = box
    total = Fraction(0)
    for (i, j), c in a.items():
        total += (c * (b0 ** (i + 1) - a0 ** (i + 1)) / (i + 1)
                  * (b1 ** (j + 1) - a1 ** (j + 1)) / (j + 1))
    return total


def bump(box) -> Poly2:
    """prod_axis ((x-a)(b-x))^4 / ((b-a)^2/4)^4, the variation envelope."""
    out: Poly2 = {(0, 0): Fraction(1)}
    for axis, (a, b) in enumerate(box):
        lin = {(1, 0): Fraction(1)} if axis == 0 else {(0, 1): Fraction(1)}
        x_minus_a = p_add(lin, {(0, 0): a}, -1)
        b_minus_x = p_add({(0, 0): b}, lin, -1)
        quad = p_mul(x_minus_a, b_minus_x)
        factor = {(0, 0): 1 / ((b - a) ** 2 / 4) ** 4}
        for _ in range(4):
            factor = p_mul(factor, quad)
        out = p_mul(out, factor)
    return out


def laplace_second_variation(xi1: Poly2, xi2: Poly2, box) -> Fraction:
    """int grad(B xi1) . grad(B xi2) over the box, exactly."""
    b = bump(box)
    f1, f2 = p_mul(b, xi1), p_mul(b, xi2)
    total = Fraction(0)
    for axis in (0, 1):
        total += p_integrate(p_mul(p_diff(f1, axis), p_diff(f2, axis)), box)
    return total


def integral_against(xi: Poly2, source: Poly2, box) -> Fraction:
    """int (B xi) * source over the box, exactly."""
    return p_integrate(p_mul(p_mul(bump(box), xi), source), box)
