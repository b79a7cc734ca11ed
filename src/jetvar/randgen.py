"""Seeded random generators for polynomial Lagrangians, currents,
vertical fields, and bilinear forms.  Used by the property-based tests
and by the experiment scripts; everything is deterministic for a fixed
``random.Random`` instance.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .expr import JetContext, JetExpr
from .jetcalc import VerticalField
from .multiindex import MultiIndex, enumerate_up_to
from .variational import BilinearForm, Lagrangian


def _coordinate_pool(ctx: JetContext, max_order: int) -> list[JetExpr]:
    pool = [ctx.base(a) for a in range(ctx.n)]
    for i in range(ctx.m):
        for sigma in enumerate_up_to(ctx.n, max_order):
            pool.append(ctx.jet(i, sigma))
    return pool


def random_polynomial(rng: random.Random, ctx: JetContext, *,
                      max_order: int = 2, max_monomials: int = 6,
                      max_factors: int = 3, max_power: int = 2) -> JetExpr:
    """Random polynomial in the base and jet coordinates with small
    rational coefficients; may be zero only by cancellation."""
    pool = _coordinate_pool(ctx, max_order)
    total = JetExpr.constant(0)
    for _ in range(rng.randint(1, max_monomials)):
        coeff = rng.choice([c for c in range(-4, 5) if c != 0])
        term = JetExpr.constant(Fraction(coeff, rng.choice([1, 1, 2, 3])))
        for _f in range(rng.randint(0, max_factors)):
            term = term * rng.choice(pool) ** rng.randint(1, max_power)
        total = total + term
    return total


def random_base_polynomial(rng: random.Random, ctx: JetContext) -> JetExpr:
    """Random polynomial of degree at most 3 in the base coordinates only
    (a closed-form variation-field component)."""
    total = JetExpr.constant(rng.choice([c for c in range(-3, 4) if c != 0]))
    for ax in range(ctx.n):
        x = ctx.base(ax)
        for k in range(1, 4):
            c = rng.randint(-3, 3)
            if c:
                total = total + c * x ** k
    return total


def random_lagrangian(rng: random.Random, ctx: JetContext, *,
                      max_order: int = 2, max_monomials: int = 6
                      ) -> Lagrangian:
    return Lagrangian(ctx, random_polynomial(rng, ctx, max_order=max_order,
                                             max_monomials=max_monomials))


def random_current(rng: random.Random, ctx: JetContext, *,
                   max_order: int = 2) -> list[JetExpr]:
    """One random density per base axis (the J^lam of a total divergence)."""
    return [random_polynomial(rng, ctx, max_order=max_order, max_monomials=3,
                              max_factors=2)
            for _ in range(ctx.n)]


def random_vertical_field(rng: random.Random, ctx: JetContext, *,
                          max_order: int = 0) -> VerticalField:
    comps = tuple(random_polynomial(rng, ctx, max_order=max_order,
                                    max_monomials=2, max_factors=2)
                  for _ in range(ctx.m))
    return VerticalField(ctx, comps)


def random_bilinear_form(rng: random.Random, ctx: JetContext, *,
                         max_sigma_order: int = 3, max_entries: int = 4
                         ) -> BilinearForm:
    """Random bilinear form whose coefficients are polynomials in the
    base coordinates and the jet coordinates of order at most 1."""
    sigmas = enumerate_up_to(ctx.n, max_sigma_order)
    comps: dict[tuple[MultiIndex, int, int], JetExpr] = {}
    for _ in range(rng.randint(1, max_entries)):
        key = (rng.choice(sigmas), rng.randrange(ctx.m), rng.randrange(ctx.m))
        val = random_polynomial(rng, ctx, max_order=1,
                                max_monomials=2, max_factors=2)
        comps[key] = comps[key] + val if key in comps else val
    return BilinearForm(ctx, comps)
