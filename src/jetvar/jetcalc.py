"""Vertical fields, total derivatives, the derivative lattice, and the
vertical differential of functions on jet space.

The total derivative along the lam-th base direction is the derivation
D_lam f = partial_lam f + sum over jet coordinates of
y^j_{sigma+lam} * partial^sigma_j f.  It is computed in a single pass over
f (``expr.derive``), which takes the image of each coordinate as a
monomial with coefficient 1, or None for 0: each jet coordinate
y^j_sigma goes to its lift y^j_{sigma+lam}, the base coordinate x^lam to
the empty monomial 1, every other atom without arguments to None, and
function applications follow by the chain rule.  The vertical
differential ``d_v`` takes the fibre partial (``expr.partial``, the image
1 on one coordinate) of f along each jet coordinate that occurs in it.

Where a call needs D_tau of one expression for many tau, it takes them
from a derivative lattice: the targets closed downward along the parent
rule, under which the parent of tau is tau minus one on its first nonzero
axis, with each D_tau e one total derivative of its parent's.  The
adjoint needs the whole box below one sigma, which ``MultiIndex.splits``
already yields parents first, so it follows the same rule without a
lattice.
"""

from __future__ import annotations

from collections.abc import Iterable

from .expr import (Atom, BaseCoord, JetContext, JetCoord, JetExpr, Monomial,
                   UnknownCoordinate, derive, jet_coords, partial)
from .multiindex import MultiIndex


class VerticalField:
    """Vertical vector field xi = xi^i d/dy^i with JetExpr components.

    Components of order 0 recover fields on the total space; higher
    orders give generalized vector fields.
    """

    __slots__ = ("ctx", "components")

    def __init__(self, ctx: JetContext, components: tuple[JetExpr, ...]):
        if len(components) != ctx.m:
            raise ValueError(f"vertical field needs {ctx.m} components, "
                             f"got {len(components)}")
        self.ctx, self.components = ctx, components


def total_derivative(e: JetExpr, axis: int | str, ctx: JetContext) -> JetExpr:
    """Total (formal) derivative D_lam of an expression: ``derive`` with a
    jet coordinate's image its lift along lam, x^lam's image 1 and every
    other coordinate's 0.  A zero expression is returned as it is."""
    ax = axis if isinstance(axis, int) else ctx.axis(axis)
    if not 0 <= ax < ctx.n:
        raise UnknownCoordinate(f"base axis {axis!r} out of range")
    if e.is_zero:
        return e

    def image(a: Atom) -> Monomial | None:
        if a.__class__ is JetCoord:
            return ((a.lifted(ax), 1),)
        return () if a.__class__ is BaseCoord and a.axis == ax else None

    return derive(e, image)


def total_derivative_multi(e: JetExpr, sigma: MultiIndex, ctx: JetContext
                           ) -> JetExpr:
    """Iterated total derivative D_sigma, the top of sigma's derivative
    lattice; D_0 is the identity."""
    if sigma.dimension != ctx.n:
        raise ValueError("multi-index dimension does not match context")
    return derivative_lattice(e, [sigma], ctx)[sigma]


def lattice_edges(targets: Iterable[MultiIndex]
                  ) -> list[tuple[MultiIndex, int, MultiIndex]]:
    """The downward closure of the targets along the parent rule, as
    edges (tau, axis, parent) with tau = parent + 1 on ``axis``, the first
    nonzero axis of tau.  The zero index is the root and has no edge;
    every parent comes before its children."""
    seen: set[MultiIndex] = set()
    edges = []
    for sigma in targets:
        while sigma not in seen and any(sigma):
            seen.add(sigma)
            axis, parent = sigma.parent()
            edges.append((sigma, axis, parent))
            sigma = parent
    edges.sort(key=lambda edge: sum(edge[0]))
    return edges


def derivative_lattice(e: JetExpr, targets: Iterable[MultiIndex],
                       ctx: JetContext) -> dict[MultiIndex, JetExpr]:
    """D_tau e for every tau of the targets' downward closure along the
    parent rule (``lattice_edges``), each by one total derivative of its
    parent's: prod(sigma_a + 1) - 1 of them for the box below one sigma.
    The table is built per call and kept by no one."""
    out = {MultiIndex.zero(ctx.n): e}
    for tau, axis, parent in lattice_edges(targets):
        out[tau] = total_derivative(out[parent], axis, ctx)
    return out


def d_v(f: JetExpr, ctx: JetContext) -> dict[tuple[int, MultiIndex], JetExpr]:
    """Vertical differential of a function: nonzero coefficients of the
    contact basis, keyed by (fiber index, sigma).

    d_V f = sum of partial(f, y^j_sigma) * omega^j_sigma, so the loop takes
    the partial of f along each jet coordinate that occurs in it, in
    ``jet_coords`` order, and keeps the nonzero ones.
    """
    out: dict[tuple[int, MultiIndex], JetExpr] = {}
    for jc in jet_coords(f):
        p = partial(f, jc)
        if not p.is_zero:
            out[(jc.index, jc.sigma)] = p
    return out
