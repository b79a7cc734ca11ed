"""On-shell reduction: the oracle for the first summand of the
second-variation split that does not use its certificate.  Critical
relations, solved for their highest derivatives (y_tt -> -y), are extended
by total derivatives and substituted until the expression settles."""

from __future__ import annotations

from typing import Mapping

from jetvar.expr import (ExprError, JetContext, JetCoord, JetExpr, jet_order,
                         substitute)
from jetvar.jetcalc import total_derivative


def prolong_relations(ctx: JetContext,
                      relations: Mapping[JetCoord, JetExpr],
                      max_order: int) -> dict[JetCoord, JetExpr]:
    """Extend critical relations (solved for their highest derivatives,
    e.g. y_tt -> -y) by all total-derivative prolongations up to
    max_order.  Right-hand sides are kept reduced with respect to the
    accumulated relations."""
    bindings: dict[JetCoord, JetExpr] = {}
    for key, rhs in sorted(relations.items()):
        bindings[key] = substitute(rhs, bindings)
    frontier = list(bindings.items())
    while frontier:
        new_frontier = []
        for key, rhs in frontier:
            for ax in range(ctx.n):
                nkey = key.lifted(ax)
                if nkey.order > max_order or nkey in bindings:
                    continue
                nrhs = substitute(total_derivative(rhs, ax, ctx), bindings)
                bindings[nkey] = nrhs
                new_frontier.append((nkey, nrhs))
        frontier = new_frontier
    return bindings


def reduce_onshell(e: JetExpr, relations: Mapping[JetCoord, JetExpr],
                   ctx: JetContext) -> JetExpr:
    """Substitute critical relations plus the total-derivative
    prolongations needed to cover every derivative occurring in e."""
    full = prolong_relations(ctx, relations, max(jet_order(e), 0))
    out = substitute(e, full)
    # one pass suffices when the solved forms are reduced; a few more
    # cover chains, and relations that never settle are refused
    for _ in range(4):
        nxt = substitute(out, full)
        if nxt == out:
            return out
        out = nxt
    raise ExprError("on-shell reduction reached no fixed point in four "
                    "passes; the relations are not in solved form")
