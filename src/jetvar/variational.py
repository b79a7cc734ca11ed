"""Euler-Lagrange, Helmholtz, adjoint, vertical differential / Jacobi
morphisms, and iterated quotient variations.

Conventions
-----------
A source form is stored by its components e_i; a bilinear form by a
finitely supported map (sigma, i, j) -> A^sigma_{ij}, contracted as

    contract(xi1, xi2, A) = sum A^sigma_{ij} * xi1^i * D_sigma(xi2^j),

i.e. the derivative slot acts on the second field and the first field
enters undifferentiated.  The formal adjoint of A (integration by parts
plus index transpose) has components

    (A*)^rho_{ji} = sum over sigma >= rho of
        (-1)^{|sigma|} C(sigma, rho) D_{sigma-rho}(A^sigma_{ij}),

with C the per-axis product of binomial coefficients; the adjoint is an
involution.

Every morphism is built from one linearization, one Euler operator and one
adjoint.  ``linearize`` takes a source form to its fibre linearization V,
with V^sigma_{ij} = d^sigma_j e_i.  The Euler operator takes pieces
p_{(i, sigma)} to the source form sum (-1)^{|sigma|} D_sigma(p_{(i, sigma)}):
applied to the d^sigma_i L it is the Euler-Lagrange morphism, and applied to
a weighted linearization it gives each summand of the second-variation
split.  The vertical differential of the Euler-Lagrange morphism is V, the
Jacobi morphism V* = V, and the Helmholtz form is H = (V - V*)^T: a source
form is locally variational iff its linearization is formally self-adjoint
(Olver, Applications of Lie Groups to Differential Equations, ch. 5).  The
adjoint is the one integration by parts; the certificate that the first
summand of the split lies in the ideal of the field equations is read off
from it.  Partial derivatives d^sigma_j are taken only at the jet
coordinates that occur in an expression (``jetcalc.d_v``).

The adjoint and the Euler operator take each D_tau once per call, by one
total derivative from its parent (``MultiIndex.parent``).  The adjoint
walks the box below each entry's sigma once (``MultiIndex.splits``, which
yields every tau after its parent), takes D_tau of the entry on the way
and adds the weighted terms into one sum per output component; the Euler
operator is nested over the same parent rule (``jetcalc.lattice_edges``).
No table outlives the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

# ``partial`` is not called here; perfbench's tracing tests look it up as
# ``variational.partial``.
from .expr import (JetContext, JetExpr, ZERO, add_many, add_scaled,
                   jet_order, mul, partial)
from .jetcalc import (VerticalField, d_v, derivative_lattice, lattice_edges,
                      total_derivative)
from .multiindex import MultiIndex


@dataclass(frozen=True)
class Lagrangian:
    """Lagrangian density L in lambda = L v_X."""

    ctx: JetContext
    density: JetExpr

    @property
    def order(self) -> int:
        return jet_order(self.density)


@dataclass(frozen=True)
class SourceForm:
    """Components e_i of a source form e_i omega^i wedge v_X."""

    ctx: JetContext
    components: tuple[JetExpr, ...]

    def __post_init__(self):
        if len(self.components) != self.ctx.m:
            raise ValueError(
                f"source form needs {self.ctx.m} components, "
                f"got {len(self.components)}")

    @property
    def order(self) -> int:
        return max((jet_order(c) for c in self.components), default=0)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)


class BilinearForm:
    """Components A^sigma_{ij} of A^sigma_{ij} omega^i_sigma (x) omega^j (x) v_X,
    stored sparsely and canonically ordered."""

    __slots__ = ("ctx", "_entries")

    def __init__(self, ctx: JetContext,
                 components: Mapping[tuple[MultiIndex, int, int], JetExpr]):
        self.ctx = ctx
        items = []
        for (sigma, i, j), val in components.items():
            if sigma.dimension != ctx.n:
                raise ValueError("component multi-index has wrong dimension")
            if not (0 <= i < ctx.m and 0 <= j < ctx.m):
                raise ValueError(f"fiber index out of range in ({i}, {j})")
            if not val.is_zero:
                items.append(((sigma, i, j), val))
        items.sort(key=lambda kv: (kv[0][0].order(), kv[0][0],
                                   kv[0][1], kv[0][2]))
        self._entries = tuple(items)

    def entries(self) -> tuple[tuple[tuple[MultiIndex, int, int], JetExpr], ...]:
        return self._entries

    def component(self, sigma: MultiIndex, i: int, j: int) -> JetExpr:
        for (s, a, b), val in self._entries:
            if s == sigma and a == i and b == j:
                return val
        return ZERO

    @property
    def is_zero(self) -> bool:
        return not self._entries

    @property
    def order(self) -> int:
        """Maximal |sigma| with a nonzero component."""
        return max((s.order() for (s, _i, _j), _v in self._entries), default=0)

    def __eq__(self, other):
        return (isinstance(other, BilinearForm)
                and self._entries == other._entries)

    def __hash__(self):
        return hash(self._entries)

    def __repr__(self):
        lines = ", ".join(
            f"A^{{{_sigma_label(s, self.ctx.base_names)}}}_{{{i+1} {j+1}}}="
            f"{v!r}" for (s, i, j), v in self._entries)
        return f"BilinearForm({lines or '0'})"


def _sigma_label(sigma: MultiIndex, base_names: Sequence[str]) -> str:
    """The printed upper index of A^sigma: the base names juxtaposed, each
    as often as sigma counts it (``x1 x1 x2`` for (2, 1)), or 0 for
    sigma = 0."""
    return " ".join(name for name, count in zip(base_names, sigma)
                    for _ in range(count)) or "0"


# ---------------------------------------------------------------------------
# the variational-sequence morphisms
# ---------------------------------------------------------------------------


def euler_lagrange(lag: Lagrangian) -> SourceForm:
    """Euler-Lagrange source form: e_i = sum (-1)^{|sigma|} D_sigma(d^sigma_i L)."""
    return _euler_operator(d_v(lag.density, lag.ctx), lag.ctx)


def _euler_operator(pieces: Mapping[tuple[int, MultiIndex], JetExpr],
                    ctx: JetContext) -> SourceForm:
    """The source form with components
    sum over sigma of (-1)^{|sigma|} D_sigma(pieces[(i, sigma)]), nested
    over the parent rule of ``jetcalc.lattice_edges``: with
    q_tau = p_tau - sum over children tau + a of D_a q_(tau+a), the
    component is q_0, at one total derivative per lattice node."""
    comps = []
    for i in range(ctx.m):
        acc: dict[MultiIndex, list[JetExpr]] = {}
        for (k, sigma), p in pieces.items():
            if k == i:
                acc[sigma] = [p]
        for tau, axis, parent in reversed(lattice_edges(list(acc))):
            q = total_derivative(add_many(acc.pop(tau)), axis, ctx)
            acc.setdefault(parent, []).append(-q)
        comps.append(add_many(acc.get(MultiIndex.zero(ctx.n), [])))
    return SourceForm(ctx, tuple(comps))


def helmholtz(src: SourceForm) -> BilinearForm:
    """Local-variationality obstruction H = (V - V*)^T of a source form,
    H^sigma_ji = V^sigma_ij - (V*)^sigma_ij with V its linearization: the
    source form is locally variational iff V is formally self-adjoint,
    i.e. iff every component vanishes.  H* = -H, as the adjoint is an
    involution that commutes with the transpose."""
    ve = linearize(src)
    acc: dict[tuple[MultiIndex, int, int], list[tuple[int, JetExpr]]] = {}
    for sign, form in ((1, ve), (-1, adjoint(ve))):
        for (s, i, j), v in form.entries():
            acc.setdefault((s, j, i), []).append((sign, v))
    return BilinearForm(src.ctx, {k: add_scaled(pairs)
                                  for k, pairs in acc.items()})


def adjoint(a: BilinearForm) -> BilinearForm:
    """Formal adjoint under integration by parts (see module docstring)."""
    ctx = a.ctx
    acc: dict[tuple[MultiIndex, int, int], list[tuple[int, JetExpr]]] = {}
    for (sigma, i, j), val in a.entries():
        sign = -1 if sigma.order() % 2 else 1
        # one walk of the box below sigma: the zero tau comes first and
        # every other tau after its parent, so D_tau val is one total
        # derivative of its parent's; rho = sigma - tau and
        # C(sigma, rho) = C(sigma, tau)
        box: dict[MultiIndex, JetExpr] = {}
        for tau, rho, binom in sigma.splits():
            if box:
                axis, parent = tau.parent()
                d = box[tau] = total_derivative(box[parent], axis, ctx)
            else:
                d = box[tau] = val
            acc.setdefault((rho, j, i), []).append((sign * binom, d))
    return BilinearForm(ctx, {k: add_scaled(pairs)
                              for k, pairs in acc.items()})


def linearize(src: SourceForm) -> BilinearForm:
    """Fiber linearization of a source form:
    components V^sigma_{ij} = d^sigma_j e_i, so that
    contract(xi1, xi2, V) = sum xi1^i D_sigma(xi2^j) d^sigma_j e_i."""
    return BilinearForm(src.ctx, {
        (sigma, i, j): p for i, e in enumerate(src.components)
        for (j, sigma), p in d_v(e, src.ctx).items()})


def vertical_differential(lag: Lagrangian) -> BilinearForm:
    """Vertical differential of the Euler-Lagrange morphism (its
    linearization along the fibres)."""
    return linearize(euler_lagrange(lag))


def jacobi(lag: Lagrangian) -> BilinearForm:
    """Jacobi morphism: the adjoint of the vertical differential, and equal
    to it identically, on shell or off, by the Helmholtz conditions."""
    return adjoint(vertical_differential(lag))


# ---------------------------------------------------------------------------
# contractions and variations
# ---------------------------------------------------------------------------


def contract_source(xi: VerticalField, src: SourceForm) -> JetExpr:
    """xi | E = sum xi^i e_i, a Lagrangian density."""
    return add_many(mul(c, e) for c, e in zip(xi.components, src.components))


def contract(xi1: VerticalField, xi2: VerticalField, a: BilinearForm) -> JetExpr:
    """sum A^sigma_{ij} xi1^i D_sigma(xi2^j)."""
    d_xi2 = _derivatives(xi2.components,
                         [(j, sigma) for (sigma, _i, j), _v in a.entries()],
                         a.ctx)
    pieces = []
    for (sigma, i, j), val in a.entries():
        d = d_xi2[j][sigma]
        if d.is_zero:
            continue
        pieces.append(mul(val, mul(xi1.components[i], d)))
    return add_many(pieces)


def _derivatives(exprs: Sequence[JetExpr],
                 wanted: Sequence[tuple[int, MultiIndex]], ctx: JetContext
                 ) -> list[dict[MultiIndex, JetExpr]]:
    """For each k, D_sigma exprs[k] at every sigma with (k, sigma) wanted,
    from the derivative lattice of exprs[k] over those sigma."""
    return [derivative_lattice(e, [s for k2, s in wanted if k2 == k], ctx)
            for k, e in enumerate(exprs)]


def quotient_variation(lag: Lagrangian, fields: Sequence[VerticalField]
                       ) -> Lagrangian:
    """Iterated quotient variation: the right fold
    xi_1 | E(xi_2 | E( ... xi_k | E(lambda) ... )) as a Lagrangian density.
    One field gives the first variation up to total divergences."""
    if not fields:
        raise ValueError("quotient variation needs at least one field")
    v = lag
    for xi in reversed(list(fields)):
        v = Lagrangian(lag.ctx, contract_source(xi, euler_lagrange(v)))
    return v


def hessian(lag: Lagrangian, xi1: VerticalField, xi2: VerticalField
            ) -> Lagrangian:
    """Hessian density xi_1 | E(xi_2 | E(lambda))."""
    return quotient_variation(lag, [xi1, xi2])


def second_variation_decomposition(lag: Lagrangian, xi1: VerticalField,
                                   xi2: VerticalField
                                   ) -> tuple[Lagrangian, Lagrangian]:
    """Split the Hessian density into S1 + S2 with

        S1 = sum (-1)^{|sigma|} xi1^j D_sigma(d^sigma_j(xi2^i) e_i)
        S2 = sum (-1)^{|sigma|} xi1^j D_sigma(xi2^i d^sigma_j(e_i)),

    the product rule in d^sigma_j(xi2 | E): each summand is xi1 | E of one
    linearization weighted by the other factor.  The identity
    S1 + S2 = hessian holds exactly.  Every monomial of S1 carries a
    factor D_rho(e_i) (see first_summand_certificate), so S1 vanishes
    along critical sections; S2 equals the contraction of the fields into
    the adjoint of the vertical differential.
    """
    ctx = lag.ctx
    e = euler_lagrange(lag)

    def summand(a: BilinearForm, w: Sequence[JetExpr]) -> Lagrangian:
        src = _euler_operator(_weighted(a, w), ctx)
        return Lagrangian(ctx, contract_source(xi1, src))

    return (summand(linearize(SourceForm(ctx, xi2.components)), e.components),
            summand(linearize(e), xi2.components))


def _weighted(a: BilinearForm, w: Sequence[JetExpr]
              ) -> dict[tuple[int, MultiIndex], JetExpr]:
    """sum over i of w_i A^sigma_{ij}, keyed (j, sigma)."""
    acc: dict[tuple[int, MultiIndex], list[JetExpr]] = {}
    for (sigma, i, j), val in a.entries():
        acc.setdefault((j, sigma), []).append(mul(w[i], val))
    return {key: add_many(ps) for key, ps in acc.items()}


def first_summand_certificate(lag: Lagrangian, xi1: VerticalField,
                              xi2: VerticalField
                              ) -> dict[tuple[int, MultiIndex], JetExpr]:
    """Ideal-membership certificate for the first summand: coefficients
    c[(i, rho)] with S1 = sum c[(i, rho)] * D_rho(e_i).  With A the
    linearization of xi2,

        S1 = sum (-1)^{|sigma|} xi1^j D_sigma(A^sigma_{ij} e_i),

    and the Leibniz expansion of each D_sigma collects on D_rho(e_i) the
    coefficients of the adjoint: c[(i, rho)] = sum_j xi1^j (A*)^rho_{ji}."""
    a = linearize(SourceForm(lag.ctx, xi2.components))
    return {key: c for key, c in _weighted(adjoint(a), xi1.components).items()
            if not c.is_zero}


def reconstruct_from_certificate(src: SourceForm,
                                 cert: Mapping[tuple[int, MultiIndex], JetExpr]
                                 ) -> JetExpr:
    """sum cert[(i, rho)] * D_rho(e_i); equals S1 for a valid certificate."""
    d_e = _derivatives(src.components, list(cert), src.ctx)
    return add_many(mul(coef, d_e[i][rho]) for (i, rho), coef in cert.items())
