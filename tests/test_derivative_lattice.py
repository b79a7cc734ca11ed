"""The derivative lattice: every D_tau taken once per call, each from its
parent by one total derivative.  The adjoint and the Euler operator are
checked against the rho-by-rho and sigma-by-sigma formulas they replace,
and pinned by a digest recorded before they used the lattice."""

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from jetvar import jetcalc, variational
from jetvar.expr import (JetContext, JetExpr, ZERO, add_many, cos, exp, mul,
                         sin, sqrt)
from jetvar.jetcalc import (derivative_lattice, lattice_edges,
                            total_derivative_multi)
from jetvar.multiindex import MultiIndex, enumerate_up_to
from jetvar.randgen import (random_lagrangian, random_polynomial,
                            random_vertical_field)
from jetvar.variational import (BilinearForm, Lagrangian, SourceForm,
                                _euler_operator, adjoint, contract,
                                euler_lagrange, helmholtz, jacobi)


def _corpus():
    """Seeded Lagrangians and source forms for n <= 3, m <= 2 and jet
    order <= 3, then the minimal surface (a sqrt density) and a geodesic
    Lagrangian with an opaque metric."""
    rng = random.Random(20261018)
    for n, m, r in itertools.product((1, 2, 3), (1, 2), (1, 2, 3)):
        ctx = JetContext.make(["x", "y", "z"][:n], ["u", "v"][:m])
        for _ in range(2):
            # the square of one order-r coordinate pins the jet order to r
            top = ctx.jet(rng.randrange(m), rng.choice(
                [s for s in enumerate_up_to(n, r) if s.order() == r]))
            lag = random_lagrangian(rng, ctx, max_order=r, max_monomials=4)
            lag = Lagrangian(ctx, lag.density + top ** 2 / 2)
            src = SourceForm(ctx, tuple(
                random_polynomial(rng, ctx, max_order=r, max_monomials=3,
                                  max_factors=2)
                for _ in range(m)))
            yield lag, src
    ctx = JetContext.make("u v", "w")
    wu, wv = ctx.jet("w", "u"), ctx.jet("w", "v")
    lag = Lagrangian(ctx, sqrt(1 + wu ** 2 + wv ** 2))
    yield lag, euler_lagrange(lag)
    ctx = JetContext.make(
        "t", "q1 q2",
        opaque={"g11": ["q1", "q2"], "g12": ["q1", "q2"], "g22": ["q1", "q2"]})
    qd = [ctx.jet("q1", "t"), ctx.jet("q2", "t")]
    g = [[ctx.opaque("g11", (0, 0)), ctx.opaque("g12", (0, 0))],
         [ctx.opaque("g12", (0, 0)), ctx.opaque("g22", (0, 0))]]
    lag = Lagrangian(ctx, sum((g[a][b] * qd[a] * qd[b] for a in range(2)
                               for b in range(2)), start=ZERO) / 2)
    yield lag, euler_lagrange(lag)


# recorded with adjoint taking D_(sigma - rho) afresh for every rho
ADJOINT_DIGEST = ("71c4da0901c1c557c890efef425a7cdf"
                  "662d0497613566fe5e356c3d24c36132")


def test_helmholtz_jacobi_adjoint_digest():
    """Helmholtz, Jacobi and the adjoint of the Jacobi morphism print the
    same, byte for byte, as when the digest was recorded."""
    lines = []
    for lag, src in _corpus():
        jac = jacobi(lag)
        lines += [repr(helmholtz(src)), repr(jac), repr(adjoint(jac))]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ADJOINT_DIGEST


# ---------------------------------------------------------------------------
# the formulas the lattice replaced, as references
# ---------------------------------------------------------------------------


def _reference_adjoint(a: BilinearForm) -> BilinearForm:
    """(A*)^rho_ji = sum (-1)^|sigma| C(sigma, rho) D_(sigma-rho) A^sigma_ij,
    each D_(sigma-rho) taken afresh for every rho."""
    acc = {}
    for (sigma, i, j), val in a.entries():
        sign = -1 if sigma.order() % 2 else 1
        for rho in itertools.product(*(range(c + 1) for c in sigma)):
            rest = MultiIndex([s - r for s, r in zip(sigma, rho)])
            t = mul(JetExpr.constant(sign * math.prod(map(math.comb, sigma,
                                                          rho))),
                    total_derivative_multi(val, rest, a.ctx))
            acc.setdefault((MultiIndex(rho), j, i), []).append(t)
    return BilinearForm(a.ctx, {k: add_many(v) for k, v in acc.items()})


def _reference_euler_operator(pieces, ctx) -> SourceForm:
    """sum (-1)^|sigma| D_sigma(p_(i, sigma)), each D_sigma taken whole."""
    comps = [[] for _ in range(ctx.m)]
    for (i, sigma), p in pieces.items():
        t = total_derivative_multi(p, sigma, ctx)
        comps[i].append(-t if sigma.order() % 2 else t)
    return SourceForm(ctx, tuple(add_many(ps) for ps in comps))


_CONTEXTS = (
    JetContext.make("x", "u", opaque={"f": ["x", "u"]}),
    JetContext.make("x y", "u v", opaque={"f": ["x", "u"]}),
    JetContext.make("x y z", "u", opaque={"f": ["x", "u"]}),
)


def _coefficient(rng: random.Random, ctx: JetContext) -> JetExpr:
    """A small polynomial times an elementary function, an opaque function
    or an inverse sum of jet coordinates of order <= 1."""
    poly = random_polynomial(rng, ctx, max_order=1, max_monomials=2,
                             max_factors=2, max_power=2)
    u_x = ctx.jet(0, MultiIndex((1,) + (0,) * (ctx.n - 1)))
    x, u = ctx.base(0), ctx.fiber(0)
    atom = rng.choice([sin(u_x), cos(x * u), exp(u), sqrt(1 + u_x ** 2),
                       ctx.opaque("f"), ctx.opaque("f", (1, 0)),
                       1 / (1 + u ** 2), 1 / (x + u_x)])
    return poly * atom if not poly.is_zero else atom


def _random_form(rng: random.Random) -> BilinearForm:
    ctx = rng.choice(_CONTEXTS)
    sigmas = enumerate_up_to(ctx.n, 4)
    comps = {}
    for _ in range(rng.randint(1, 3)):
        key = (rng.choice(sigmas), rng.randrange(ctx.m), rng.randrange(ctx.m))
        comps[key] = _coefficient(rng, ctx)
    return BilinearForm(ctx, comps)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_adjoint_matches_rho_by_rho_formula(seed):
    """Exact equality with the formula that takes every D_(sigma-rho)
    afresh, on entries of order <= 4 with elementary, opaque and
    inverse-sum coefficients."""
    a = _random_form(random.Random(seed))
    assert adjoint(a) == _reference_adjoint(a)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_euler_operator_matches_flat_sum(seed):
    """The nested Euler operator equals the sum of its pieces' D_sigma,
    each taken whole, on pieces of order <= 4."""
    a = _random_form(random.Random(seed))
    pieces = {(j, sigma): val for (sigma, _i, j), val in a.entries()}
    assert _euler_operator(pieces, a.ctx) == \
        _reference_euler_operator(pieces, a.ctx)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9))
def test_contract_matches_entry_by_entry_formula(seed):
    """contract equals sum A^sigma_ij xi1^i D_sigma(xi2^j) with each
    D_sigma taken whole."""
    rng = random.Random(seed)
    a = _random_form(rng)
    xi1, xi2 = (random_vertical_field(rng, a.ctx, max_order=1)
                for _ in range(2))
    want = add_many(
        mul(val, mul(xi1.components[i],
                     total_derivative_multi(xi2.components[j], sigma, a.ctx)))
        for (sigma, i, j), val in a.entries())
    assert contract(xi1, xi2, a) == want


def _counting_total_derivatives(monkeypatch) -> list:
    """The axis of every total derivative taken from now on, in jetcalc
    and in variational, which imports it by name."""
    calls = []
    original = jetcalc.total_derivative

    def counted(e, axis, ctx):
        calls.append(axis)
        return original(e, axis, ctx)

    for module in (jetcalc, variational):
        monkeypatch.setattr(module, "total_derivative", counted)
    return calls


@pytest.mark.parametrize("counts", [(0,), (4,), (2, 1), (0, 3), (1, 2, 1),
                                    (2, 0, 2)])
def test_one_entry_costs_its_box(monkeypatch, counts):
    """The adjoint of one entry at sigma takes prod(sigma_a + 1) - 1 total
    derivatives: one per tau <= sigma but the zero index."""
    ctx = JetContext.make(["x", "y", "z"][:len(counts)], "u")
    sigma = MultiIndex(counts)
    val = ctx.base(0) * ctx.fiber(0) + sin(ctx.fiber(0))
    calls = _counting_total_derivatives(monkeypatch)
    adjoint(BilinearForm(ctx, {(sigma, 0, 0): val}))
    assert len(calls) == math.prod(c + 1 for c in counts) - 1


def test_euler_operator_takes_one_derivative_per_node(monkeypatch):
    """Pieces at (2, 1), (1, 1) and (0, 2) share the chain
    (1, 1) -> (0, 1) -> 0 of the parent rule: four total derivatives,
    where one D_sigma per piece would take seven."""
    ctx = JetContext.make("x y", "u")
    sigmas = [MultiIndex((2, 1)), MultiIndex((1, 1)), MultiIndex((0, 2))]
    pieces = {(0, s): ctx.jet(0, s) ** 2 for s in sigmas}
    assert len(lattice_edges(sigmas)) == 4
    calls = _counting_total_derivatives(monkeypatch)
    _euler_operator(pieces, ctx)
    assert len(calls) == 4


def test_lattice_edges_follow_the_parent_rule():
    """Each edge lowers tau on its first nonzero axis, every parent comes
    before its children, and the closure of a box is the box."""
    sigma = MultiIndex((1, 2, 1))
    box = [tau for tau, _r, _b in sigma.splits()]
    edges = lattice_edges(box)
    assert {tau for tau, _a, _p in edges} == set(box) - {MultiIndex.zero(3)}
    seen = {MultiIndex.zero(3)}
    for tau, axis, parent in edges:
        assert parent in seen
        assert axis == min(a for a, c in enumerate(tau.counts) if c)
        assert parent.bump(axis) == tau
        seen.add(tau)


def test_derivative_lattice_agrees_with_total_derivative_multi():
    ctx = JetContext.make("x y", "u v")
    e = sin(ctx.jet("u", "x")) * ctx.fiber("v") + ctx.base("y") ** 2
    targets = enumerate_up_to(2, 3)
    lattice = derivative_lattice(e, targets, ctx)
    assert set(lattice) == set(targets)
    for tau in targets:
        assert lattice[tau] == total_derivative_multi(e, tau, ctx)
