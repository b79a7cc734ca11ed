import inspect
import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jetvar import (JetContext, JetExpr, Lagrangian, NumericSection, action,
                    check_critical, check_onshell_symmetry, cli,
                    euler_lagrange, finite_diff_variation, numeric,
                    second_variation_check, total_derivative)
from jetvar.expr import (KNOWN_CONSTANTS, ONE, ZERO, Atom, BaseCoord,
                         ConstSym, ElemFn, InvSum, JetCoord, all_atoms, cos,
                         exp, partial, sin, sqrt, to_plain)
from jetvar.multiindex import MultiIndex, enumerate_up_to
from jetvar.numconfig import SETTINGS
from jetvar.numeric import (MAX_POINTS, NotCritical, NumericError,
                            bump_factor, compile_expr, first_variation_pair,
                            gauss_legendre, integrate_on_section, rel_close)
from jetvar.randgen import random_polynomial
from jetvar.textio import parse_expr
from jetvar.variational import linearize

seeds = st.integers(0, 10**9)


@pytest.fixture
def oscillator(ode_ctx):
    yt = ode_ctx.jet("y", "t")
    y = ode_ctx.fiber("y")
    return Lagrangian(ode_ctx, (yt ** 2 - y ** 2) / 2)


@pytest.fixture
def sin_section(ode_ctx):
    return NumericSection(ode_ctx, (sin(ode_ctx.base("t")),),
                          [(0.0, math.pi)], nodes=64)


# ---------------------------------------------------------------------------
# evaluation along sections
# ---------------------------------------------------------------------------


def test_eval_examples(ode_ctx, oscillator, sin_section):
    """A bound expression is its closed form along the section at every
    node: y_t = cos t and y_tt + y = 0 on sin t, E = -2 - t^2 on t^2."""
    yt = ode_ctx.jet("y", "t")
    y = ode_ctx.fiber("y")
    ytt = ode_ctx.jet("y", "tt")
    t = sin_section.grid()[0][:, 0]
    assert sin_section.bind(yt) == pytest.approx(np.cos(t))
    assert sin_section.bind(ytt + y) == pytest.approx(np.zeros_like(t))
    e = euler_lagrange(oscillator)
    quad = NumericSection(ode_ctx, (ode_ctx.base("t") ** 2,), [(0.0, math.pi)])
    t = quad.grid()[0][:, 0]
    assert quad.bind(e.components[0]) == pytest.approx(-2 - t ** 2)


def test_eval_domain_error(ode_ctx):
    from jetvar.expr import log
    t = ode_ctx.base("t")
    sec = NumericSection(ode_ctx, (t,), [(0.0, 1.0)])
    with pytest.raises(NumericError):
        sec.bind(log(0 - ode_ctx.fiber("y")))


def test_opaque_not_evaluable():
    ctx = JetContext.make("t", "q", opaque={"g": ["q"]})
    sec = NumericSection(ctx, (ctx.base("t"),), [(0.0, 1.0)])
    with pytest.raises(NumericError, match="has no numeric value"):
        sec.bind(ctx.opaque("g"))


def test_long_coefficient_is_its_float_value(ode_ctx):
    """A coefficient with more digits than the interpreter turns into
    text is its correctly rounded float: one beyond the float range is a
    NumericError when evaluated, in an expression or as the constant
    factor of a jet entry, and (10^5000 + 1)/10^5000 is 1.0."""
    y = ode_ctx.fiber("y")
    env = {ode_ctx.jet_atom("y"): np.array([0.5, -2.0])}
    f = compile_expr(JetExpr.constant(10 ** 5000) * y)
    with pytest.raises(NumericError, match="numeric evaluation failed"):
        f(env)
    sec = NumericSection(ode_ctx, (JetExpr.constant(10 ** 400)
                                   * ode_ctx.base("t"),), [(0.0, 1.0)])
    with pytest.raises(NumericError, match="numeric evaluation failed"):
        sec.bind(ode_ctx.jet("y", "t"))
    near_one = JetExpr.constant(Fraction(10 ** 5000 + 1, 10 ** 5000))
    got = compile_expr(near_one * y)(env)
    assert np.array_equal(got, compile_expr(y)(env))


def _reference_source(e: JetExpr, names: dict) -> str:
    """Python source of e over numpy (``_np``) and the coordinate values
    ``v``, as numpy evaluation was once generated and run by eval: the
    reference that compile_expr's term walk matches bit for bit."""
    if e.is_zero:
        return "0.0"
    parts = []
    for m, p, q in e._ratios():
        factors = [f"({p}/{q})"]
        for atom, k in m:
            if isinstance(atom, ElemFn):
                code = f"_np.{atom.fn}({_reference_source(atom.arg, names)})"
            elif isinstance(atom, InvSum):
                code = f"1.0/({_reference_source(atom.body, names)})"
            elif isinstance(atom, ConstSym):
                code = repr(KNOWN_CONSTANTS[atom.name])
            else:
                code = names.setdefault(atom, f"v[_a{len(names)}]")
            factors.append(f"({code})**{k}" if k != 1 else code)
        parts.append("*".join(factors))
    return " + ".join(parts)


def _reference(e: JetExpr):
    names = {}
    source = _reference_source(e, names)
    return eval(f"lambda v: {source}",
                {"_np": np, **{f"_a{k}": a for k, a in enumerate(names)}})


def _environments(e: JetExpr, rng: random.Random) -> list[dict]:
    """A scalar and an array environment for the coordinates of e, each
    value 0.0, -0.0 or uniform on [-1.5, 1.5]."""
    coords = sorted((a for a in all_atoms(e)
                     if isinstance(a, (BaseCoord, JetCoord))))

    def value():
        return rng.choice((0.0, -0.0, rng.uniform(-1.5, 1.5)))

    return [{a: value() for a in coords},
            {a: np.array([value() for _ in range(8)]) for a in coords}]


def _assert_evaluates_as_reference(e: JetExpr, envs: list[dict]):
    f, want_f = compile_expr(e), _reference(e)
    for env in envs:
        got, want = f(env), want_f(env)
        assert type(got) is type(want), to_plain(e)
        assert np.array_equal(got, want), to_plain(e)
        assert np.array_equal(np.signbit(got), np.signbit(want)), to_plain(e)


@pytest.mark.parametrize("seed", range(40))
def test_evaluation_matches_generated_source_bit_for_bit(pde_ctx, seed):
    """compile_expr gives the floats, signed zeros included, of the Python
    source that e once compiled to, on random polynomials and on the
    function atoms built from them."""
    rng = random.Random(seed)
    p1, p2, p3 = (random_polynomial(rng, pde_ctx) for _ in range(3))
    for e in (p1, p1 * sin(p2) + p3 / (2 + p1 ** 2),
              exp(p2 / 1000) * cos(p3) ** -1 - sqrt(1 + p1 ** 2)):
        _assert_evaluates_as_reference(e, _environments(e, rng))


# one expression per atom kind; -t is -0.0 at t = 0.0
ATOM_KIND_EXAMPLES = {
    "ConstSym": "pi*y - 7/3",
    "BaseCoord": "-t",
    "JetCoord": "2/3*y_t*y - y^3 + y_t",
    "ElemFn": "sin(1 + y^2)^-2 - cos(t)*exp(y_t/3) "
              "+ log(2 + t^2)^3*sqrt(1 + y^2)",
    "InvSum": "t/(1 + y^2) - 5/(2 + t)^3",
    "OpaqueFn": "sin(g(y))*g(t) + y",
}


def test_every_atom_kind_evaluates_or_is_refused():
    """compile_expr evaluates every atom kind as the reference does, at
    signed zeros too, or refuses it when called: an opaque function has
    no numeric value."""
    ctx = JetContext.make("t", "y", opaque={"g": ["y"]})
    assert {k.__name__ for k in Atom.__subclasses__()} == \
        set(ATOM_KIND_EXAMPLES)
    rng = random.Random(7)
    for kind, text in ATOM_KIND_EXAMPLES.items():
        e = parse_expr(text, ctx)
        assert kind in {type(a).__name__ for a in all_atoms(e)}
        if kind == "OpaqueFn":
            with pytest.raises(NumericError, match=r"^opaque function "
                               r"g\(y\) has no numeric value$"):
                compile_expr(e)
            continue
        zeros = {a: 0.0 for a in all_atoms(e)
                 if isinstance(a, (BaseCoord, JetCoord))}
        _assert_evaluates_as_reference(
            e, [zeros, *_environments(e, rng), *_environments(e, rng)])
    assert compile_expr(ZERO)({}) == 0.0


def test_section_validation(ode_ctx):
    with pytest.raises(ValueError):
        NumericSection(ode_ctx, (ode_ctx.jet("y", "t"),), [(0.0, 1.0)])
    with pytest.raises(ValueError):
        NumericSection(ode_ctx, (ode_ctx.base("t"),), [(1.0, 0.0)])


def test_grid_size_is_bounded(ode_ctx, pde_ctx):
    """More than MAX_POINTS quadrature points is refused before any grid
    is built; exactly MAX_POINTS is accepted."""
    t, u = ode_ctx.base("t"), pde_ctx.base("u")
    for ctx, e, n in ((ode_ctx, t, MAX_POINTS), (pde_ctx, u, 256)):
        box = [(0.0, 1.0)] * ctx.n
        assert n ** ctx.n == MAX_POINTS
        NumericSection(ctx, (e,), box, nodes=n)
        with pytest.raises(NumericError, match="quadrature points"):
            NumericSection(ctx, (e,), box, nodes=n + 1)
    with pytest.raises(NumericError):
        NumericSection(ode_ctx, (t,), [(0.0, 1.0)], nodes=10_000_000)


# ---------------------------------------------------------------------------
# action integrals
# ---------------------------------------------------------------------------


def test_action_examples(ode_ctx, oscillator, sin_section):
    t = ode_ctx.base("t")
    unit = NumericSection(ode_ctx, (t,), [(0.0, 1.0)])
    assert action(Lagrangian(ode_ctx, ONE), unit) == pytest.approx(1.0, abs=1e-12)
    yt = ode_ctx.jet("y", "t")
    assert action(Lagrangian(ode_ctx, yt ** 2 / 2), unit) == \
        pytest.approx(0.5, abs=1e-10)
    assert action(oscillator, sin_section) == pytest.approx(0.0, abs=1e-8)


def test_quadrature_convergence(ode_ctx):
    t = ode_ctx.base("t")
    from jetvar.expr import exp
    lag = Lagrangian(ode_ctx, exp(sin(ode_ctx.fiber("y"))))
    secs = {n: NumericSection(ode_ctx, (t,), [(0.0, 2.0)], nodes=n)
            for n in (8, 16, 64)}
    a8, a16, a64 = (action(lag, secs[n]) for n in (8, 16, 64))
    assert abs(a16 - a64) <= abs(a8 - a64) + 1e-15
    assert abs(a16 - a64) < 1e-10


def test_grid_is_deterministic(ode_ctx, pde_ctx):
    """Two sections built alike get bit-identical grids."""
    for ctx, e, nodes in ((ode_ctx, ode_ctx.base("t"), 1025),
                          (pde_ctx, pde_ctx.base("u"), 17)):
        box = [(0.5, 2.0)] * ctx.n
        p1, w1 = NumericSection(ctx, (e,), box, nodes=nodes).grid()
        p2, w2 = NumericSection(ctx, (e,), box, nodes=nodes).grid()
        assert p1.shape == (nodes ** ctx.n, ctx.n)
        assert np.array_equal(p1, p2) and np.array_equal(w1, w2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 17, 64, 127, 128, 255, 1024,
                               1025])
def test_gauss_legendre_rule(n):
    """Ascending symmetric nodes, positive symmetric weights summing to 2,
    and every even monomial of degree up to 2n - 1 integrated exactly."""
    x, w = gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0) and np.all(np.abs(x) < 1)
    assert np.array_equal(x, -x[::-1])
    assert np.all(w > 0) and np.array_equal(w, w[::-1])
    assert abs(math.fsum(w) - 2) <= 1e-14
    for k in range(1, n):   # 2k <= 2n - 1
        exact = 2 / (2 * k + 1)
        assert math.fsum(w * x ** (2 * k)) == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 64, 100, 123, 128])
def test_gauss_legendre_matches_golub_welsch(n):
    """The same rule as numpy's leggauss, the eigenvalue method of Golub
    and Welsch: nodes within 1e-15 absolute, weights within 5e-11
    relative.  leggauss's own weights are off by up to 2e-11 at n = 123
    against a 40-digit reference, so the weights are held to 1e-13 by
    the test below instead."""
    x, w = gauss_legendre(n)
    xr, wr = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - xr)) <= 1e-15
    assert np.max(np.abs(w - wr) / wr) <= 5e-11


def _multiprecision_node(mpmath, n, x):
    """The root of P_n next to the float x, and its weight, by Newton's
    method in 40-digit arithmetic."""
    with mpmath.workdps(40):
        xi = mpmath.mpf(float(x))
        for _ in range(3):
            p = mpmath.legendre(n, xi, maxterms=10 ** 6)
            q = mpmath.legendre(n - 1, xi, maxterms=10 ** 6)
            dp = n * (q - xi * p) / (1 - xi ** 2)
            xi -= p / dp
        return xi, 2 / ((1 - xi ** 2) * dp ** 2)


def _outer_nodes(n, k=10):
    """The k outermost nodes at each end: the rule takes about six of them
    at each end from the exact sum and the rest from the series, so these
    cover the switch on both sides."""
    return sorted(set(range(min(k, n))) | set(range(max(n - k, 0), n)))


@pytest.mark.parametrize("n", [17, 128, 255, 1024, 1025, 4096])
def test_gauss_legendre_matches_multiprecision(n):
    """The middle node and the outer ones, where the weights are hardest
    and where the rule switches from the exact sum to the series, against
    a 40-digit reference: nodes within 1e-15 absolute, weights within
    1e-13 relative."""
    mpmath = pytest.importorskip("mpmath")
    x, w = gauss_legendre(n)
    for i in sorted({n // 2, *_outer_nodes(n)}):
        xi, wi = _multiprecision_node(mpmath, n, x[i])
        assert abs(x[i] - xi) <= 1e-15
        assert abs(w[i] / wi - 1) <= 1e-13


@pytest.mark.parametrize("n", [0, -3])
def test_gauss_legendre_needs_a_node(n):
    with pytest.raises(ValueError, match="need at least one quadrature node"):
        gauss_legendre(n)


def test_gauss_legendre_at_the_point_cap():
    """A 1-D section may have MAX_POINTS nodes, and the rule for it is
    still exact to rounding: ascending symmetric nodes, positive weights
    summing to 2, outer nodes matching the 40-digit reference."""
    mpmath = pytest.importorskip("mpmath")
    n = MAX_POINTS
    x, w = gauss_legendre(n)
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
    assert np.all(w > 0) and np.array_equal(w, w[::-1])
    assert abs(math.fsum(w) - 2) <= 1e-13
    for i in _outer_nodes(n)[-10:]:
        xi, wi = _multiprecision_node(mpmath, n, x[i])
        assert abs(x[i] - xi) <= 1e-15
        assert abs(w[i] / wi - 1) <= 1e-13


@pytest.mark.parametrize("n, nodes", [
    (128, range(128)),
    (129, range(129)),
    (1024, random.Random(1024).sample(range(10, 1014), 16)),
    (4096, random.Random(4096).sample(range(10, 4086), 4))],
    ids=["128-all", "129-all", "1024-seeded", "4096-seeded"])
def test_gauss_legendre_nodes_match_multiprecision(n, nodes):
    """Every node of the first rules that take the series, and seeded
    interior nodes of larger ones (few at 4096, where the reference is
    slow inside the interval), each settled by one Newton step, against
    a 40-digit reference: nodes within 1e-15 absolute, weights within
    1e-13 relative."""
    mpmath = pytest.importorskip("mpmath")
    x, w = gauss_legendre(n)
    for i in nodes:
        xi, wi = _multiprecision_node(mpmath, n, x[i])
        assert abs(x[i] - xi) <= 1e-15
        assert abs(w[i] / wi - 1) <= 1e-13


@pytest.mark.parametrize("n", [1024, 2048])
def test_gauss_legendre_weights_after_the_longest_step(n):
    """The 31st to 34th nodes from the end, the first from Tricomi's
    guess, take the longest Newton steps relative to 1/n, about 8e-11 at
    n = 1024; with dP_n/dtheta carried over that step to first order
    only, their weights would be off by up to 4e-15.  They are within
    2e-15 of the 40-digit reference."""
    mpmath = pytest.importorskip("mpmath")
    x, w = gauss_legendre(n)
    for i in range(n - 34, n - 30):
        xi, wi = _multiprecision_node(mpmath, n, x[i])
        assert abs(w[i] / wi - 1) <= 2e-15


def test_bessel_zeros_table():
    """The tabulated zeros of J_0 behind Olver's guesses are the floats
    of the multiprecision ones."""
    mpmath = pytest.importorskip("mpmath")
    table = numeric._BESSEL_J0_ZEROS
    assert len(table) == 30
    for k, z in enumerate(table, start=1):
        assert z == float(mpmath.besseljzero(0, k))


@pytest.mark.parametrize("n", [1024, 65536])
def test_gauss_legendre_settles_in_one_sweep(monkeypatch, n):
    """Each set of nodes, the exact sum's near +-1 and the series' in
    between, is evaluated at most twice, and all evaluations together
    cover the n // 2 nodes Newton's method runs on (the middle node of an
    odd rule is exact) plus at most the 30 guessed from Bessel zeros."""
    sizes = {"_legendre_sum": [], "_legendre_series": []}
    for name, calls in sizes.items():
        def counted(theta, *args, evaluate=getattr(numeric, name),
                    calls=calls):
            calls.append(len(theta))
            return evaluate(theta, *args)
        monkeypatch.setattr(numeric, name, counted)
    gauss_legendre(n)
    assert all(1 <= len(calls) <= 2 for calls in sizes.values())
    evaluated = sum(map(sum, sizes.values()))
    assert n // 2 <= evaluated <= n // 2 + 30


def _constant_step(theta, *args):
    return np.ones_like(theta), np.ones_like(theta)


def _nan_step(theta, *args):
    return np.full_like(theta, np.nan), np.ones_like(theta)


@pytest.mark.parametrize("evaluator", [_constant_step, _nan_step])
@pytest.mark.parametrize("name, n", [("_legendre_sum", 7),
                                     ("_legendre_series", 1024)])
def test_gauss_legendre_that_never_settles_is_a_numeric_error(
        monkeypatch, evaluator, name, n):
    """Steps that never shrink, or are NaN, exhaust Newton's budget and
    raise NumericError; no node leaves the loop on a NaN."""
    monkeypatch.setattr(numeric, name, evaluator)
    with pytest.raises(NumericError, match=f"the {n}-point Gauss-Legendre "
                                           "rule did not converge"):
        gauss_legendre(n)


def test_unsettled_rule_exits_2_from_the_cli(monkeypatch, capsys,
                                             problems_dir):
    """Through the command line the same fault is exit 2 with its
    message and no traceback."""
    monkeypatch.setattr(numeric, "_legendre_sum", _constant_step)
    code = cli.main(["check-critical", str(problems_dir / "oscillator.vp"),
                     "--section", "sol", "--fields", "b1", "--nodes", "7"])
    err = capsys.readouterr().err
    assert code == 2
    assert "the 7-point Gauss-Legendre rule did not converge" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# criticality
# ---------------------------------------------------------------------------


def test_check_critical_examples(ode_ctx, plane_ctx, oscillator, sin_section):
    assert check_critical(oscillator, sin_section).max_residual < 1e-12
    bad = NumericSection(ode_ctx, (ode_ctx.base("t"),), [(0.0, math.pi)])
    rep = check_critical(oscillator, bad)
    # e = -(y + y_tt) along y = t is -t; max over interior nodes
    assert rep.max_residual == pytest.approx(math.pi, abs=1e-2)
    assert not rep.is_critical
    qt = plane_ctx.jet("q1", "t")
    q2t = plane_ctx.jet("q2", "t")
    free = Lagrangian(plane_ctx, (qt ** 2 + q2t ** 2) / 2)
    line = NumericSection(plane_ctx, (3 * plane_ctx.base("t") + 1,
                                      plane_ctx.base("t")), [(0.0, 1.0)])
    assert check_critical(free, line).max_residual < 1e-12


# the setting whose default each numeric keyword of the library takes
SETTING_OF_KEYWORD = {"nodes": "nodes", "step": "step", "tol": "tol",
                      "crit_tol": "tol", "rel": "tol"}


@pytest.mark.parametrize("fn", [
    NumericSection, finite_diff_variation, check_critical,
    check_onshell_symmetry, second_variation_check, first_variation_pair,
    numeric.OnshellSymmetryReport.symmetric,
    numeric.SecondVariationReport.consistent, rel_close])
def test_numeric_keyword_defaults_are_the_settings_defaults(fn):
    """Each nodes, step, tol, crit_tol and rel default of a section, check
    or verdict is its setting's default in numconfig.SETTINGS, as a
    command without the flag and a numeric block without the line take."""
    params = [p for p in inspect.signature(fn).parameters.values()
              if p.name in SETTING_OF_KEYWORD]
    assert params
    for p in params:
        default = SETTINGS[SETTING_OF_KEYWORD[p.name]][-1]
        assert (type(p.default), p.default) == (type(default), default), p


# ---------------------------------------------------------------------------
# finite-difference variations
# ---------------------------------------------------------------------------


def test_first_variation_critical(ode_ctx, oscillator, sin_section):
    t = ode_ctx.base("t")
    for comps in [(ONE,), (t,), (1 + t ** 2,)]:
        fd, sym = first_variation_pair(oscillator, sin_section, comps)
        assert abs(fd) < 1e-8
        assert abs(sym) < 1e-10


def test_first_variation_generic_matches_integral(ode_ctx, oscillator):
    t = ode_ctx.base("t")
    sec = NumericSection(ode_ctx, (t ** 2,), [(0.0, 1.0)])
    fd, sym = first_variation_pair(oscillator, sec, (1 + t,))
    # quadratic action: the central difference is exact up to roundoff
    assert math.isclose(fd, sym, rel_tol=1e-9, abs_tol=1e-9)


def test_first_variation_rate(ode_ctx):
    """Central differences converge at O(h^2) on a cubic action."""
    t = ode_ctx.base("t")
    y = ode_ctx.fiber("y")
    yt = ode_ctx.jet("y", "t")
    lag = Lagrangian(ode_ctx, y ** 3 + yt ** 2 / 2)
    sec = NumericSection(ode_ctx, (t,), [(0.0, 1.0)])
    _fd, exact = first_variation_pair(lag, sec, (ONE,), step=1e-5)
    errors = {}
    for h in (1e-2, 2e-2):
        fd, _ = first_variation_pair(lag, sec, (ONE,), step=h)
        errors[h] = abs(fd - exact)
    ratio = errors[2e-2] / errors[1e-2]
    assert 3.5 < ratio < 4.5


def test_richardson_extrapolation(ode_ctx):
    t = ode_ctx.base("t")
    y = ode_ctx.fiber("y")
    yt = ode_ctx.jet("y", "t")
    lag = Lagrangian(ode_ctx, y ** 4 + yt ** 2 / 2)
    sec = NumericSection(ode_ctx, (t,), [(0.0, 1.0)])
    _fd, exact = first_variation_pair(lag, sec, (ONE,), step=1e-6)

    def fd(h):
        return finite_diff_variation(lag, sec, ((ONE,),), step=h)

    err_plain = abs(fd(1e-2) - exact)
    err_rich = abs((4 * fd(5e-3) - fd(1e-2)) / 3 - exact)
    assert err_rich < err_plain / 10


def test_second_variation_theorem_oscillator(ode_ctx, oscillator, sin_section):
    t = ode_ctx.base("t")
    rep = second_variation_check(oscillator, sin_section, (ONE,), (t,))
    assert rep.consistent(rel=1e-6)
    assert rel_close(rep.finite_difference,
                     rep.integral_vertical_differential, rel=1e-6)
    assert rep.integral_vertical_differential == rep.integral_jacobi


def test_second_variation_theorem_beam():
    ctx = JetContext.make("x", "y")
    x = ctx.base("x")
    lag = Lagrangian(ctx, ctx.jet("y", "xx") ** 2 / 2)
    sec = NumericSection(ctx, (x ** 3,), [(0.0, 1.0)])
    rep = second_variation_check(lag, sec, (ONE,), (x,))
    assert rep.consistent(rel=1e-6)


def test_second_variation_refuses_noncritical(ode_ctx, oscillator):
    sec = NumericSection(ode_ctx, (ode_ctx.base("t"),), [(0.0, math.pi)])
    with pytest.raises(NotCritical):
        second_variation_check(oscillator, sec, (ONE,), (ONE,))


def test_fd_needs_fields(ode_ctx, oscillator, sin_section):
    """The variation order is the number of fields: one or two."""
    for fields in ((), ((ONE,),) * 3):
        with pytest.raises(ValueError, match="first and second"):
            finite_diff_variation(oscillator, sin_section, fields)


def test_fd_argument_validation(ode_ctx, oscillator, sin_section):
    with pytest.raises(ValueError, match="base coordinates"):
        finite_diff_variation(oscillator, sin_section,
                              ((ode_ctx.jet("y", "t"),),))
    with pytest.raises(ValueError, match="positive"):
        finite_diff_variation(oscillator, sin_section, ((ONE,),), step=0.0)


def test_fd_tiny_step_is_a_numeric_error(oscillator, sin_section):
    """A second variation whose step squares to zero divides by zero, and
    one whose square is subnormal can overflow: each is a NumericError."""
    with pytest.raises(NumericError, match="division by zero"):
        finite_diff_variation(oscillator, sin_section, ((ONE,), (ONE,)),
                              step=1e-170)
    big = (JetExpr.constant(10 ** 200),)
    with pytest.raises(NumericError, match="not finite"):
        finite_diff_variation(oscillator, sin_section, (big, big),
                              step=1e-160)


def test_fd_step_below_the_jets_resolution_is_a_numeric_error(
        ode_ctx, oscillator, sin_section):
    """A step so small that every j0 + step * j of some field rounds back
    to j0 varies no action, so the difference would read 0 whatever the
    truth: a NumericError naming the step.  A field whose jets all vanish
    varies nothing at any step, and reads 0 without complaint."""
    t = ode_ctx.base("t")
    faint = (JetExpr.constant(Fraction(1, 10 ** 300)),)
    for fields, step in ((((ONE,), (t,)), 1e-100), (((ONE,),), 1e-300),
                         (((ONE,), faint), 1e-3)):
        with pytest.raises(NumericError, match=f"step {step!r} is too small"):
            finite_diff_variation(oscillator, sin_section, fields, step=step)
    assert finite_diff_variation(oscillator, sin_section, ((ZERO,),),
                                 step=1e-300) == 0.0


@pytest.mark.parametrize("domain", [(0.0, 1.0), (100.0, 101.0)])
def test_fd_matches_actions_of_varied_sections(ode_ctx, domain):
    """The engine's finite differences of jet arrays equal central
    differences of the actions of explicitly built sections
    s + sum_k t_k * bump * xi_k, on a non-quadratic action; the field is
    xi weighted by the bump, whose per-axis factors, written in scaled
    coordinates, multiply to bump_factor rescaled."""
    t = ode_ctx.base("t")
    y, yt = ode_ctx.fiber("y"), ode_ctx.jet("y", "t")
    lag = Lagrangian(ode_ctx, y ** 4 + yt ** 2 / 2)
    sec = NumericSection(ode_ctx, (sin(t),), [domain])
    bump = bump_factor(ode_ctx, [domain])
    fields = ((ONE,), (t,))
    exprs, weight = sec._field(fields[1], lag.order)
    assert math.prod(weight, start=ONE) == sec._scaled(bump)
    assert exprs == (sec._scaled(t),)

    def a(*ts):
        varied = sin(t)
        for u, xi in zip(ts, fields):
            varied = varied + Fraction(u) * bump * xi[0]
        return action(lag, NumericSection(ode_ctx, (varied,), [domain]))

    def diff(i, h):
        if i == 1:
            return (a(h) - a(-h)) / (2 * h)
        return (a(h, h) - a(h, -h) - a(-h, h) + a(-h, -h)) / (4 * h * h)

    def fd(i, h):
        return finite_diff_variation(lag, sec, fields[:i], step=h)

    h = 1e-2
    for i in (1, 2):
        for richardson in (False, True):
            if richardson:
                ref = (4 * diff(i, h / 2) - diff(i, h)) / 3
                got = (4 * fd(i, h / 2) - fd(i, h)) / 3
            else:
                ref, got = diff(i, h), fd(i, h)
            assert math.isclose(got, ref, rel_tol=1e-9), (i, richardson)


def test_scaled_bump_is_the_rescaled_bump_factor(pde_ctx):
    domain = [(0.1, 0.7), (-3.0, 5.5)]
    sec = NumericSection(pde_ctx, (pde_ctx.base("u"),), domain)
    exprs, weight = sec._field((ONE,), 0)
    assert math.prod(weight, start=ONE) == \
        sec._scaled(bump_factor(pde_ctx, domain))
    assert exprs == (sec._scaled(ONE),)


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("domain", [[(0.0, 1.0)], [(100.0, 101.0)],
                                    [(1.0, 2.0), (-3.0, -1.5)]])
def test_leibniz_jets_match_expanded_bump_partials(ode_ctx, pde_ctx, domain,
                                                   field):
    """A bumped field's jet entries, taken by the Leibniz rule over the
    separable bump, equal the compiled exact partials of the expanded
    bump * xi at the nodes: every sigma up to order 9 in 1-D, past the
    bump's degree 8, and up to order 4 in 2-D."""
    ctx = ode_ctx if len(domain) == 1 else pde_ctx
    u, v = ctx.base(0), ctx.base(ctx.n - 1)
    xi = (ONE, 2 - u + 3 * v, 1 + u ** 2, sin(u) * v)[field]
    sec = NumericSection(ctx, (u,), domain, nodes=9)
    bumped = sec._scaled(bump_factor(ctx, domain) * xi)
    halves = [(Fraction(hi) - Fraction(lo)) / 2 for lo, hi in domain]
    for sigma in enumerate_up_to(ctx.n, 9 if ctx.n == 1 else 4):
        d = bumped
        for axis, h, count in zip(range(ctx.n), halves, sigma.counts):
            for _ in range(count):
                d = partial(d, ctx.base_atom(axis)) / JetExpr.constant(h)
        want = compile_expr(d)(sec._nodes)
        got = sec._jet(ctx.jet_atom(0, sigma), sec._field((xi,), 0))
        assert np.max(np.abs(got - want)) <= \
            1e-12 * np.max(np.abs(want)), sigma


def test_field_jets_compile_each_partial_once(ode_ctx, monkeypatch):
    """The jets of order 0-4 of the bumped field sin(t) evaluate the five
    bump derivatives and the four distinct partials of sin (the fourth is
    sin again) once each: 9 evaluations, where one per Leibniz term
    would be 20.  The same field built again evaluates nothing new
    and reads the very jet entries built first."""
    from jetvar import numeric
    calls = []
    original = numeric._evaluate
    monkeypatch.setattr(numeric, "_evaluate",
                        lambda e, env: calls.append(e) or original(e, env))
    sec = NumericSection(ode_ctx, (ode_ctx.base("t"),), [(0.0, 1.0)])
    jets = [[sec._jet(ode_ctx.jet_atom(0, (k,)),
                      sec._field((sin(ode_ctx.base("t")),), 0))
             for k in range(5)] for _ in range(2)]
    assert len(calls) == len(set(calls)) == 9
    assert all(a is b for a, b in zip(*jets))


def test_section_evaluates_each_entry_once(pde_ctx, monkeypatch):
    """A section keeps the values at the nodes of what it evaluates: a
    second integral of the same expression evaluates nothing, and the
    second-variation check evaluates every factor, jet entry and bound
    expression once; only the integrand runs once per action of the
    central difference, four times for two fields."""
    from jetvar import numeric
    calls = []
    original = numeric._value
    monkeypatch.setattr(numeric, "_value",
                        lambda e, env: calls.append(e) or original(e, env))
    u, v = pde_ctx.base("u"), pde_ctx.base("v")
    lag = Lagrangian(pde_ctx, (pde_ctx.jet("w", "u") ** 2
                               + pde_ctx.jet("w", "v") ** 2) / 2)
    box = [(0.0, 1.0), (0.0, 1.0)]
    sec = NumericSection(pde_ctx, (u * v,), box, nodes=8)
    first = integrate_on_section(lag.density, sec)
    assert calls
    calls.clear()
    assert integrate_on_section(lag.density, sec) == first
    assert calls == []
    sec = NumericSection(pde_ctx, (u * v,), box, nodes=8)
    second_variation_check(lag, sec, (ONE,), (1 + u * v,))
    counts = Counter(calls)
    assert counts.pop(sec._scaled(lag.density)) == 4
    assert set(counts.values()) == {1}


def test_bound_expression_and_jet_factor_share_one_table(ode_ctx,
                                                          monkeypatch):
    """A section keeps one table of values at its nodes: once the jet
    entry y of the section y = t^2 is taken, binding t^2 evaluates
    nothing, for its factor d_0 s = t^2 is already there."""
    from jetvar import numeric
    t = ode_ctx.base("t")
    sec = NumericSection(ode_ctx, (t ** 2,), [(0.0, 1.0)], nodes=8)
    sec._jet(ode_ctx.jet_atom(0))
    calls = []
    original = numeric._value
    monkeypatch.setattr(numeric, "_value",
                        lambda e, env: calls.append(e) or original(e, env))
    got = sec.bind(t ** 2)
    assert calls == []
    assert got == pytest.approx(sec.grid()[0][:, 0] ** 2, rel=1e-14)


def test_section_jet_entry_is_its_value_array(ode_ctx):
    """A Leibniz sum of one unit-coefficient factor is that factor's array
    in the value table, not a 1.0 * values copy."""
    t = ode_ctx.base("t")
    sec = NumericSection(ode_ctx, (t ** 2,), [(0.0, 1.0)], nodes=8)
    assert sec._jet(ode_ctx.jet_atom(0)) is sec.bind(t ** 2)


def test_no_jet_factor_is_walked_for_opaque_functions(pde_ctx, monkeypatch):
    """A second-variation check on 2-D Laplace walks for opaque functions
    only what enters it from outside: the components of the section and of
    both fields, the density, and the E components and V entries it binds,
    all as written, and the scaled density it compiles; never a derivative
    of a component or of a bump factor, which cannot hold one.  (No
    expression here has a function atom, so every walk is a top-level
    one.)"""
    from jetvar import numeric
    walked = []
    original = numeric._refuse_opaque
    monkeypatch.setattr(numeric, "_refuse_opaque",
                        lambda e: walked.append(e) or original(e))
    u, v = pde_ctx.base("u"), pde_ctx.base("v")
    lag = Lagrangian(pde_ctx, (pde_ctx.jet("w", "u") ** 2
                               + pde_ctx.jet("w", "v") ** 2) / 2)
    xi1, xi2 = (ONE,), (1 + u * v,)
    sec = NumericSection(pde_ctx, (u * v,), [(0.0, 1.0), (0.0, 1.0)],
                         nodes=8)
    second_variation_check(lag, sec, xi1, xi2)
    e = euler_lagrange(lag)
    bound = ([lag.density] + list(e.components)
             + [val for _key, val in linearize(e).entries()])
    allowed = set(sec.exprs + xi1 + xi2 + tuple(bound)) | {
        sec._scaled(lag.density)}
    assert walked and set(walked) <= allowed
    assert lag.density in walked


@pytest.mark.parametrize("density, section, field, refused_at, message", [
    # the Lagrangian's opaque g before the section's pole at the node 1/2
    ("y_t^2/2 + g(y) + z_t^2", ("1/(t - 1/2)", "t"), None, "bind", "g(y)"),
    # the second component's opaque f, as written, before the first one's
    # pole: the section is refused when it is built
    ("y_t^2/2 + y*z + z_t^2", ("1/(t - 1/2)", "f(t)"), None, "section",
     "f(t)"),
    # with the Lagrangian's g too, the section is still refused first
    ("y_t^2/2 + g(y) + z_t^2", ("1/(t - 1/2)", "f(t)"), None, "section",
     "f(t)"),
    # a bumped field's opaque f before the section's pole: the field is
    # refused when it is built
    ("y_t^2/2 + y*z + z_t^2", ("1/(t - 1/2)", "t"), ("1", "f(t)"), "field",
     "f(t)"),
    # the Lagrangian's opaque f of a base coordinate before the section's
    # pole, named as written, not in the box's scaled coordinates: when the
    # density is bound, and when the finite difference takes it
    ("f(t)*y_t^2 + z_t^2", ("1/(t - 1/2)", "t"), None, "bind", "f(t)"),
    ("f(t)*y_t^2 + z_t^2", ("1/(t - 1/2)", "t"), ("1", "t"), "difference",
     "f(t)"),
])
def test_opaque_refusal_precedes_evaluation_faults(density, section, field,
                                                   refused_at, message):
    """An opaque function is refused before any value is taken, so a
    fault elsewhere does not hide it: one in a section's or bumped
    field's components when the section or field is built, and one in a
    bound expression or in the density of a finite difference when it is
    bound or differenced, each naming the atom as written."""
    ctx = JetContext.make("t", "y z", opaque={"f": ["t"], "g": ["y"]})
    lag = Lagrangian(ctx, parse_expr(density, ctx))
    refused = pytest.raises(NumericError, match=re.escape(
        f"opaque function {message} has no numeric value"))
    exprs = [parse_expr(c, ctx) for c in section]
    if refused_at == "section":
        with refused:
            NumericSection(ctx, exprs, [(0.0, 1.0)], nodes=7)
        return
    sec = NumericSection(ctx, exprs, [(0.0, 1.0)], nodes=7)
    with refused:
        if refused_at == "bind":
            integrate_on_section(lag.density, sec)
        else:
            finite_diff_variation(
                lag, sec, [tuple(parse_expr(c, ctx) for c in field)])
    assert sec._evaluated == {} and sec._jets == {}


def test_first_variation_pair_builds_its_field_once(oscillator, sin_section,
                                                    monkeypatch):
    """The finite difference and the pairing with E read one bumped
    field."""
    calls = []
    original = NumericSection._field
    monkeypatch.setattr(NumericSection, "_field",
                        lambda self, *a: calls.append(a) or original(self, *a))
    first_variation_pair(oscillator, sin_section, (ONE,))
    assert len(calls) == 1


@pytest.mark.parametrize("base, sigmas, section, xi1, xi2, nodes", [
    ("t", [(5,)], "t^9", "1", "t", 16),
    ("t", [(6,)], "t^11", "1", "t", 16),
    # orders 5 along t and 6 along x, with a mixed term
    ("t x", [(5, 0), (0, 6), (1, 1)], "t^3*x + x^5*t", "1 + t*x", "t - x",
     32),
])
def test_bumped_checks_cover_lagrangians_past_order_four(
        bumped_pairing, base, sigmas, section, xi1, xi2, nodes):
    """Past order 4 the bump's exponent is the Lagrangian's order r, so the
    boundary terms still vanish on the critical section: for
    L = sum 1/2 (y_sigma)^2 on [0, 1]^n the finite difference and both
    integrals give the exact second variation, the first variation
    vanishes, and V is symmetric on shell."""
    ctx = JetContext.make(base, "y")
    lag = Lagrangian(ctx, sum((ctx.jet("y", MultiIndex(s)) ** 2 / 2
                               for s in sigmas), ZERO))
    sec = NumericSection(ctx, (parse_expr(section, ctx),), [(0.0, 1.0)] * ctx.n,
                         nodes=nodes)
    fields = tuple((parse_expr(xi, ctx),) for xi in (xi1, xi2))
    exact = float(bumped_pairing(base, sigmas, xi1, xi2, lag.order))
    rep = second_variation_check(lag, sec, *fields)
    assert rep.consistent()
    assert math.isclose(rep.integral_vertical_differential, exact,
                        rel_tol=1e-9)
    assert math.isclose(rep.integral_jacobi, exact, rel_tol=1e-9)
    assert rel_close(finite_diff_variation(lag, sec, fields), exact)
    assert check_onshell_symmetry(lag, sec, *fields).symmetric()
    for xi in fields:
        fd, integral = first_variation_pair(lag, sec, xi)
        assert abs(fd) <= 1e-12 * abs(exact) and integral == 0.0


# ---------------------------------------------------------------------------
# on-shell symmetry
# ---------------------------------------------------------------------------


def test_onshell_symmetry_oscillator(ode_ctx, oscillator, sin_section):
    t = ode_ctx.base("t")
    rep = check_onshell_symmetry(oscillator, sin_section, (ONE,), (t,))
    assert rep.symmetric(rel=1e-6)
    assert abs(rep.difference) <= 1e-6 * max(abs(rep.lhs), 1.0)
    # pointwise the contractions differ by a divergence
    assert rep.pointwise_max > 1e-3


def test_onshell_symmetry_same_field(ode_ctx, oscillator, sin_section):
    rep = check_onshell_symmetry(oscillator, sin_section, (ONE,), (ONE,))
    assert rep.difference == 0.0
    assert rep.pointwise_max == 0.0


def test_onshell_symmetry_flat_geodesics(plane_ctx):
    t = plane_ctx.base("t")
    q1t = plane_ctx.jet("q1", "t")
    q2t = plane_ctx.jet("q2", "t")
    lag = Lagrangian(plane_ctx, (q1t ** 2 + q2t ** 2) / 2)
    sec = NumericSection(plane_ctx, (t, 2 * t), [(0.0, 1.0)])
    rep = check_onshell_symmetry(lag, sec, (ONE, t), (t, 1 + t))
    assert rep.symmetric(rel=1e-6)


def test_onshell_symmetry_refuses_noncritical(ode_ctx, oscillator):
    sec = NumericSection(ode_ctx, (ode_ctx.base("t") ** 2,), [(0.0, 1.0)])
    with pytest.raises(NotCritical) as err:
        check_onshell_symmetry(oscillator, sec, (ONE,), (ONE,))
    assert err.value.report.max_residual > 1e-3


# ---------------------------------------------------------------------------
# contact compatibility and the bump factor
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_contact_compatibility(seed):
    """Along a prolonged section the total derivative agrees with the
    base derivative of the restriction (finite-difference check): on the
    box shifted by +-h every node moves by +-h."""
    rng = random.Random(seed)
    ctx = JetContext.make("t", "y")
    f = random_polynomial(rng, ctx, max_order=2, max_monomials=3)
    t = ctx.base("t")
    h = 1e-6

    def along(e, shift):
        sec = NumericSection(ctx, (sin(t) + t ** 2 / 3,),
                             [(shift, 2.0 + shift)])
        return sec.bind(e)

    approx = (along(f, h) - along(f, -h)) / (2 * h)
    exact = along(total_derivative(f, 0, ctx), 0.0)
    assert np.all(np.abs(approx - exact)
                  < 1e-6 * np.maximum(1.0, np.abs(exact)))


def test_bump_factor_properties(ode_ctx):
    bump = bump_factor(ode_ctx, [(0.0, 2.0)])
    t = ode_ctx.base_atom(0)
    assert float(compile_expr(bump)({t: 1.0})) == pytest.approx(1.0)
    for pt in (0.0, 2.0):
        assert float(compile_expr(bump)({t: pt})) == 0.0
    d3 = bump
    for _ in range(3):
        d3 = total_derivative(d3, 0, ode_ctx)
    assert float(compile_expr(d3)({t: 0.0})) == pytest.approx(0.0, abs=1e-12)


def test_integrate_on_section_matches_action(ode_ctx, oscillator, sin_section):
    assert integrate_on_section(oscillator.density, sin_section) == \
        action(oscillator, sin_section)


# ---------------------------------------------------------------------------
# two base variables
# ---------------------------------------------------------------------------


def test_action_2d_volume_and_product(pde_ctx):
    u = pde_ctx.base("u")
    v = pde_ctx.base("v")
    box = [(0.0, 1.0), (0.0, 2.0)]
    sec = NumericSection(pde_ctx, (u * v,), box, nodes=16)
    assert action(Lagrangian(pde_ctx, ONE), sec) == pytest.approx(2.0)
    wu = pde_ctx.jet("w", "u")
    wv = pde_ctx.jet("w", "v")
    # w = uv gives w_u w_v = uv; integral over the box is 1
    assert action(Lagrangian(pde_ctx, wu * wv), sec) == pytest.approx(1.0)


def test_laplace_2d_criticality_and_first_variation(pde_ctx):
    u = pde_ctx.base("u")
    v = pde_ctx.base("v")
    wu = pde_ctx.jet("w", "u")
    wv = pde_ctx.jet("w", "v")
    lag = Lagrangian(pde_ctx, (wu ** 2 + wv ** 2) / 2)
    harmonic = NumericSection(pde_ctx, (u ** 2 - v ** 2,),
                              [(0.0, 1.0), (0.0, 1.0)], nodes=24)
    assert check_critical(lag, harmonic).max_residual < 1e-12
    fd, sym = first_variation_pair(lag, harmonic, (1 + u * v,))
    assert abs(fd) < 1e-8 and abs(sym) < 1e-10
    bent = NumericSection(pde_ctx, (u ** 2,), [(0.0, 1.0), (0.0, 1.0)],
                          nodes=24)
    assert check_critical(lag, bent).max_residual == pytest.approx(2.0)


def test_second_variation_2d(pde_ctx):
    u = pde_ctx.base("u")
    v = pde_ctx.base("v")
    wu = pde_ctx.jet("w", "u")
    wv = pde_ctx.jet("w", "v")
    lag = Lagrangian(pde_ctx, (wu ** 2 + wv ** 2) / 2)
    harmonic = NumericSection(pde_ctx, (u * v,), [(0.0, 1.0), (0.0, 1.0)],
                              nodes=24)
    rep = second_variation_check(lag, harmonic, (ONE,), (u + v,))
    assert rep.consistent(rel=1e-6)


def test_inverse_sum_evaluates(ode_ctx):
    y = ode_ctx.fiber("y")
    val = float(compile_expr(ONE / (1 + y ** 2))({ode_ctx.jet_atom(0): 2.0}))
    assert val == pytest.approx(1 / 5)


def _off_origin_problem(case):
    """(Lagrangian, critical section, field pair) on a box far from the
    origin, where bump polynomials expanded in raw coordinates carry
    huge cancelling coefficients."""
    if case == "oscillator":
        ctx = JetContext.make("t", "y")
        t = ctx.base("t")
        lag = Lagrangian(ctx, (ctx.jet("y", "t") ** 2 - ctx.fiber("y") ** 2) / 2)
        return lag, NumericSection(ctx, (sin(t),), [(100.0, 101.0)]), (t,)
    if case == "beam":
        ctx = JetContext.make("x", "y")
        x = ctx.base("x")
        lag = Lagrangian(ctx, ctx.jet("y", "xx") ** 2 / 2)
        return lag, NumericSection(ctx, (x ** 3,), [(20.0, 21.0)]), (x,)
    ctx = JetContext.make("u v", "w")
    u, v = ctx.base("u"), ctx.base("v")
    lag = Lagrangian(ctx, (ctx.jet("w", "u") ** 2 + ctx.jet("w", "v") ** 2) / 2)
    sec = NumericSection(ctx, (u * v,), [(5.0, 6.0), (5.0, 6.0)], nodes=16)
    return lag, sec, (u + v,)


@pytest.mark.parametrize("case", ["oscillator", "beam", "laplace"])
def test_off_origin_accuracy(case):
    lag, sec, xi2 = _off_origin_problem(case)
    rep = second_variation_check(lag, sec, (ONE,), xi2)
    assert rep.consistent(rel=1e-6)
    for xi in ((ONE,), xi2):
        fd, sym = first_variation_pair(lag, sec, xi)
        assert abs(fd) < 1e-8 and abs(sym) < 1e-8
