"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantity.  Run with ``pytest -v tests/test_acceptance.py``
(add ``-s`` to see the lines as they print).

Randomized criteria use fixed seeds, so the suite is deterministic.
"""

import math
import random

from jetvar import (JetContext, Lagrangian, NumericSection, SourceForm,
                    adjoint, check_critical, check_onshell_symmetry,
                    euler_lagrange, helmholtz, jacobi,
                    second_variation_check, total_derivative,
                    vertical_differential)
from jetvar.cli import main as cli_main
from jetvar.expr import ONE, ZERO, sin
from jetvar.multiindex import MultiIndex
from jetvar.numeric import first_variation_pair, rel_close
from jetvar.randgen import (random_base_polynomial, random_bilinear_form,
                            random_current, random_lagrangian,
                            random_vertical_field)
from jetvar.variational import (first_summand_certificate, hessian,
                                reconstruct_from_certificate,
                                second_variation_decomposition)

SEED = 20260809

CONTEXTS = [
    JetContext.make("t", "y"),
    JetContext.make("t", "y z"),
    JetContext.make("x1 x2", "y"),
    JetContext.make("x1 x2", "y z"),
]


def report(n, name, detail=""):
    print(f"ACCEPTANCE {n:02d} {name}: PASS {detail}".rstrip())


def test_01_geodesic_euler_lagrange():
    """EL of the metric Lagrangian reproduces the Christoffel form exactly."""
    ctx = JetContext.make(
        "t", "q1 q2",
        opaque={"g11": ["q1", "q2"], "g12": ["q1", "q2"], "g22": ["q1", "q2"]})
    qd = [ctx.jet("q1", "t"), ctx.jet("q2", "t")]
    qdd = [ctx.jet("q1", "t t"), ctx.jet("q2", "t t")]
    names = {(0, 0): "g11", (0, 1): "g12", (1, 0): "g12", (1, 1): "g22"}

    def g(a, b, d=None):
        orders = [0, 0]
        if d is not None:
            orders[d] += 1
        return ctx.opaque(names[(a, b)], tuple(orders))

    def gamma(a, b, c):
        return (g(a, c, b) + g(a, b, c) - g(b, c, a)) / 2

    density = sum((g(a, b) * qd[a] * qd[b]
                   for a in range(2) for b in range(2)), start=ZERO) / 2
    e = euler_lagrange(Lagrangian(ctx, density))
    for a in range(2):
        expected = -sum((g(a, b) * qdd[b] for b in range(2)), start=ZERO) \
            - sum((gamma(a, b, c) * qd[b] * qd[c]
                   for b in range(2) for c in range(2)), start=ZERO)
        assert (e.components[a] - expected).is_zero
    report(1, "geodesic Euler-Lagrange fixture", "(both components, exact)")


def test_02_exactness_50_random_lagrangians():
    """helmholtz(euler_lagrange(lambda)) == 0 identically, 50 instances."""
    rng = random.Random(SEED)
    for k in range(50):
        ctx = rng.choice(CONTEXTS)
        lag = random_lagrangian(rng, ctx, max_order=2, max_monomials=6)
        assert helmholtz(euler_lagrange(lag)).is_zero, f"instance {k}"
    report(2, "exactness", "(50 random Lagrangians, n<=2, m<=2, order<=2)")


def test_03_divergence_invariance_50_random_currents():
    """euler_lagrange(D_lam J^lam) == 0 identically, 50 instances."""
    rng = random.Random(SEED + 1)
    for k in range(50):
        ctx = rng.choice(CONTEXTS)
        current = random_current(rng, ctx, max_order=2)
        div = sum((total_derivative(j, ax, ctx)
                   for ax, j in enumerate(current)), start=ZERO)
        assert euler_lagrange(Lagrangian(ctx, div)).is_zero, f"instance {k}"
    report(3, "divergence triviality", "(50 random currents, order<=2)")


def test_04_non_variationality_detection(capsys):
    ctx = JetContext.make("t", "y")
    drift = SourceForm(ctx, (ctx.jet("y", "t"),))
    ht = helmholtz(drift)
    assert ht.component(MultiIndex((1,)), 0, 0) == 2
    assert len(ht.entries()) == 1
    assert not ht.is_zero
    curvature = SourceForm(ctx, (ctx.jet("y", "tt"),))
    assert helmholtz(curvature).is_zero
    # the CLI reports the same verdicts
    assert cli_main(["helmholtz", "problems/oscillator.vp",
                     "--source", "drift"]) == 0
    out = capsys.readouterr().out
    assert "H^{t}_{1 1} = 2" in out and "not locally variational" in out
    assert cli_main(["helmholtz", "problems/oscillator.vp",
                     "--source", "curvature"]) == 0
    assert "verdict: locally variational" in capsys.readouterr().out
    with capsys.disabled():
        report(4, "non-variationality detection",
               "(H^t_11 = 2 exactly; y_tt all-zero)")


def test_05_split_identity_20_random_instances():
    """S1 + S2 == hessian exactly and the tracked certificate rebuilds S1
    from D_rho(e_i) factors."""
    rng = random.Random(SEED + 2)
    for k in range(20):
        ctx = rng.choice([JetContext.make("t", "y"),
                          JetContext.make("t", "y z")])
        lag = random_lagrangian(rng, ctx, max_order=1, max_monomials=3)
        xi1 = random_vertical_field(rng, ctx)
        xi2 = random_vertical_field(rng, ctx)
        s1, s2 = second_variation_decomposition(lag, xi1, xi2)
        h = hessian(lag, xi1, xi2)
        assert (s1.density + s2.density - h.density).is_zero, f"instance {k}"
        cert = first_summand_certificate(lag, xi1, xi2)
        rebuilt = reconstruct_from_certificate(euler_lagrange(lag), cert)
        assert rebuilt == s1.density, f"instance {k}"
    report(5, "second-variation split identity",
           "(20 random (lagrangian, field, field) triples)")


def test_06_second_variation_theorem_numeric():
    ctx = JetContext.make("t", "y")
    t = ctx.base("t")
    lag = Lagrangian(ctx, (ctx.jet("y", "t") ** 2 - ctx.fiber("y") ** 2) / 2)
    sec = NumericSection(ctx, (sin(t),), [(0.0, math.pi)], nodes=64)
    rep = second_variation_check(lag, sec, (ONE,), (t,), step=1e-3)
    assert rel_close(rep.finite_difference,
                     rep.integral_vertical_differential, rel=1e-6)
    assert rel_close(rep.finite_difference, rep.integral_jacobi, rel=1e-6)
    report(6, "second-variation theorem (numeric)",
           f"(fd {rep.finite_difference:.9f} vs integral "
           f"{rep.integral_vertical_differential:.9f})")


def test_07_onshell_symmetry_and_exit_code(capsys):
    ctx = JetContext.make("t", "y")
    t = ctx.base("t")
    lag = Lagrangian(ctx, (ctx.jet("y", "t") ** 2 - ctx.fiber("y") ** 2) / 2)
    sec = NumericSection(ctx, (sin(t),), [(0.0, math.pi)], nodes=64)
    rep = check_onshell_symmetry(lag, sec, (ONE,), (t,))
    assert rel_close(rep.lhs, rep.rhs, rel=1e-6)

    ctx2 = JetContext.make("t", "q1 q2")
    t2 = ctx2.base("t")
    lag2 = Lagrangian(ctx2, (ctx2.jet("q1", "t") ** 2
                             + ctx2.jet("q2", "t") ** 2) / 2)
    sec2 = NumericSection(ctx2, (t2, 2 * t2), [(0.0, 1.0)], nodes=64)
    rep2 = check_onshell_symmetry(lag2, sec2, (ONE, t2), (t2, ONE + t2))
    assert rel_close(rep2.lhs, rep2.rhs, rel=1e-6)

    # deliberately non-critical section: nonzero first variation, exit 3
    bad = NumericSection(ctx, (t,), [(0.0, math.pi)], nodes=64)
    fd, integral = first_variation_pair(lag, bad, (ONE,))
    assert abs(fd) > 1e-3 and abs(integral) > 1e-3
    code = cli_main(["check-critical", "problems/oscillator.vp",
                     "--section", "bad"])
    capsys.readouterr()
    assert code == 3
    with capsys.disabled():
        report(7, "on-shell symmetry + non-critical exit",
               f"(osc diff {abs(rep.difference):.2e}, "
               f"flat diff {abs(rep2.difference):.2e}, exit 3 observed)")


def test_08_criticality_oracle_random_bumps():
    rng = random.Random(SEED + 3)
    ctx = JetContext.make("t", "y")
    t = ctx.base("t")
    lag = Lagrangian(ctx, (ctx.jet("y", "t") ** 2 - ctx.fiber("y") ** 2) / 2)
    sec = NumericSection(ctx, (sin(t),), [(0.0, math.pi)], nodes=64)
    worst = 0.0
    for _ in range(5):
        field = (random_base_polynomial(rng, ctx),)
        fd, _sym = first_variation_pair(lag, sec, field)
        worst = max(worst, abs(fd))
    assert worst <= 1e-8

    ctx2 = JetContext.make("t", "q1 q2")
    t2 = ctx2.base("t")
    lag2 = Lagrangian(ctx2, (ctx2.jet("q1", "t") ** 2
                             + ctx2.jet("q2", "t") ** 2) / 2)
    sec2 = NumericSection(ctx2, (3 * t2 + 1, t2), [(0.0, 1.0)], nodes=64)
    worst2 = 0.0
    for _ in range(5):
        field = tuple(random_base_polynomial(rng, ctx2) for _ in range(2))
        fd, _sym = first_variation_pair(lag2, sec2, field)
        worst2 = max(worst2, abs(fd))
    assert worst2 <= 1e-8
    report(8, "criticality oracle",
           f"(max |first variation| {max(worst, worst2):.2e} over 10 bumps)")


def test_09_higher_order_reach():
    ctx = JetContext.make("x", "y")
    x = ctx.base("x")
    lag = Lagrangian(ctx, ctx.jet("y", "xx") ** 2 / 2)
    e = euler_lagrange(lag)
    assert e.components == (ctx.jet("y", "xxxx"),)
    ve = vertical_differential(lag)
    assert ve.component(MultiIndex((4,)), 0, 0) == 1
    assert len(ve.entries()) == 1
    assert jacobi(lag) == ve
    sec = NumericSection(ctx, (x ** 3,), [(0.0, 1.0)], nodes=64)
    assert check_critical(lag, sec).max_residual < 1e-12
    rep = second_variation_check(lag, sec, (ONE,), (x,), step=1e-3)
    assert rel_close(rep.finite_difference,
                     rep.integral_vertical_differential, rel=1e-6)
    assert rel_close(rep.finite_difference, rep.integral_jacobi, rel=1e-6)
    report(9, "higher-order reach (fourth-order operator)",
           f"(fd {rep.finite_difference:.6f} vs "
           f"{rep.integral_vertical_differential:.6f})")


def test_10_adjoint_involution_50_random_forms():
    rng = random.Random(SEED + 4)
    for k in range(50):
        ctx = rng.choice(CONTEXTS)
        form = random_bilinear_form(rng, ctx, max_sigma_order=3)
        assert adjoint(adjoint(form)) == form, f"instance {k}"
    report(10, "adjoint involution", "(50 random bilinear forms, order<=3)")
