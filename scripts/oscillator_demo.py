"""End-to-end walkthrough on the harmonic oscillator: Euler-Lagrange
form, Helmholtz verdicts, Jacobi morphism, and the numeric checks of
criticality, the second-variation theorem, and on-shell symmetry.

    python scripts/oscillator_demo.py
"""

import math

from jetvar import (JetContext, Lagrangian, NumericSection, SourceForm,
                    check_critical, check_onshell_symmetry, euler_lagrange,
                    helmholtz, jacobi, print_object, second_variation_check,
                    vertical_differential)
from jetvar.expr import ONE, sin
from jetvar.numconfig import SETTINGS
from jetvar.numeric import first_variation_pair


def main():
    ctx = JetContext.make("t", "y")
    t = ctx.base("t")
    y = ctx.fiber("y")
    yt = ctx.jet("y", "t")
    lag = Lagrangian(ctx, (yt ** 2 - y ** 2) / 2)

    print("Lagrangian density:", print_object(lag.density))
    e = euler_lagrange(lag)
    print("Euler-Lagrange form:", print_object(e))

    print("\nHelmholtz obstruction of e = y_t (not variational):")
    print(print_object(helmholtz(SourceForm(ctx, (yt,))), name="H"))
    print("Helmholtz obstruction of the EL form (vanishes):",
          "0" if helmholtz(e).is_zero else "NONZERO?!")

    ve = vertical_differential(lag)
    jac = jacobi(lag)
    print("\nVertical differential:")
    print(print_object(ve, name="V"))
    print("Jacobi morphism equals it:", jac == ve)

    sec = NumericSection(ctx, (sin(t),), [(0.0, math.pi)], nodes=64)
    crit = check_critical(lag, sec)
    print(f"\nCriticality of y = sin t on [0, pi]: "
          f"max |e| = {crit.max_residual:.3e}")
    for comps in [(ONE,), (t,)]:
        fd, integral = first_variation_pair(lag, sec, comps)
        print(f"  first variation (bump field {print_object(comps[0])}): "
              f"fd = {fd:+.3e}, integral = {integral:+.3e}")

    rep = second_variation_check(lag, sec, (ONE,), (t,))
    print("\nSecond variation along the critical section:")
    print(f"  finite differences        : {rep.finite_difference:.10f}")
    print(f"  integral against V        : "
          f"{rep.integral_vertical_differential:.10f}")
    print(f"  integral against Jacobi   : {rep.integral_jacobi:.10f}")
    label = f"consistent at {SETTINGS['tol'][-1]:g} rel"
    print(f"  {label:<26}: {rep.consistent()}")

    sym = check_onshell_symmetry(lag, sec, (ONE,), (t,))
    print("\nOn-shell symmetry of the vertical differential:")
    print(f"  swapped-field integrals   : {sym.lhs:.10f} vs {sym.rhs:.10f}")
    print(f"  difference                : {sym.difference:+.3e}")
    print(f"  pointwise |difference|    : {sym.pointwise_max:.3e} "
          f"(a divergence; only the integrals agree)")


if __name__ == "__main__":
    main()
