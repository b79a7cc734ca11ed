"""Finite-difference convergence experiment: the first variation of a
quintic action converges to the symbolic value at the O(h^2) central-
difference rate, and Richardson extrapolation of two steps,
(4 * fd(h/2) - fd(h)) / 3, buys two more orders (rates 4 and 16 per
halving of the step).

    python scripts/fd_convergence.py
"""

from jetvar import (JetContext, Lagrangian, NumericSection,
                    finite_diff_variation)
from jetvar.expr import ONE
from jetvar.numeric import bump_factor, integrate_on_section
from jetvar.variational import contract_source, euler_lagrange
from jetvar.jetcalc import VerticalField


def main():
    ctx = JetContext.make("t", "y")
    t = ctx.base("t")
    y = ctx.fiber("y")
    yt = ctx.jet("y", "t")
    lag = Lagrangian(ctx, y ** 5 + yt ** 2 / 2)
    sec = NumericSection(ctx, (t,), [(0.0, 1.0)], nodes=64)

    bump = bump_factor(ctx, sec.domain)
    field = VerticalField(ctx, (bump,))
    exact = integrate_on_section(contract_source(field, euler_lagrange(lag)),
                                 sec)
    print(f"symbolic first variation: {exact:.15f}\n")
    print(f"{'h':>10} {'plain error':>14} {'rate':>6} "
          f"{'Richardson error':>18} {'rate':>6}")

    def fd(h):
        return finite_diff_variation(lag, sec, ((ONE,),), step=h)

    prev = prev_rich = None
    for k in range(6):
        h = 0.1 / 2 ** k
        plain = fd(h)
        rich = (4 * fd(h / 2) - plain) / 3
        err = abs(plain - exact)
        err_rich = abs(rich - exact)
        rate = f"{prev / err:5.2f}" if prev and err else "    -"
        rate_rich = f"{prev_rich / err_rich:5.2f}" if prev_rich and err_rich \
            else "    -"
        print(f"{h:10.5f} {err:14.3e} {rate:>6} {err_rich:18.3e} "
              f"{rate_rich:>6}")
        prev, prev_rich = err, err_rich


if __name__ == "__main__":
    main()
