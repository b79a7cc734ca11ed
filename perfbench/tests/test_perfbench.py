"""Tests of the benchmark's own logic: percentiles, span self time, the
rebinding tracer and the known-answer gates.  Fast; no timed runs."""

import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

from jetvar import variational  # noqa: E402
from jetvar.expr import JetContext  # noqa: E402
from jetvar.variational import Lagrangian, SourceForm  # noqa: E402
from jvbench import cli_workload, harness, oracle, speed, stats, symbolic  # noqa: E402
from jvbench.trace import Tracer, self_times  # noqa: E402
from jvbench.workload import Op, Workload  # noqa: E402


def oscillator():
    ctx = JetContext.make("t", "y")
    return Lagrangian(ctx, (ctx.jet("y", "t") ** 2 - ctx.fiber("y") ** 2) / 2)


# -- tail percentile rule ---------------------------------------------------


def test_percentile_matches_statistics_inclusive():
    xs = [0.3, 1.7, 0.2, 5.0, 2.2, 0.9, 3.1]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    for pct, q in ((25, q1), (50, q2), (75, q3)):
        assert abs(stats.percentile(xs, pct) - q) < 1e-12


def test_tail_needs_ten_samples_beyond():
    assert stats.beyond(100, 90) == 10 and stats.highest_tail(100) == 90
    assert stats.beyond(92, 90) == 10 and stats.highest_tail(92) == 90
    assert stats.beyond(91, 90) == 9 and stats.highest_tail(91) == 75
    assert stats.highest_tail(1000, (99, 90)) == 99
    assert stats.highest_tail(30) == 50
    assert stats.highest_tail(19) is None


def test_end_to_end_reports_the_highest_tail_with_ten_beyond():
    for n_ops, pct in ((94, 90), (40, 75), (8, 50)):
        ops = [Op(f"op{i}", lambda: None, lambda r: None) for i in range(n_ops)]
        wl = Workload("toy", ops, group=n_ops, inputs_text="toy")
        out = harness.Outcome(walls=[(i, 0.001 * (i + 1)) for i in range(n_ops)],
                              scales=[1.0] * n_ops, setups=[0.5],
                              setup_scales=[1.0])
        metrics, notes = harness.end_to_end(wl, out)
        assert notes["latency_tail_s"].startswith(f"p{pct},")
        assert metrics["latency_tail_s"][0] == stats.percentile(
            [0.001 * (i + 1) for i in range(n_ops)], pct)


def test_cost_is_the_median_scaled_run_of_the_same_invocation():
    # ops 0 and 2 are one invocation that the cycle repeats
    out = harness.Outcome(walls=[(0, 3.0), (1, 5.0), (2, 2.0), (0, 4.0),
                                 (1, 6.0), (2, 9.0)],
                          scales=[1.0, 0.5, 1.0, 0.5, 1.0, 1.0])
    assert out.costs(["a", "b", "a"]) == ([2.5, 4.25, 2.5], 2)
    assert out.costs(["a", "b", "a"], scaled=False) == ([3.5, 5.5, 3.5], 2)


def test_speed_scale_uses_the_samples_around_an_interval():
    meter = speed.Speedometer()
    meter.times = [float(t) for t in range(10)]
    meter.costs = [speed.NOMINAL * (1 + t) for t in range(10)]
    # samples 2..8: the one inside [4.5, 5.5] and three on each side
    assert meter.scale(4.5, 5.5) == speed.NOMINAL / meter.costs[5]
    assert meter.scale(-1.0, -0.5) == speed.NOMINAL / meter.costs[1]
    assert meter.scale(20.0, 21.0) == speed.NOMINAL / meter.costs[8]


def test_samples_inside_an_operation_are_taken_out_of_its_wall():
    def busy():
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass

    meter = speed.Speedometer()
    t0 = time.perf_counter()
    wall, why = harness.execute(Op("busy", busy, lambda r: None), speed=meter)
    assert why is None and len(meter.times) >= 2
    assert all(t0 < t < t0 + 0.6 for t in meter.times)
    assert abs(wall + meter.stolen - 0.5) < 0.02


# -- span self time -----------------------------------------------------------


def test_self_time_nested_and_siblings():
    # root [0, 10] holds siblings a [1, 4] and b [5, 9]; a holds c [2, 3]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_recursive_spans_count_busy_once():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    def fact(k):
        return 1 if k == 0 else k * wrapped(k - 1)

    wrapped = tr.wrap("fact", fact)
    assert wrapped(3) == 6
    row = tr.summary()["fact"]
    assert row["calls"] == 4
    assert row["busy_s"] == tr.end[0] - tr.start[0]
    assert row["self_s"] == row["busy_s"]


# -- rebinding ----------------------------------------------------------------


def test_rebinding_sees_partial_called_from_variational():
    import jetvar.expr as ex
    original = ex.partial
    tr = Tracer()
    tr.install()
    try:
        variational.euler_lagrange(oscillator())
    finally:
        tr.uninstall()
    assert variational.partial is original and ex.partial is original
    names = [tr.labels[i] for i in tr.label]
    el = names.index("variational.euler_lagrange")
    partials = [i for i, nm in enumerate(names) if nm == "expr.partial"]
    assert partials
    for i in partials:   # every partial span sits under the EL span
        while tr.parent[i] >= 0 and tr.parent[i] != el:
            i = tr.parent[i]
        assert tr.parent[i] == el


# -- known-answer gates ---------------------------------------------------------


def test_symbolic_gate_rejects_nonzero_helmholtz():
    lag = oscillator()
    ctx = lag.ctx
    xi = variational.VerticalField(ctx, (ctx.base("t"),))
    result = list(symbolic.pipeline(lag, xi, xi))
    assert symbolic.gate(tuple(result)) is None
    result[1] = variational.helmholtz(SourceForm(ctx, (ctx.jet("y", "t"),)))
    assert "Helmholtz" in symbolic.gate(tuple(result))


def test_cli_expectation_rejects_wrong_verdict():
    expect = cli_workload.Expect(3, "critical (tol 1e-06): no",
                                 lambda d: not d["critical"])
    assert expect("structured", 3, '{"critical": false}') is None
    assert "exit 0" in expect("structured", 0, '{"critical": false}')
    assert expect("structured", 3, '{"critical": true}') is not None
    assert expect("plain", 3, "critical (tol 1e-06): yes") is not None


def test_harness_counts_a_wrong_verdict_as_failed():
    ops = [Op("right", lambda: 2 + 2, lambda r: None if r == 4 else "wrong"),
           Op("wrong", lambda: 2 + 3, lambda r: None if r == 4 else "wrong"),
           Op("raises", lambda: 1 / 0, lambda r: None)]
    wl = Workload("toy", ops, group=3, inputs_text="toy")
    out = harness.run_loop(wl, 0.0)
    assert out.attempted == 3 * harness.MIN_REPEATS
    assert [ops[i].name for i, _ in out.failures] == \
        ["wrong", "raises"] * harness.MIN_REPEATS


def test_oracle_reference_rejects_a_wrong_value():
    ob = oracle.OracleBind(seed=3)
    _h, _x1, _x2, p1, p2 = ob.items[0]
    exact = float(oracle.ref.laplace_second_variation(p1, p2, oracle.BOX))
    ob._record(1, "second", (exact, exact, exact))
    ob._record(2, "second", (exact, exact * (1 + 1e-3)))
    assert set(ob.reference()) == {2}


def test_exact_laplace_second_variation_is_symmetric_and_positive():
    box = oracle.BOX
    a = {(0, 0): Fraction(2)}
    b = {(0, 0): Fraction(-1), (1, 0): Fraction(3)}
    ab = oracle.ref.laplace_second_variation(a, b, box)
    assert ab == oracle.ref.laplace_second_variation(b, a, box)
    assert oracle.ref.laplace_second_variation(a, a, box) > 0
