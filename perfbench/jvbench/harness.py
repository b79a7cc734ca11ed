"""Closed-loop driver: one client, one operation at a time, no threads.

An untraced run reports the end-to-end metrics, from wall times scaled to a
nominal machine speed (see ``speed``).  A traced run executes
every operation twice, untraced and then traced, and reports the per-layer
metrics from the traced copies plus the difference of the two walls.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import stats
from .speed import Speedometer
from .trace import POINT_LOOPS, TARGETS, Tracer
from .workload import Op, Workload

SETUP_REPEATS = 7
STARTUP_REPEATS = 5
# Every operation runs at least this often; its cost is the median of its
# scaled runs.
MIN_REPEATS = 3
# reference samples taken on each side of a set-up probe
PROBE_SAMPLES = 2


def build(name: str, seed: int, root: Path) -> Workload:
    from . import cli_workload, oracle, symbolic
    builders = {"symbolic": symbolic.build, "oracle-bind": oracle.build,
                "cli": cli_workload.build}
    return builders[name](seed, root)


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    # (op index, wall) per untraced execution
    walls: list[tuple[int, float]] = field(default_factory=list)
    # per untraced execution, the factor to nominal machine speed
    scales: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    # seconds of each fresh set-up probe, and its factor
    setups: list[float] = field(default_factory=list)
    setup_scales: list[float] = field(default_factory=list)
    # one entry per execution: (op index, failure reason or None)
    executions: list[tuple[int, str | None]] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.executions)

    def costs(self, names: list[str], scaled: bool = True
              ) -> tuple[list[float], int]:
        """Per operation, the median of its untraced executions (scaled to
        nominal speed, unless ``scaled`` is false), pooled over the
        operations of the cycle with the same name (one invocation that a
        cycle repeats); plus the fewest executions a cost was taken from."""
        scales = self.scales if scaled else [1.0] * len(self.walls)
        runs: dict[str, list[float]] = {}
        for (i, wall), k in zip(self.walls, scales, strict=True):
            runs.setdefault(names[i], []).append(wall * k)
        ran = sorted({i for i, _wall in self.walls})
        return ([statistics.median(runs[names[i]]) for i in ran],
                min(len(r) for r in runs.values()))

    def setup(self, scaled: bool = True) -> float:
        """Median set-up time, scaled to nominal speed unless told not to."""
        if not scaled:
            return statistics.median(self.setups)
        return statistics.median(
            s * k for s, k in zip(self.setups, self.setup_scales, strict=True))

    @property
    def failures(self) -> list[tuple[int, str]]:
        return [(i, why) for i, why in self.executions if why is not None]


def execute(op: Op, tracer: Tracer | None = None, hooks: dict | None = None,
            speed: Speedometer | None = None) -> tuple[float, str | None]:
    """Run one operation (traced when a tracer is given, sampling the
    reference kernel during it when a speedometer is), then its gate.  The
    wall excludes the reference samples."""
    if tracer is not None:
        tracer.install(hooks=hooks)
    if speed is not None:
        stolen = speed.stolen
        speed.arm()
    t0 = time.perf_counter()
    why = None
    try:
        result = op.run()
    except Exception as err:   # any raise is a failed operation
        why = f"raised {type(err).__name__}: {err}"
    finally:
        wall = time.perf_counter() - t0
        if speed is not None:
            speed.disarm()
            wall -= speed.stolen - stolen
        if tracer is not None:
            tracer.uninstall()
    if why is not None:
        return wall, why
    try:
        return wall, op.check(result)
    except Exception as err:
        return wall, f"check raised {type(err).__name__}: {err}"


def run_loop(wl: Workload, seconds: float, tracer: Tracer | None = None,
             hooks: Callable[[], dict] | None = None,
             probe: Callable[[], float] | None = None,
             probes: int = 0) -> Outcome:
    """Cycle through the operations for about ``seconds``, stopping at the
    multiple of ``wl.group`` operations nearest to it, and only once every
    operation ran at least MIN_REPEATS times.  ``hooks()`` gives the
    counter hooks for each traced operation.  Between operations the
    reference kernel is timed, to scale every untraced wall and set-up to
    nominal machine speed.

    ``probe()`` times one fresh set-up; the ``probes`` calls are spread
    evenly over the run at group boundaries, so that they sample the same
    machine conditions as the operations, and their time is not counted
    against ``seconds``."""
    out = Outcome()
    speed = Speedometer()
    spans: list[tuple[float, float]] = []
    setup_spans: list[tuple[float, float]] = []

    def timed_probe() -> float:
        for _ in range(PROBE_SAMPLES):
            speed.sample()
        t0 = time.perf_counter()
        wall = probe()
        t1 = time.perf_counter()
        for _ in range(PROBE_SAMPLES):
            speed.sample()
        setup_spans.append((t0, t1))
        return wall

    speed.sample()
    start = time.perf_counter()
    paused = 0.0
    n = 0
    while True:
        idx = n % len(wl.ops)
        op = wl.ops[idx]
        speed.tick()
        t0 = time.perf_counter()
        wall, why = execute(op, speed=speed)
        spans.append((t0, time.perf_counter()))
        out.walls.append((idx, wall))
        out.executions.append((idx, why))
        if tracer is not None:
            tracer.op_id = n
            wall, why = execute(op, tracer, hooks() if hooks else None)
            out.traced_walls.append(wall)
            out.executions.append((idx, why))
        n += 1
        if n % wl.group:
            continue
        now = time.perf_counter()
        elapsed = now - start - paused
        if probe is not None and len(out.setups) * seconds <= elapsed * probes:
            out.setups.append(timed_probe())
            paused += time.perf_counter() - now
        per_group = elapsed / (n // wl.group)
        if n >= MIN_REPEATS * len(wl.ops) and elapsed + per_group / 2 >= seconds:
            break
    speed.sample()
    while probe is not None and len(out.setups) < probes:
        out.setups.append(timed_probe())
    out.scales = [speed.scale(t0, t1) for t0, t1 in spans]
    out.setup_scales = [speed.scale(t0, t1) for t0, t1 in setup_spans]
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def apply_reference(wl: Workload, out: Outcome) -> None:
    """Mark executions of operations that the independent oracle rejects."""
    try:
        bad = wl.reference()
    except Exception as err:
        bad = {i: f"reference raised {type(err).__name__}: {err}"
               for i, _ in out.executions}
    out.executions = [(i, why if why is not None else bad.get(i))
                      for i, why in out.executions]


# ---------------------------------------------------------------------------
# per-layer counters
# ---------------------------------------------------------------------------


class LayerCounters:
    """Counters updated at the span boundaries, next to the spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.c = Counter()
        self._bound: dict[int, tuple[object, set]] = {}

    def hooks(self) -> dict:
        self._bound.clear()   # one operation's sections at a time
        return {
            "expr.substitute": self._substitute,
            "numeric.compile_expr": self._compile,
            "numeric.bind": self._bind,
            "numeric.integrate_on_section": self._integrate,
            "numeric.check_critical": self._critical,
        }

    def _points(self, section) -> int:
        return len(self.tracer.originals["numeric.grid"](section)[0])

    def _substitute(self, args, result):
        self.c["substitute.terms_out"] += len(result.terms)

    def _compile(self, args, result):
        self.c["compile.terms_in"] += len(args[0].terms)

    def _bind(self, args, result):
        section = args[0]
        # a hit hands back an evaluator this section already returned
        seen = self._bound.setdefault(id(section), (section, set()))[1]
        if id(result) in seen:
            self.c["bind.hits"] += 1
        else:
            seen.add(id(result))

    def _integrate(self, args, result):
        self.c["points"] += self._points(args[1])

    def _critical(self, args, result):
        lag, section = args[0], args[1]
        self.c["points"] += self._points(section) * lag.ctx.m


def layer_metrics(tracer: Tracer, counters: LayerCounters, run: Outcome
                  ) -> dict[str, tuple[float, str]]:
    """Per traced operation, for every wrapped function: calls, busy and
    self seconds; then the counters, and the cost of tracing itself."""
    ops = len(run.traced_walls)
    summary = tracer.summary()
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    out: dict[str, tuple[float, str]] = {}
    for name, _mod, _attr in TARGETS:
        row = summary.get(name, zero)
        out[f"{name}.calls"] = (row["calls"] / ops, "calls/op")
        out[f"{name}.busy_s"] = (row["busy_s"] / ops, "s/op")
        out[f"{name}.self_s"] = (row["self_s"] / ops, "s/op")
    c = counters.c

    def per(num, den):
        return num / den if den else 0.0

    out["expr.substitute.terms_out"] = (
        per(c["substitute.terms_out"],
            summary.get("expr.substitute", zero)["calls"]), "terms/call")
    out["numeric.compile_expr.terms_in"] = (
        per(c["compile.terms_in"],
            summary.get("numeric.compile_expr", zero)["calls"]), "terms/call")
    out["numeric.bind.hit_ratio"] = (
        per(c["bind.hits"], summary.get("numeric.bind", zero)["calls"]),
        "ratio")
    loop_self = sum(summary.get(nm, zero)["self_s"] for nm in POINT_LOOPS)
    out["numeric.quadrature.points"] = (c["points"] / ops, "points/op")
    out["numeric.quadrature.us_per_point"] = (
        per(loop_self * 1e6, c["points"]), "us")
    traced = sum(run.traced_walls)
    untraced = sum(w for _i, w in run.walls)
    out["trace.overhead_s"] = ((traced - untraced) / ops, "s/op")
    out["trace.op_wall_s"] = (traced / ops, "s/op")
    return out


# ---------------------------------------------------------------------------
# fresh-interpreter timings
# ---------------------------------------------------------------------------


def _spawn_until_ready(argv: list[str], cwd: Path) -> tuple[float, str]:
    """Wall time from spawning argv until it prints its first line."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait() != 0 or not line:
            raise RuntimeError(f"{argv[1:]} failed with exit {proc.returncode}")
    return wall, line.strip()


def setup_probe(run_py: Path, wl: Workload, seed: int, root: Path
                ) -> Callable[[], float]:
    """Timer of one fresh interpreter that imports jetvar and builds the
    workload's inputs, which must be the very inputs of ``wl``."""
    argv = [sys.executable, str(run_py), "--setup-probe", "--workload",
            wl.name, "--seed", str(seed)]

    def probe() -> float:
        wall, line = _spawn_until_ready(argv, root)
        if line != f"ready {wl.digest}":
            raise RuntimeError(f"seed {seed} built other inputs in a fresh "
                               f"interpreter: {line!r}")
        return wall

    return probe


def startup_metrics(root: Path) -> dict[str, tuple[float, str]]:
    """Medians of a bare interpreter's wall and of ``import jetvar``."""
    bare = [_spawn_until_ready([sys.executable, "-c", "print()"], root)[0]
            for _ in range(STARTUP_REPEATS)]
    code = ("import sys, time; sys.path.insert(0, 'src'); "
            "t = time.perf_counter(); import jetvar; "
            "print(time.perf_counter() - t)")
    imports = [float(_spawn_until_ready([sys.executable, "-c", code], root)[1])
               for _ in range(STARTUP_REPEATS)]
    return {"startup.interpreter_s": (statistics.median(bare), "s"),
            "startup.import_s": (statistics.median(imports), "s")}


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy_version, "cpu_model": cpu,
            "platform": platform.platform()}


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------


def end_to_end(wl: Workload, out: Outcome
               ) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """Metric -> (value, unit), plus how each was sampled."""
    names = [op.name for op in wl.ops]
    costs, fewest = out.costs(names)
    raw, _fewest = out.costs(names, scaled=False)
    n = len(costs)
    runs = f"each the median of >= {fewest} scaled runs"
    # no percentile has ten operations beyond it when n < 20: the median
    pct = stats.highest_tail(n) or 50
    beyond = stats.beyond(n, pct)
    metrics = {
        "throughput_ops_s": (n / sum(costs), "1/s"),
        "latency_p50_s": (stats.percentile(costs, 50), "s"),
        "latency_tail_s": (stats.percentile(costs, pct), "s"),
        "setup_s": (out.setup(), "s"),
        "peak_rss_mb": (out.peak_rss_mb, "MB"),
    }
    unscaled = {
        "throughput_ops_s": n / sum(raw),
        "latency_p50_s": stats.percentile(raw, 50),
        "latency_tail_s": stats.percentile(raw, pct),
        "setup_s": out.setup(scaled=False),
    }
    notes = {
        "throughput_ops_s": f"n={n} operations, {runs}",
        "latency_p50_s": f"n={n} operations, {runs}",
        "latency_tail_s": f"p{pct:g}, n={n}, {beyond} beyond"
                          + ("" if beyond >= stats.MIN_BEYOND
                             else " (fewer than ten: not a tail)"),
        "setup_s": f"median of n={len(out.setups)} fresh interpreters",
        "peak_rss_mb": "n=1 process, ru_maxrss after the timed loop",
    }
    for k, v in unscaled.items():
        notes[k] += f"; unscaled {v:.6g}"
    return metrics, notes
