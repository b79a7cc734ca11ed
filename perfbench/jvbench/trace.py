"""Span tracing around the public functions of each jetvar module.

A span is recorded for every call into a wrapped function: its name, start,
end, parent span and the id of the benchmark operation it belongs to.
Spans live in flat in-memory arrays and are written out once, when the run
ends.

jetvar modules import each other's public functions by name (``variational``
and ``jetcalc`` call ``partial``/``mul`` imported from ``expr``; ``numeric``
calls ``substitute``), so patching the defining module alone would miss those
calls.  ``Tracer.install`` therefore rebinds every module-level name that
refers to the original function, in every loaded ``jetvar`` module (and the
benchmark's own), and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Iterable, Sequence

# (span label, module name, attribute path); "Class.method" patches the class.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("expr.mul", "jetvar.expr", "mul"),
    ("expr.add_many", "jetvar.expr", "add_many"),
    ("expr.pow_int", "jetvar.expr", "pow_int"),
    ("expr.partial", "jetvar.expr", "partial"),
    ("expr.substitute", "jetvar.expr", "substitute"),
    ("jetcalc.total_derivative", "jetvar.jetcalc", "total_derivative"),
    ("jetcalc.total_derivative_multi", "jetvar.jetcalc",
     "total_derivative_multi"),
    ("variational.euler_lagrange", "jetvar.variational", "euler_lagrange"),
    ("variational.helmholtz", "jetvar.variational", "helmholtz"),
    ("variational.adjoint", "jetvar.variational", "adjoint"),
    ("variational.linearize", "jetvar.variational", "linearize"),
    ("variational.jacobi", "jetvar.variational", "jacobi"),
    ("variational.second_variation_decomposition", "jetvar.variational",
     "second_variation_decomposition"),
    ("variational.first_summand_certificate", "jetvar.variational",
     "first_summand_certificate"),
    ("variational.quotient_variation", "jetvar.variational",
     "quotient_variation"),
    ("numeric.bind", "jetvar.numeric", "NumericSection.bind"),
    ("numeric.compile_expr", "jetvar.numeric", "compile_expr"),
    ("numeric.grid", "jetvar.numeric", "NumericSection.grid"),
    ("numeric.integrate_on_section", "jetvar.numeric", "integrate_on_section"),
    ("numeric.finite_diff_variation", "jetvar.numeric",
     "finite_diff_variation"),
    ("numeric.check_critical", "jetvar.numeric", "check_critical"),
    ("numeric.second_variation_check", "jetvar.numeric",
     "second_variation_check"),
    ("numeric.check_onshell_symmetry", "jetvar.numeric",
     "check_onshell_symmetry"),
    ("numeric.first_variation_pair", "jetvar.numeric", "first_variation_pair"),
    ("textio.parse_problem_file", "jetvar.textio", "parse_problem_file"),
    ("textio.print_object", "jetvar.textio", "print_object"),
    ("textio.object_to_dict", "jetvar.textio", "object_to_dict"),
    ("textio.parse_structured", "jetvar.textio", "parse_structured"),
    ("cli.main", "jetvar.cli", "main"),
)

# Functions whose own body loops over quadrature points; their self time
# divided by the points they evaluate gives the per-point cost.
POINT_LOOPS = ("numeric.integrate_on_section", "numeric.check_critical")

# Namespaces searched for names bound to a wrapped function.
SCANNED_PREFIXES = ("jetvar", "jvbench")


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> list[float]:
    """Per-span self time: duration minus the durations of direct children.

    Spans nest strictly (single thread, stack discipline), so the direct
    children of a span cover disjoint parts of its interval.
    """
    covered = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]


class Tracer:
    """In-memory span recorder."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.labels: list[str] = []
        self._label_id: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.label = array("i")
        self.op = array("i")
        # 1 when no enclosing span has the same label (recursion counted once)
        self.outer = array("b")
        self.op_id = -1
        self._stack: list[int] = []
        self._active: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, Callable] = {}

    # -- recording --------------------------------------------------------

    def _lid(self, name: str) -> int:
        lid = self._label_id.get(name)
        if lid is None:
            lid = self._label_id[name] = len(self.labels)
            self.labels.append(name)
            self._active.append(0)
        return lid

    def wrap(self, name: str, fn: Callable,
             after: Callable | None = None) -> Callable:
        """Return fn wrapped in a span named ``name``.  ``after(args,
        result)`` runs once the span has closed, to update counters."""
        lid = self._lid(name)
        stack, active = self._stack, self._active
        start, end, parent = self.start, self.end, self.parent
        label, op, outer = self.label, self.op, self.outer
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            label.append(lid)
            op.append(self.op_id)
            outer.append(0 if active[lid] else 1)
            end.append(0.0)
            active[lid] += 1
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                active[lid] -= 1
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self, targets: Iterable[tuple[str, str, str]] = TARGETS,
                hooks: dict[str, Callable] | None = None) -> None:
        """Wrap every target and rebind every module-level alias of it."""
        hooks = hooks or {}
        for name, modname, path in targets:
            owner = sys.modules[modname]
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            orig = getattr(owner, attr)
            self.originals[name] = orig
            wrapped = self.wrap(name, orig, hooks.get(name))
            self._patch(owner, attr, wrapped)
            if cls_name:
                continue
            for mod in list(sys.modules.values()):
                mname = getattr(mod, "__name__", "")
                if not mname.startswith(SCANNED_PREFIXES) or mod is owner:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per label: calls, busy (outermost spans only) and self seconds."""
        selfs = self_times(self.start, self.end, self.parent)
        out = {nm: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
               for nm in self.labels}
        for i, lid in enumerate(self.label):
            row = out[self.labels[lid]]
            row["calls"] += 1
            row["self_s"] += selfs[i]
            if self.outer[i]:
                row["busy_s"] += self.end[i] - self.start[i]
        return out

    def dump(self, path: str) -> None:
        """Write the spans as one compressed numpy archive."""
        import numpy as np
        np.savez_compressed(
            path, labels=np.array(self.labels, dtype=object).astype(str),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            label=np.frombuffer(self.label, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32))
