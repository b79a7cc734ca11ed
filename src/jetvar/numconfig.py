"""The numeric block's settings and the numeric errors, without numpy.

A problem file and the command line need these before any numeric check
runs, and the symbolic commands need nothing else of ``numeric``; keeping
them here keeps numpy out of those commands.  ``numeric`` re-exports
the errors, and reads every keyword default of its sections, checks and
verdicts from SETTINGS, so that a Python call and a command judge a
section alike."""

from __future__ import annotations

import math


class NumericError(RuntimeError):
    """Numeric evaluation failure (domain error, opaque symbol, ...)."""


class NotCritical(NumericError):
    """A check requiring a critical section was given a non-critical one."""

    def __init__(self, report):
        super().__init__(
            f"section is not critical: max |E| residual "
            f"{report.max_residual:.3e} exceeds tolerance {report.tol:.1e}")
        self.report = report


# The numeric block's settings, which the command-line flags override:
# (conversion, condition, description of the accepted values, default).
SETTINGS = {
    # Gauss-Legendre nodes per axis
    "nodes": (int, lambda v: v >= 1, "an integer >= 1", 64),
    "step": (float, lambda v: math.isfinite(v) and v > 0,
             "a finite number > 0", 1e-3),
    # bounds max|E| absolutely where a section must be critical, and is
    # relative, with a 1e-8 floor, in the consistency and symmetry verdicts
    "tol": (float, lambda v: math.isfinite(v) and v >= 0,
            "a finite number >= 0", 1e-6),
}


def parse_setting(name: str, text: str):
    """The value of the numeric setting ``name`` written as text;
    ValueError when it is not accepted."""
    convert, ok, expected, _default = SETTINGS[name]
    try:
        if ok(value := convert(text)):
            return value
    except ValueError:
        pass
    raise ValueError(f"expected {expected}, got {text!r}")
