"""The numeric block's settings and the numeric errors, without numpy.

A problem file and the command line need these before any numeric check
runs, and the symbolic commands need nothing else of ``numeric``; keeping
them here keeps numpy out of those commands.  ``numeric`` re-exports
every name."""

from __future__ import annotations

from dataclasses import dataclass


class NumericError(RuntimeError):
    """Numeric evaluation failure (domain error, opaque symbol, ...)."""


class NotCritical(NumericError):
    """A check requiring a critical section was given a non-critical one."""

    def __init__(self, report):
        super().__init__(
            f"section is not critical: max |E| residual "
            f"{report.max_residual:.3e} exceeds tolerance {report.tol:.1e}")
        self.report = report


@dataclass(frozen=True)
class NumericConfig:
    """Numeric block of a problem file: domain box, quadrature nodes per
    axis, finite-difference step, acceptance tolerance.  The tolerance
    bounds max|E| absolutely where a section must be critical, and is
    relative, with a 1e-8 floor, in the consistency and symmetry
    verdicts."""

    domain: tuple[tuple[float, float], ...]
    nodes: int = 64
    step: float = 1e-3
    tol: float = 1e-6
