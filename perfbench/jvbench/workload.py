"""What every workload hands to the harness."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Op:
    """One client operation.

    ``run`` does the work that is timed.  ``check`` is the known-answer gate:
    it gets the result and returns None when the result is right, else a
    one-line reason.  It runs outside the timed region.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # The harness stops only at a multiple of this many operations, so every
    # run measures whole groups of the same composition.
    group: int
    # Canonical text of the generated inputs; its digest identifies them.
    inputs_text: str
    # Independent oracle, run after the timed loop: op index -> reason, for
    # every operation whose recorded results disagree with it.
    reference: Callable[[], dict[int, str]] = field(default=lambda: {})

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.inputs_text.encode()).hexdigest()
