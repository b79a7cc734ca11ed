"""Symmetric derivative multi-indices over the base variables.

A multi-index sigma = (sigma_1, ..., sigma_n) counts how many times each
base variable is differentiated.  Storing counts (rather than ordered
letter sequences) bakes in the commutativity of partial derivatives.
A ``MultiIndex`` is a tuple of its counts, so hashing it, comparing it and
looking it up in a set or dict run in C, and a jet coordinate keeps it
inside its own key (``expr.JetCoord``).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from operator import getitem, sub


class MultiIndex(tuple):
    """A multi-index: the tuple of its counts, one per base variable.

    Validation happens once, in ``__new__``: every count must be an
    ``int`` (a float, a string or a bool raises TypeError, so nothing is
    truncated), none negative, and there must be at least one.  Being a
    tuple, a multi-index hashes, compares and orders as its counts do, in
    C.  So it equals the plain tuple of its counts, ``<`` orders it
    lexicographically, and ``+`` concatenates.  ``counts`` gives the
    counts as a plain tuple.
    """

    __slots__ = ()

    def __new__(cls, counts: Sequence[int]):
        counts = tuple(counts)
        if not counts:
            raise ValueError("multi-index needs at least one base variable")
        for c in counts:
            if type(c) is not int:
                raise TypeError(f"multi-index count must be an int, got {c!r}")
            if c < 0:
                raise ValueError(f"negative entry in multi-index {counts}")
        return tuple.__new__(cls, counts)

    counts = property(tuple)

    @staticmethod
    def zero(n: int) -> "MultiIndex":
        return MultiIndex((0,) * n)

    @property
    def dimension(self) -> int:
        return len(self)

    def order(self) -> int:
        return sum(self)

    def bump(self, axis: int) -> "MultiIndex":
        """The multi-index with one extra derivative along ``axis``."""
        c = list(self)
        c[axis] += 1
        return _valid(c)

    def parent(self) -> tuple[int, "MultiIndex"]:
        """The first axis with a nonzero count, and the multi-index with
        one derivative fewer along it: the parent of sigma in a derivative
        lattice.  Raises ValueError for the zero multi-index."""
        for axis, count in enumerate(self):
            if count:
                c = list(self)
                c[axis] -= 1
                return axis, _valid(c)
        raise ValueError("the zero multi-index has no parent")

    def splits(self) -> Iterator[tuple["MultiIndex", "MultiIndex", int]]:
        """(tau, sigma - tau, C(sigma, tau)) for every tau <= sigma, in the
        graded-lex order of tau: the box below sigma, walked once.  The
        zero index comes first, and every other tau after its parent."""
        rows = [[math.comb(c, t) for t in range(c + 1)] for c in self]
        box = itertools.product(*(range(c + 1) for c in self))
        for tau in sorted(box, key=_graded_lex):
            yield (_valid(tau), _valid(map(sub, self, tau)),
                   math.prod(map(getitem, rows, tau)))

    def __repr__(self):
        return f"MultiIndex{tuple(self)}"


def _graded_lex(counts: tuple[int, ...]):
    """Sort key: lower order first, then earlier axes loaded first."""
    return sum(counts), tuple(-c for c in counts)


def _valid(counts: Iterable[int]) -> MultiIndex:
    """A multi-index from counts that are valid by construction, skipping
    the validation in __new__."""
    return tuple.__new__(MultiIndex, counts)


def enumerate_up_to(n: int, k: int) -> list[MultiIndex]:
    """All multi-indices of dimension n with order <= k, graded-lex ordered.

    Within one total order, indices loading earlier axes come first:
    for n=2, k=1 the result is [(0,0), (1,0), (0,1)].  The list has
    exactly C(n+k, k) elements.
    """
    if n < 1:
        raise ValueError("base dimension must be >= 1")
    if k < 0:
        raise ValueError("maximal order must be >= 0")
    box = itertools.product(range(k + 1), repeat=n)
    return [_valid(c) for c in sorted((c for c in box if sum(c) <= k),
                                      key=_graded_lex)]
