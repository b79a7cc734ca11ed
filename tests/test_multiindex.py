import itertools
import math

import pytest
from hypothesis import given, strategies as st

from jetvar.multiindex import DimensionMismatch, MultiIndex, enumerate_up_to

counts2 = st.tuples(st.integers(0, 4), st.integers(0, 4))
counts3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


def test_order_examples():
    assert MultiIndex((0, 0)).order() == 0
    assert MultiIndex((2, 1)).order() == 3
    assert MultiIndex((5, 0, 3)).order() == 8


def test_union_examples():
    assert MultiIndex((1, 0)).union(MultiIndex((0, 1))) == MultiIndex((1, 1))
    sigma = MultiIndex((3, 1))
    assert sigma.union(MultiIndex.zero(2)) == sigma
    assert MultiIndex((2, 1)).union(MultiIndex((1, 1))) == MultiIndex((3, 2))


def test_union_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        MultiIndex((1,)).union(MultiIndex((1, 0)))


def test_negative_entries_rejected():
    with pytest.raises(ValueError):
        MultiIndex((1, -1))
    with pytest.raises(ValueError):
        MultiIndex(())


def test_enumerate_examples():
    assert [m.counts for m in enumerate_up_to(1, 2)] == [(0,), (1,), (2,)]
    assert [m.counts for m in enumerate_up_to(2, 1)] == [(0, 0), (1, 0), (0, 1)]
    # count frozen from the brute-force oracle below
    assert len(enumerate_up_to(2, 2)) == 6


def brute_force_count(n, k):
    grid = itertools.product(range(k + 1), repeat=n)
    return sum(1 for c in grid if sum(c) <= k)


@given(st.integers(1, 6), st.integers(0, 6))
def test_enumerate_count_and_uniqueness(n, k):
    out = enumerate_up_to(n, k)
    assert len(out) == math.comb(n + k, k) == brute_force_count(n, k)
    assert len(set(out)) == len(out)
    orders = [m.order() for m in out]
    assert orders == sorted(orders)


@given(counts2, counts2)
def test_union_commutative(a, b):
    x, y = MultiIndex(a), MultiIndex(b)
    assert x.union(y) == y.union(x)
    assert x.union(y).order() == x.order() + y.order()


@given(counts3, counts3, counts3)
def test_union_associative(a, b, c):
    x, y, z = MultiIndex(a), MultiIndex(b), MultiIndex(c)
    assert x.union(y).union(z) == x.union(y.union(z))


@given(counts2)
def test_zero_neutral(a):
    x = MultiIndex(a)
    assert x.union(MultiIndex.zero(2)) == x


@given(counts2)
def test_subindices_and_binom(a):
    sigma = MultiIndex(a)
    subs = list(sigma.subindices())
    expected = 1
    for c in sigma.counts:
        expected *= c + 1
    assert len(subs) == expected
    assert len(set(subs)) == len(subs)
    for rho in subs:
        assert sigma.contains(rho)
        assert sigma.sub(rho).union(rho) == sigma
        want = 1
        for s, r in zip(sigma.counts, rho.counts):
            want *= math.comb(s, r)
        assert sigma.binom(rho) == want


def test_render():
    assert MultiIndex((2, 1)).render(["x1", "x2"]) == "x1 x1 x2"
    assert MultiIndex((0, 0)).render(["x1", "x2"]) == ""
    assert MultiIndex((3,)).render(["t"]) == "t t t"
