import itertools
import math

import pytest
from hypothesis import given, strategies as st

from jetvar import JetContext
from jetvar.multiindex import MultiIndex, enumerate_up_to

counts2 = st.tuples(st.integers(0, 4), st.integers(0, 4))


def test_order_examples():
    assert MultiIndex((0, 0)).order() == 0
    assert MultiIndex((2, 1)).order() == 3
    assert MultiIndex((5, 0, 3)).order() == 8


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


@given(counts2)
def test_subindices_and_binom(a):
    sigma = MultiIndex(a)
    subs = [tau for tau, _r, _b in sigma.splits()]
    expected = 1
    for c in sigma.counts:
        expected *= c + 1
    assert len(subs) == expected
    assert len(set(subs)) == len(subs)
    assert all(r <= s for rho in subs for s, r in zip(sigma, rho))
    # graded-lex: lower order first, then earlier axes loaded first
    assert subs == sorted(subs, key=lambda r: (r.order(),
                                               [-c for c in r.counts]))
    # each split is (sigma - tau, C(sigma, tau)), C the per-axis product
    assert [(r, b) for _t, r, b in sigma.splits()] == [
        (tuple(s - t for s, t in zip(sigma, tau)),
         math.prod(math.comb(s, t) for s, t in zip(sigma, tau)))
        for tau in subs]


counts_upto3 = st.integers(1, 3).flatmap(
    lambda n: st.tuples(*[st.integers(0, 3)] * n))


@given(counts_upto3, counts_upto3)
def test_hash_eq_and_order_are_those_of_the_counts(a, b):
    x, y = MultiIndex(a), MultiIndex(b)
    assert hash(x) == hash(a)
    assert x == a and (x == y) == (a == b) and (x != y) == (a != b)
    assert (x < y) == (a < b) and (x <= y) == (a <= b)
    assert (y in {x}) == (b in {x: 0}) == (a == b)
    assert type(x.counts) is tuple and x.counts == a
    assert x.dimension == len(a) and x.order() == sum(a)


def test_repr():
    assert repr(MultiIndex((2, 1))) == "MultiIndex(2, 1)"
    assert repr(MultiIndex((3,))) == "MultiIndex(3,)"
    assert repr(MultiIndex((2, 1)).bump(0)) == "MultiIndex(3, 1)"


@pytest.mark.parametrize("counts", [(1.9,), (1.0, 0), ("2",), (0, "1"),
                                    (True,), (1, False)])
def test_non_int_counts_rejected(counts):
    with pytest.raises(TypeError):
        MultiIndex(counts)


def test_jet_with_non_int_counts_rejected():
    ctx = JetContext.make("t", "y")
    with pytest.raises(TypeError):
        ctx.jet("y", (1.9,))
    assert ctx.jet("y", (1,)) == ctx.jet("y", "t")


@given(counts_upto3)
def test_splits_yield_every_tau_after_its_parent(a):
    """The adjoint walks this box once, taking each D_tau from its
    parent's, so the zero tau comes first and every parent before its
    children."""
    taus = [tau for tau, _rest, _binom in MultiIndex(a).splits()]
    assert not any(taus[0])
    seen = {taus[0]}
    for tau in taus[1:]:
        assert tau.parent()[1] in seen
        seen.add(tau)
