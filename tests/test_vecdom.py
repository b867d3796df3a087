"""Tests for the dominating-pair search: soundness, completeness, work bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from thrsat.errors import InputError
from thrsat.oracle import brute_domination, random_domination
from thrsat.vecdom import count_bound, dominates, find_dominating_pair


def make_instance(a_rows, b_rows, d):
    return (np.array(a_rows, dtype=np.int64).reshape(len(a_rows), d),
            np.array(b_rows, dtype=np.int64).reshape(len(b_rows), d))


def check_against_brute(a, b):
    pair, cnt = find_dominating_pair(a, b)
    ref = brute_domination(a, b)
    assert (pair is None) == (ref is None)
    if pair is not None:
        i, j = pair
        assert dominates(a[i], b[j])
    return cnt


def test_dominates_basics():
    assert dominates((3, 3), (3, 2))
    assert not dominates((1, 5), (2, 2))


def test_count_bound_formula():
    # binom(d + ceil(log2 n) + 2, d + 1) * n at n=1024, d=1
    assert count_bound(1024, 1) == math.comb(1 + 10 + 2, 2) * 1024
    assert count_bound(1, 1) == math.comb(3, 2) * 1
    assert count_bound(2, 3) == math.comb(3 + 1 + 2, 4) * 2


def test_empty_sides():
    for a_rows, b_rows in (([], [(1,)]), ([(1,)], [])):
        pair, cnt = find_dominating_pair(*make_instance(a_rows, b_rows, 1))
        assert pair is None
        assert cnt.recursion_nodes == 1


def test_one_dimension_tags():
    a, b = make_instance([(5,), (2,)], [(3,), (7,)], 1)
    pair, _ = find_dominating_pair(a, b)
    assert pair is not None
    i, j = pair
    assert a[i, 0] >= b[j, 0]


@given(st.integers(0, 400))
@settings(max_examples=60, deadline=None)
def test_matches_brute_nonstrict(seed):
    a, b = random_domination(1 + seed % 17, 1 + (seed * 7) % 19,
                             1 + seed % 5, seed=seed, coord_bound=5)
    check_against_brute(a, b)


@st.composite
def tied_instances(draw):
    """Coordinates in [-2, 2], so most comparisons are ties, some columns
    holding one value on both sides (every pair holds them), and some
    columns with every B entry lifted to A's maximum or one past it (no
    pair holds them, or only the pairs that meet at A's maximum)."""
    d = draw(st.integers(1, 6))
    coords = st.integers(-2, 2)
    a = draw(arrays(np.int64, (draw(st.integers(0, 14)), d), elements=coords))
    b = draw(arrays(np.int64, (draw(st.integers(0, 14)), d), elements=coords))
    for col in draw(st.sets(st.integers(0, d - 1))):
        a[:, col] = b[:, col] = draw(coords)
    if len(a) and len(b):
        for col in draw(st.sets(st.integers(0, d - 1))):
            b[:, col] += a[:, col].max() - b[:, col].min() + draw(st.integers(0, 1))
    return a, b


@given(tied_instances())
@settings(max_examples=200, deadline=None)
def test_matches_brute_heavy_ties(inst):
    a, b = inst
    cnt = check_against_brute(a, b)
    if len(a) and len(b):
        assert cnt.recursion_nodes <= 8 * count_bound(len(a) + len(b), a.shape[1])


def test_ties_resolved_consistently():
    # Lots of equal coordinates to stress the equal-bucket handling.
    a, b = make_instance([(1, 1), (1, 1)], [(1, 1), (1, 1)], 2)
    pair, _ = find_dominating_pair(a, b)
    assert pair is not None


def test_work_bound_on_random_instances():
    for seed in range(10):
        n = 200 + seed * 57
        d = 2 + seed % 5
        a, b = random_domination(n, n, d, seed=seed)
        cnt = check_against_brute(a, b)
        assert cnt.recursion_nodes <= 8 * count_bound(2 * n, d)


def test_dimension_zero_rejected():
    a = np.zeros((1, 0), dtype=np.int64)
    with pytest.raises(InputError):
        find_dominating_pair(a, a)


def test_boundary_checks_shape_and_dtype():
    a = np.zeros((2, 3), dtype=np.int64)
    for bad in (np.zeros((2, 2), dtype=np.int64), np.zeros((2, 3)),
                np.zeros(3, dtype=np.int64), [[0, 0, 0]]):
        with pytest.raises(InputError):
            find_dominating_pair(a, bad)
        with pytest.raises(InputError):
            find_dominating_pair(bad, a)


