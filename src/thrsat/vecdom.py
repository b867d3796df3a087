"""Dominating-pair search between two integer matrices.

Given an (N_a, d) matrix A and an (N_b, d) matrix B of int64 entries, find a
row u of A and a row v of B with u >= v in every coordinate; the answer is
the pair of row indices.  The search is non-strict only: a strict constraint
x > y over the integers is x >= y + 1, which is how splitlist rewrites its
strict rows.  A node first reads the bounds of its current coordinate.  If
A's maximum there is below B's minimum the coordinate is dead and the node
holds no pair; if A's minimum reaches B's maximum the coordinate is settled,
every pair holds it, and the node moves on to the next coordinate with no
median and no child.  Otherwise the search splits on the median of the
coordinate: pairs entirely above or entirely below the median recurse at the
same coordinate, while pairs already decided on that coordinate recurse with
the coordinate dropped.  A child with an empty side holds no pair and is
counted as a node of the recursion tree without being searched.  The last
coordinate is decided by comparing the maximum over A with the minimum over
B.  The recursion carries index arrays into the two matrices, reads one
coordinate at a time from their transposes, and copies no rows.  Work is
near-linear for fixed d.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .counters import WorkCounters
from .errors import InputError


def dominates(u: Sequence[int], v: Sequence[int]) -> bool:
    """Direct coordinatewise check used for verification."""
    return all(a >= b for a, b in zip(u, v))


def count_bound(n: int, d: int) -> int:
    """Closed-form work bound for the search: C(d + ceil(log2 n) + 2, d + 1) * n.

    Monotone in both arguments; uses exact integer arithmetic throughout.
    """
    if n < 1 or d < 1:
        raise InputError("count_bound requires n >= 1 and d >= 1")
    log_term = (n - 1).bit_length()
    return math.comb(d + log_term + 2, d + 1) * n


def _search(a: np.ndarray, b: np.ndarray, ia: np.ndarray, ib: np.ndarray,
            c0: int, cnt: WorkCounters, depth: int, depth_limit: int):
    """Search the rows ia of A against the rows ib of B on the coordinates
    from c0 on.  a and b are A and B transposed, (d, rows), so that a
    coordinate's entries are one row.  A node with an empty side holds no
    pair."""
    cnt.recursion_nodes += 1
    if not len(ia) or not len(ib):
        return None
    if depth > depth_limit:
        raise AssertionError("domination search exceeded its depth guard")
    last = len(a) - 1
    while True:
        xa = a[c0][ia]
        xb = b[c0][ib]
        cnt.comparisons += len(ia) + len(ib)
        if c0 == last:
            # a pair exists iff max(xa) >= min(xb); of the A rows that reach
            # the first minimum of xb, take the smallest (the first on ties)
            j = int(np.argmin(xb))
            reach = np.flatnonzero(xa >= xb[j])
            if not len(reach):
                return None
            return ia[reach[np.argmin(xa[reach])]], ib[j]
        if xa.max() < xb.min():
            return None  # a dead coordinate: no pair holds it
        if xa.min() < xb.max():
            break
        c0 += 1  # a settled coordinate: every pair holds it

    values = np.concatenate((xa, xb))
    k = len(values) // 2
    med = np.partition(values, k)[k]
    cnt.median_selections += 1
    cnt.comparisons += len(values)
    a_up, a_down = xa > med, xa < med
    b_up, b_down = xb > med, xb < med

    res = _search(a, b, ia[a_up], ib[b_up], c0, cnt, depth + 1, depth_limit)
    if res is None:
        a_eq = ~(a_up | a_down)
        b_eq = ~(b_up | b_down)
        res = _search(a, b, np.concatenate((ia[a_eq], ia[a_up])),
                      np.concatenate((ib[b_eq], ib[b_down])), c0 + 1, cnt,
                      depth + 1, depth_limit)
    if res is None:
        res = _search(a, b, ia[a_down], ib[b_down], c0, cnt, depth + 1,
                      depth_limit)
    return res


def find_dominating_pair(a: np.ndarray, b: np.ndarray
                         ) -> tuple[Optional[tuple[int, int]], WorkCounters]:
    """Return (i, j) with a[i] >= b[j] in every coordinate, or None if no
    such pair exists, together with fresh work counters for this run: its
    comparisons, recursion_nodes and median_selections.

    a and b are (rows, d) int64 arrays with the same d.
    """
    for side in (a, b):
        if not isinstance(side, np.ndarray) or side.ndim != 2 \
                or side.dtype != np.int64:
            raise InputError("both sides must be (rows, d) int64 arrays")
    if a.shape[1] != b.shape[1]:
        raise InputError("both sides must have the same dimension")
    d = a.shape[1]
    if d < 1 and len(a) and len(b):
        raise InputError("dimension must be at least 1 when both sides are nonempty")
    cnt = WorkCounters()
    depth_limit = (len(a) + len(b)).bit_length() + d + 8
    res = _search(a.T, b.T, np.arange(len(a)), np.arange(len(b)), 0, cnt, 0,
                  depth_limit)
    if res is None:
        return None, cnt
    i, j = int(res[0]), int(res[1])
    if not dominates(a[i], b[j]):
        raise AssertionError("search returned a pair that does not dominate")
    return (i, j), cnt
