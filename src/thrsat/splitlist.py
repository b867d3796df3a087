"""Feasibility of sparse integer-linear constraint systems over small domains,
by split and list.  The systems themselves, their relations and the witness
check `verify` live in `thrsat.model`; this module holds only the search.

Every row is first rewritten as 'sum >= rhs' (a strict row becomes the
non-strict row with rhs + 1, an equality two opposite rows).  The variables
are then split into two halves and the assignments to each half are listed
as an int64 matrix with one tag per row, the half assignment it encodes;
the matrix and the tags are one table.  The first half's matrix holds row
contributions, the second's row slacks (rhs minus contribution).  The
system is feasible exactly when some contribution row dominates some slack
row, which the non-strict vecdom search decides without comparing all
pairs.

Only rows that can be in a dominating pair are listed, the bound step of
offline dominance (Bentley, CACM 1980).  A first-half row below rhs_j minus
the second half's largest sum in some row j dominates no slack row, and a
slack row above the listed first half's maximum in some row is dominated
by none; both lists are built one variable at a time and a partial row
that cannot reach its bound even with the largest completion is dropped.
"""
from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from .counters import WorkCounters
from .errors import InputError, ResourceGuardError
from .model import ACCUMULATION_GUARD, Assignment, IneqSystem, verify
from .vecdom import find_dominating_pair

MAX_ROWS = 62
MAX_HALF_VARS = 28
# a half table holds (normalized rows + 1) * arity^half int64 entries, and a
# solve peaks near 24 bytes per entry: 2^24 entries is about 400 MB
MAX_TABLE_ENTRIES = 1 << 24
# tags are int64: a half of more than 2^62 assignments is refused at any guard
TAG_BITS = 62

# normalized rows: (coeffs, rhs) for 'sum of w * x_i >= rhs'
NormRows = list[tuple[tuple[tuple[int, int], ...], int]]


def normalize_rows(sys: IneqSystem) -> NormRows:
    """Rewrite every row as 'sum >= rhs', as (coeffs, rhs) pairs.

    Equality rows expand into a pair of opposite inequalities, and with
    integer data a strict row is the non-strict row with rhs + 1.  A system
    whose worst row sum (arity - 1) * sum|w| + |rhs| reaches
    ACCUMULATION_GUARD is refused, so the int64 half tables cannot wrap.
    """
    out: NormRows = [(tuple((i, sign * w) for i, w in row.coeffs),
                      sign * row.rhs + shift)
                     for row in sys.rows for sign, shift in row.rel.ge_forms]
    for coeffs, rhs in out:
        if (sys.arity - 1) * sum(abs(w) for _, w in coeffs) + abs(rhs) \
                >= ACCUMULATION_GUARD:
            raise InputError("row weights exceed the accumulation guard")
    return out


def _decode(tag: int, var_indices: Sequence[int], arity: int, out: list[int]) -> None:
    t = tag
    for idx in var_indices:
        out[idx] = t % arity
        t //= arity


class HalfList(NamedTuple):
    """One half's listed rows: vectors[r] belongs to the half assignment
    tags[r], whose pos-th variable takes digit (tags[r] // arity^pos) % arity.
    Tags increase down the list.  Both are views of one (d + 1, rows) table
    with a column per listed assignment and the tag in its last row: vectors
    is the transpose of the first d rows, tags the last row.  grown counts
    the partial and full assignments listed on the way, one per column that
    _grow built for this half."""
    vectors: np.ndarray  # (rows, len(normalized rows)) int64
    tags: np.ndarray     # (rows,) int64
    grown: int


def _grow(table: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Extend the (d + 1, size) table by one variable: column digit * size + r
    of the result is table[:, r] + offsets[:, digit]."""
    return (table[:, None, :] + offsets[:, :, None]).reshape(len(table), -1)


def _bounded_sums(weights: np.ndarray, gain: np.ndarray, loss: np.ndarray,
                  floor: np.ndarray, arity: int) -> tuple[np.ndarray, int]:
    """The assignments to the h variables of weights (h, d) whose row sums
    reach floor in every row, as one (d + 1, rows) table: one column per
    assignment, its row sums and then its tag; and the number of columns
    the _grow calls built on the way.  gain and loss are
    max(0, (arity - 1) * weights) and min(0, (arity - 1) * weights).

    The variables are added one at a time by _grow, the last added the
    most significant digit of the tag, so the tag row grows by
    arity^(k-1) with the k-th variable and tags increase along the table.
    After k of them a partial sum is dropped once it plus the largest
    completion, the remaining variables' gain, falls below floor in some
    row.  The least partial sum plus that completion only shrinks with k,
    so the levels where none can fall short come first and are not
    filtered.  From the first level where one can, the table is filtered
    there, at the last level, and in between once it has grown 4x since
    the last filter.  Skipping a level's filter drops nothing that a later
    filter keeps: a child's sum plus the remaining gain is at most its
    parent's.  With a column per assignment, every numpy step on the table
    (growth, the bound test, the compaction, half_lists' column maximum)
    runs along long contiguous rows, not one short loop per assignment.
    """
    h, d = weights.shape
    room = np.zeros((h + 1, d), dtype=np.int64)
    room[:h] = np.cumsum(gain[::-1], axis=0)[::-1]
    least = np.zeros((h + 1, d), dtype=np.int64)
    least[1:] = np.cumsum(loss, axis=0)
    bound = floor - room
    short = (least < bound).any(axis=1)
    start = int(np.argmax(short)) if short.any() else h + 1
    steps = np.empty((h, d + 1), dtype=np.int64)
    steps[:, :d] = weights
    steps[:, d] = arity ** np.arange(h, dtype=np.int64)
    offsets = steps[:, :, None] * np.arange(arity)
    table = np.zeros((d + 1, 1), dtype=np.int64)
    filtered = 1
    grown = 0
    for k in range(h + 1):
        if k:
            table = _grow(table, offsets[k - 1])
            grown += table.shape[1]
        size = table.shape[1]
        if k == start or k > start and (k == h or size >= 4 * filtered):
            keep = (table[:d] >= bound[k, :, None]).all(axis=0)
            table = np.compress(keep, table, axis=1)
            filtered = table.shape[1]
            if not filtered:
                break
    return table, grown


def half_lists(sys: IneqSystem, rows: NormRows) -> tuple[HalfList, HalfList]:
    """Both half lists of the system, pruned to the rows that can be in a
    dominating pair.

    rows are the system's normalized rows.  The first half is x_0..x_{h-1}
    with h = ceil(n/2), the second the rest.  The first list holds the row
    sums of exactly the first-half assignments that reach rhs minus the
    second half's largest sum, sum of max(0, (arity - 1) * w), in every row;
    the second holds rhs minus the row sums, the slacks, of exactly the
    second-half assignments whose slack is at most the first list's column
    maximum in every row, and is empty when the first is.  Feasibility is
    then a dominating-pair question between the two.  With no row that
    prunes, the lists hold all arity^h and arity^(n-h) assignments, grown
    through the sums of arity^k over k = 1..h and over k = 1..n-h columns.
    """
    arity = sys.arity
    weights = np.zeros((sys.n_vars, len(rows)), dtype=np.int64)
    for j, (coeffs, _) in enumerate(rows):
        for i, w in coeffs:
            weights[i, j] = w
    rhs = np.array([r for _, r in rows], dtype=np.int64)
    half = (sys.n_vars + 1) // 2
    scaled = (arity - 1) * weights
    gain, loss = np.maximum(scaled, 0), np.minimum(scaled, 0)
    first, first_grown = _bounded_sums(
        weights[:half], gain[:half], loss[:half],
        rhs - gain[half:].sum(axis=0), arity)
    second, second_grown = first, 0
    if first.shape[1]:
        second, second_grown = _bounded_sums(
            weights[half:], gain[half:], loss[half:],
            rhs - first[:-1].max(axis=1), arity)
        np.subtract(rhs[:, None], second[:-1], out=second[:-1])
    return (HalfList(first[:-1].T, first[-1], first_grown),
            HalfList(second[:-1].T, second[-1], second_grown))


def solve_ilp(sys: IneqSystem, *, max_half_vars: int = MAX_HALF_VARS,
              counters: Optional[WorkCounters] = None
              ) -> tuple[Optional[Assignment], WorkCounters]:
    """Find a feasible assignment by splitting and listing, or report None.

    The guard refuses systems whose larger half has more than
    2^max_half_vars assignments, or more than 2^TAG_BITS whatever the guard,
    and then those whose unpruned half table, (normalized rows + 1) *
    arity^ceil(n/2) int64 entries, exceeds MAX_TABLE_ENTRIES.
    cnt.assignments grows by both halves' grown counts, the partial and
    full half assignments listed, cnt.vectors by the rows of both pruned
    half lists, the rows handed to the dominating-pair search, and the
    search's own counts are added to cnt.
    """
    cnt = counters if counters is not None else WorkCounters()
    n, arity = sys.n_vars, sys.arity
    rows = normalize_rows(sys)
    if len(rows) > MAX_ROWS:
        raise ResourceGuardError(f"{len(rows)} normalized rows exceeds the {MAX_ROWS}-row guard")
    half = (n + 1) // 2
    # arity^half > 2^limit, tested by bit length so that a large
    # max_half_vars builds no large power; the first test keeps arity^half small
    limit = min(max_half_vars, TAG_BITS)
    if half > limit or (arity ** half - 1).bit_length() > limit:
        raise ResourceGuardError(
            f"{arity}^{half} half assignments exceeds the 2^{limit} guard")
    entries = (len(rows) + 1) * arity ** half
    if entries > MAX_TABLE_ENTRIES:
        raise ResourceGuardError(
            f"{entries} half-table entries exceeds the {MAX_TABLE_ENTRIES} "
            "guard")

    first, second = half_lists(sys, rows)
    cnt.assignments += first.grown + second.grown
    cnt.vectors += len(first.vectors) + len(second.vectors)

    if not rows:
        pair = (0, 0)
    else:
        pair, vcnt = find_dominating_pair(first.vectors, second.vectors)
        cnt.comparisons += vcnt.comparisons
        cnt.recursion_nodes += vcnt.recursion_nodes
        cnt.median_selections += vcnt.median_selections
        if pair is None:
            return None, cnt

    values = [0] * n
    _decode(int(first.tags[pair[0]]), range(half), arity, values)
    _decode(int(second.tags[pair[1]]), range(half, n), arity, values)
    found = Assignment(tuple(values), arity)
    if not verify(sys, found):
        raise AssertionError("split-and-list produced an infeasible witness")
    return found, cnt
