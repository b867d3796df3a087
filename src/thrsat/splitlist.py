"""Feasibility of sparse integer-linear constraint systems over small domains.

Every row is first rewritten as 'sum >= rhs' (a strict row becomes the
non-strict row with rhs + 1, an equality two opposite rows).  The variables
are then split into two halves and all assignments to each half are listed
as one (arity^h, rows) int64 matrix, untagged: the row index encodes the
half assignment.  The first half's matrix holds row contributions, the
second's row slacks (rhs minus contribution).  The system is feasible
exactly when some contribution row dominates some slack row, which the
non-strict vecdom search decides without comparing all pairs.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .counters import WorkCounters
from .errors import InputError, ResourceGuardError
from .model import ACCUMULATION_GUARD, Assignment
from .vecdom import find_dominating_pair

MAX_ROWS = 62
MAX_HALF_VARS = 28

# normalized rows: (coeffs, rhs) for 'sum of w * x_i >= rhs'
NormRows = list[tuple[tuple[tuple[int, int], ...], int]]


class Rel(str, Enum):
    GE = "ge"
    GT = "gt"
    LE = "le"
    LT = "lt"
    EQ = "eq"


@dataclass(frozen=True)
class Row:
    coeffs: tuple[tuple[int, int], ...]
    rel: Rel
    rhs: int

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           tuple((int(i), int(w)) for i, w in self.coeffs))
        object.__setattr__(self, "rel", Rel(self.rel))
        object.__setattr__(self, "rhs", int(self.rhs))
        seen = set()
        for idx, w in self.coeffs:
            if w == 0:
                raise InputError("row coefficients must be nonzero")
            if idx < 0:
                raise InputError("negative variable index in row")
            if idx in seen:
                raise InputError(f"duplicate variable x{idx} in row")
            seen.add(idx)


@dataclass(frozen=True)
class IneqSystem:
    n_vars: int
    rows: tuple[Row, ...]
    arity: int = 2

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.arity < 2:
            raise InputError("arity must be at least 2")
        if self.n_vars < 0:
            raise InputError("n_vars must be nonnegative")
        for row in self.rows:
            for idx, _ in row.coeffs:
                if idx >= self.n_vars:
                    raise InputError(f"row reads x{idx} but system has {self.n_vars} variables")


def _negated(coeffs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    return tuple((i, -w) for i, w in coeffs)


def normalize_rows(sys: IneqSystem) -> NormRows:
    """Rewrite every row as 'sum >= rhs', as (coeffs, rhs) pairs.

    Equality rows expand into a pair of opposite inequalities, and with
    integer data a strict row is the non-strict row with rhs + 1.  A system
    whose worst row sum (arity - 1) * sum|w| + |rhs| reaches
    ACCUMULATION_GUARD is refused, so the int64 half tables cannot wrap.
    """
    out: NormRows = []
    for row in sys.rows:
        if row.rel is Rel.GE:
            out.append((row.coeffs, row.rhs))
        elif row.rel is Rel.GT:
            out.append((row.coeffs, row.rhs + 1))
        elif row.rel is Rel.LE:
            out.append((_negated(row.coeffs), -row.rhs))
        elif row.rel is Rel.LT:
            out.append((_negated(row.coeffs), -row.rhs + 1))
        else:  # EQ
            out.append((row.coeffs, row.rhs))
            out.append((_negated(row.coeffs), -row.rhs))
    for coeffs, rhs in out:
        if (sys.arity - 1) * sum(abs(w) for _, w in coeffs) + abs(rhs) \
                >= ACCUMULATION_GUARD:
            raise InputError("row weights exceed the accumulation guard")
    return out


def verify(sys: IneqSystem, assignment: Union[Assignment, Sequence[int]]) -> bool:
    """Check an assignment row by row against the original relations."""
    values = assignment.values if isinstance(assignment, Assignment) else tuple(assignment)
    if len(values) != sys.n_vars:
        raise InputError("assignment length does not match the system")
    for v in values:
        if not 0 <= v < sys.arity:
            raise InputError("assignment value out of the variable domain")
    for row in sys.rows:
        s = sum(w * values[i] for i, w in row.coeffs)
        if row.rel is Rel.GE:
            ok = s >= row.rhs
        elif row.rel is Rel.GT:
            ok = s > row.rhs
        elif row.rel is Rel.LE:
            ok = s <= row.rhs
        elif row.rel is Rel.LT:
            ok = s < row.rhs
        else:
            ok = s == row.rhs
        if not ok:
            return False
    return True


def _decode(tag: int, var_indices: Sequence[int], arity: int, out: list[int]) -> None:
    t = tag
    for idx in var_indices:
        out[idx] = t % arity
        t //= arity


def _half_table(weights: np.ndarray, arity: int) -> np.ndarray:
    """Row t: the sum over pos of ((t // arity^pos) % arity) * weights[pos]."""
    d = weights.shape[1]
    table = np.zeros((1, d), dtype=np.int64)
    digits = np.arange(arity, dtype=np.int64)[:, None, None]
    for w in weights:
        table = (table + digits * w).reshape(arity * len(table), d)
    return table


def half_lists(sys: IneqSystem, rows: NormRows) -> tuple[np.ndarray, np.ndarray]:
    """Both half tables of the system, as (arity^h, len(rows)) int64 arrays.

    rows are the system's normalized rows.  The first half is x_0..x_{h-1}
    with h = ceil(n/2), the second the rest; row t of a table encodes the
    half assignment whose pos-th variable takes digit (t // arity^pos) %
    arity.  The first table holds that assignment's row sums, the second
    rhs minus them, so that feasibility becomes a dominating-pair question
    between the two.
    """
    weights = np.zeros((sys.n_vars, len(rows)), dtype=np.int64)
    for j, (coeffs, _) in enumerate(rows):
        for i, w in coeffs:
            weights[i, j] = w
    rhs = np.array([r for _, r in rows], dtype=np.int64)
    half = (sys.n_vars + 1) // 2
    return (_half_table(weights[:half], sys.arity),
            rhs - _half_table(weights[half:], sys.arity))


def solve_ilp(sys: IneqSystem, *, max_half_vars: int = MAX_HALF_VARS,
              counters: Optional[WorkCounters] = None
              ) -> tuple[Optional[Assignment], WorkCounters]:
    """Find a feasible assignment by splitting and listing, or report None.

    The guard refuses systems whose larger half has more than
    2^max_half_vars assignments.
    """
    cnt = counters if counters is not None else WorkCounters()
    n, arity = sys.n_vars, sys.arity
    rows = normalize_rows(sys)
    if len(rows) > MAX_ROWS:
        raise ResourceGuardError(f"{len(rows)} normalized rows exceeds the {MAX_ROWS}-row guard")
    half = (n + 1) // 2
    # arity^half > 2^max_half_vars, tested by bit length so that a large
    # max_half_vars builds no large power; the first test keeps arity^half small
    if half > max_half_vars or (arity ** half - 1).bit_length() > max_half_vars:
        raise ResourceGuardError(
            f"{arity}^{half} half assignments exceeds the 2^{max_half_vars} guard")

    a, b = half_lists(sys, rows)
    cnt.vectors += len(a) + len(b)

    if not rows:
        pair = (0, 0)
    else:
        pair, vcnt = find_dominating_pair(a, b)
        cnt.comparisons += vcnt.comparisons
        if pair is None:
            return None, cnt

    values = [0] * n
    _decode(pair[0], range(half), arity, values)
    _decode(pair[1], range(half, n), arity, values)
    found = Assignment(tuple(values), arity)
    assert verify(sys, found), "split-and-list produced an infeasible witness"
    return found, cnt
