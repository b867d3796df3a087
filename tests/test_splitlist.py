"""Tests for the split-and-list constraint solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thrsat.counters import WorkCounters
from thrsat.errors import InputError, ResourceGuardError
from thrsat.model import ACCUMULATION_GUARD
from thrsat.oracle import brute_ilp, random_ilp
from thrsat.splitlist import (MAX_HALF_VARS, IneqSystem, Rel, Row, half_lists,
                              normalize_rows, solve_ilp, verify)


def vector_identity(n, arity):
    return arity ** ((n + 1) // 2) + arity ** (n // 2)


def check_against_brute(system):
    cnt = WorkCounters()
    witness, _ = solve_ilp(system, counters=cnt)
    ref = brute_ilp(system)
    assert (witness is None) == (ref is None)
    if witness is not None:
        assert verify(system, witness)
    assert cnt.vectors == vector_identity(system.n_vars, system.arity)
    return witness


def test_single_row_examples():
    # x0 + x1 >= 1 over Booleans has three solutions; >= 3 has none.
    sys_sat = IneqSystem(2, (Row(((0, 1), (1, 1)), Rel.GE, 1),), 2)
    assert check_against_brute(sys_sat) is not None
    sys_unsat = IneqSystem(2, (Row(((0, 1), (1, 1)), Rel.GE, 3),), 2)
    assert check_against_brute(sys_unsat) is None


def test_zero_rows_always_sat():
    system = IneqSystem(3, (), 2)
    witness, cnt = solve_ilp(system)
    assert witness is not None
    assert verify(system, witness)
    assert cnt.vectors == vector_identity(3, 2)


def test_equality_rows():
    system = IneqSystem(3, (Row(((0, 1), (1, 1), (2, 1)), Rel.EQ, 2),), 2)
    witness = check_against_brute(system)
    assert sum(witness.values) == 2


def test_strict_relations():
    rows = (Row(((0, 2), (1, -1)), Rel.GT, 0), Row(((0, 1),), Rel.LT, 1))
    system = IneqSystem(2, rows, 2)
    check_against_brute(system)


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_matches_brute_boolean(seed):
    system = random_ilp(1 + seed % 10, seed % 5, 2, seed=seed)
    check_against_brute(system)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_matches_brute_arity_three(seed):
    system = random_ilp(1 + seed % 7, seed % 4, 3, seed=seed)
    check_against_brute(system)


def test_normalize_rewrites_to_ge():
    rows = (Row(((0, 1),), Rel.LE, 0), Row(((1, 2),), Rel.LT, 2),
            Row(((0, 1), (1, 1)), Rel.GT, 0), Row(((1, 1),), Rel.EQ, 1))
    system = IneqSystem(2, rows, 2)
    # Strict rows become rhs + 1; EQ contributes two opposite rows.
    assert normalize_rows(system) == [
        (((0, -1),), 0), (((1, -2),), -1), (((0, 1), (1, 1)), 1),
        (((1, 1),), 1), (((1, -1),), -1)]


def test_half_lists_cover_all_assignments():
    system = IneqSystem(3, (Row(((0, 1), (2, 1)), Rel.GE, 1),), 2)
    a_side, b_side = half_lists(system, normalize_rows(system))
    assert a_side.shape == (2 ** 2, 1) and a_side.dtype == np.int64
    assert b_side.shape == (2 ** 1, 1) and b_side.dtype == np.int64
    # row t is the assignment x0 = t % 2, x1 = t // 2 of the first half
    assert a_side[:, 0].tolist() == [0, 1, 0, 1]
    assert b_side[:, 0].tolist() == [1, 0]


@pytest.mark.parametrize("n, arity", [(5, 2), (7, 2), (5, 3), (3, 3)])
def test_half_table_encoding(n, arity):
    """Row t of each table against the normalized row sums of the half
    assignment decoded from t, computed with Python integers."""
    system = random_ilp(n, 4, arity, seed=n * arity)
    rows = normalize_rows(system)
    a_side, b_side = half_lists(system, rows)
    half = (n + 1) // 2
    for vars_, table, slack in ((range(half), a_side, False),
                                (range(half, n), b_side, True)):
        assert table.shape == (arity ** len(vars_), len(rows))
        for t in range(len(table)):
            values = {v: (t // arity ** pos) % arity for pos, v in enumerate(vars_)}
            sums = [sum(w * values.get(i, 0) for i, w in coeffs)
                    for coeffs, _ in rows]
            if slack:
                sums = [rhs - s for s, (_, rhs) in zip(sums, rows)]
            assert table[t].tolist() == sums, (t, slack)


def test_row_guard():
    rows = tuple(Row(((0, 1),), Rel.GE, 0) for _ in range(63))
    with pytest.raises(ResourceGuardError):
        solve_ilp(IneqSystem(1, rows, 2))


def test_half_vars_guard():
    system = IneqSystem(2 * MAX_HALF_VARS + 2, (), 2)
    with pytest.raises(ResourceGuardError):
        solve_ilp(system)
    # The guard is an override, not a hard limit.
    witness, _ = solve_ilp(IneqSystem(8, (), 2), max_half_vars=4)
    assert witness is not None


def test_half_guard_counts_assignments_not_bits():
    # 20 variables of arity 1000: half = 10 passes a bit-count guard, but
    # 1000^10 half assignments do not fit in 2^28.
    with pytest.raises(ResourceGuardError):
        solve_ilp(IneqSystem(20, (), 1000))
    # 3^4 = 81 lies between 2^6 and 2^7.
    system = IneqSystem(8, (Row(((0, 1), (7, 1)), Rel.GE, 4),), 3)
    with pytest.raises(ResourceGuardError):
        solve_ilp(system, max_half_vars=6)
    witness, _ = solve_ilp(system, max_half_vars=7)
    assert verify(system, witness)


def test_accumulation_guard():
    # (arity - 1) * |w| + |rhs| = 2^62 reaches the guard; one less does not.
    big = 1 << 61
    assert 2 * big == ACCUMULATION_GUARD
    system = IneqSystem(2, (Row(((0, big),), Rel.GE, big),), 2)
    with pytest.raises(InputError):
        solve_ilp(system)
    with pytest.raises(InputError):
        solve_ilp(IneqSystem(2, (Row(((0, big),), Rel.GE, 0),), 3))
    system = IneqSystem(2, (Row(((0, big),), Rel.GE, big - 1),), 2)
    witness, _ = solve_ilp(system)
    assert witness.values[0] == 1 and verify(system, witness)
