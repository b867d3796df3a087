"""Tests for the split-and-list constraint solver."""

import time
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thrsat import splitlist
from thrsat.counters import WorkCounters
from thrsat.errors import InputError, ResourceGuardError
from thrsat.model import ACCUMULATION_GUARD, IneqSystem, Rel, Row
from thrsat.oracle import brute_half_lists, brute_ilp, random_ilp
from thrsat.splitlist import (MAX_HALF_VARS, TAG_BITS, half_lists,
                              normalize_rows, solve_ilp, verify)
from thrsat.vecdom import find_dominating_pair


def vector_identity(n, arity):
    return arity ** ((n + 1) // 2) + arity ** (n // 2)


def listed(half_list):
    """A half list as {tag: vector}, checking its shape and tag order."""
    vectors, tags = half_list.vectors, half_list.tags
    assert vectors.dtype == np.int64 and tags.dtype == np.int64
    assert vectors.ndim == 2 and tags.shape == (len(vectors),)
    assert all(np.diff(tags) > 0)
    return {int(t): tuple(int(x) for x in v) for t, v in zip(tags, vectors)}


def check_half_lists(system):
    """Both half lists equal the independently computed sets exactly; returns
    them as dicts."""
    rows = normalize_rows(system)
    first, second = half_lists(system, rows)
    assert first.vectors.shape[1] == second.vectors.shape[1] == len(rows)
    got = (listed(first), listed(second))
    assert got == brute_half_lists(system)
    return got


def check_against_brute(system):
    cnt = WorkCounters()
    witness, _ = solve_ilp(system, counters=cnt)
    ref = brute_ilp(system)
    assert (witness is None) == (ref is None)
    if witness is not None:
        assert verify(system, witness)
    first, second = check_half_lists(system)
    # vectors counts the rows handed to the search: all of them exactly when
    # no bound bites, fewer otherwise
    assert cnt.vectors == len(first) + len(second)
    n, arity = system.n_vars, system.arity
    full = (len(first) == arity ** ((n + 1) // 2)
            and len(second) == arity ** (n // 2))
    assert (cnt.vectors == vector_identity(n, arity)) == full
    assert cnt.vectors <= vector_identity(n, arity)
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
    """Where no bound bites, both lists hold every half assignment, row
    for row, and the vector count is the full identity."""
    system = IneqSystem(3, (Row(((0, 1), (2, 1)), Rel.GE, 1),), 2)
    first, second = half_lists(system, normalize_rows(system))
    assert first.vectors.shape == (2 ** 2, 1)
    assert second.vectors.shape == (2 ** 1, 1)
    # tag t is the assignment x0 = t % 2, x1 = t // 2 of the first half
    assert first.tags.tolist() == [0, 1, 2, 3]
    assert first.vectors[:, 0].tolist() == [0, 1, 0, 1]
    assert second.tags.tolist() == [0, 1]
    assert second.vectors[:, 0].tolist() == [1, 0]
    check_against_brute(system)
    # zero rows: nothing can bite, at any arity and size
    for n, arity in ((0, 2), (1, 3), (4, 2), (5, 3), (3, 4)):
        system = IneqSystem(n, (), arity)
        first, second = check_half_lists(system)
        assert len(first) + len(second) == vector_identity(n, arity)
        witness = check_against_brute(system)
        assert witness.values == (0,) * n
    # rows loose enough that no bound bites, with negative weights and
    # arity above 2: rhs at most both halves' least-plus-largest sums
    rng = Random(5)
    for trial in range(20):
        n, arity = 4 + trial % 5, 2 + trial % 3
        half = (n + 1) // 2
        rows = []
        for _ in range(3):
            coeffs = tuple((i, rng.choice((-1, 1)) * rng.randint(1, 8))
                           for i in sorted(rng.sample(range(n), 3)))
            low, high = [0, 0], [0, 0]
            for i, w in coeffs:
                low[i >= half] += min(0, (arity - 1) * w)
                high[i >= half] += max(0, (arity - 1) * w)
            rhs = min(low[0] + high[1], high[0] + low[1]) - rng.randint(0, 2)
            rows.append(Row(coeffs, Rel.GE, rhs))
        system = IneqSystem(n, tuple(rows), arity)
        first, second = check_half_lists(system)
        assert len(first) + len(second) == vector_identity(n, arity), trial
        check_against_brute(system)


def test_half_lists_prune_to_reachable_rows():
    """x0 + x1 + x2 >= 3 and x3 <= 0 over Booleans, worked by hand.  The
    second half adds at most 1 to the first row, so only x0 = x1 = 1 (tag
    3, sums (2, 0)) reaches 3 - 1; the listed maximum is then (2, 0), and
    of the second half only x2 = 1, x3 = 0 (tag 1) has slacks (3 - 1,
    0 - 0) within it."""
    system = IneqSystem(4, (Row(((0, 1), (1, 1), (2, 1)), Rel.GE, 3),
                            Row(((3, 1),), Rel.LE, 0)), 2)
    first, second = half_lists(system, normalize_rows(system))
    assert first.tags.tolist() == [3] and first.vectors.tolist() == [[2, 0]]
    assert second.tags.tolist() == [1] and second.vectors.tolist() == [[2, 0]]
    assert check_against_brute(system).values == (1, 1, 1, 0)


@pytest.mark.parametrize("n, arity", [(5, 2), (7, 2), (5, 3), (3, 3), (6, 4),
                                      (9, 2), (14, 2), (15, 2), (15, 3)])
def test_half_table_encoding(n, arity):
    """Every listed tag decodes to its row sums (slacks for the second
    half), and the lists hold exactly the half assignments that reach the
    bound, against the Python-integer sets of brute_half_lists; the sets
    are recomputed here by decoding every tag."""
    system = random_ilp(n, 4, arity, seed=n * arity)
    rows = normalize_rows(system)
    first, second = half_lists(system, rows)
    half = (n + 1) // 2
    decoded = []
    for vars_, side, slack in ((range(half), first, False),
                               (range(half, n), second, True)):
        table = {}
        for t in range(arity ** len(vars_)):
            values = {v: (t // arity ** pos) % arity for pos, v in enumerate(vars_)}
            sums = [sum(w * values.get(i, 0) for i, w in coeffs)
                    for coeffs, _ in rows]
            if slack:
                sums = [rhs - s for s, (_, rhs) in zip(sums, rows)]
            table[t] = tuple(sums)
        got = listed(side)
        for t, vector in got.items():
            assert table[t] == vector, (t, slack)
        decoded.append(table)
    first_all, second_all = decoded
    # rhs minus the largest second-half sum is the least second-half slack
    bound = [min(v[j] for v in second_all.values()) for j in range(len(rows))]
    keep_first = {t for t, v in first_all.items()
                  if all(a >= b for a, b in zip(v, bound))}
    assert set(listed(first)) == keep_first
    if keep_first:
        top = [max(first_all[t][j] for t in keep_first) for j in range(len(rows))]
        keep_second = {t for t, v in second_all.items()
                       if all(b <= u for b, u in zip(v, top))}
    else:
        keep_second = set()
    assert set(listed(second)) == keep_second
    assert (listed(first), listed(second)) == brute_half_lists(system)


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


def test_table_guard(monkeypatch):
    """A half table of (normalized rows + 1) * arity^ceil(n/2) entries past
    MAX_TABLE_ENTRIES is refused before any listing, although the half
    fits the bit guard; the bound is inclusive."""
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError):
        solve_ilp(IneqSystem(56, (), 2))
    assert time.perf_counter() - start < 0.5
    # an equality is two normalized rows: 3 * 3^3 entries
    system = IneqSystem(6, (Row(((0, 1), (5, 1)), Rel.EQ, 3),), 3)
    monkeypatch.setattr(splitlist, "MAX_TABLE_ENTRIES", 3 * 27)
    witness, _ = solve_ilp(system)
    assert verify(system, witness)
    monkeypatch.setattr(splitlist, "MAX_TABLE_ENTRIES", 3 * 27 - 1)
    with pytest.raises(ResourceGuardError):
        solve_ilp(system)


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


def test_edge_sizes():
    """No variables, one variable, and an empty second half."""
    for rhs, sat in ((0, True), (1, False)):
        system = IneqSystem(0, (Row((), Rel.GE, rhs),), 2)
        witness = check_against_brute(system)
        assert (witness is not None) == sat
        if sat:
            assert witness.values == ()
    for rhs in range(4):
        system = IneqSystem(1, (Row(((0, 1),), Rel.GE, rhs),), 3)
        witness = check_against_brute(system)
        assert (witness is None) == (rhs == 3)
        if witness is not None:
            # the first half reaches rhs in its first listed row: x0 = rhs
            assert witness.values == (rhs,)
    system = IneqSystem(1, (Row(((0, 2),), Rel.EQ, 2),), 4)
    assert check_against_brute(system).values == (1,)


def test_equality_rows_prune_both_halves():
    # x0 + x1 + x2 + x3 = 7 over arity 3: an equality is two opposite rows,
    # and each half keeps the three assignments of sum 3 or 4, the ones the
    # other half can make up to 7
    system = IneqSystem(4, (Row(((0, 1), (1, 1), (2, 1), (3, 1)), Rel.EQ, 7),), 3)
    first, second = check_half_lists(system)
    assert sorted(first) == sorted(second) == [5, 7, 8]
    assert first[5] == (3, -3) and second[5] == (4, -4)
    check_against_brute(system)
    for seed in range(40):
        rows = random_ilp(6, 3, 2 + seed % 3, seed=seed).rows
        eq_rows = tuple(Row(r.coeffs, Rel.EQ, r.rhs) for r in rows)
        check_against_brute(IneqSystem(6, eq_rows, 2 + seed % 3))


@pytest.mark.parametrize("arity", [3, 4])
def test_higher_arity_prunes(arity):
    pruned = 0
    for seed in range(60):
        system = random_ilp(2 + seed % 6, 1 + seed % 5, arity, seed=seed)
        first, second = half_lists(system, normalize_rows(system))
        n = system.n_vars
        pruned += len(first.vectors) + len(second.vectors) \
            < vector_identity(n, arity)
        check_against_brute(system)
    assert pruned


def test_first_variable_prunes_everything():
    """x0 >= 1 and x0 <= 0: both digits of x0 fall short in some row, so
    the first list is empty after one variable and the second is not
    listed at all."""
    system = IneqSystem(6, (Row(((0, 1),), Rel.GE, 1), Row(((0, 1),), Rel.LE, 0),
                            Row(((3, 2), (5, -1)), Rel.GE, 0)), 2)
    first, second = half_lists(system, normalize_rows(system))
    assert first.vectors.shape == (0, 3) and second.vectors.shape == (0, 3)
    assert first.tags.shape == (0,) and second.tags.shape == (0,)
    cnt = WorkCounters()
    witness, _ = solve_ilp(system, counters=cnt)
    assert witness is None and cnt.vectors == 0
    assert check_against_brute(system) is None


def test_solve_ilp_counts_the_columns_grown():
    """cnt.assignments counts the partial and full half assignments listed,
    each column that _grow builds, each half once.  With no row that
    prunes, that is the sum of arity^k over k = 1..h and over k = 1..n-h,
    h = ceil(n/2), and the lists are whole; when the first list is empty,
    the second half adds nothing."""
    for n, arity in ((2, 2), (5, 2), (6, 3), (7, 4)):
        h = (n + 1) // 2
        grown = (sum(arity ** k for k in range(1, h + 1))
                 + sum(arity ** k for k in range(1, n - h + 1)))
        # both rows hold at every assignment
        loose = (Row(((0, 1), (n - 1, 2)), Rel.GE, 0),
                 Row(((n // 2, -1),), Rel.LE, 0))
        for rows in ((), loose):
            cnt = WorkCounters()
            witness, _ = solve_ilp(IneqSystem(n, rows, arity), counters=cnt)
            assert witness is not None
            assert cnt.vectors == vector_identity(n, arity)
            assert cnt.assignments == grown, (n, arity, rows)
    # x0 >= 1 and x0 <= 0: the first variable's two columns empty the first
    # list, and the second half builds nothing
    system = IneqSystem(4, (Row(((0, 1),), Rel.GE, 1),
                            Row(((0, 1),), Rel.LE, 0)), 2)
    cnt = WorkCounters()
    assert solve_ilp(system, counters=cnt)[0] is None
    assert cnt.assignments == 2


def test_ilp_bench_counts_the_columns_grown(monkeypatch):
    """The `ilp` bench suite at n = 24 with 8 rows: cnt.assignments is the
    number of columns the _grow calls built.  Seeds 1 and 2 have a row
    above its maximum, which empties the first list at the root, so
    nothing is grown and the second half is not listed."""
    from thrsat.bench import bench_suite
    built = []
    real = splitlist._grow

    def recording(table, offsets):
        out = real(table, offsets)
        built.append(out.shape[1])
        return out

    monkeypatch.setattr(splitlist, "_grow", recording)
    got = []
    for seed in range(4):
        built.clear()
        (record,) = bench_suite("ilp", 1, n=24, rows=8, seed=seed)
        assert record.counters.assignments == sum(built)
        got.append((record.verdict, record.counters.assignments,
                    record.counters.vectors))
    assert got == [("UNSAT", 790, 128), ("UNSAT", 0, 0), ("UNSAT", 0, 0),
                   ("SAT", 5346, 1072)]


@st.composite
def coupled_unsat(draw):
    """A system made infeasible only by two variables in different halves:
    u * x_a = u * x_b and x_a + x_b = 1, which no assignment meets at any
    arity, plus loose rows on other variables.  Each half alone reaches
    its bounds, so neither pruned list is empty."""
    n = draw(st.integers(2, 9))
    arity = draw(st.integers(2, 3))
    half = (n + 1) // 2
    a = draw(st.integers(0, half - 1))
    b = draw(st.integers(half, n - 1))
    u = draw(st.integers(1, 5))
    rows = [Row(((a, u), (b, -u)), Rel.EQ, 0), Row(((a, 1), (b, 1)), Rel.EQ, 1)]
    for _ in range(draw(st.integers(0, 3))):
        vars_ = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                              unique=True))
        coeffs = tuple((i, draw(st.integers(1, 6)) * draw(st.sampled_from((-1, 1))))
                       for i in vars_)
        least = sum(min(0, (arity - 1) * w) for _, w in coeffs)
        rows.append(Row(coeffs, Rel.GE, least - draw(st.integers(0, 2))))
    order = draw(st.permutations(range(len(rows))))
    return IneqSystem(n, tuple(rows[k] for k in order), arity)


@given(coupled_unsat())
@settings(max_examples=120, deadline=None)
def test_unsat_with_both_lists_nonempty_recurses(system):
    """UNSAT systems whose pruned lists are both nonempty are decided by the
    dominating-pair recursion, not by an empty list."""
    first, second = half_lists(system, normalize_rows(system))
    assert len(first.vectors) and len(second.vectors)
    pair, vcnt = find_dominating_pair(first.vectors, second.vectors)
    assert pair is None and vcnt.recursion_nodes > 1
    assert check_against_brute(system) is None
    # solve_ilp adds all three of the search's counts to its counters
    cnt = WorkCounters()
    assert solve_ilp(system, counters=cnt)[0] is None
    assert (cnt.comparisons, cnt.recursion_nodes, cnt.median_selections) \
        == (vcnt.comparisons, vcnt.recursion_nodes, vcnt.median_selections)


def test_tag_guard():
    # tags are int64: a half past 2^TAG_BITS assignments is refused even
    # when max_half_vars would allow it
    assert TAG_BITS == 62
    with pytest.raises(ResourceGuardError):
        solve_ilp(IneqSystem(2 * TAG_BITS + 2, (), 2), max_half_vars=100)
    with pytest.raises(ResourceGuardError):
        solve_ilp(IneqSystem(64, (), 4), max_half_vars=100)
