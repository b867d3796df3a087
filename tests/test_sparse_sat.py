"""Tests for the restriction pipeline on threshold circuits."""

import itertools
import math
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thrsat import sparse_sat
from thrsat.counters import WorkCounters
from thrsat.errors import InputError, ResourceGuardError
from thrsat.model import (Predicate, PredKind, SymmetricCircuit, SymmetricGate,
                          ThresholdCircuit, ThresholdGate, WireStats,
                          evaluate, wire_stats)
from thrsat.oracle import (brute_circuit_sat, enumerate_satisfying,
                           random_fixed_fanin_circuit, random_mixed_circuit,
                           random_symmetric_circuit)
from thrsat.sparse_sat import (DEFAULT_DELTA, draw_restriction, eliminate,
                               exceptional_gates, fanin_separation,
                               gain_bounds, greedy_independent_set,
                               ilp_for_guess,
                               instance_seed, restriction_params, solve)
from thrsat.splitlist import verify
from thrsat.symsat import solve_symmetric


def test_params_formulas():
    circuit = random_mixed_circuit(12, 24, seed=0)
    params = restriction_params(circuit)
    c = Fraction(circuit.wires, 12)
    assert params.c == c
    assert params.epsilon == DEFAULT_DELTA ** 2 / c
    assert params.a == c ** 2 / DEFAULT_DELTA ** 2
    assert params.p == min(Fraction(1), DEFAULT_DELTA / (c * params.k))
    assert params.k >= 1
    assert 0 < params.p <= 1


def test_params_no_wires():
    circuit = ThresholdCircuit(4, (), (), ((0, 1),), 1)
    params = restriction_params(circuit)
    assert params.c == 0
    assert params.p == 1


@given(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 6)),
                min_size=1, max_size=8),
       st.integers(8, 64))
@settings(max_examples=200, deadline=None)
def test_fanin_separation_window_is_light(fanin_counts, n):
    fanins = Counter()
    for f, cnt in fanin_counts:
        fanins[f] += cnt
    stats = WireStats(fanins=fanins, total=sum(f * c for f, c in fanins.items()))
    c = Fraction(stats.total, n)
    epsilon = DEFAULT_DELTA ** 2 / c
    a = c ** 2 / DEFAULT_DELTA ** 2
    if a <= 1:
        return
    k = fanin_separation(stats, n, epsilon, a)
    mass = sum(f * cnt for f, cnt in fanins.items() if k < f <= k * a)
    assert mass <= epsilon * n
    # k is the first grid point with a light window: every earlier one is heavy.
    probe = Fraction(1)
    while probe < k:
        heavy = sum(f * cnt for f, cnt in fanins.items()
                    if probe < f <= probe * a)
        assert heavy > epsilon * n
        probe *= a
    assert probe == k


def test_draw_restriction_free_rate():
    circuit = random_mixed_circuit(40, 40, seed=3)
    rng = Random(123)
    p = Fraction(1, 4)
    draws = 400
    free_total = sum(len(draw_restriction(circuit, p, rng).free)
                     for _ in range(draws))
    mean = free_total / draws
    # Binomial(40, 1/4): mean 10, sd ~2.74; allow 4 standard errors.
    assert abs(mean - 10) < 4 * 2.74 / draws ** 0.5


@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1, 4), Fraction(1, 2),
                               Fraction(2, 7), Fraction(1, 110592), Fraction(1)])
def test_draw_restriction_frees_as_the_exact_comparison(p):
    """The draw compares random() with a float threshold; the free set is
    the one the comparison with the fraction p gives, over many seeds and
    at the multiples of 2^-53 just below, at and above p * 2^53."""
    circuit = random_mixed_circuit(20, 20, seed=3)
    for seed in range(2000):
        rng = Random(seed)
        want = [i for i in range(circuit.n_vars) if rng.random() < p]
        assert sorted(draw_restriction(circuit, p, Random(seed)).free) == want

    class Replay:
        def __init__(self, values):
            self.values = iter(values)

        def random(self):
            return next(self.values)

    edge = math.ceil(p * 2 ** 53)
    values = [m / 2 ** 53 for m in range(edge - 2, edge + 2) if 0 <= m < 2 ** 53]
    values += [0.0] * (circuit.n_vars - len(values))
    want = [i for i, x in enumerate(values) if x < p]
    assert sorted(draw_restriction(circuit, p, Replay(values)).free) == want


def test_exceptional_gates_counts_two_free_inputs():
    gates = (ThresholdGate(((0, 1), (1, 1)), 1),
             ThresholdGate(((2, 1), (3, 1)), 1),
             ThresholdGate(((0, 1),), 1))
    circuit = ThresholdCircuit(4, gates, (1, 1, 1), (), 1)
    assert exceptional_gates(circuit, {0, 1}) == (0,)
    assert exceptional_gates(circuit, {0, 2}) == ()
    assert exceptional_gates(circuit, {0, 1, 2, 3}) == (0, 1)


def test_solve_keeps_the_first_draw():
    """A draw with many exceptional gates is kept by solve as drawn, not
    redrawn in favour of a smaller free set."""
    circuit = random_mixed_circuit(24, 48, seed=9)
    params = replace(restriction_params(circuit), p=Fraction(1, 2))
    # the count above which draws used to be redrawn
    cap = 6 * params.delta * params.p * circuit.n_vars
    seed = next(s for s in range(100) if len(exceptional_gates(
        circuit, draw_restriction(circuit, params.p, Random(s)).free)) > cap)
    restriction = solve(circuit, seed=seed, p=params.p).restriction
    first = draw_restriction(circuit, params.p, Random(seed))
    assert restriction.free == first.free
    assert len(exceptional_gates(circuit, restriction.free)) > cap


def test_ilp_for_guess_encodes_firing_pattern():
    circuit = random_mixed_circuit(6, 10, seed=4)
    m = len(circuit.bottom)
    for mask in range(1 << m):
        system = ilp_for_guess(circuit, mask)
        for x in range(1 << 6):
            values = tuple((x >> (5 - i)) & 1 for i in range(6))
            if verify(system, values):
                fired = 0
                for j, gate in enumerate(circuit.bottom):
                    s = sum(w * values[i] for i, w in gate.inputs)
                    if gate.pred.holds(s):
                        fired |= 1 << j
                assert fired == mask
                assert evaluate(circuit, values)


def test_ilp_for_guess_accepts_index_collections():
    circuit = random_mixed_circuit(5, 8, seed=7)
    assert ilp_for_guess(circuit, 0b101) == ilp_for_guess(circuit, [0, 2])


def test_instance_seed_is_stable():
    a = random_mixed_circuit(10, 20, seed=5)
    b = random_mixed_circuit(10, 20, seed=5)
    assert instance_seed(a) == instance_seed(b)
    assert instance_seed(a) != instance_seed(random_mixed_circuit(10, 20, seed=6))


def _outside_exceptional(circuit, free):
    """The free variables in no gate with two or more free inputs, worked out
    here from the definition."""
    crowded = set()
    for gate in circuit.bottom:
        inputs = {i for i, _ in gate.inputs}
        if len(inputs & free) >= 2:
            crowded |= inputs
    return tuple(sorted(set(free) - crowded))


def _gate_independent(circuit, chosen):
    return all(sum(i in chosen for i, _ in gate.inputs) <= 1
               for gate in circuit.bottom)


@given(st.integers(0, 5_000))
@settings(max_examples=60, deadline=None)
def test_solve_matches_brute_forced(seed):
    n = 8 + seed % 7
    circuit = random_mixed_circuit(n, n + seed % (2 * n), seed=seed,
                                   weight_bound=10)
    cnt = WorkCounters()
    outcome = solve(circuit, seed=seed, force_restriction=True, counters=cnt)
    ref = brute_circuit_sat(circuit)
    assert outcome.satisfiable == (ref is not None)
    assert outcome.eliminated == _outside_exceptional(
        circuit, outcome.restriction.free)
    assert outcome.branches == 1 << (n - len(outcome.eliminated))
    if outcome.witness is not None:
        assert evaluate(circuit, outcome.witness)
        assert cnt.assignments <= outcome.branches
    else:
        assert cnt.assignments == outcome.branches


def test_solve_fast_path_small():
    """A small circuit takes the default route like any other: no draw, the
    greedy independent set eliminated, every other variable enumerated."""
    circuit = random_mixed_circuit(6, 9, seed=2)
    cnt = WorkCounters()
    outcome = solve(circuit, counters=cnt)
    assert outcome.restriction is None and outcome.params is None
    assert outcome.eliminated == greedy_independent_set(circuit)
    assert outcome.eliminated and _gate_independent(circuit,
                                                    set(outcome.eliminated))
    assert outcome.branches == 1 << (6 - len(outcome.eliminated))
    assert outcome.satisfiable == (brute_circuit_sat(circuit) is not None)
    if not outcome.satisfiable:
        assert cnt.assignments == outcome.branches


def test_greedy_independent_set_takes_fewest_neighbours_first():
    # gate-neighbours: x0 {1, 2, 3}, x1 {0, 2}, x2 {0, 1}, x3 {0}, x4 none.
    # x4 goes first, then x3 retires x0, and x1 (lower index than x2, both
    # with one live neighbour left) retires x2.  Lowest index first alone
    # would take x0 and retire x1, x2 and x3.
    gates = (ThresholdGate(((0, 1), (1, 1), (2, 1)), 2),
             ThresholdGate(((0, 1), (3, -1)), 0),
             ThresholdGate(((4, 1),), 1))
    circuit = ThresholdCircuit(5, gates, (1, 1, 1), ((4, 2),), 2)
    assert greedy_independent_set(circuit) == (1, 3, 4)
    for seed in range(30):
        circuit = random_mixed_circuit(20, 20 + seed, seed=seed)
        chosen = set(greedy_independent_set(circuit))
        assert _gate_independent(circuit, chosen)
        # maximal: every variable left out shares a gate with a chosen one
        assert all(not _gate_independent(circuit, chosen | {v})
                   for v in range(20) if v not in chosen)


def _random_independent_set(circuit, rng):
    chosen = set()
    order = list(range(circuit.n_vars))
    rng.shuffle(order)
    for v in order:
        if rng.random() < 0.8 and _gate_independent(circuit, chosen | {v}):
            chosen.add(v)
    return chosen


def _mixed_tops(sums):
    """A SAT and an UNSAT top predicate of every kind, for a circuit whose
    points reach exactly the top sums in sums: the SAT ones hold at a
    reached sum, the UNSAT ones at none."""
    reached = sorted(set(sums))
    lo, hi, mid = reached[0], reached[-1], reached[len(reached) // 2]
    m = hi - lo + 2   # no reachable sum is congruent to hi + 1 modulo m
    return [(Predicate.ge(hi), True), (Predicate.eq(mid), True),
            (Predicate.mod(3, hi % 3), True),
            (Predicate.members((lo - 1, mid, hi + 1)), True),
            (Predicate.ge(hi + 1), False), (Predicate.eq(hi + 1), False),
            (Predicate.mod(m, (hi + 1) % m), False),
            (Predicate.members((lo - 1, hi + 1)), False)]


@pytest.mark.parametrize("source", ["greedy", "draw", "random", "blocks"])
def test_eliminate_matches_product_oracle(source, monkeypatch):
    """eliminate against plain enumeration over evaluate.  Threshold bases
    take every `ge` top threshold from one below the smallest top sum to one
    past the largest; mixed-predicate bases take a SAT and an UNSAT top of
    every kind (ge, eq, mod, set).  All have direct wires and top weights of
    both signs.  Each seed also gives a base with no gates, only the
    threshold base's direct wires, under every `ge` threshold and the mixed
    tops: its one-input gate tables alone decide it.  A witness must lie in
    the first row, in enumeration order, that holds one, and the rows
    counted must end there, or cover every row when the circuit is UNSAT.
    Every third circuit has 3n wires.  "blocks"
    eliminates the greedy set with the kernel's block bound lowered to 2^4
    entries, so that (2|S| + 1) * rows <= 16 and the gates' tables hold at
    most 16 entries together, or a block is one row: an UNSAT `ge` top
    over more than 16 rows must then be tested block by block, at least
    twice, and examine more rows than any one block holds."""
    rng = Random(source)
    blocks = None
    if source == "blocks":
        monkeypatch.setattr(sparse_sat, "_BLOCK_ENTRY_BITS", 4)
        blocks = []
        real = sparse_sat.holds_columns

        def recording(kind, columns, values):
            # a `ge` top is tested on one (rows,) array per block; the
            # gates' tables are tested as (1, entries) arrays
            if values.ndim == 1:
                blocks.append(len(values))
            return real(kind, columns, values)

        monkeypatch.setattr(sparse_sat, "holds_columns", recording)
    split = 0
    for seed in range(27):
        n = 6 + seed % 9
        wires = 3 * n if seed % 3 == 2 else n + seed % n
        threshold = random_mixed_circuit(n, wires, seed=seed, weight_bound=10,
                                         direct_count=n // 2)
        mixed = random_symmetric_circuit(n, wires, seed=seed, weight_bound=3,
                                         direct_count=n // 2)
        mixed = replace(mixed, top_gate_weights=tuple(
            -w if k % 3 == seed % 3 else w
            for k, w in enumerate(mixed.top_gate_weights)))
        wired = replace(threshold, bottom=(), top_gate_weights=())
        for base in (threshold, mixed, wired):
            if source in ("greedy", "blocks"):
                chosen = set(greedy_independent_set(base))
            elif source == "draw":
                free = draw_restriction(base, Fraction(1, 2), Random(seed)).free
                chosen = set(_outside_exceptional(base, free))
            else:
                chosen = _random_independent_set(base, rng)
            sums = _top_sums(base)
            if base is threshold:
                tops = [(Predicate.ge(t), None)
                        for t in range(min(sums) - 1, max(sums) + 2)]
            elif base is mixed:
                tops = _mixed_tops(sums)
            else:
                tops = [(Predicate.ge(t), t <= max(sums))
                        for t in range(min(sums) - 1, max(sums) + 2)]
                tops += _mixed_tops(sums)
            split += _check_first_rows(base, chosen, sums, tops, blocks)
    if source == "blocks":
        assert split >= 27


def _check_first_rows(base, chosen, sums, tops, blocks=None):
    """Check eliminate on base under each top against the rows' top sums;
    with blocks, a list the `ge` top tests are recorded in, also check that
    an UNSAT `ge` top over more than 16 rows ran in several blocks, and
    return how many did."""
    n = base.n_vars
    rows = 1 << (n - len(chosen))
    enumerated = [v for v in range(n) if v not in chosen]
    split = 0

    def row_of(values):
        return sum(values[v] << (len(enumerated) - 1 - k)
                   for k, v in enumerate(enumerated))

    # the top sums each row reaches
    row_sums = {}
    for x, total in zip(itertools.product((0, 1), repeat=n), sums):
        row_sums.setdefault(row_of(x), set()).add(total)
    for top, expected in tops:
        circuit = replace(base, top_pred=top)
        cnt = WorkCounters()
        if blocks is not None:
            blocks.clear()
        found = eliminate(circuit, chosen, cnt)
        # a mixed top's verdict follows from the enumerated sums
        sat = _product_oracle(circuit) if expected is None else expected
        assert (found is not None) == sat, top
        if sat:
            assert evaluate(circuit, found)
            first = next(r for r in range(rows)
                         if any(top.holds(s) for s in row_sums[r]))
            assert row_of(found) == first
            assert cnt.assignments == first + 1
        else:
            assert cnt.assignments == rows
            if blocks and top.kind is PredKind.GE and rows > 16:
                assert len(blocks) >= 2 and cnt.assignments > max(blocks)
                split += 1
    return split


def test_eliminate_trims_wide_tops():
    """An `eq` top whose gates carry top weights near 2^30: solve_symmetric
    drops the heavy variables from the greedy set until the top sums of a
    row spread over fewer than 2^14 values, eliminate refuses the untrimmed
    set, and the verdict matches the brute force either way."""
    big = 1 << 30
    nonempty = 0
    for seed in range(6):
        base = random_symmetric_circuit(12, 20, seed=seed, weight_bound=3,
                                        direct_count=3)
        weights = tuple(big + k if k % 2 else 1 + k % 3
                        for k in range(len(base.bottom)))
        base = replace(base, top_gate_weights=weights)
        greedy = set(greedy_independent_set(base))
        bound = gain_bounds(base)
        assert sum(bound[v] for v in greedy) >= 1 << 14
        for top in sorted(set(_top_sums(base)))[::7] + [big // 2]:
            circuit = replace(base, top_pred=Predicate.eq(top))
            with pytest.raises(ResourceGuardError):
                eliminate(circuit, greedy, WorkCounters())
            cnt = WorkCounters()
            outcome = solve_symmetric(circuit, counters=cnt)
            kept = set(outcome.eliminated)
            assert kept < greedy
            assert sum(bound[v] for v in kept) < 1 << 14
            # the heaviest leave first, the highest index first among equals,
            # and only until the rest fits
            ranked = sorted(greedy, key=lambda v: (bound[v], v))
            while sum(bound[v] for v in ranked) >= 1 << 14:
                ranked.pop()
            assert kept == set(ranked)
            nonempty += bool(kept)
            assert outcome.branches == 1 << (12 - len(kept))
            ref = brute_circuit_sat(circuit)
            assert outcome.satisfiable == (ref is not None), (seed, top)
            if ref is None:
                assert cnt.assignments == outcome.branches
    assert nonempty
    # equal bounds: the highest index leaves first
    gates = tuple(ThresholdGate(((i, 1),), 1) for i in range(3))
    tied = replace(ThresholdCircuit(3, gates, (6000,) * 3, (), 0),
                   top_pred=Predicate.eq(12000))
    outcome = solve_symmetric(tied)
    assert outcome.eliminated == (0, 1) and outcome.satisfiable


def test_trim_of_a_wide_eq_top_is_one_pass():
    """20,000 one-input gates of top weight 2^20 under an `eq` top: the
    greedy set holds every variable and no variable fits the 2^14 guard, so
    the trim empties the set and the 2^20000 rows are refused.  The trim
    takes the longest fitting prefix in one pass; re-summing the set after
    every removal would be quadratic in it."""
    n = 20_000
    gates = tuple(SymmetricGate(((i, 1),), Predicate.ge(1)) for i in range(n))
    circuit = SymmetricCircuit(n, gates, (1 << 20,) * n, (), Predicate.eq(5))
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError, match=r"2\^20000 enumerated rows"):
        solve_symmetric(circuit)
    assert time.perf_counter() - start < 2.0


def test_eliminate_blocks_stay_under_the_element_guard(monkeypatch):
    """Under a top other than `ge`, a block's reach table is (rows, W + 1):
    with three gates, nine enumerated variables and W = 1500, sizing blocks
    from the gate count alone would test 2^9 * 1501 top sums at once.  Every
    array a predicate is tested on stays below 2^14 entries."""
    shapes = []
    real = sparse_sat.holds_columns

    def recording(kind, columns, values):
        shapes.append(values.shape)
        return real(kind, columns, values)

    monkeypatch.setattr(sparse_sat, "holds_columns", recording)
    gates = tuple(ThresholdGate(((j, 1), (3 + j, 1)), 1) for j in range(3))
    base = ThresholdCircuit(12, gates, (500, 500, 500), ((6, 1), (7, -1)), 0)
    assert sum(gain_bounds(base)[v] for v in (0, 1, 2)) == 1500
    for top, sat in ((Predicate.eq(1), True), (Predicate.eq(1502), False),
                     (Predicate.mod(1000, 7), False)):
        circuit = replace(base, top_pred=top)
        shapes.clear()
        cnt = WorkCounters()
        found = eliminate(circuit, (0, 1, 2), cnt)
        assert (found is not None) == sat == (brute_circuit_sat(circuit)
                                              is not None)
        if not sat:
            assert cnt.assignments == 1 << 9
        assert (8, 1501) in shapes
        assert max(rows * cols for rows, cols in shapes) < 1 << 14
    # W = 2^14 - 1, the widest set the guard keeps: its blocks are one row
    gate = (ThresholdGate(((0, 1),), 1),)
    for top in (Predicate.eq(16383), Predicate.eq(5)):
        circuit = SymmetricCircuit(1, gate, (16383,), (), top)
        ref = brute_circuit_sat(circuit)
        shapes.clear()
        found = eliminate(circuit, (0,), WorkCounters())
        assert (found is not None) == (ref is not None)
        assert (1, 1 << 14) in shapes
        outcome = solve_symmetric(circuit)
        assert outcome.eliminated == (0,)
        assert outcome.satisfiable == (ref is not None)


def _boundary_circuit(parts, switches=3):
    """Eliminated variables 0..k-1 and enumerated switches k, k+1, ...
    parts[v] = (top weight, direct weight) of variable v: v feeds one gate,
    with that top weight, that fires when v (or, for odd v, its negation)
    and switch k + v % switches are both 1, so the gain of v is the top
    weight, negated for odd v, in some rows and 0 in the others, plus the
    direct weight; gain_bounds[v] is |top| + |direct|.  The first switch
    also feeds the top directly, so the rows' least sums differ."""
    k = len(parts)
    gates, top_w, direct = [], [], [(k, 7)]
    for v, (t, d) in enumerate(parts):
        switch = k + v % switches
        if t:
            gates.append(ThresholdGate(((v, 1), (switch, 1)), 2) if v % 2 == 0
                         else ThresholdGate(((v, -1), (switch, 1)), 1))
            top_w.append(t)
        if d:
            direct.append((v, d))
    return ThresholdCircuit(k + switches, gates, top_w, direct, 0)


def _spread_parts(spread, k, rng):
    """k (top weight, direct weight) pairs of both signs whose magnitudes
    sum to spread."""
    cuts = sorted(rng.sample(range(1, spread), k - 1))
    parts = []
    for bound in (b - a for a, b in zip([0] + cuts, cuts + [spread])):
        t = rng.randint(0, bound)
        parts.append((rng.choice((1, -1)) * t,
                      rng.choice((1, -1)) * (bound - t)))
    return parts


def test_eliminate_reach_words_at_their_boundaries():
    """eliminate against plain enumeration over evaluate where a row's
    reachable offsets fill one, two, three or many 64-bit words: spreads W
    of 6-8 and 14-16, whose W + 1 bits end inside or at the end of a byte
    of the first word, 62-66, 126-130 and above 1,000, gains of both signs,
    single steps of exactly 63, 64 and 65, and within one block rows whose
    steps shift by different whole words.  Under `eq`, `mod` and `set` tops
    a witness must lie in the first row that reaches an accepted top sum
    and reach the least such sum of that row; an UNSAT solve examines every
    row."""
    rng = Random(64)
    cases = [[(0, 63)], [(0, 64)], [(0, -65)], [(63, 0), (0, 2)],
             [(-64, 0), (1, 0)], [(0, 65), (-1, 0)], [(65, 64), (-63, 0)],
             [(64, -65), (0, 63), (-1, 1)]]
    for spread in (6, 7, 8, 14, 15, 16, 62, 63, 64, 65, 66, 126, 127, 128, 129,
                   130, 1100, 1500):
        cases += [_spread_parts(spread, k, rng) for k in (2, 4)]
    widths = set()
    for parts in cases:
        base = _boundary_circuit(parts)
        chosen = range(len(parts))
        spread = sum(gain_bounds(base)[v] for v in chosen)
        widths.add(spread // 64 + 1)
        n = base.n_vars
        rows = 1 << (n - len(parts))
        # the top sums each row reaches; the rows are the switches' values
        row_sums = {}
        for x in itertools.product((0, 1), repeat=n):
            row_sums.setdefault(x[len(parts):], set()).add(_top_sum(base, x))
        reached = sorted(set().union(*row_sums.values()))
        lo, hi, mid = reached[0], reached[-1], reached[len(reached) // 2]
        m = hi - lo + 2
        tops = [Predicate.eq(mid), Predicate.eq(hi), Predicate.mod(3, hi % 3),
                Predicate.mod(64, mid % 64), Predicate.mod(65, hi % 65),
                Predicate.members(reached[1::5]),
                Predicate.members((lo - 1, reached[-2 if len(reached) > 1
                                                   else -1])),
                Predicate.eq(hi + 1), Predicate.mod(m, (hi + 1) % m),
                Predicate.members((lo - 1, hi + 1))]
        for top in tops:
            circuit = replace(base, top_pred=top)
            cnt = WorkCounters()
            found = eliminate(circuit, chosen, cnt)
            accepted = [sorted(s for s in row_sums[r] if top.holds(s))
                        for r in itertools.product((0, 1), repeat=n - len(parts))]
            first = next((k for k, sums in enumerate(accepted) if sums), None)
            assert (found is None) == (first is None), (parts, top)
            if found is None:
                assert cnt.assignments == rows
                continue
            assert evaluate(circuit, found)
            assert tuple(found[len(parts):]) == tuple(
                first >> (n - len(parts) - 1 - k) & 1
                for k in range(n - len(parts)))
            assert _top_sum(circuit, found) == accepted[first][0], (parts, top)
            assert cnt.assignments == first + 1
    assert {1, 2, 3, 18, 24} <= widths


def test_eliminate_refuses_dependent_sets():
    """A set with two inputs of one gate is refused, naming the first such
    gate's index in circuit.bottom; so is a variable outside the circuit."""
    circuit = random_mixed_circuit(10, 16, seed=4, direct_count=3)
    gate = [g for g in circuit.bottom if len(g.inputs) >= 2][-1]
    pair = {gate.inputs[0][0], gate.inputs[1][0]}
    first = next(j for j, g in enumerate(circuit.bottom)
                 if pair <= {i for i, _ in g.inputs})
    assert first > 0
    with pytest.raises(InputError, match=rf"^gate {first} has two"):
        eliminate(circuit, pair, WorkCounters())
    with pytest.raises(InputError):
        eliminate(circuit, {10}, WorkCounters())
    # a top other than `ge` is decided, not refused
    symmetric = replace(circuit, top_pred=Predicate.eq(1))
    found = eliminate(symmetric, (), WorkCounters())
    ref = brute_circuit_sat(symmetric)
    assert (found is None) == (ref is None)
    if found is not None:
        assert found == ref.values


def test_eliminate_thresholds_beyond_int64():
    gates = (ThresholdGate(((0, 1), (1, 1)), 1 << 70),
             ThresholdGate(((1, 1), (2, 1)), -(1 << 70)))
    for top, sat in ((1, True), (2, False)):
        circuit = ThresholdCircuit(3, gates, (1, 1), (), top)
        for chosen in ((), (0, 2), (1,)):
            found = eliminate(circuit, chosen, WorkCounters())
            assert (found is not None) == sat


def test_solve_explicit_p_override():
    circuit = random_fixed_fanin_circuit(14, 28, 2, seed=8)
    outcome = solve(circuit, seed=1, p=Fraction(1, 2), force_restriction=True)
    ref = brute_circuit_sat(circuit)
    assert outcome.satisfiable == (ref is not None)
    assert len(outcome.restriction.free) > 0


def test_solve_p_third_matches_brute():
    for seed in range(6):
        circuit = random_mixed_circuit(12, 30, seed=seed)
        outcome = solve(circuit, seed=seed, p=Fraction(1, 3),
                        force_restriction=True)
        assert outcome.satisfiable == (brute_circuit_sat(circuit) is not None)
        if outcome.witness is not None:
            assert evaluate(circuit, outcome.witness)


@pytest.mark.parametrize("solver", [solve, solve_symmetric])
@pytest.mark.parametrize("p", [Fraction(0), Fraction(-1), Fraction(3, 2)])
def test_solvers_refuse_p_outside_the_unit_interval(solver, p):
    circuit = random_mixed_circuit(8, 12, seed=1)
    with pytest.raises(InputError):
        solver(circuit, seed=0, p=p)


@pytest.mark.parametrize("solver", [solve, solve_symmetric])
def test_wide_gate_refused_before_any_set_is_chosen(solver, monkeypatch):
    """The eliminated set holds at most one input of each gate, so a gate
    of fan-in f leaves at least f - 1 enumerated bits: a gate wider than
    max_branch_bits + 1 is refused before the greedy set and before any
    draw, on every route, and one of exactly that width is still solved."""
    def gate_of(f):
        return ThresholdCircuit(f, (ThresholdGate(tuple((i, 1) for i in range(f)), f),),
                                (1,), (), 1)

    assert solver(gate_of(12), seed=0, max_branch_bits=11).satisfiable

    def refuse(*args, **kwargs):
        raise AssertionError("a set was chosen for a refused circuit")

    monkeypatch.setattr(sparse_sat, "greedy_independent_set", refuse)
    monkeypatch.setattr(sparse_sat, "draw_restriction", refuse)
    for kwargs in ({}, {"force_restriction": True}, {"p": Fraction(1, 2)}):
        with pytest.raises(ResourceGuardError):
            solver(gate_of(sparse_sat.MAX_BRANCH_BITS + 2), seed=0, **kwargs)
        with pytest.raises(ResourceGuardError):
            solver(gate_of(13), seed=0, max_branch_bits=11, **kwargs)


def test_solvers_share_one_draw(monkeypatch):
    """On a threshold circuit both entry points reach the one driver: with
    the same p and seed, given or derived from the instance, they draw the
    same restriction through draw_restriction and return the same
    eliminated set and witness."""
    draws = []

    def counted(circuit, p, rng):
        draws.append(p)
        return draw_restriction(circuit, p, rng)

    monkeypatch.setattr(sparse_sat, "draw_restriction", counted)
    verdicts = set()
    for seed in range(12):
        circuit = random_mixed_circuit(10, 20, seed=seed, direct_count=2)
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            for given_seed in (seed, None):
                a = solve(circuit, seed=given_seed, p=p)
                b = solve_symmetric(circuit, seed=given_seed, p=p)
                assert a.restriction.free == b.restriction.free
                assert a.eliminated == b.eliminated
                assert a.witness == b.witness
                verdicts.add(a.satisfiable)
    assert verdicts == {False, True}
    # 12 circuits, 3 p values, 2 seeds, 2 solvers
    assert len(draws) == 12 * 3 * 2 * 2


def _product_oracle(circuit):
    """Satisfiability by plain enumeration over evaluate; shares no scan
    code with the solver it checks."""
    return any(evaluate(circuit, values)
               for values in itertools.product((0, 1), repeat=circuit.n_vars))


def _top_sum(circuit, values):
    """The top-gate sum of one point."""
    total = sum(top_w for gate, top_w in zip(circuit.bottom,
                                             circuit.top_gate_weights)
                if gate.pred.holds(sum(w * values[i] for i, w in gate.inputs)))
    return total + sum(w * values[i] for i, w in circuit.direct_wires)


def _top_sums(circuit):
    """Every point's top-gate sum, by plain enumeration."""
    return [_top_sum(circuit, values)
            for values in itertools.product((0, 1), repeat=circuit.n_vars)]


@pytest.mark.parametrize("p, sizes", [
    (Fraction(1, 4), {"empty", "nonempty"}),
    (Fraction(1, 2), {"empty", "nonempty"}),
    (Fraction(1), {"empty", "nonempty"}),
    (Fraction(1, 3), {"empty", "nonempty"}),
])
def test_forced_restriction_routes_match_product_oracle(p, sizes):
    """Each circuit is solved through the paper's draw with its top
    threshold at the largest top sum (few witnesses) and one above it
    (UNSAT).  The eliminated set must be exactly the draw's free variables
    outside the exceptional gates, an UNSAT solve must examine every one of
    its 2^(n - |S|) rows, and both an empty set (the cube scan) and a
    nonempty one must occur."""
    taken = set()
    for seed in range(16):
        n = 8 + seed % 4
        base = random_mixed_circuit(n, n + seed % n, seed=seed,
                                    weight_bound=10, direct_count=n // 2)
        peak = max(_top_sums(base))
        for top in (peak, peak + 1):
            circuit = replace(base, top_pred=Predicate.ge(top))
            cnt = WorkCounters()
            outcome = solve(circuit, seed=seed, p=p, force_restriction=True,
                            counters=cnt)
            sat = _product_oracle(circuit)
            assert sat == (top == peak)
            assert outcome.satisfiable == sat, (seed, top)
            eliminated = _outside_exceptional(circuit,
                                              outcome.restriction.free)
            assert outcome.eliminated == eliminated
            rows = 1 << (n - len(eliminated))
            assert outcome.branches == rows
            # the circuit route never reaches the pair search
            assert cnt.vectors == cnt.comparisons == cnt.recursion_nodes \
                == cnt.median_selections == 0
            if sat:
                assert evaluate(circuit, outcome.witness)
                assert cnt.assignments <= rows
            else:
                assert cnt.assignments == rows
            taken.add("nonempty" if eliminated else "empty")
    assert taken == sizes


def test_solve_branch_guard():
    circuit = random_mixed_circuit(24, 24, seed=0)
    with pytest.raises(ResourceGuardError):
        solve(circuit, seed=0, p=Fraction(1, 1 << 40),
              force_restriction=True, max_branch_bits=10)


def test_solve_reports_params_only_when_they_choose_p():
    """A caller's p is drawn at and reports no params.  A forced
    restriction without p reports restriction_params and draws at their p:
    1/2, 1/4 and 1/6 on the fan-in-1 circuits, 1 on the wireless one."""
    circuits = [random_fixed_fanin_circuit(24, wires, 1, seed=wires,
                                           direct_count=4)
                for wires in (1, 2, 3)]
    circuits += [random_mixed_circuit(14, 28, seed=2),
                 random_fixed_fanin_circuit(20, 20, 3, seed=5),
                 ThresholdCircuit(10, (), (), ((0, 2), (3, -1), (7, 1)), 2)]
    for circuit in circuits:
        params = restriction_params(circuit)
        for seed in range(5):
            for q in (Fraction(1, 3), params.p):
                given = solve(circuit, seed=seed, p=q)
                assert given.params is None
                assert given.restriction.free == draw_restriction(
                    circuit, q, Random(seed)).free
            derived = solve(circuit, seed=seed, force_restriction=True)
            assert derived.params == params
            assert derived.restriction.free == draw_restriction(
                circuit, params.p, Random(seed)).free


def test_many_one_input_gates_stay_small():
    """8,192 one-input `ge` gates under an UNSAT `ge` top, alone and with a
    direct wire of weight +1 or -1 (alternating) on every variable: the
    greedy set holds every variable, so one row decides the circuit.  A
    dense |S| x m gain matrix would alone take 512 MiB; the gates' tables,
    one entry and its flipped one for each gate and each direct wire, keep
    the solve's traced peak below 64 MB."""
    n = 8192
    gates = tuple(SymmetricGate(((i, 1),), Predicate.ge(1)) for i in range(n))
    alone = SymmetricCircuit(n, gates, (1,) * n, (), Predicate.ge(n + 1))
    # the largest top sum takes every gate and the n / 2 wires of weight +1
    wired = replace(alone, direct_wires=tuple((i, 1 - 2 * (i % 2))
                                              for i in range(n)),
                    top_pred=Predicate.ge(n + n // 2 + 1))
    for circuit in (alone, wired):
        cnt = WorkCounters()
        tracemalloc.start()
        try:
            outcome = solve_symmetric(circuit, counters=cnt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not outcome.satisfiable and len(outcome.eliminated) == n
        assert cnt.assignments == 1
        assert peak < 64 * 10 ** 6


def test_many_wide_gates_stay_small():
    """128 gates that each read all 14 variables under an UNSAT `ge` top:
    the greedy set holds one variable, and blocks shrink until the gates'
    tables hold at most 2^14 entries together.  Blocks sized from |S| alone
    would give every gate an 8,192-entry table at once, about 40 MB traced;
    the solve stays below 8 MB."""
    n, m = 14, 128
    rng = Random(14)
    gates = tuple(SymmetricGate(tuple((i, rng.choice((1, 2, 3)))
                                      for i in range(n)), Predicate.ge(n))
                  for _ in range(m))
    circuit = SymmetricCircuit(n, gates, (1,) * m, (), Predicate.ge(m + 1))
    cnt = WorkCounters()
    tracemalloc.start()
    try:
        outcome = solve_symmetric(circuit, counters=cnt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not outcome.satisfiable and len(outcome.eliminated) == 1
    assert cnt.assignments == 1 << (n - 1)
    assert peak < 8 * 10 ** 6


def test_solvers_refuse_circuits_past_the_variable_guard():
    """A circuit of 2^31 - 1 variables is refused before any per-variable
    work, on every route of both solvers."""
    circuit = ThresholdCircuit((1 << 31) - 1, (), (), ((5, 1),), 1)
    for solver in (solve, solve_symmetric):
        for kwargs in ({}, {"force_restriction": True},
                       {"p": Fraction(1, 2)}):
            with pytest.raises(ResourceGuardError):
                solver(circuit, seed=0, **kwargs)
    over = ThresholdCircuit(sparse_sat.MAX_VARS + 1, (), (), ((5, 1),), 1)
    with pytest.raises(ResourceGuardError):
        solve(over, p=Fraction(1))
    edge = ThresholdCircuit(sparse_sat.MAX_VARS, (), (), ((5, 1),), 1)
    assert solve(edge, p=Fraction(1)).satisfiable


def test_solvers_decide_circuits_with_no_variables():
    """A circuit with no variables is one empty row: both solvers decide it
    on every route, as brute_circuit_sat does, also with a gate that has no
    inputs (sum 0, so `ge 0` fires and adds its top weight)."""
    verdicts = set()
    for top in (Predicate.ge(0), Predicate.ge(1), Predicate.eq(0)):
        for bottom, weights in (((), ()),
                                ((SymmetricGate((), Predicate.ge(0)),), (1,))):
            circuit = SymmetricCircuit(0, bottom, weights, (), top)
            expected = brute_circuit_sat(circuit)
            verdicts.add(expected is not None)
            solvers = [solve_symmetric]
            if top.kind is PredKind.GE:
                solvers.append(solve)
            for solver in solvers:
                for kwargs in ({}, {"force_restriction": True},
                               {"p": Fraction(1, 2)}):
                    outcome = solver(circuit, seed=0, **kwargs)
                    assert outcome.witness == expected, (top, bottom, kwargs)
                    assert outcome.eliminated == () and outcome.branches == 1
    assert verdicts == {False, True}


def test_solve_lex_witness_on_unsat_free_set():
    # All variables assigned: the degenerate path scans the whole cube and
    # must agree with plain enumeration.
    circuit = random_mixed_circuit(9, 18, seed=13)
    outcome = solve(circuit, seed=0, p=Fraction(1, 1 << 30),
                    force_restriction=True)
    sats = enumerate_satisfying(circuit)
    assert outcome.satisfiable == bool(sats)
    if sats:
        assert tuple(outcome.witness.values) == sats[0]
