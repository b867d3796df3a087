"""Tests for the restriction pipeline on threshold circuits."""

import itertools
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thrsat.counters import WorkCounters
from thrsat.errors import ResourceGuardError
from thrsat.model import (Predicate, ThresholdCircuit, ThresholdGate,
                          WireStats, evaluate, wire_stats)
from thrsat.oracle import (brute_circuit_sat, enumerate_satisfying,
                           random_fixed_fanin_circuit, random_mixed_circuit)
from thrsat.sparse_sat import (DEFAULT_DELTA, draw_restriction,
                               exceptional_gates, fanin_separation,
                               ilp_for_guess, instance_seed,
                               restriction_params, sample_restriction,
                               sat_few_gates, solve)
from thrsat.splitlist import verify


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


def test_exceptional_gates_counts_two_free_inputs():
    gates = (ThresholdGate(((0, 1), (1, 1)), 1),
             ThresholdGate(((2, 1), (3, 1)), 1),
             ThresholdGate(((0, 1),), 1))
    circuit = ThresholdCircuit(4, gates, (1, 1, 1), (), 1)
    assert exceptional_gates(circuit, {0, 1}) == (0,)
    assert exceptional_gates(circuit, {0, 2}) == ()
    assert exceptional_gates(circuit, {0, 1, 2, 3}) == (0, 1)


def test_sample_restriction_reports_count():
    circuit = random_mixed_circuit(16, 32, seed=9)
    params = restriction_params(circuit)
    restriction, exc = sample_restriction(circuit, params, Random(0))
    assert exc == len(exceptional_gates(circuit, restriction.free))


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


@given(st.integers(0, 5_000))
@settings(max_examples=80, deadline=None)
def test_sat_few_gates_matches_brute(seed):
    circuit = random_mixed_circuit(2 + seed % 8, 2 + seed % 6, seed=seed,
                                   weight_bound=5)
    witness = sat_few_gates(circuit)
    ref = brute_circuit_sat(circuit)
    assert (witness is None) == (ref is None)


def test_sat_few_gates_guess_counter():
    circuit = random_mixed_circuit(6, 6, seed=11)
    cnt = WorkCounters()
    sat_few_gates(circuit, counters=cnt)
    assert cnt.guesses >= 1


def test_instance_seed_is_stable():
    a = random_mixed_circuit(10, 20, seed=5)
    b = random_mixed_circuit(10, 20, seed=5)
    assert instance_seed(a) == instance_seed(b)
    assert instance_seed(a) != instance_seed(random_mixed_circuit(10, 20, seed=6))


@given(st.integers(0, 5_000))
@settings(max_examples=60, deadline=None)
def test_solve_matches_brute_forced(seed):
    n = 8 + seed % 7
    circuit = random_mixed_circuit(n, n + seed % (2 * n), seed=seed,
                                   weight_bound=10)
    outcome = solve(circuit, seed=seed, force_restriction=True)
    ref = brute_circuit_sat(circuit)
    assert outcome.satisfiable == (ref is not None)
    if outcome.witness is not None:
        assert evaluate(circuit, outcome.witness)
    free = len(outcome.restriction.free) if outcome.restriction else 0
    assert outcome.branches == 1 << (n - free)


def test_solve_fast_path_small():
    circuit = random_mixed_circuit(6, 9, seed=2)
    outcome = solve(circuit)
    assert outcome.restriction is None
    assert outcome.branches == 1 << 6
    assert outcome.satisfiable == (brute_circuit_sat(circuit) is not None)


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


def _product_oracle(circuit):
    """Satisfiability by plain enumeration over evaluate; shares no scan
    code with the solver it checks."""
    return any(evaluate(circuit, values)
               for values in itertools.product((0, 1), repeat=circuit.n_vars))


def _peak_top_sum(circuit):
    """Largest top-gate sum over the cube, by plain enumeration."""
    peak = None
    for values in itertools.product((0, 1), repeat=circuit.n_vars):
        total = sum(top_w for gate, top_w in zip(circuit.bottom,
                                                 circuit.top_gate_weights)
                    if gate.pred.holds(sum(w * values[i]
                                           for i, w in gate.inputs)))
        total += sum(w * values[i] for i, w in circuit.direct_wires)
        peak = total if peak is None else max(peak, total)
    return peak


@pytest.mark.parametrize("p, budget, routes", [
    (Fraction(1, 4), None, {"closed", "scan"}),
    (Fraction(1, 2), None, {"closed", "scan"}),
    (Fraction(1), None, {"scan"}),
    (Fraction(1, 2), 4, {"closed", "guess"}),
])
def test_forced_restriction_routes_match_product_oracle(p, budget, routes):
    """Each circuit is solved with its top threshold at the largest top sum
    (few witnesses) and one above it (UNSAT); every route the restriction
    can pick must be taken, the scan route on an UNSAT instance."""
    taken = set()
    for seed in range(16):
        n = 8 + seed % 4
        base = random_mixed_circuit(n, n + seed % n, seed=seed,
                                    weight_bound=10, direct_count=n // 2)
        peak = _peak_top_sum(base)
        for top in (peak, peak + 1):
            circuit = replace(base, top_pred=Predicate.ge(top))
            cnt = WorkCounters()
            outcome = solve(circuit, seed=seed, p=p, force_restriction=True,
                            few_gates_budget=budget, counters=cnt)
            sat = _product_oracle(circuit)
            assert sat == (top == peak)
            assert outcome.satisfiable == sat, (seed, top)
            if outcome.witness is not None:
                assert evaluate(circuit, outcome.witness)
            free = outcome.restriction.free
            if not free:
                continue
            m = len(exceptional_gates(circuit, free))
            limit = budget if budget is not None \
                else 3 * outcome.params.delta * len(free)
            if m == 0:
                assert outcome.fallback_branches == 0 and cnt.guesses == 0
                taken.add("closed")
            elif m <= limit:
                assert cnt.guesses > 0 and outcome.fallback_branches == 0
                taken.add("guess")
            else:
                assert outcome.fallback_branches > 0
                if not sat:
                    assert outcome.fallback_branches == outcome.branches
                    taken.add("scan")
    assert taken == routes


def test_solve_branch_guard():
    circuit = random_mixed_circuit(24, 24, seed=0)
    with pytest.raises(ResourceGuardError):
        solve(circuit, seed=0, p=Fraction(1, 1 << 40),
              force_restriction=True, max_branch_bits=10)


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
