"""Tests for symmetric-gate circuits, the free-probability analysis, and
the symmetric solver."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thrsat import symsat
from thrsat.counters import WorkCounters
from thrsat.errors import InputError
from thrsat.model import (Predicate, SymmetricCircuit, SymmetricGate,
                          evaluate, evaluate_batch)
from thrsat.oracle import brute_circuit_sat, random_symmetric_circuit
from thrsat.sparse_sat import draw_restriction, greedy_independent_set
from thrsat.symsat import (DEFAULT_KAPPA, adversarial_densities, choose_p,
                           expected_savings, grid_size, p_grid, savings,
                           solve_symmetric, wire_distribution)


def all_assignments(n):
    for x in range(1 << n):
        yield tuple((x >> (n - 1 - i)) & 1 for i in range(n))


# --- predicates -------------------------------------------------------------

def test_predicate_kinds():
    assert Predicate.ge(2).holds(2)
    assert not Predicate.ge(2).holds(1)
    assert Predicate.eq(-1).holds(-1)
    assert Predicate.mod(3, 1).holds(7)
    assert not Predicate.mod(3, 1).holds(6)
    assert Predicate.members((2, 5)).holds(5)
    assert not Predicate.members((2, 5)).holds(3)


def test_predicate_validation():
    with pytest.raises(InputError):
        Predicate.mod(0, 0)
    with pytest.raises(InputError):
        Predicate.mod(3, 3)
    with pytest.raises(InputError):
        Predicate.members(())
    with pytest.raises(InputError):
        Predicate.members((1, 1))


def test_holds_batch_matches_scalar():
    sums = np.arange(-20, 21, dtype=np.int64)
    for pred in (Predicate.ge(3), Predicate.eq(0), Predicate.mod(4, 1),
                 Predicate.members((-5, 2, 13))):
        batch = pred.holds_batch(sums)
        for s, verdict in zip(sums, batch):
            assert pred.holds(int(s)) == bool(verdict)


def test_holds_batch_beyond_int64():
    """Parameters outside int64: a membership list with a member no guarded
    sum reaches, and moduli past the accumulation guard, where the only
    sums in range congruent to r are r - m and r."""
    big = 1 << 70
    sums = np.array([-(1 << 62) + 1, -(1 << 61), -5, -1, 0, 1, 5, 1 << 61,
                     (1 << 62) - 1], dtype=np.int64)
    preds = (Predicate.members((big, 1)), Predicate.members((-big, big)),
             Predicate.mod(big, 5), Predicate.mod(big, big - 5),
             Predicate.mod((1 << 62) + 3, (1 << 62) - 1),
             Predicate.mod((1 << 62) + 3, 4), Predicate.ge(big),
             Predicate.ge(-big), Predicate.eq(big))
    for pred in preds:
        batch = pred.holds_batch(sums)
        assert [bool(v) for v in batch] == [pred.holds(int(s)) for s in sums]
    assert Predicate.mod(big, big - 5).holds_batch(sums)[2]
    gate = SymmetricGate(((0, 1), (1, 1)), Predicate.ge(1))
    for top in (Predicate.members((big, 1)), Predicate.members((big, 3)),
                Predicate.mod(big, big - 1), Predicate.mod(big, 3)):
        circuit = SymmetricCircuit(3, (gate,), (1,), ((2, 1),), top)
        ref = brute_circuit_sat(circuit)
        outcome = solve_symmetric(circuit)
        assert outcome.satisfiable == (ref is not None), top
        if outcome.witness is not None:
            assert evaluate(circuit, outcome.witness)


# --- circuits ---------------------------------------------------------------

def test_symmetric_circuit_validation():
    gate = SymmetricGate(((0, 1),), Predicate.ge(1))
    with pytest.raises(InputError):
        SymmetricCircuit(1, (gate,), (), (), Predicate.ge(1))
    with pytest.raises(InputError):
        SymmetricCircuit(2, (gate,), (1,), ((1, 0),), Predicate.ge(1))
    circuit = SymmetricCircuit(1, (gate,), (1,), (), Predicate.ge(1))
    assert circuit.weighted_wires == 1
    assert evaluate(circuit, (1,))
    assert not evaluate(circuit, (0,))


def test_declared_density_budget():
    gate = SymmetricGate(((0, 2), (1, 3)), Predicate.ge(1))
    SymmetricCircuit(2, (gate,), (1,), (), Predicate.ge(1), declared_density=3)
    with pytest.raises(InputError):
        SymmetricCircuit(2, (gate,), (1,), (), Predicate.ge(1),
                         declared_density=2)


def test_weighted_fan_in():
    gate = SymmetricGate(((0, 2), (3, -4)), Predicate.eq(0))
    assert gate.fan_in == 2
    assert gate.weighted_fan_in == 6


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_batch_matches_scalar(seed):
    circuit = random_symmetric_circuit(1 + seed % 8, 1 + seed % 12, seed=seed,
                                       weight_bound=3)
    n = circuit.n_vars
    rows = np.array(list(all_assignments(n)), dtype=np.uint8)
    batch = evaluate_batch(circuit, rows)
    for row, verdict in zip(rows, batch):
        assert evaluate(circuit, tuple(int(v) for v in row)) == bool(verdict)


# --- savings analysis -------------------------------------------------------

def test_savings_below_knee_is_exact():
    p, f, c = Fraction(1, 64), 2, Fraction(2)
    assert p * f < Fraction(1, 4) / c
    assert savings(p, f, c) == p / 4


def test_savings_above_knee_formula():
    p, f, c = Fraction(1, 2), 8, Fraction(1)
    expected = 0.5 / 2 - (1 / 8) * math.log2(8 * 1 * 0.5 * 8)
    assert math.isclose(float(savings(p, f, c)), expected, rel_tol=1e-12)


def test_savings_power_of_two_branch_is_exact():
    # 8*c*p*f = 32 here, so the logarithm is exactly 5.
    p, f, c = Fraction(1, 2), 8, Fraction(1)
    assert savings(p, f, c) == Fraction(1, 4) - Fraction(5, 8)


def test_savings_rejects_bad_inputs():
    with pytest.raises(InputError):
        savings(Fraction(0), 1, Fraction(1))
    with pytest.raises(InputError):
        savings(Fraction(2), 1, Fraction(1))
    with pytest.raises(InputError):
        savings(Fraction(1, 2), 0, Fraction(1))


def test_expected_savings_weights_by_density():
    dens = {2: Fraction(1), 8: Fraction(1, 2)}
    c = Fraction(2)
    total = expected_savings(Fraction(1, 4), dens, c)
    manual = (Fraction(1) / c) * savings(Fraction(1, 4), 2, c) \
        + (Fraction(1, 2) / c) * savings(Fraction(1, 4), 8, c)
    assert total == manual


def test_grid_size_formula():
    assert grid_size(Fraction(1)) == DEFAULT_KAPPA
    assert grid_size(Fraction(2)) == DEFAULT_KAPPA * 4
    assert grid_size(Fraction(3)) == math.ceil(
        DEFAULT_KAPPA * 9 * math.log2(3))
    assert p_grid(Fraction(1))[0] == Fraction(1, 2)
    assert p_grid(Fraction(1))[-1] == Fraction(1, 1 << DEFAULT_KAPPA)
    assert len(p_grid(Fraction(1))) == DEFAULT_KAPPA


def test_choose_p_is_grid_argmax():
    rng = Random(7)
    for _ in range(20):
        dens = {rng.randint(1, 64): Fraction(rng.randint(1, 8), 8)
                for _ in range(rng.randint(1, 5))}
        c = sum(dens.values()) + Fraction(rng.randint(0, 4), 4)
        best, best_score = None, None
        for cand in p_grid(c):
            score = expected_savings(cand, dens, c)
            if best_score is None or score > best_score:
                best, best_score = cand, score
        assert choose_p(dens, c) == best


def test_choose_p_stops_below_the_knee(monkeypatch):
    """choose_p scores the grid from the largest p down to the first point
    below the knee of the largest fan-in and no further, and still returns
    the argmax of the whole grid."""
    calls = []

    def counted(p, densities, c):
        calls.append(p)
        return expected_savings(p, densities, c)

    monkeypatch.setattr(symsat, "expected_savings", counted)
    rng = Random(11)
    cases = [(adversarial_densities(c), Fraction(c)) for c in (1, 2, 3)]
    for _ in range(30):
        dens = {rng.randint(1, 64): Fraction(rng.randint(1, 8), 8)
                for _ in range(rng.randint(1, 5))}
        cases.append((dens, sum(dens.values()) + Fraction(rng.randint(0, 4), 4)))
    for dens, c in cases:
        grid = p_grid(c)
        scores = [expected_savings(p, dens, c) for p in grid]
        best = grid[scores.index(max(scores))]
        calls.clear()
        assert choose_p(dens, c) == best
        knee = next(k for k, p in enumerate(grid)
                    if p * max(dens) < Fraction(1, 4) / c)
        assert calls == list(grid[:knee + 1])
        assert len(calls) < len(grid)


def test_choose_p_builds_no_grid(monkeypatch):
    """choose_p makes its candidates one at a time and never calls p_grid,
    whose tuple at weighted density 32 holds 327,680 Fractions with
    denominators up to 2^327680.  It still returns the argmax of the grid,
    and a circuit of density 32 is decided with the restriction, as the
    brute force decides it."""
    rng = Random(5)
    cases = []
    for _ in range(20):
        dens = {rng.randint(1, 64): Fraction(rng.randint(1, 8), 8)
                for _ in range(rng.randint(1, 5))}
        c = sum(dens.values()) + Fraction(rng.randint(0, 4), 4)
        grid = p_grid(c)
        scores = [expected_savings(p, dens, c) for p in grid]
        cases.append((dens, c, grid[scores.index(max(scores))]))

    def refuse(c):
        raise AssertionError("choose_p built the whole grid")

    monkeypatch.setattr(symsat, "p_grid", refuse)
    for dens, c, best in cases:
        assert choose_p(dens, c) == best
    # weighted fan-in 64 over two variables: the scan stops at the knee
    dens, c = {64: Fraction(32)}, Fraction(32)
    best, best_score = None, None
    for i in itertools.count(1):
        p = Fraction(1, 1 << i)
        score = expected_savings(p, dens, c)
        if best_score is None or score > best_score:
            best, best_score = p, score
        if p * 64 < Fraction(1, 4) / c:
            break
    assert choose_p(dens, c) == best
    heavy = SymmetricCircuit(
        2, (SymmetricGate(((0, 63), (1, 1)), Predicate.ge(1)),), (1,), (),
        Predicate.ge(1))
    assert wire_distribution(heavy) == dens
    outcome = solve_symmetric(heavy, force_restriction=True)
    assert outcome.satisfiable == (brute_circuit_sat(heavy) is not None)


def test_choose_p_prefers_largest_below_knee_point():
    # Fan-in one at density c=1: the knee sits at p = 1/4, scores above it
    # are negative, and below it they grow as p/4, so p = 1/8 wins.
    dens = {1: Fraction(1)}
    c = Fraction(1)
    assert choose_p(dens, c) == Fraction(1, 8)
    assert choose_p({}, c) == Fraction(1)


def test_adversarial_densities_structure():
    dens = adversarial_densities(3)
    assert dens == {2: Fraction(1), 4: Fraction(1), 8: Fraction(1)}
    with pytest.raises(InputError):
        adversarial_densities(0)


def test_adversarial_tightness_small_grids():
    for c in (1, 2):
        dens = adversarial_densities(c)
        for p in p_grid(Fraction(c)):
            assert expected_savings(p, dens, Fraction(c)) <= p / 2


def test_wire_distribution():
    gates = (SymmetricGate(((0, 1), (1, -1)), Predicate.ge(1)),
             SymmetricGate(((2, 1), (3, 1)), Predicate.eq(1)),
             SymmetricGate(((0, 2), (2, 2)), Predicate.ge(2)))
    circuit = SymmetricCircuit(4, gates, (1, 1, 1), (), Predicate.ge(1))
    dens = wire_distribution(circuit)
    assert dens == {2: Fraction(2 * 2, 4), 4: Fraction(4, 4)}


def test_gate_with_no_inputs_has_no_wire_class():
    """A gate with no inputs carries no wires: wire_distribution skips it,
    and a forced restriction decides the circuit as the default route and
    brute force do."""
    verdicts = set()
    for seed in range(6):
        base = random_symmetric_circuit(8, 16, seed=seed)
        circuit = replace(
            base, bottom=base.bottom + (SymmetricGate((), Predicate.eq(0)),),
            top_gate_weights=base.top_gate_weights + (2,))
        assert wire_distribution(circuit) == wire_distribution(base)
        expected = brute_circuit_sat(circuit) is not None
        verdicts.add(expected)
        for kwargs in ({}, {"force_restriction": True}):
            outcome = solve_symmetric(circuit, seed=seed, **kwargs)
            assert outcome.satisfiable == expected, (seed, kwargs)
    assert verdicts == {False, True}


# --- the solver -------------------------------------------------------------

@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_solve_matches_brute_forced(seed):
    n = 6 + seed % 7
    circuit = random_symmetric_circuit(n, n + seed % n, seed=seed,
                                       weight_bound=3)
    outcome = solve_symmetric(circuit, seed=seed, force_restriction=True)
    ref = brute_circuit_sat(circuit)
    assert outcome.satisfiable == (ref is not None)
    if outcome.witness is not None:
        assert evaluate(circuit, outcome.witness)


def test_solve_fast_path():
    """The default route: no draw, the greedy independent set eliminated,
    every other variable enumerated."""
    circuit = random_symmetric_circuit(8, 12, seed=1, weight_bound=3)
    cnt = WorkCounters()
    outcome = solve_symmetric(circuit, counters=cnt)
    assert outcome.restriction is None and outcome.params is None
    assert outcome.eliminated == greedy_independent_set(circuit)
    assert outcome.eliminated
    assert outcome.branches == 1 << (8 - len(outcome.eliminated))
    assert outcome.satisfiable == (brute_circuit_sat(circuit) is not None)
    if outcome.witness is None:
        assert cnt.assignments == outcome.branches
    else:
        assert evaluate(circuit, outcome.witness)


def test_solve_seed_is_deterministic():
    circuit = random_symmetric_circuit(12, 18, seed=4, weight_bound=3)
    a = solve_symmetric(circuit, force_restriction=True)
    b = solve_symmetric(circuit, force_restriction=True)
    assert a.restriction == b.restriction
    assert a.satisfiable == b.satisfiable


def _reachable_top_sums(circuit):
    """Every top-gate sum the cube reaches, by plain enumeration."""
    sums = set()
    for values in itertools.product((0, 1), repeat=circuit.n_vars):
        total = sum(top_w for gate, top_w in zip(circuit.bottom,
                                                 circuit.top_gate_weights)
                    if gate.pred.holds(sum(w * values[i]
                                           for i, w in gate.inputs)))
        sums.add(total + sum(w * values[i] for i, w in circuit.direct_wires))
    return sums


def _top_predicates(sums):
    """One SAT and one UNSAT top predicate of every kind: the SAT ones hold
    only at or near the largest reachable sum, the UNSAT ones nowhere."""
    lo, hi = min(sums), max(sums)
    m = hi - lo + 2   # no reachable sum is congruent to hi + 1 modulo m
    return [(Predicate.ge(hi), True), (Predicate.eq(hi), True),
            (Predicate.mod(3, hi % 3), True), (Predicate.members((hi,)), True),
            (Predicate.ge(hi + 1), False), (Predicate.eq(hi + 1), False),
            (Predicate.mod(m, (hi + 1) % m), False),
            (Predicate.members((lo - 1, hi + 1)), False)]


def _outside_exceptional(circuit, free):
    """The free variables in no gate with two or more free inputs, worked out
    here from the definition."""
    crowded = set()
    for gate in circuit.bottom:
        inputs = {i for i, _ in gate.inputs}
        if len(inputs & free) >= 2:
            crowded |= inputs
    return tuple(sorted(set(free) - crowded))


@pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(1, 2)])
def test_forced_restriction_routes_match_product_oracle(p):
    """Mixed-predicate circuits with direct wires, under every top
    predicate kind, SAT and UNSAT, each verdict against a plain enumeration
    over evaluate.  The eliminated set must be exactly the draw's free
    variables outside the exceptional gates (the top weights are small, so
    nothing is trimmed), and an UNSAT solve must examine every one of its
    2^(n - |S|) rows; both an empty and a nonempty set must occur."""
    taken = set()
    for seed in range(20):
        n = 8 + seed % 3
        base = random_symmetric_circuit(n, n + seed % n, seed=seed,
                                        weight_bound=3, direct_count=2)
        free = draw_restriction(base, p, Random(seed)).free
        for top, sat in _top_predicates(_reachable_top_sums(base)):
            circuit = replace(base, top_pred=top)
            cnt = WorkCounters()
            outcome = solve_symmetric(circuit, seed=seed, p=p,
                                      force_restriction=True, counters=cnt)
            assert sat == any(evaluate(circuit, values)
                              for values in itertools.product(
                                  (0, 1), repeat=n))
            assert outcome.satisfiable == sat, (seed, top)
            assert outcome.restriction.free == free
            assert outcome.eliminated == _outside_exceptional(circuit, free)
            assert outcome.branches == 1 << (n - len(outcome.eliminated))
            # the circuit route never reaches the pair search
            assert cnt.vectors == cnt.comparisons == cnt.recursion_nodes \
                == cnt.median_selections == 0
            if outcome.witness is not None:
                assert evaluate(circuit, outcome.witness)
                assert cnt.assignments <= outcome.branches
            else:
                assert cnt.assignments == outcome.branches
            taken.add("nonempty" if outcome.eliminated else "empty")
    assert taken == {"empty", "nonempty"}
