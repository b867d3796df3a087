"""Tests for the circuit model: validation and evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thrsat.errors import InputError
from thrsat.model import (Assignment, Rel, Restriction, Row,
                          ThresholdCircuit, ThresholdGate, evaluate,
                          evaluate_batch, weighted_terms, wire_stats)


@st.composite
def small_circuits(draw, max_n=8, max_gates=4, max_w=5):
    """Strategy producing valid random threshold circuits."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_gates))
    gates = []
    for _ in range(m):
        fan_in = draw(st.integers(1, n))
        vars_ = sorted(draw(st.permutations(range(n)))[:fan_in])
        inputs = tuple(
            (i, draw(st.integers(-max_w, max_w).filter(bool))) for i in vars_)
        gates.append(ThresholdGate(inputs, draw(st.integers(-max_w, max_w))))
    top_w = tuple(draw(st.integers(-max_w, max_w)) for _ in range(m))
    d = draw(st.integers(0, n))
    direct_vars = sorted(draw(st.permutations(range(n)))[:d])
    direct = tuple(
        (i, draw(st.integers(-max_w, max_w).filter(bool))) for i in direct_vars)
    return ThresholdCircuit(n, tuple(gates), top_w, direct,
                            draw(st.integers(-3 * max_w, 3 * max_w)))


def all_assignments(n):
    for x in range(1 << n):
        yield tuple((x >> (n - 1 - i)) & 1 for i in range(n))


def test_gate_validation():
    with pytest.raises(InputError):
        ThresholdGate(((0, 0),), 1)
    with pytest.raises(InputError):
        ThresholdGate(((0, 1), (0, 2)), 1)
    with pytest.raises(InputError):
        ThresholdGate(((-1, 1),), 1)
    gate = ThresholdGate(((0, 2), (3, -1)), 1)
    assert gate.fan_in == 2


def test_circuit_validation():
    gate = ThresholdGate(((0, 1),), 1)
    with pytest.raises(InputError):
        ThresholdCircuit(1, (gate,), (), (), 0)
    with pytest.raises(InputError):
        ThresholdCircuit(1, (gate,), (1,), ((0, 0),), 0)
    with pytest.raises(InputError):
        ThresholdCircuit(1, (gate,), (1,), ((0, 1), (0, 2)), 0)
    with pytest.raises(InputError):
        # direct wire past the variable count
        ThresholdCircuit(1, (gate,), (1,), ((1, 1),), 0)
    with pytest.raises(InputError):
        # gate reads past the variable count
        ThresholdCircuit(0, (gate,), (1,), (), 0)


def test_single_gate_example():
    circuit = ThresholdCircuit(1, (ThresholdGate(((0, 1),), 1),), (1,), (), 1)
    assert evaluate(circuit, (1,))
    assert not evaluate(circuit, (0,))
    assert circuit.wires == 1


def test_assignment_validation():
    with pytest.raises(InputError):
        Assignment((0, 2), 2)
    with pytest.raises(InputError):
        Assignment((0, 1), 1)
    a = Assignment((0, 2, 1), 3)
    assert list(a) == [0, 2, 1]
    assert a[1] == 2


def test_restriction_is_its_free_set():
    r = Restriction(frozenset({1}), 3)
    assert r.n_vars == 3 and r.free == {1}
    assert Restriction(frozenset(), 0).free == frozenset()
    assert Restriction(frozenset(range(4)), 4).n_vars == 4
    for free, n in (({3}, 3), ({-1}, 3), ({0}, 0), ((), -1)):
        with pytest.raises(InputError):
            Restriction(frozenset(free), n)


def _gate_terms(terms):
    return ThresholdGate(terms, 1)


def _row_terms(terms):
    return Row(terms, Rel.GE, 1)


def _direct_terms(terms):
    return ThresholdCircuit(4, (), (), terms, 1)


@pytest.mark.parametrize("build", [_gate_terms, _row_terms, _direct_terms])
@pytest.mark.parametrize("terms", [((0, 0),), ((1, 2), (-1, 1)),
                                   ((2, 1), (0, 3), (2, -1))])
def test_weighted_terms_refused_alike(build, terms):
    """Gate inputs, row coefficients and direct wires refuse a zero weight,
    a negative index and a repeated index."""
    with pytest.raises(InputError):
        build(terms)


def test_weighted_terms_are_int_pairs():
    terms = weighted_terms(((np.int64(3), np.int64(2)), (0, -1)), "gate")
    assert terms == ((3, 2), (0, -1))
    assert all(type(v) is int for term in terms for v in term)


def test_wire_stats_counts_bottom_wires_only():
    gates = (ThresholdGate(((0, 1), (1, 2)), 1), ThresholdGate(((2, -1),), 0))
    circuit = ThresholdCircuit(3, gates, (1, 1), ((0, 5),), 1)
    stats = wire_stats(circuit)
    assert stats.total == 3
    assert stats.fanins == {2: 1, 1: 1}
    assert circuit.wires == 3


@given(small_circuits())
@settings(max_examples=120, deadline=None)
def test_batch_matches_scalar_evaluation(circuit):
    n = circuit.n_vars
    rows = np.array(list(all_assignments(n)), dtype=np.uint8)
    batch = evaluate_batch(circuit, rows)
    for row, verdict in zip(rows, batch):
        assert evaluate(circuit, tuple(int(v) for v in row)) == bool(verdict)

