"""Tests for the circuit model: validation and evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thrsat.errors import InputError
from thrsat.model import (Assignment, Restriction,
                          ThresholdCircuit, ThresholdGate, evaluate,
                          evaluate_batch, wire_stats)


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


def test_restriction_partition():
    r = Restriction(assigned={0: 1, 2: 0}, free=frozenset({1}))
    assert r.n_vars == 3
    with pytest.raises(InputError):
        Restriction(assigned={0: 1}, free=frozenset({0}))
    with pytest.raises(InputError):
        Restriction(assigned={0: 1, 3: 0}, free=frozenset({1}))


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

