"""Tests for the text formats: grammar, round-trips, and error reporting."""

from dataclasses import replace

import pytest

from thrsat.errors import ParseError
from thrsat.formats import (emit_circuit, emit_ilp, emit_symmetric,
                            emit_witness, parse_circuit, parse_ilp,
                            parse_symmetric, parse_witness)
from thrsat.errors import InputError
from thrsat.model import (Assignment, Predicate, ThresholdCircuit,
                          ThresholdGate)
from thrsat.oracle import (GenSpec, generate, random_ilp,
                           random_symmetric_circuit)


def test_single_gate_circuit_text():
    circuit = parse_circuit("tc2 1 1\ngate 1 0:1\ntop 1 g0:1\n")
    assert circuit == ThresholdCircuit(1, (ThresholdGate(((0, 1),), 1),),
                                       (1,), (), 1)


def test_comments_and_blank_lines():
    text = """
    # a one-gate circuit
    tc2 2 1   # header
    gate 1 0:1 1:2
    # the top line
    top 1 g0:1 x1:-3
    """
    circuit = parse_circuit(text)
    assert circuit.n_vars == 2
    assert circuit.direct_wires == ((1, -3),)


def test_roundtrip_threshold():
    for seed in range(40):
        circuit = generate(GenSpec(kind="threshold_circuit", n=4 + seed % 9,
                                   c=1 + seed % 3, seed=seed))
        assert parse_circuit(emit_circuit(circuit)) == circuit


def test_roundtrip_ilp():
    for seed in range(40):
        system = random_ilp(2 + seed % 9, seed % 5, 2 + seed % 3, seed=seed)
        assert parse_ilp(emit_ilp(system)) == system


def test_roundtrip_symmetric_text():
    for seed in range(40):
        circuit = random_symmetric_circuit(3 + seed % 8, 3 + seed % 9,
                                           seed=seed, weight_bound=4,
                                           direct_count=seed % 3)
        text = emit_symmetric(circuit)
        assert emit_symmetric(parse_symmetric(text)) == text


def test_symmetric_declared_density_roundtrips():
    circuit = generate(GenSpec(kind="symmetric_circuit", n=8, c=2, seed=5))
    text = emit_symmetric(circuit)
    parsed = parse_symmetric(text)
    assert parsed.declared_density is not None
    assert parsed.weighted_wires <= parsed.declared_density * parsed.n_vars


def test_zero_top_weights_omitted_and_refilled():
    circuit = ThresholdCircuit(2, (ThresholdGate(((0, 1),), 1),
                                   ThresholdGate(((1, 1),), 1)),
                               (0, 2), (), 1)
    text = emit_circuit(circuit)
    assert "g0:" not in text
    assert parse_circuit(text) == circuit


def test_all_predicate_kinds_parse():
    text = ("sc2 4 4 8\n"
            "sgate ge 1 0:1 1:1\n"
            "sgate eq 0 1:1 2:-1\n"
            "sgate mod 3 2 0:1 3:1\n"
            "sgate set -1,0,2 2:1 3:-2\n"
            "stop ge 2 g0:1 g1:1 g2:1 g3:1 x0:1\n")
    circuit = parse_symmetric(text)
    kinds = [g.pred.kind.value for g in circuit.bottom]
    assert kinds == ["ge", "eq", "mod", "set"]
    assert circuit.bottom[2].pred.params == (3, 2)
    assert circuit.bottom[3].pred.params == (-1, 0, 2)
    assert emit_symmetric(parse_symmetric(emit_symmetric(circuit))) \
        == emit_symmetric(circuit)


def test_ilp_relations_roundtrip():
    text = ("ilp 3 5 2\n"
            "row ge 1 0:1 1:1\n"
            "row gt 0 2:1\n"
            "row le 1 0:1 2:1\n"
            "row lt 2 1:1\n"
            "row eq 1 0:1 1:-1\n")
    system = parse_ilp(text)
    assert emit_ilp(system) == text


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_circuit("tc2 2 1\nbogus 1 0:1\ntop 1 g0:1\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_circuit("tc2 2 1\ngate 1 0:x\ntop 1\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_ilp("ilp 2 1 2\nrow zz 1 0:1\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_symmetric("sc2 2 1 1\nsgate near 1 0:1\nstop ge 1 g0:1\n")
    assert err.value.line == 2
    # an input past the header's variable count is reported on its own line
    with pytest.raises(ParseError) as err:
        parse_circuit("tc2 3 2\ngate 1 0:1 9:1\ngate 1 1:1\ntop 1 g0:1\n")
    assert err.value.line == 2 and "x9" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_symmetric("sc2 3 2 3\nsgate ge 1 0:1\nsgate eq 1 1:1 3:1\n"
                        "stop ge 1 g0:1\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_ilp("ilp 2 2 2\nrow ge 1 0:1\nrow le 1 2:1\n")
    assert err.value.line == 3


def test_header_errors():
    with pytest.raises(ParseError):
        parse_circuit("")
    with pytest.raises(ParseError) as err:
        parse_circuit("tc2 2\ntop 0\n")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_circuit("ilp 2 0 2\n")
    for text, parse in (("tc2 3 -1\ntop 1 x0:1\n", parse_circuit),
                        ("tc2 -3 0\ntop 1\n", parse_circuit),
                        ("sc2 2 -1 1\nstop ge 1\n", parse_symmetric),
                        ("ilp 2 -3 2\n", parse_ilp)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == 1, text


def test_emit_circuit_refuses_non_ge_predicates():
    circuit = random_symmetric_circuit(6, 8, seed=3, weight_bound=3)
    assert any(g.pred.kind.value != "ge" for g in circuit.bottom)
    with pytest.raises(InputError):
        emit_circuit(circuit)
    threshold = ThresholdCircuit(2, (ThresholdGate(((0, 1), (1, 1)), 1),),
                                 (1,), (), 1)
    with pytest.raises(InputError):
        emit_circuit(replace(threshold, top_pred=Predicate.eq(1)))
    assert parse_circuit(emit_circuit(threshold)) == threshold


def test_extra_lines_rejected():
    with pytest.raises(ParseError) as err:
        parse_circuit("tc2 1 1\ngate 1 0:1\ntop 1 g0:1\ngate 1 0:1\n")
    assert err.value.line == 4


def test_integer_bound_enforced():
    with pytest.raises(ParseError):
        parse_circuit(f"tc2 1 1\ngate {2**31} 0:1\ntop 1 g0:1\n")
    with pytest.raises(ParseError):
        parse_circuit(f"tc2 1 1\ngate 1 0:{-2**31 - 1}\ntop 1 g0:1\n")
    # -2^31 itself is in range.
    circuit = parse_circuit(f"tc2 1 1\ngate {-2**31} 0:1\ntop 1 g0:1\n")
    assert circuit.bottom[0].pred == Predicate.ge(-2 ** 31)


def test_top_term_errors():
    with pytest.raises(ParseError):
        parse_circuit("tc2 1 1\ngate 1 0:1\ntop 1 g1:1\n")
    with pytest.raises(ParseError):
        parse_circuit("tc2 1 1\ngate 1 0:1\ntop 1 g0:1 g0:2\n")
    with pytest.raises(ParseError):
        parse_circuit("tc2 1 1\ngate 1 0:1\ntop 1 q0:1\n")


def test_semantic_errors_become_parse_errors():
    # Duplicate variable inside a gate is caught at line granularity.
    with pytest.raises(ParseError) as err:
        parse_circuit("tc2 2 1\ngate 1 0:1 0:2\ntop 1 g0:1\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_symmetric("sc2 2 1 1\nsgate ge 1 0:3 1:3\nstop ge 1 g0:1\n")


def test_witness_roundtrip():
    w = Assignment((1, 0, 1), 2)
    assert emit_witness(w) == "101"
    assert parse_witness("101", 3).values == (1, 0, 1)
    t = Assignment((0, 2, 1), 3)
    assert emit_witness(t) == "021"
    assert parse_witness("021", 3, arity=3).values == (0, 2, 1)
    with pytest.raises(ParseError):
        parse_witness("10", 3)
    with pytest.raises(ParseError):
        parse_witness("102", 3, arity=2)
    with pytest.raises(ValueError):
        emit_witness(Assignment(tuple([0] * 3), 11))
