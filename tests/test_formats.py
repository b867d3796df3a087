"""Tests for the text formats: grammar, round-trips, and error reporting."""

import re
from dataclasses import replace

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from thrsat.errors import ParseError
from thrsat.formats import (emit_circuit, emit_ilp, emit_symmetric,
                            emit_witness, parse_circuit, parse_ilp,
                            parse_symmetric, parse_witness)
from thrsat.errors import InputError
from thrsat.model import (Assignment, IneqSystem, Predicate, Rel, Row,
                          SymmetricCircuit, SymmetricGate, ThresholdCircuit,
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
    # relation names are lower case; any other token is named on its line
    with pytest.raises(ParseError) as err:
        parse_ilp("ilp 2 2 2\nrow ge 1 0:1\nrow GE 1 1:1\n")
    assert str(err.value) == "line 3: unknown relation 'GE'"


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


def _refused(emit, instance, value):
    with pytest.raises(InputError, match=str(value)):
        emit(instance)


def test_emit_circuit_refuses_integers_past_32_bits():
    gate = ThresholdGate(((0, 1), (1, 1)), 1)
    circuit = ThresholdCircuit(2, (gate,), (1,), ((1, 1),), 1)
    for value in (1 << 70, 1 << 31, -(1 << 31) - 1):
        bad_gate = ThresholdGate(((0, 1), (1, 1)), value)
        _refused(emit_circuit, replace(circuit, bottom=(bad_gate,)), value)
        _refused(emit_circuit, replace(circuit, top_pred=Predicate.ge(value)),
                 value)
        _refused(emit_circuit, replace(circuit, top_gate_weights=(value,)),
                 value)
        _refused(emit_circuit, replace(circuit, direct_wires=((0, value),)),
                 value)
    for value in ((1 << 31) - 1, -(1 << 31)):
        edge = replace(circuit, bottom=(ThresholdGate(((0, value),), value),),
                       top_gate_weights=(value,))
        assert parse_circuit(emit_circuit(edge)) == edge


def test_emit_symmetric_refuses_integers_past_32_bits():
    gate = SymmetricGate(((0, 1), (1, 1)), Predicate.eq(1))
    circuit = SymmetricCircuit(2, (gate,), (1,), (), Predicate.ge(1),
                               declared_density=1)
    value = 1 << 40
    for pred, named in ((Predicate.ge(value), value),
                        (Predicate.eq(-value), -value),
                        (Predicate.mod(value, 1), value),
                        (Predicate.members((0, value)), value)):
        bad_gate = SymmetricGate(gate.inputs, pred)
        _refused(emit_symmetric, replace(circuit, bottom=(bad_gate,)), named)
        _refused(emit_symmetric, replace(circuit, top_pred=pred), named)
    _refused(emit_symmetric, replace(circuit, declared_density=value), value)
    _refused(emit_symmetric, replace(circuit, top_gate_weights=(value,)),
             value)
    edge = replace(circuit, top_pred=Predicate.members((-(1 << 31),
                                                        (1 << 31) - 1)))
    assert parse_symmetric(emit_symmetric(edge)) == edge


def test_emit_ilp_refuses_integers_past_32_bits():
    system = IneqSystem(2, (Row(((0, 1), (1, 1)), Rel.GE, 1),), 2)
    value = 1 << 40
    _refused(emit_ilp, replace(system, rows=(
        Row(((0, value), (1, 1)), Rel.GE, 1),)), value)
    _refused(emit_ilp, replace(system, rows=(
        Row(((0, 1), (1, 1)), Rel.LT, -value),)), -value)
    edge = replace(system, rows=(
        Row(((0, (1 << 31) - 1), (1, -(1 << 31))), Rel.EQ, -(1 << 31)),))
    assert parse_ilp(emit_ilp(edge)) == edge


def test_emit_circuit_refuses_a_gate_with_no_inputs():
    gates = (ThresholdGate(((0, 1),), 1), SymmetricGate((), Predicate.ge(0)))
    circuit = ThresholdCircuit(2, gates, (1, 1), (), 1)
    with pytest.raises(InputError, match="gate 1 has no inputs"):
        emit_circuit(circuit)
    with pytest.raises(ParseError, match="no inputs"):
        parse_circuit("tc2 2 2\ngate 1 0:1\ngate 0\ntop 1 g0:1 g1:1\n")


def test_emit_symmetric_refuses_a_gate_with_no_inputs():
    gates = (SymmetricGate((), Predicate.eq(0)),
             SymmetricGate(((1, 1),), Predicate.mod(2, 1)))
    circuit = SymmetricCircuit(2, gates, (1, 1), (), Predicate.ge(1))
    with pytest.raises(InputError, match="gate 0 has no inputs"):
        emit_symmetric(circuit)
    with pytest.raises(ParseError, match="no inputs"):
        parse_symmetric("sc2 2 1 1\nsgate eq 0\nstop ge 1 g0:1\n")


def test_emit_ilp_refuses_a_row_with_no_inputs():
    rows = (Row(((0, 1),), Rel.GE, 1), Row(((1, 2),), Rel.LE, 1),
            Row((), Rel.GE, 0))
    with pytest.raises(InputError, match="row 2 has no inputs"):
        emit_ilp(IneqSystem(2, rows, 2))
    with pytest.raises(ParseError):
        parse_ilp("ilp 2 1 2\nrow ge 0\n")


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


@pytest.mark.parametrize("parse, text, line", [
    (parse_circuit, "tc2 3 2\ngate 1 0:1\ngate 1 1:0\ntop 1 g0:1\n", 3),
    (parse_circuit, "tc2 3 1\ngate 1 2:1 1:1 2:3\ntop 1 g0:1\n", 2),
    (parse_circuit, "tc2 3 1\ngate 1 0:1\ntop 1 g0:1 x1:0\n", 3),
    (parse_circuit, "tc2 3 1\ngate 1 0:1\ntop 1 g0:1 x3:1\n", 3),
    (parse_symmetric, "sc2 3 2 2\nsgate eq 1 0:1\nsgate ge 1 2:0\n"
     "stop ge 1 g0:1\n", 3),
    (parse_symmetric, "sc2 3 1 4\nsgate mod 2 1 0:1 0:1\nstop ge 1\n", 2),
    (parse_symmetric, "sc2 3 1 1\nsgate ge 1 0:1\nstop ge 1 x2:0\n", 3),
    (parse_ilp, "ilp 3 2 2\nrow ge 1 0:1\nrow le 1 1:0\n", 3),
    (parse_ilp, "ilp 3 1 2\nrow eq 1 1:2 1:-2\n", 2),
])
def test_bad_weighted_terms_are_refused_on_their_line(parse, text, line):
    """A zero weight, a repeated index or a direct wire past the header's
    variable count is a ParseError on the line of the term."""
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line


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


# --- fuzzing ------------------------------------------------------------------

INT32 = st.integers(-2 ** 31, 2 ** 31 - 1)
WEIGHT = INT32.filter(bool)
PREDICATE = st.one_of(
    INT32.map(Predicate.ge), INT32.map(Predicate.eq),
    st.integers(1, 2 ** 31 - 1).flatmap(
        lambda m: st.integers(0, m - 1).map(lambda r: Predicate.mod(m, r))),
    st.lists(INT32, min_size=1, max_size=4, unique=True).map(Predicate.members))


def _terms(n):
    """Up to three `<idx>:<w>` terms on distinct variables below n."""
    return st.lists(st.tuples(st.integers(0, n - 1), WEIGHT), max_size=3,
                    unique_by=lambda t: t[0])


@st.composite
def circuits(draw, threshold):
    n = draw(st.integers(1, 6))
    pred = st.builds(Predicate.ge, INT32) if threshold else PREDICATE
    gates = draw(st.lists(st.builds(SymmetricGate,
                                    _terms(n).filter(bool), pred),
                          max_size=4))
    top_w = draw(st.lists(INT32, min_size=len(gates), max_size=len(gates)))
    return SymmetricCircuit(n, gates, top_w, draw(_terms(n)), draw(pred))


@st.composite
def systems(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.builds(Row, _terms(n).filter(bool),
                                   st.sampled_from(list(Rel)), INT32),
                         max_size=4))
    return IneqSystem(n, rows, draw(st.integers(2, 2 ** 31 - 1)))


def _text(emit, instance):
    """The instance's text; an `sc2` circuit whose least density is past
    the 32-bit range has none and is refused."""
    try:
        return emit(instance)
    except InputError:
        assert -(-instance.weighted_wires // instance.n_vars) >= 2 ** 31
        reject()


def _canonical(circuit):
    """The circuit as its text reads back: direct wires by index."""
    return replace(circuit, direct_wires=tuple(sorted(circuit.direct_wires)))


FORMATS = {
    "circuit": (circuits(threshold=True), emit_circuit, parse_circuit),
    "symmetric": (circuits(threshold=False), emit_symmetric, parse_symmetric),
    "ilp": (systems(), emit_ilp, parse_ilp),
}
KEYWORDS = {"tc2", "sc2", "ilp", "gate", "sgate", "top", "stop", "row"}
NUMBER = re.compile(r"-?\d+")


@pytest.mark.parametrize("kind", sorted(FORMATS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_emit_then_parse_round_trips(kind, data):
    """Any instance with 32-bit integers, at the bounds included, reads back
    from its text as itself, and its text is canonical: emitting what was
    parsed gives the same text."""
    strategy, emit, parse = FORMATS[kind]
    instance = data.draw(strategy)
    text = _text(emit, instance)
    parsed = parse(text)
    if kind == "symmetric":
        assert parsed.declared_density * parsed.n_vars >= instance.weighted_wires
        parsed = replace(parsed, declared_density=None)
    assert parsed == (_canonical(instance) if kind != "ilp" else instance)
    assert emit(parse(text)) == text


@pytest.mark.parametrize("kind", sorted(FORMATS))
@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       value=st.sampled_from([-2 ** 31 - 1, -2 ** 31, 2 ** 31 - 1, 2 ** 31]))
def test_integers_at_the_32_bit_bounds(kind, data, value):
    """One integer of a valid text, any of them after a line's keyword, is
    set to -2^31 - 1, -2^31, 2^31 - 1 or 2^31.  Past the range the text is
    refused on that line; inside it, it is read or refused with a line
    number."""
    strategy, emit, parse = FORMATS[kind]
    lines = _text(emit, data.draw(strategy)).splitlines()
    slots = [(k, match.start(), match.end()) for k, line in enumerate(lines)
             for match in NUMBER.finditer(line, len(line.split()[0]))]
    k, start, end = data.draw(st.sampled_from(slots))
    lines[k] = lines[k][:start] + str(value) + lines[k][end:]
    try:
        parse("\n".join(lines))
    except ParseError as err:
        assert 1 <= err.line <= len(lines)
        if not -2 ** 31 <= value < 2 ** 31:
            assert err.line == k + 1
    else:
        assert -2 ** 31 <= value < 2 ** 31


# characters that neither end a line nor start a comment
LINE_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl",
                                                        "Zp"),
                                  blacklist_characters="#"))


@pytest.mark.parametrize("kind", sorted(FORMATS))
@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       head=LINE_TEXT.map(str.split).filter(
           lambda t: bool(t) and t[0] not in KEYWORDS),
       tail=LINE_TEXT)
def test_junk_lines_are_refused_on_their_line(kind, data, head, tail):
    """A line whose first token is no keyword, put anywhere in a valid
    text, is refused with a ParseError on that line; any text at all is
    read or refused with a ParseError, never another exception."""
    strategy, emit, parse = FORMATS[kind]
    lines = _text(emit, data.draw(strategy)).splitlines()
    k = data.draw(st.integers(0, len(lines)))
    lines.insert(k, " ".join(head) + " " + tail)
    with pytest.raises(ParseError) as err:
        parse("\n".join(lines))
    assert err.value.line == k + 1
    try:
        parse(data.draw(st.text()))
    except ParseError:
        pass
