"""Line-oriented text formats for circuits and constraint systems.

The formats are UTF-8, whitespace-tokenized, with `#` starting a comment that
runs to the end of the line.  All integers are decimal and must fit in a
signed 32-bit word.  Parsing and emitting are exact inverses on canonical
text, and emit always produces canonical text: both circuit formats are read
by one `_parse_gates` and written by its mirror, `_emit_gates`.

Threshold circuits::

    tc2 <n> <m>
    gate <t> <idx>:<w> ...      (m lines, gate j on the j-th)
    top <T> g<j>:<w> ... x<i>:<w> ...

Symmetric circuits use `sc2 <n> <m> <c>` where c is the declared wire-density
budget, gate lines `sgate <pred> <idx>:<w> ...`, and a `stop <pred> ...` top
line; `<pred>` is one of `ge <t>`, `eq <v>`, `mod <m> <r>`, `set <v1,v2,...>`.
Constraint systems use `ilp <n> <m> <arity>` and rows
`row <rel> <rhs> <idx>:<w> ...` with rel in ge/gt/le/lt/eq.
"""
from __future__ import annotations

from typing import Sequence

from .errors import InputError, ParseError
from .model import (Assignment, IneqSystem, Predicate, PredKind, Rel, Row,
                    SymmetricCircuit, SymmetricGate, require_threshold)

INT_BOUND = 1 << 31
MAX_WITNESS_ARITY = 10


class _Lines:
    """Comment-stripped token lines, consumed one at a time."""

    def __init__(self, text: str):
        raw = text.splitlines()
        self.items: list[tuple[int, list[str]]] = []
        for lineno, line in enumerate(raw, start=1):
            body = line.split("#", 1)[0]
            tokens = body.split()
            if tokens:
                self.items.append((lineno, tokens))
        self.pos = 0
        self.last_line = len(raw)

    def take(self, what: str) -> tuple[int, list[str]]:
        if self.pos >= len(self.items):
            raise ParseError(self.last_line, f"expected {what}, got end of input")
        item = self.items[self.pos]
        self.pos += 1
        return item

    def expect_end(self):
        if self.pos < len(self.items):
            lineno, tokens = self.items[self.pos]
            raise ParseError(lineno, f"unexpected extra line starting with {tokens[0]!r}")


def _int(token: str, lineno: int) -> int:
    try:
        value = int(token, 10)
    except ValueError:
        raise ParseError(lineno, f"expected an integer, got {token!r}") from None
    if not -INT_BOUND <= value < INT_BOUND:
        raise ParseError(lineno, f"integer {value} outside the 32-bit range")
    return value


def _term(token: str, lineno: int, prefix: str = "") -> tuple[int, int]:
    """Parse `<idx>:<w>` (or `g<j>:<w>` / `x<i>:<w>` with a prefix letter)."""
    head, sep, tail = token.partition(":")
    if not sep:
        raise ParseError(lineno, f"expected <idx>:<w>, got {token!r}")
    if prefix:
        if not head.startswith(prefix):
            raise ParseError(lineno, f"expected a {prefix}-term, got {token!r}")
        head = head[len(prefix):]
    idx = _int(head, lineno)
    if idx < 0:
        raise ParseError(lineno, f"negative index in {token!r}")
    return idx, _int(tail, lineno)


def _inputs(tokens: list[str], lineno: int, n: int, what: str
            ) -> tuple[tuple[int, int], ...]:
    """Parse `<idx>:<w>` terms whose indices must lie below n."""
    terms = tuple(_term(t, lineno) for t in tokens)
    for idx, _ in terms:
        if idx >= n:
            raise ParseError(lineno, f"{what} reads x{idx} but the header "
                             f"declares {n} variables")
    return terms


def _build(lineno: int, factory, *args):
    try:
        return factory(*args)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None


def _header(lines: _Lines, tag: str, fields: int) -> tuple[int, list[int]]:
    lineno, tokens = lines.take(f"a `{tag}` header")
    if tokens[0] != tag:
        raise ParseError(lineno, f"expected `{tag}` header, got {tokens[0]!r}")
    if len(tokens) != 1 + fields:
        raise ParseError(lineno, f"`{tag}` header takes {fields} fields")
    values = [_int(t, lineno) for t in tokens[1:]]
    if any(v < 0 for v in values):
        raise ParseError(lineno, f"`{tag}` header fields must be nonnegative")
    return lineno, values


def _top_terms(tokens: list[str], lineno: int, m: int
               ) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    gate_w = {}
    direct = []
    for token in tokens:
        if token.startswith("g"):
            j, w = _term(token, lineno, "g")
            if j >= m:
                raise ParseError(lineno, f"top references gate g{j} of {m}")
            if j in gate_w:
                raise ParseError(lineno, f"duplicate top weight for g{j}")
            gate_w[j] = w
        elif token.startswith("x"):
            direct.append(_term(token, lineno, "x"))
        else:
            raise ParseError(lineno, f"expected g- or x-term, got {token!r}")
    weights = tuple(gate_w.get(j, 0) for j in range(m))
    return weights, sorted(direct)


def _parse_pred(tokens: list[str], lineno: int) -> tuple[Predicate, list[str]]:
    """An `sc2` predicate: its kind, then its parameters."""
    if not tokens:
        raise ParseError(lineno, "missing predicate")
    kind, rest = tokens[0], tokens[1:]
    if kind in ("ge", "eq"):
        if not rest:
            raise ParseError(lineno, f"`{kind}` needs a value")
        value = _int(rest[0], lineno)
        pred = Predicate.ge(value) if kind == "ge" else Predicate.eq(value)
        return pred, rest[1:]
    if kind == "mod":
        if len(rest) < 2:
            raise ParseError(lineno, "`mod` needs a modulus and a residue")
        return _build(lineno, Predicate.mod, _int(rest[0], lineno),
                      _int(rest[1], lineno)), rest[2:]
    if kind == "set":
        if not rest:
            raise ParseError(lineno, "`set` needs a comma-separated value list")
        values = tuple(_int(v, lineno) for v in rest[0].split(","))
        return _build(lineno, Predicate.members, values), rest[1:]
    raise ParseError(lineno, f"unknown predicate kind {kind!r}")


def _parse_gates(lines: _Lines, n: int, m: int, gate_word: str,
                 top_word: str, parse_pred, density=None) -> SymmetricCircuit:
    """The m gate lines and the top line that follow a circuit header; the
    two circuit formats differ only in their keywords and predicates."""
    gates = []
    for _ in range(m):
        lineno, tokens = lines.take(f"a `{gate_word}` line")
        if tokens[0] != gate_word:
            raise ParseError(lineno, f"expected a `{gate_word}` line")
        pred, rest = parse_pred(tokens[1:], lineno)
        if not rest:
            raise ParseError(lineno, "gate has no inputs")
        inputs = _inputs(rest, lineno, n, "gate")
        gates.append(_build(lineno, SymmetricGate, inputs, pred))
    lineno, tokens = lines.take(f"a `{top_word}` line")
    if tokens[0] != top_word:
        raise ParseError(lineno, f"expected a `{top_word}` line")
    pred, rest = parse_pred(tokens[1:], lineno)
    weights, direct = _top_terms(rest, lineno, m)
    lines.expect_end()
    return _build(lineno, SymmetricCircuit, n, tuple(gates), weights, direct,
                  pred, density)


def parse_circuit(text: str) -> SymmetricCircuit:
    lines = _Lines(text)
    _, (n, m) = _header(lines, "tc2", 2)
    # a `tc2` threshold t is the `sc2` predicate `ge t`
    return _parse_gates(lines, n, m, "gate", "top",
                        lambda tokens, lineno: _parse_pred(["ge", *tokens], lineno))


def parse_symmetric(text: str) -> SymmetricCircuit:
    lines = _Lines(text)
    _, (n, m, c) = _header(lines, "sc2", 3)
    return _parse_gates(lines, n, m, "sgate", "stop", _parse_pred, c)


def parse_ilp(text: str) -> IneqSystem:
    lines = _Lines(text)
    header, (n, m, arity) = _header(lines, "ilp", 3)
    rows = []
    for _ in range(m):
        lineno, tokens = lines.take("a `row` line")
        if tokens[0] != "row" or len(tokens) < 4:
            raise ParseError(lineno, "expected `row <rel> <rhs> <idx>:<w> ...`")
        try:
            rel = Rel(tokens[1])
        except ValueError:
            raise ParseError(lineno, f"unknown relation {tokens[1]!r}") from None
        rhs = _int(tokens[2], lineno)
        coeffs = _inputs(tokens[3:], lineno, n, "row")
        rows.append(_build(lineno, Row, coeffs, rel, rhs))
    lines.expect_end()
    return _build(header, IneqSystem, n, tuple(rows), arity)


def _num(value: int) -> str:
    """An integer as the parsers read it back; InputError outside the
    32-bit range they accept."""
    if not -INT_BOUND <= value < INT_BOUND:
        raise InputError(f"integer {value} outside the 32-bit range")
    return str(value)


def _emit_terms(terms: Sequence[tuple[int, int]], prefix: str = "") -> str:
    return " ".join(f"{prefix}{_num(i)}:{_num(w)}" for i, w in terms)


def _emit_inputs(terms: Sequence[tuple[int, int]], what: str, j: int) -> str:
    """The input terms of gate or row j; InputError when it has none, a
    line the parsers refuse."""
    if not terms:
        raise InputError(f"{what} {j} has no inputs")
    return _emit_terms(terms)


def _emit_gates(circuit: SymmetricCircuit, header: str, gate_word: str,
                top_word: str, pred_text) -> str:
    """Header, gate lines and top line of a circuit, the mirror of
    `_parse_gates`; the top lists the nonzero gate weights, then the direct
    wires by index, the order they read back in."""
    out = [header]
    for j, gate in enumerate(circuit.bottom):
        out.append(f"{gate_word} {pred_text(gate.pred)} "
                   f"{_emit_inputs(gate.inputs, 'gate', j)}")
    gate_terms = tuple((j, w) for j, w in enumerate(circuit.top_gate_weights) if w)
    out.append(" ".join(part for part in (
        top_word, pred_text(circuit.top_pred), _emit_terms(gate_terms, "g"),
        _emit_terms(sorted(circuit.direct_wires), "x")) if part))
    return "\n".join(out) + "\n"


def emit_circuit(circuit: SymmetricCircuit) -> str:
    """`tc2` text of a threshold circuit; InputError for any predicate other
    than `ge`, for a gate with no inputs and for any integer outside the
    32-bit range."""
    require_threshold(circuit, "emit_circuit")
    return _emit_gates(
        circuit, f"tc2 {_num(circuit.n_vars)} {_num(len(circuit.bottom))}",
        "gate", "top", lambda pred: _num(pred.params[0]))


def _emit_pred(pred: Predicate) -> str:
    if pred.kind is PredKind.MEMBER:
        return "set " + ",".join(map(_num, pred.params))
    return " ".join((pred.kind.value, *map(_num, pred.params)))


def emit_symmetric(circuit: SymmetricCircuit) -> str:
    """`sc2` text of a circuit; without a declared density it declares the
    least one that covers the weighted wires.  InputError for a gate with no
    inputs and for any integer outside the 32-bit range, a derived density
    included."""
    density = circuit.declared_density
    if density is None:
        density = -(-circuit.weighted_wires // max(circuit.n_vars, 1))
    return _emit_gates(circuit, f"sc2 {_num(circuit.n_vars)} "
                       f"{_num(len(circuit.bottom))} {_num(density)}",
                       "sgate", "stop", _emit_pred)


def emit_ilp(system: IneqSystem) -> str:
    """`ilp` text of a constraint system; InputError for a row with no
    inputs and for any integer outside the 32-bit range."""
    out = [f"ilp {_num(system.n_vars)} {_num(len(system.rows))} "
           f"{_num(system.arity)}"]
    for j, row in enumerate(system.rows):
        out.append(f"row {row.rel.value} {_num(row.rhs)} "
                   f"{_emit_inputs(row.coeffs, 'row', j)}")
    return "\n".join(out) + "\n"


def emit_witness(assignment: Assignment) -> str:
    """Witness as one digit per variable, in variable order; InputError
    for an arity above MAX_WITNESS_ARITY, whose values need more than one
    digit."""
    if assignment.arity > MAX_WITNESS_ARITY:
        raise InputError(f"cannot print digits for arity {assignment.arity}")
    return "".join(str(v) for v in assignment.values)


def parse_witness(text: str, n_vars: int, arity: int = 2) -> Assignment:
    digits = text.strip()
    if arity > MAX_WITNESS_ARITY:
        raise ParseError(1, f"cannot read digits for arity {arity}")
    if len(digits) != n_vars:
        raise ParseError(1, f"expected {n_vars} digits, got {len(digits)}")
    try:
        values = tuple(int(ch) for ch in digits)
    except ValueError:
        raise ParseError(1, "witness must be a digit string") from None
    return _build(1, Assignment, values, arity)
