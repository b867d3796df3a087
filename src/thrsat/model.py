"""Data model: depth-two circuits of symmetric gates, and constraint systems.

A circuit has one layer of gates feeding a single gate at the top.  Every
gate applies a predicate (threshold, equality, congruence, or membership in
a finite set) to an integer-weighted sum of its Boolean inputs; the top gate
may also read input variables directly ("direct wires").  A threshold
circuit is the member of this family whose predicates are all `ge`, built by
ThresholdGate and ThresholdCircuit.  Sparseness is measured in bottom-layer
wires: a gate with k inputs contributes k wires, direct wires are not
counted.

A constraint system is a set of integer-weighted rows 'sum <rel> rhs' over
variables with values 0..arity-1.  Rel states each relation once: its
comparison, `holds`, and its rows in the form 'sum >= rhs', `ge_forms`.
`evaluate` decides a circuit on an assignment and `verify` a system.
"""
from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import InputError

# Every gate, top and row sum must stay strictly inside +-ACCUMULATION_GUARD,
# so that it fits int64 whatever the weights (see check_accumulation).
ACCUMULATION_GUARD = 1 << 62


class PredKind(str, Enum):
    GE = "ge"
    EQ = "eq"
    MOD = "mod"
    MEMBER = "set"


@dataclass(frozen=True)
class Predicate:
    """A predicate on an integer, applied to a gate's weighted input sum."""

    kind: PredKind
    params: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "kind", PredKind(self.kind))
        object.__setattr__(self, "params", tuple(int(v) for v in self.params))
        if self.kind in (PredKind.GE, PredKind.EQ):
            if len(self.params) != 1:
                raise InputError(f"{self.kind.value} takes exactly one parameter")
        elif self.kind is PredKind.MOD:
            if len(self.params) != 2:
                raise InputError("mod takes a modulus and a residue")
            m, r = self.params
            if m < 1:
                raise InputError("modulus must be positive")
            if not 0 <= r < m:
                raise InputError("residue must lie in 0..modulus-1")
        else:
            if not self.params:
                raise InputError("membership predicate needs at least one value")
            if len(set(self.params)) != len(self.params):
                raise InputError("duplicate value in membership predicate")
            object.__setattr__(self, "params", tuple(sorted(self.params)))

    @classmethod
    def ge(cls, t: int) -> "Predicate":
        return cls(PredKind.GE, (t,))

    @classmethod
    def eq(cls, v: int) -> "Predicate":
        return cls(PredKind.EQ, (v,))

    @classmethod
    def mod(cls, m: int, r: int) -> "Predicate":
        return cls(PredKind.MOD, (m, r))

    @classmethod
    def members(cls, values: Sequence[int]) -> "Predicate":
        return cls(PredKind.MEMBER, tuple(values))

    def holds(self, s: int) -> bool:
        if self.kind is PredKind.GE:
            return s >= self.params[0]
        if self.kind is PredKind.EQ:
            return s == self.params[0]
        if self.kind is PredKind.MOD:
            return s % self.params[0] == self.params[1]
        return s in self.params

    def holds_batch(self, sums: np.ndarray) -> np.ndarray:
        """holds on every entry of an int64 array whose entries lie strictly
        inside +-ACCUMULATION_GUARD, as every guarded sum does."""
        kind, params = self.int64_form()
        return holds_columns(kind, [np.int64(v) for v in params], sums)

    def int64_form(self) -> tuple[PredKind, tuple[int, ...]]:
        """A kind and parameters, all inside int64, that decide every sum
        strictly inside +-ACCUMULATION_GUARD as this predicate does.  A
        threshold or value no such sum reaches is clipped to the guard, a
        member no such sum reaches is dropped, and a modulus m beyond the
        guard leaves only the sums r - m and r, as a membership test."""
        g = ACCUMULATION_GUARD
        kind, params = self.kind, self.params
        if kind is PredKind.GE or kind is PredKind.EQ:
            return kind, (min(max(params[0], -g), g),)
        if kind is PredKind.MEMBER:
            return kind, tuple(v for v in params if -g < v < g)
        m, r = params
        if m <= g:
            return kind, params
        return PredKind.MEMBER, tuple(v for v in (r - m, r) if -g < v < g)


def holds_columns(kind: PredKind, columns: Sequence, sums: np.ndarray
                  ) -> np.ndarray:
    """Predicates of one kind on an int64 array, by one vectorized
    comparison (one per member for a membership test).

    columns hold the parameters of Predicate.int64_form, each an int64
    scalar or an array broadcast against sums, so that one call tests a
    whole group of gates with one row of sums per gate.
    """
    if kind is PredKind.GE:
        return sums >= columns[0]
    if kind is PredKind.EQ:
        return sums == columns[0]
    if kind is PredKind.MOD:
        return sums % columns[0] == columns[1]
    out = np.zeros(np.shape(sums), dtype=bool)
    for member in columns:
        out |= sums == member
    return out


def weighted_terms(terms: Iterable[tuple[int, int]], what: str
                   ) -> tuple[tuple[int, int], ...]:
    """(index, weight) terms of a gate, a row or the direct wires, as
    pairs of ints; InputError for a zero weight, a negative index or an
    index named twice, with what naming the terms."""
    out = tuple((int(i), int(w)) for i, w in terms)
    seen = set()
    for idx, w in out:
        if w == 0:
            raise InputError(f"zero weight on x{idx} in {what}")
        if idx < 0:
            raise InputError(f"negative variable index in {what}")
        if idx in seen:
            raise InputError(f"duplicate variable x{idx} in {what}")
        seen.add(idx)
    return out


@dataclass(frozen=True)
class SymmetricGate:
    inputs: tuple[tuple[int, int], ...]
    pred: Predicate

    def __post_init__(self):
        object.__setattr__(self, "inputs", weighted_terms(self.inputs, "gate"))

    @property
    def fan_in(self) -> int:
        return len(self.inputs)

    @property
    def weighted_fan_in(self) -> int:
        return sum(abs(w) for _, w in self.inputs)


@dataclass(frozen=True)
class SymmetricCircuit:
    """Depth-two circuit of symmetric gates.

    declared_density, when set, is the wire budget c from the text format
    header; the weighted wire count must stay within c * n_vars.  It has no
    effect on semantics.
    """

    n_vars: int
    bottom: tuple[SymmetricGate, ...]
    top_gate_weights: tuple[int, ...]
    direct_wires: tuple[tuple[int, int], ...]
    top_pred: Predicate
    declared_density: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "bottom", tuple(self.bottom))
        object.__setattr__(self, "top_gate_weights",
                           tuple(int(w) for w in self.top_gate_weights))
        object.__setattr__(self, "direct_wires",
                           weighted_terms(self.direct_wires, "direct wires"))
        if self.n_vars < 0:
            raise InputError("n_vars must be nonnegative")
        if len(self.top_gate_weights) != len(self.bottom):
            raise InputError("need exactly one top weight per bottom gate")
        for gate in self.bottom:
            for idx, _ in gate.inputs:
                if idx >= self.n_vars:
                    raise InputError(f"gate reads x{idx} but circuit has {self.n_vars} variables")
        for idx, _ in self.direct_wires:
            if idx >= self.n_vars:
                raise InputError(f"direct wire on x{idx} out of range")
        if self.declared_density is not None \
                and self.weighted_wires > self.declared_density * self.n_vars:
            raise InputError("weighted wires exceed the declared density budget")

    @property
    def weighted_wires(self) -> int:
        return sum(g.weighted_fan_in for g in self.bottom)

    @property
    def wires(self) -> int:
        return sum(g.fan_in for g in self.bottom)


def ThresholdGate(inputs: Sequence[tuple[int, int]], threshold: int) -> SymmetricGate:
    """A gate that fires when the weighted sum of its inputs reaches the
    threshold."""
    return SymmetricGate(inputs, Predicate.ge(threshold))


def ThresholdCircuit(n_vars: int, bottom: Sequence[SymmetricGate],
                     top_gate_weights: Sequence[int],
                     direct_wires: Sequence[tuple[int, int]],
                     top_threshold: int) -> SymmetricCircuit:
    """A circuit whose top gate accepts when its weighted sum reaches
    top_threshold."""
    return SymmetricCircuit(n_vars, bottom, top_gate_weights, direct_wires,
                            Predicate.ge(top_threshold))


def require_threshold(circuit: SymmetricCircuit, what: str) -> None:
    """Refuse a circuit with a predicate other than `ge`."""
    if circuit.top_pred.kind is not PredKind.GE \
            or any(g.pred.kind is not PredKind.GE for g in circuit.bottom):
        raise InputError(f"{what} takes threshold circuits, whose predicates "
                         "are all `ge`")


@dataclass(frozen=True)
class Assignment:
    """A total assignment; values[i] is the value of variable i."""

    values: tuple[int, ...]
    arity: int = 2

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if self.arity < 2:
            raise InputError("arity must be at least 2")
        for v in self.values:
            if not 0 <= v < self.arity:
                raise InputError(f"value {v} out of range for arity {self.arity}")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]


@dataclass(frozen=True)
class Restriction:
    """The free set of a random restriction of n_vars variables.

    No variable is fixed to a value: the solvers enumerate both values of
    every variable outside the set they eliminate.
    """

    free: frozenset[int]
    n_vars: int

    def __post_init__(self):
        object.__setattr__(self, "free", frozenset(int(i) for i in self.free))
        if self.n_vars < 0 \
                or not all(0 <= i < self.n_vars for i in self.free):
            raise InputError("free variables must lie in 0..n_vars-1")


@dataclass(frozen=True)
class WireStats:
    fanins: Counter
    total: int


AssignmentLike = Union[Assignment, Sequence[int]]


def evaluate(circuit: SymmetricCircuit, assignment: AssignmentLike) -> bool:
    """Evaluate the circuit: a gate fires iff its predicate holds on its
    weighted input sum, the circuit accepts iff the top predicate holds on
    the top weighted sum."""
    values = assignment
    if isinstance(assignment, Assignment):
        if assignment.arity != 2:
            raise InputError("circuits take Boolean assignments")
        values = assignment.values
    if len(values) != circuit.n_vars:
        raise InputError(f"assignment has {len(values)} values, circuit has "
                         f"{circuit.n_vars} variables")
    for v in values:
        if v not in (0, 1):
            raise InputError("assignment values must be 0 or 1")
    total = 0
    for gate, top_w in zip(circuit.bottom, circuit.top_gate_weights):
        s = 0
        for idx, w in gate.inputs:
            s += w * values[idx]
        if gate.pred.holds(s):
            total += top_w
    for idx, w in circuit.direct_wires:
        total += w * values[idx]
    return circuit.top_pred.holds(total)


def wire_stats(circuit: SymmetricCircuit) -> WireStats:
    """Multiset of bottom-gate fan-ins and the total bottom-layer wire count."""
    fanins = Counter(g.fan_in for g in circuit.bottom)
    return WireStats(fanins=fanins, total=sum(g.fan_in for g in circuit.bottom))


def check_accumulation(circuit: SymmetricCircuit) -> None:
    """Refuse circuits whose gate or top sums could leave int64.

    Every bottom-gate sum is bounded by its absolute weight total and every
    top sum by the absolute top and direct weight total; both must stay
    below ACCUMULATION_GUARD.
    """
    worst_top = sum(abs(w) for w in circuit.top_gate_weights) \
        + sum(abs(w) for _, w in circuit.direct_wires)
    worst_gate = max((g.weighted_fan_in for g in circuit.bottom), default=0)
    if max(worst_top, worst_gate) >= ACCUMULATION_GUARD:
        raise InputError("circuit weights exceed the accumulation guard")


def evaluate_batch(circuit: SymmetricCircuit, values: np.ndarray) -> np.ndarray:
    """Evaluate the circuit on a whole batch of assignments at once.

    values is a (rows, n_vars) array of 0/1 entries; the result is a Boolean
    array with one verdict per row.  Accumulation stays inside int64:
    check_accumulation refuses a circuit whose gate or top sums could reach
    ACCUMULATION_GUARD.
    """
    vals = np.asarray(values)
    if vals.ndim != 2 or vals.shape[1] != circuit.n_vars:
        raise InputError("values must be a (rows, n_vars) array")
    rows = vals.shape[0]
    check_accumulation(circuit)
    acc = np.zeros(rows, dtype=np.int64)
    for gate, top_w in zip(circuit.bottom, circuit.top_gate_weights):
        gsum = np.zeros(rows, dtype=np.int64)
        for idx, w in gate.inputs:
            gsum += w * vals[:, idx].astype(np.int64)
        acc += np.where(gate.pred.holds_batch(gsum), np.int64(top_w), np.int64(0))
    for idx, w in circuit.direct_wires:
        acc += w * vals[:, idx].astype(np.int64)
    return circuit.top_pred.holds_batch(acc)


class Rel(str, Enum):
    """The relation of a constraint row 'sum <rel> rhs'."""

    GE = "ge"
    GT = "gt"
    LE = "le"
    LT = "lt"
    EQ = "eq"

    def holds(self, lhs, rhs):
        """lhs <rel> rhs, on ints, or entrywise on int64 arrays."""
        return _REL_TABLE[self][0](lhs, rhs)

    @property
    def ge_forms(self) -> tuple[tuple[int, int], ...]:
        """(sign, shift) per row 'sign * sum >= sign * rhs + shift'; with
        integer sums the rows together say 'sum <rel> rhs'.  A strict row is
        shifted by one, and an equality is two opposite rows."""
        return _REL_TABLE[self][1]


_REL_TABLE = {
    Rel.GE: (operator.ge, ((1, 0),)),
    Rel.GT: (operator.gt, ((1, 1),)),
    Rel.LE: (operator.le, ((-1, 0),)),
    Rel.LT: (operator.lt, ((-1, 1),)),
    Rel.EQ: (operator.eq, ((1, 0), (-1, 0))),
}


@dataclass(frozen=True)
class Row:
    coeffs: tuple[tuple[int, int], ...]
    rel: Rel
    rhs: int

    def __post_init__(self):
        object.__setattr__(self, "coeffs", weighted_terms(self.coeffs, "row"))
        object.__setattr__(self, "rel", Rel(self.rel))
        object.__setattr__(self, "rhs", int(self.rhs))


@dataclass(frozen=True)
class IneqSystem:
    n_vars: int
    rows: tuple[Row, ...]
    arity: int = 2

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.arity < 2:
            raise InputError("arity must be at least 2")
        if self.n_vars < 0:
            raise InputError("n_vars must be nonnegative")
        for row in self.rows:
            for idx, _ in row.coeffs:
                if idx >= self.n_vars:
                    raise InputError(f"row reads x{idx} but system has {self.n_vars} variables")


def verify(sys: IneqSystem, assignment: AssignmentLike) -> bool:
    """Check an assignment row by row against the original relations."""
    values = assignment.values if isinstance(assignment, Assignment) else tuple(assignment)
    if len(values) != sys.n_vars:
        raise InputError("assignment length does not match the system")
    for v in values:
        if not 0 <= v < sys.arity:
            raise InputError("assignment value out of the variable domain")
    return all(row.rel.holds(sum(w * values[i] for i, w in row.coeffs), row.rhs)
               for row in sys.rows)
