"""Data model for depth-two threshold circuits.

A circuit has one layer of linear threshold gates feeding a single threshold
gate at the top.  The top gate may also read input variables directly
("direct wires").  All weights and thresholds are integers; inputs are
Boolean.  Sparseness is measured in bottom-layer wires: a gate with k inputs
contributes k wires, direct wires are not counted.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import InputError

# External text formats accept integers in [-2^31, 2^31); together with the
# accumulation guard below this keeps every weighted sum inside 63 bits even
# on backends without big integers.
MAX_ABS_WEIGHT = 1 << 31
ACCUMULATION_GUARD = 1 << 62


@dataclass(frozen=True)
class ThresholdGate:
    """Fires (outputs 1) when the weighted sum of its inputs reaches the threshold."""

    inputs: tuple[tuple[int, int], ...]
    threshold: int

    def __post_init__(self):
        object.__setattr__(self, "inputs",
                           tuple((int(i), int(w)) for i, w in self.inputs))
        object.__setattr__(self, "threshold", int(self.threshold))
        seen = set()
        for idx, w in self.inputs:
            if w == 0:
                raise InputError("gate input weights must be nonzero")
            if idx < 0:
                raise InputError("negative variable index in gate")
            if idx in seen:
                raise InputError(f"duplicate variable x{idx} in gate")
            seen.add(idx)

    @property
    def fan_in(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class ThresholdCircuit:
    n_vars: int
    bottom: tuple[ThresholdGate, ...]
    top_gate_weights: tuple[int, ...]
    direct_wires: tuple[tuple[int, int], ...]
    top_threshold: int

    def __post_init__(self):
        object.__setattr__(self, "bottom", tuple(self.bottom))
        object.__setattr__(self, "top_gate_weights",
                           tuple(int(w) for w in self.top_gate_weights))
        object.__setattr__(self, "direct_wires",
                           tuple((int(i), int(w)) for i, w in self.direct_wires))
        object.__setattr__(self, "top_threshold", int(self.top_threshold))
        if self.n_vars < 0:
            raise InputError("n_vars must be nonnegative")
        if len(self.top_gate_weights) != len(self.bottom):
            raise InputError("need exactly one top weight per bottom gate")
        for gate in self.bottom:
            for idx, _ in gate.inputs:
                if idx >= self.n_vars:
                    raise InputError(f"gate reads x{idx} but circuit has {self.n_vars} variables")
        seen = set()
        for idx, w in self.direct_wires:
            if w == 0:
                raise InputError("direct wires must have nonzero weight")
            if not 0 <= idx < self.n_vars:
                raise InputError(f"direct wire on x{idx} out of range")
            if idx in seen:
                raise InputError(f"duplicate direct wire on x{idx}")
            seen.add(idx)

    @property
    def wires(self) -> int:
        return sum(g.fan_in for g in self.bottom)


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
    """A partition of the variables into an assigned part (with Boolean values)
    and a free part."""

    assigned: Mapping[int, int]
    free: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "assigned",
                           {int(k): int(v) for k, v in dict(self.assigned).items()})
        object.__setattr__(self, "free", frozenset(int(i) for i in self.free))
        n = len(self.assigned) + len(self.free)
        universe = set(self.assigned) | self.free
        if len(universe) != n or universe != set(range(n)):
            raise InputError("assigned keys and free set must partition 0..n-1")
        for v in self.assigned.values():
            if v not in (0, 1):
                raise InputError("restriction values must be Boolean")

    @property
    def n_vars(self) -> int:
        return len(self.assigned) + len(self.free)

    @property
    def free_order(self) -> tuple[int, ...]:
        return tuple(sorted(self.free))

    def combine(self, free_values: Sequence[int]) -> tuple[int, ...]:
        """Total assignment obtained by filling the free slots, in ascending
        variable order, with free_values."""
        order = self.free_order
        if len(free_values) != len(order):
            raise InputError("free_values length does not match the free set")
        out = [0] * self.n_vars
        for i, v in self.assigned.items():
            out[i] = v
        for pos, i in enumerate(order):
            v = int(free_values[pos])
            if v not in (0, 1):
                raise InputError("free values must be Boolean")
            out[i] = v
        return tuple(out)


@dataclass(frozen=True)
class WireStats:
    fanins: Counter
    total: int


AssignmentLike = Union[Assignment, Sequence[int]]


def _boolean_values(n: int, assignment: AssignmentLike) -> Sequence[int]:
    if isinstance(assignment, Assignment):
        if assignment.arity != 2:
            raise InputError("threshold circuits take Boolean assignments")
        values = assignment.values
    else:
        values = assignment
    if len(values) != n:
        raise InputError(f"assignment has {len(values)} values, circuit has {n} variables")
    for v in values:
        if v not in (0, 1):
            raise InputError("assignment values must be 0 or 1")
    return values


def evaluate(circuit: ThresholdCircuit, assignment: AssignmentLike) -> bool:
    """Evaluate the circuit: gate fires iff its weighted sum reaches its
    threshold, the circuit accepts iff the top weighted sum reaches the top
    threshold."""
    values = _boolean_values(circuit.n_vars, assignment)
    total = 0
    for gate, top_w in zip(circuit.bottom, circuit.top_gate_weights):
        s = 0
        for idx, w in gate.inputs:
            s += w * values[idx]
        if s >= gate.threshold:
            total += top_w
    for idx, w in circuit.direct_wires:
        total += w * values[idx]
    return total >= circuit.top_threshold


def simplify(circuit: ThresholdCircuit, restriction: Restriction) -> ThresholdCircuit:
    """Fold a restriction into the circuit, producing an equivalent circuit
    over the free variables only (re-indexed in ascending order).

    Gates left with no free inputs become constants absorbed into the top
    threshold.  Gates left with exactly one free input are equivalent to a
    constant, the literal x, or the literal 1-x; all three fold into the top
    gate's threshold and direct wires.  Gates with two or more free inputs are
    kept with their threshold shifted by the assigned contribution.
    """
    if restriction.n_vars != circuit.n_vars:
        raise InputError("restriction size does not match the circuit")
    order = restriction.free_order
    new_index = {v: k for k, v in enumerate(order)}
    assigned = restriction.assigned

    kept_gates: list[ThresholdGate] = []
    kept_weights: list[int] = []
    direct_accum: dict[int, int] = {}
    top_constant = 0

    for gate, top_w in zip(circuit.bottom, circuit.top_gate_weights):
        base = 0
        free_inputs: list[tuple[int, int]] = []
        for idx, w in gate.inputs:
            if idx in assigned:
                base += w * assigned[idx]
            else:
                free_inputs.append((new_index[idx], w))
        if not free_inputs:
            if base >= gate.threshold:
                top_constant += top_w
        elif len(free_inputs) == 1:
            nix, w = free_inputs[0]
            out0 = base >= gate.threshold
            out1 = base + w >= gate.threshold
            if out0 and out1:
                top_constant += top_w
            elif out1 and not out0:          # gate output equals the variable
                direct_accum[nix] = direct_accum.get(nix, 0) + top_w
            elif out0 and not out1:          # gate output equals its negation
                top_constant += top_w
                direct_accum[nix] = direct_accum.get(nix, 0) - top_w
            # both false: the gate never fires and disappears
        else:
            kept_gates.append(ThresholdGate(tuple(free_inputs),
                                            gate.threshold - base))
            kept_weights.append(top_w)

    for idx, w in circuit.direct_wires:
        if idx in assigned:
            top_constant += w * assigned[idx]
        else:
            nix = new_index[idx]
            direct_accum[nix] = direct_accum.get(nix, 0) + w

    direct = tuple((i, w) for i, w in sorted(direct_accum.items()) if w != 0)
    return ThresholdCircuit(
        n_vars=len(order),
        bottom=tuple(kept_gates),
        top_gate_weights=tuple(kept_weights),
        direct_wires=direct,
        top_threshold=circuit.top_threshold - top_constant,
    )


def wire_stats(circuit: ThresholdCircuit) -> WireStats:
    """Multiset of bottom-gate fan-ins and the total bottom-layer wire count."""
    fanins = Counter(g.fan_in for g in circuit.bottom)
    return WireStats(fanins=fanins, total=sum(g.fan_in for g in circuit.bottom))


def check_accumulation(circuit: ThresholdCircuit) -> None:
    """Refuse circuits whose gate or top sums could leave int64.

    Every bottom-gate sum is bounded by its absolute weight total and every
    top sum by the absolute top and direct weight total; both must stay
    below ACCUMULATION_GUARD.
    """
    worst_top = sum(abs(w) for w in circuit.top_gate_weights) \
        + sum(abs(w) for _, w in circuit.direct_wires)
    worst_gate = max((sum(abs(w) for _, w in g.inputs) for g in circuit.bottom),
                     default=0)
    if max(worst_top, worst_gate) >= ACCUMULATION_GUARD:
        raise InputError("circuit weights exceed the accumulation guard")


def evaluate_batch(circuit: ThresholdCircuit, values: np.ndarray) -> np.ndarray:
    """Evaluate the circuit on a whole batch of assignments at once.

    values is a (rows, n_vars) array of 0/1 entries; the result is a Boolean
    array with one verdict per row.  Accumulation stays inside int64: weights
    are bounded by MAX_ABS_WEIGHT and the per-row weighted sums are checked
    against ACCUMULATION_GUARD.
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
        acc += np.where(gsum >= gate.threshold, np.int64(top_w), np.int64(0))
    for idx, w in circuit.direct_wires:
        acc += w * vals[:, idx].astype(np.int64)
    return acc >= circuit.top_threshold
