"""Reference implementations and instance generators for the test suite.

Everything here is definitional: the brute-force deciders enumerate whole
assignment spaces (vectorized, but with no algorithmic shortcuts, and with
their own enumeration rather than the solvers' scan), so they stay
trustworthy at the small sizes the tests use.  Every circuit generator is
one core, `_random_circuit`, given a fan-in plan (random fan-ins, one fixed
fan-in, or powers of two) and a predicate picker (`ge` only, or a mix of
kinds); `generate` picks both from a GenSpec's distribution and kind.
Constraint systems and vector pairs have their own generators.  All are
deterministic in their seed, and circuits have exact wire budgets.  No
solver is imported: the instance types, `evaluate_batch` and the witness
check `verify` come from `thrsat.model`.
"""
from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Iterator, Optional

import numpy as np

from .counters import WorkCounters
from .errors import InputError, ResourceGuardError
from .model import (Assignment, IneqSystem, Predicate, Rel, Row,
                    SymmetricCircuit, SymmetricGate, evaluate_batch, verify)

MAX_BRUTE_VARS = 26
_CHUNK = 1 << 16


def _cube_blocks(n: int) -> Iterator[np.ndarray]:
    """The cube {0,1}^n in lexicographic order, as (rows, n) blocks."""
    total = 1 << n
    for base in range(0, total, _CHUNK):
        width = min(_CHUNK, total - base)
        idx = np.arange(base, base + width, dtype=np.uint64)
        block = np.zeros((width, n), dtype=np.uint8)
        for pos in range(n):
            block[:, pos] = ((idx >> np.uint64(n - 1 - pos)) & np.uint64(1)).astype(np.uint8)
        yield block


def brute_circuit_sat(circuit: SymmetricCircuit, *,
                      counters: Optional[WorkCounters] = None
                      ) -> Optional[Assignment]:
    """Scan the full cube; returns the lexicographically first witness.  A
    circuit of more than MAX_BRUTE_VARS variables is refused."""
    if circuit.n_vars > MAX_BRUTE_VARS:
        raise ResourceGuardError(
            f"{circuit.n_vars} variables exceeds the {MAX_BRUTE_VARS}-variable "
            "brute guard")
    cnt = counters if counters is not None else WorkCounters()
    for block in _cube_blocks(circuit.n_vars):
        verdicts = evaluate_batch(circuit, block)
        if verdicts.any():
            hit = int(np.argmax(verdicts))
            cnt.assignments += hit + 1
            return Assignment(tuple(int(v) for v in block[hit]))
        cnt.assignments += len(block)
    return None


def enumerate_satisfying(circuit: SymmetricCircuit) -> list[tuple[int, ...]]:
    """All satisfying assignments, in lexicographic order; intended for
    exactness tests at small n.  A circuit of more than 20 variables is
    refused."""
    n = circuit.n_vars
    if n > 20:
        raise ResourceGuardError(
            f"{n} variables exceeds the 20-variable enumeration guard")
    return [tuple(int(v) for v in block[hit])
            for block in _cube_blocks(n)
            for hit in np.flatnonzero(evaluate_batch(circuit, block))]


def brute_ilp(system: IneqSystem, *,
              counters: Optional[WorkCounters] = None) -> Optional[Assignment]:
    """Scan all assignments of the constraint system, lexicographically.  A
    system of more than 2^MAX_BRUTE_VARS assignments is refused, one of more
    than MAX_BRUTE_VARS variables before arity^n is built."""
    n, arity = system.n_vars, system.arity
    if n > MAX_BRUTE_VARS or arity ** n > 1 << MAX_BRUTE_VARS:
        raise ResourceGuardError(
            f"{arity}^{n} assignments exceeds the 2^{MAX_BRUTE_VARS} brute guard")
    total = arity ** n
    cnt = counters if counters is not None else WorkCounters()
    for base in range(0, total, _CHUNK):
        width = min(_CHUNK, total - base)
        idx = np.arange(base, base + width, dtype=np.int64)
        block = np.zeros((width, n), dtype=np.int64)
        for pos in range(n):
            block[:, pos] = (idx // arity ** (n - 1 - pos)) % arity
        ok = np.ones(width, dtype=bool)
        for row in system.rows:
            sums = np.zeros(width, dtype=np.int64)
            for i, w in row.coeffs:
                sums += w * block[:, i]
            ok &= row.rel.holds(sums, row.rhs)
        if ok.any():
            hit = int(np.argmax(ok))
            cnt.assignments += hit + 1
            found = Assignment(tuple(int(v) for v in block[hit]), arity)
            if not verify(system, found):
                raise AssertionError("brute force produced a bad witness")
            return found
        cnt.assignments += width
    return None


HalfRows = dict[int, tuple[int, ...]]


def brute_half_lists(system: IneqSystem) -> tuple[HalfRows, HalfRows]:
    """The rows that split-and-list must hand to its search, by definition,
    computed over every half assignment with Python integers.

    Every row reads 'sum >= rhs': a strict row with rhs + 1, a `le`/`lt` row
    negated, an equality as the row and then its negation.  The first half
    is x_0..x_{h-1} with h = ceil(n/2), the second the rest, and a half
    assignment's tag has digit (tag // arity^pos) % arity at its pos-th
    variable.  The first dict maps the tag of every first-half assignment
    whose sums reach rhs minus the largest second-half sum, in every row, to
    those sums.  The second maps the tag of every second-half assignment
    whose slack, rhs minus its sums, is at most the first dict's largest sum
    in every row to that slack; it is empty when the first is.
    """
    n, arity = system.n_vars, system.arity
    norm = []  # (sign, row, rhs) for 'sign * sum >= rhs'
    for row in system.rows:
        if row.rel is Rel.GE:
            norm.append((1, row, row.rhs))
        elif row.rel is Rel.GT:
            norm.append((1, row, row.rhs + 1))
        elif row.rel is Rel.LE:
            norm.append((-1, row, -row.rhs))
        elif row.rel is Rel.LT:
            norm.append((-1, row, -row.rhs + 1))
        else:
            norm += [(1, row, row.rhs), (-1, row, -row.rhs)]

    def sums(variables: range) -> HalfRows:
        out = {}
        for tag in range(arity ** len(variables)):
            values = {v: (tag // arity ** pos) % arity
                      for pos, v in enumerate(variables)}
            out[tag] = tuple(sign * sum(w * values.get(i, 0)
                                        for i, w in row.coeffs)
                             for sign, row, _ in norm)
        return out

    half = (n + 1) // 2
    first, second = sums(range(half)), sums(range(half, n))
    rhs = [r for _, _, r in norm]
    top_second = [max(column) for column in zip(*second.values())]
    first = {t: s for t, s in first.items()
             if all(a >= r - top for a, r, top in zip(s, rhs, top_second))}
    if not first:
        return {}, {}
    top_first = [max(column) for column in zip(*first.values())]
    slacks = {t: tuple(r - a for a, r in zip(s, rhs)) for t, s in second.items()}
    return first, {t: s for t, s in slacks.items()
                   if all(b <= top for b, top in zip(s, top_first))}


def brute_domination(a: np.ndarray, b: np.ndarray) -> Optional[tuple[int, int]]:
    """Check all pairs of rows; returns the first (i, j) in row order with
    a[i] >= b[j] in every coordinate."""
    for i in range(len(a)):
        ok = (b <= a[i]).all(axis=1)
        if ok.any():
            return i, int(np.argmax(ok))
    return None


def _nonzero_weight(rng: Random, bound: int) -> int:
    return rng.randint(1, bound) * rng.choice((-1, 1))


def _threshold_predicate(rng: Random, inputs) -> Predicate:
    """A `ge` predicate that some but not all input patterns satisfy."""
    lo = sum(min(w, 0) for _, w in inputs)
    hi = sum(max(w, 0) for _, w in inputs)
    return Predicate.ge(rng.randint(lo + 1, hi))


def _random_predicate(rng: Random, inputs) -> Predicate:
    """A `ge` predicate as `_threshold_predicate` draws it, or an `eq`,
    `mod` or small membership predicate."""
    kind = rng.choices(("ge", "eq", "mod", "set"), weights=(4, 2, 2, 2))[0]
    if kind == "ge":
        return _threshold_predicate(rng, inputs)
    lo = sum(min(w, 0) for _, w in inputs)
    hi = sum(max(w, 0) for _, w in inputs)
    if kind == "eq":
        return Predicate.eq(rng.randint(lo, hi))
    if kind == "mod":
        m = rng.randint(2, 5)
        return Predicate.mod(m, rng.randint(0, m - 1))
    count = rng.randint(1, min(3, hi - lo + 1))
    return Predicate.members(rng.sample(range(lo, hi + 1), count))


def _random_circuit(rng: Random, n: int, plan: list[int], weight_bound: int,
                    direct_count: int, predicate=_threshold_predicate
                    ) -> SymmetricCircuit:
    """One gate per fan-in in plan over random variables, then the top
    weights and direct wires; predicate picks each gate's and the top's
    predicate from their weighted inputs."""
    gates = []
    for f in plan:
        vars_ = sorted(rng.sample(range(n), f))
        inputs = tuple((i, _nonzero_weight(rng, weight_bound)) for i in vars_)
        gates.append(SymmetricGate(inputs, predicate(rng, inputs)))
    top_weights = tuple(_nonzero_weight(rng, weight_bound) for _ in gates)
    direct_vars = sorted(rng.sample(range(n), direct_count)) if direct_count else []
    direct = tuple((i, _nonzero_weight(rng, weight_bound)) for i in direct_vars)
    return SymmetricCircuit(n, tuple(gates), top_weights, direct,
                            predicate(rng, tuple(enumerate(top_weights)) + direct))


def _fanin_plan(wires: int, fan_in: int, n: int) -> list[int]:
    if not 1 <= fan_in <= n:
        raise InputError("fan_in must lie in 1..n")
    plan = [fan_in] * (wires // fan_in)
    if wires % fan_in:
        plan.append(wires % fan_in)
    return plan


def _power_plan(n: int, levels: int) -> list[int]:
    """n/2^j fan-ins of 2^j for each j in 1..levels; needs 2^levels | n."""
    if n % (1 << levels):
        raise InputError(f"n must be a multiple of 2^{levels}")
    return [1 << j for j in range(1, levels + 1) for _ in range(n >> j)]


def _random_plan(rng: Random, wires: int, n: int) -> list[int]:
    plan = []
    left = wires
    while left:
        f = rng.randint(1, min(left, n))
        plan.append(f)
        left -= f
    return plan


def random_fixed_fanin_circuit(n: int, wires: int, fan_in: int, seed: int, *,
                               weight_bound: int = 8,
                               direct_count: int = 0) -> SymmetricCircuit:
    """Threshold circuit with exactly the requested bottom wires, almost all
    in gates of the given fan-in (one smaller gate absorbs the remainder)."""
    if wires < 1:
        raise InputError("need at least one wire")
    return _random_circuit(Random(seed), n, _fanin_plan(wires, fan_in, n),
                           weight_bound, direct_count)


def random_mixed_circuit(n: int, wires: int, seed: int, *,
                         weight_bound: int = 8,
                         direct_count: int = 0) -> SymmetricCircuit:
    """Threshold circuit with exactly the requested bottom wires split into
    gates of random fan-ins."""
    if wires < 1:
        raise InputError("need at least one wire")
    rng = Random(seed)
    return _random_circuit(rng, n, _random_plan(rng, wires, n), weight_bound,
                           direct_count)


def random_power_circuit(n: int, levels: int, seed: int) -> SymmetricCircuit:
    """Wire-density stress instance: for each j in 1..levels there are n/2^j
    threshold gates of fan-in 2^j, one density unit per level, with weights
    up to 8.  Requires 2^levels | n."""
    if levels < 1:
        raise InputError("need at least one level")
    return _random_circuit(Random(seed), n, _power_plan(n, levels), 8, 0)


def random_symmetric_circuit(n: int, wires: int, seed: int, *,
                             weight_bound: int = 8,
                             direct_count: int = 0) -> SymmetricCircuit:
    """Symmetric-gate circuit with exactly the requested bottom wires split
    into gates of random fan-ins, with a mix of predicate kinds."""
    if wires < 1:
        raise InputError("need at least one wire")
    rng = Random(seed)
    return _random_circuit(rng, n, _random_plan(rng, wires, n), weight_bound,
                           direct_count, _random_predicate)


def random_ilp(n: int, rows: int, arity: int, seed: int, *,
               weight_bound: int = 8) -> IneqSystem:
    """Constraint system with random relations and reachable right-hand
    sides; each row reads one to four variables."""
    if n < 1 or rows < 0:
        raise InputError("need at least one variable and a nonnegative row count")
    rng = Random(seed)
    out = []
    for _ in range(rows):
        f = rng.randint(1, min(n, 4))
        vars_ = sorted(rng.sample(range(n), f))
        coeffs = tuple((i, _nonzero_weight(rng, weight_bound)) for i in vars_)
        lo = sum(min(w, 0) for _, w in coeffs) * (arity - 1)
        hi = sum(max(w, 0) for _, w in coeffs) * (arity - 1)
        rel = rng.choice((Rel.GE, Rel.GT, Rel.LE, Rel.LT, Rel.EQ))
        out.append(Row(coeffs, rel, rng.randint(lo, hi)))
    return IneqSystem(n, tuple(out), arity)


def random_domination(n_a: int, n_b: int, d: int, seed: int, *,
                      coord_bound: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Random (n_a, d) and (n_b, d) int64 matrices with entries in
    [-coord_bound, coord_bound]."""
    if d < 1:
        raise InputError("need at least one coordinate")
    rng = np.random.default_rng(seed)
    return tuple(rng.integers(-coord_bound, coord_bound, size=(rows, d),
                              dtype=np.int64, endpoint=True)
                 for rows in (n_a, n_b))


@dataclass(frozen=True)
class GenSpec:
    """Declarative description of a generated instance.

    kind picks the instance family; n is the variable count.  c is the wire
    budget per variable for circuits, and rows is the row count for
    constraint systems.  weight_bound, at least 1, bounds the absolute
    weights.  distribution shapes circuit fan-ins: uniform_fanin draws them
    at random, fixed_fanin pins them to fan_in, and adversarial_pow2 builds
    one density unit of weight-one gates at every fan-in 2^j for j in 1..c.
    """

    kind: str
    n: int
    seed: int = 0
    c: Optional[int] = None
    rows: Optional[int] = None
    weight_bound: int = 8
    arity: int = 2
    distribution: str = "uniform_fanin"
    fan_in: Optional[int] = None

    _KINDS = ("threshold_circuit", "symmetric_circuit", "ilp")
    _DISTRIBUTIONS = ("uniform_fanin", "fixed_fanin", "adversarial_pow2")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise InputError(f"unknown instance kind {self.kind!r}")
        if self.distribution not in self._DISTRIBUTIONS:
            raise InputError(f"unknown distribution {self.distribution!r}")
        if self.n < 1:
            raise InputError("n must be positive")
        if self.weight_bound < 1:
            raise InputError("weight_bound must be positive")
        if self.distribution == "fixed_fanin" and self.fan_in is None:
            raise InputError("fixed_fanin needs fan_in")


def generate(spec: GenSpec):
    """Build the instance a GenSpec describes; same spec, same instance.

    Every circuit is one `_random_circuit` call: the distribution picks the
    fan-in plan (and weight bound 1 for adversarial_pow2), the kind picks
    the predicates, `ge` only for threshold circuits.
    """
    if spec.kind == "ilp":
        if spec.rows is None or spec.rows < 1:
            raise InputError("ilp generation needs a positive row count")
        return random_ilp(spec.n, spec.rows, spec.arity, spec.seed,
                          weight_bound=spec.weight_bound)
    if spec.c is None or spec.c < 1:
        raise InputError("circuit generation needs a positive wire budget c")
    rng = Random(spec.seed)
    weight_bound = spec.weight_bound
    if spec.distribution == "adversarial_pow2":
        plan, weight_bound = _power_plan(spec.n, spec.c), 1
    elif spec.distribution == "fixed_fanin":
        plan = _fanin_plan(spec.c * spec.n, spec.fan_in, spec.n)
    else:
        plan = _random_plan(rng, spec.c * spec.n, spec.n)
    predicate = _threshold_predicate if spec.kind == "threshold_circuit" \
        else _random_predicate
    return _random_circuit(rng, spec.n, plan, weight_bound, 0, predicate)
