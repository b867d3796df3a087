"""Satisfiability of sparse depth-two threshold circuits, and the parts of
the restriction pipeline that both solvers share.

Every threshold solve is one `eliminate` call.  It enumerates the variables
outside a gate-independent set S, one in which no bottom gate has two
inputs, in numpy blocks, and decides S in closed form: with the other
variables fixed, the top sum is a constant plus one term per variable of S.
By default S is a greedy independent set, chosen without randomness.  When
the caller asks for the paper's random restriction, S is the free variables
of one unbiased draw that lie in no exceptional gate (a gate with two or
more free inputs); an empty S makes the kernel a cube scan.

The symmetric-gate solver uses the cube scan, the branch driver and the
witness check defined here.  Gate guessing with split-and-list
(`sat_few_gates`) stays as library API for circuits with few gates.  Every
witness is checked before it is returned.
"""
from __future__ import annotations

import hashlib
import heapq
import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from random import Random
from typing import Callable, Collection, Iterable, Optional, Sequence, Union

import numpy as np

from .counters import WorkCounters
from .errors import InputError, ResourceGuardError
from .model import (ACCUMULATION_GUARD, Assignment, Restriction,
                    SymmetricCircuit, WireStats, branch_folder,
                    check_accumulation, evaluate, evaluate_batch,
                    require_threshold, wire_stats)
from .splitlist import IneqSystem, Rel, Row, solve_ilp

DEFAULT_DELTA = Fraction(1, 48)
MAX_GUESS_GATES = 60
MAX_BRANCH_BITS = 30
_SCAN_CHUNK_BITS = 14
_BLOCK_ELEMENT_BITS = 14


@dataclass(frozen=True)
class RestrictionParams:
    """Knobs of the random restriction, all derived from the wire density c.

    delta is the accuracy parameter, epsilon the wire-mass budget of the
    selected fan-in window, a the window's ratio, k its lower edge, and p the
    probability that a variable stays free.
    """

    c: Fraction
    delta: Fraction
    epsilon: Fraction
    a: Fraction
    k: Fraction
    p: Fraction

    def __post_init__(self):
        for name in ("c", "delta", "epsilon", "a", "k", "p"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if not 0 < self.delta < 1:
            raise InputError("delta must lie strictly between 0 and 1")
        if self.k < 1:
            raise InputError("fan-in window edge k must be at least 1")
        if not 0 < self.p <= 1:
            raise InputError("free probability p must lie in (0, 1]")


def fanin_separation(stats: WireStats, n: int, epsilon: Fraction,
                     a: Fraction) -> Fraction:
    """Smallest k in the geometric grid 1, a, a^2, ... whose fan-in window
    (k, ka] carries at most epsilon*n wires.

    The windows are disjoint, so fewer than (total/n)/epsilon of them can
    each exceed the budget and the scan below always stops; in practice it
    stops much earlier, as soon as k passes the largest fan-in.
    """
    if n < 1:
        raise InputError("n must be positive")
    a = Fraction(a)
    epsilon = Fraction(epsilon)
    if a <= 1:
        return Fraction(1)
    budget = epsilon * n
    index_cap = Fraction(stats.total, n) / epsilon if epsilon > 0 else Fraction(0)
    k = Fraction(1)
    for i in itertools.count():
        assert i <= index_cap + 1, "fan-in window scan exceeded its index bound"
        mass = sum(f * cnt for f, cnt in stats.fanins.items() if k < f <= k * a)
        if mass <= budget:
            return k
        k *= a


def restriction_params(circuit: SymmetricCircuit,
                       delta: Fraction = DEFAULT_DELTA) -> RestrictionParams:
    """Derive the restriction parameters from the circuit's wire density."""
    n = circuit.n_vars
    if n < 1:
        raise InputError("circuit must have at least one variable")
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise InputError("delta must lie strictly between 0 and 1")
    wires = circuit.wires
    if wires == 0:
        # No bottom wires at all: every variable can stay free.
        return RestrictionParams(c=Fraction(0), delta=delta, epsilon=Fraction(0),
                                 a=Fraction(1), k=Fraction(1), p=Fraction(1))
    c = Fraction(wires, n)
    epsilon = delta * delta / c
    a = (c * c) / (delta * delta)
    if a <= 1:
        k = Fraction(1)
    else:
        k = fanin_separation(wire_stats(circuit), n, epsilon, a)
    p = min(Fraction(1), delta / (c * k))
    return RestrictionParams(c=c, delta=delta, epsilon=epsilon, a=a, k=k, p=p)


def draw_restriction(circuit: SymmetricCircuit, p: Fraction,
                     rng: Random) -> Restriction:
    """One unbiased draw: each variable stays free with probability p.

    Assigned slots are filled with 0; the solver overwrites them branch by
    branch, so only the free set matters here.
    """
    free = frozenset(i for i in range(circuit.n_vars) if rng.random() < p)
    assigned = {i: 0 for i in range(circuit.n_vars) if i not in free}
    return Restriction(assigned=assigned, free=free)


def exceptional_gates(circuit: SymmetricCircuit,
                      free: Collection[int]) -> tuple[int, ...]:
    """Indices of bottom gates with at least two free inputs.

    These are exactly the gates that survive folding, so their count is the
    residual gate count of every branch under the restriction.
    """
    fs = frozenset(free)
    return tuple(j for j, g in enumerate(circuit.bottom)
                 if sum(1 for i, _ in g.inputs if i in fs) >= 2)


def sample_restriction(circuit: SymmetricCircuit, params: RestrictionParams,
                       rng: Random) -> tuple[Restriction, int]:
    """One draw at params.p and its exceptional-gate count.  The draw is kept
    whatever its count: redrawing for a small count favours small free sets."""
    r = draw_restriction(circuit, params.p, rng)
    return r, len(exceptional_gates(circuit, r.free))


def greedy_independent_set(circuit: SymmetricCircuit) -> tuple[int, ...]:
    """A gate-independent set, ascending, chosen without randomness.

    Two variables are gate-neighbours when some bottom gate reads both.
    Repeatedly the live variable with the fewest live gate-neighbours,
    lowest index first, joins the set, and it and its neighbours retire.
    """
    n = circuit.n_vars
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for gate in circuit.bottom:
        for i, _ in gate.inputs:
            neighbours[i].update(k for k, _ in gate.inputs if k != i)
    degree = [len(nb) for nb in neighbours]
    live = [True] * n
    heap = [(d, v) for v, d in enumerate(degree)]
    heapq.heapify(heap)
    chosen = []
    while heap:
        d, v = heapq.heappop(heap)
        # degrees only fall, so an entry that disagrees with one is stale
        if live[v] and d == degree[v]:
            chosen.append(v)
            retired = [v] + [u for u in neighbours[v] if live[u]]
            for r in retired:
                live[r] = False
            for u in [u for r in retired for u in neighbours[r] if live[u]]:
                degree[u] -= 1
                heapq.heappush(heap, (degree[u], u))
    return tuple(sorted(chosen))


def instance_seed(circuit) -> int:
    """Deterministic seed derived from the instance itself, used when no seed
    is given so repeated runs and benchmarks are reproducible."""
    digest = hashlib.blake2b(repr(circuit).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def ilp_for_guess(circuit: SymmetricCircuit,
                  guess: Union[int, Iterable[int]]) -> IneqSystem:
    """Linear system stating that exactly the guessed gates fire and the top
    gate accepts.  guess is a bitmask or a collection of gate indices."""
    require_threshold(circuit, "ilp_for_guess")
    if isinstance(guess, int):
        fired = {j for j in range(len(circuit.bottom)) if guess >> j & 1}
    else:
        fired = set(guess)
    for j in fired:
        if not 0 <= j < len(circuit.bottom):
            raise InputError(f"guess names gate {j}, circuit has {len(circuit.bottom)}")
    rows = []
    for j, gate in enumerate(circuit.bottom):
        if j in fired:
            rows.append(Row(gate.inputs, Rel.GE, gate.pred.params[0]))
        else:
            rows.append(Row(gate.inputs, Rel.LT, gate.pred.params[0]))
    fired_weight = sum(circuit.top_gate_weights[j] for j in fired)
    rows.append(Row(circuit.direct_wires, Rel.GE,
                    circuit.top_pred.params[0] - fired_weight))
    return IneqSystem(circuit.n_vars, tuple(rows), 2)


def sat_few_gates(circuit: SymmetricCircuit, *,
                  counters: Optional[WorkCounters] = None,
                  max_gates: int = MAX_GUESS_GATES) -> Optional[Assignment]:
    """Decide satisfiability by guessing which bottom gates fire.

    Each of the 2^m guesses turns the circuit into a linear system handed to
    the split-and-list search.  Intended for circuits with few gates; the
    guard refuses anything past max_gates.
    """
    cnt = counters if counters is not None else WorkCounters()
    m = len(circuit.bottom)
    if m > max_gates:
        raise ResourceGuardError(f"{m} gates exceeds the {max_gates}-gate guess guard")
    for mask in range(1 << m):
        cnt.guesses += 1
        system = ilp_for_guess(circuit, mask)
        witness, _ = solve_ilp(system, counters=cnt)
        if witness is not None:
            assert evaluate(circuit, witness), "gate guess produced a bad witness"
            return witness
    return None


def _vector_scan(circuit: SymmetricCircuit, fixed: dict[int, int],
                 scan_vars: tuple[int, ...], cnt: WorkCounters
                 ) -> Optional[tuple[int, ...]]:
    """Scan all assignments to scan_vars (fixed vars held constant) in
    numpy chunks, stopping at the first satisfying row.

    Rows are visited in lexicographic order of the scan variables, so the
    returned assignment is the lexicographically first one.  cnt.assignments
    grows by exactly the number of rows inspected.
    """
    n = circuit.n_vars
    s = len(scan_vars)
    total = 1 << s
    chunk = 1 << min(_SCAN_CHUNK_BITS, s)
    template = np.zeros(n, dtype=np.uint8)
    for i, v in fixed.items():
        template[i] = v
    for base in range(0, total, chunk):
        width = min(chunk, total - base)
        idx = np.arange(base, base + width, dtype=np.uint64)
        block = np.broadcast_to(template, (width, n)).copy()
        for pos, var in enumerate(scan_vars):
            block[:, var] = ((idx >> np.uint64(s - 1 - pos)) & np.uint64(1)).astype(np.uint8)
        verdicts = evaluate_batch(circuit, block)
        if verdicts.any():
            hit = int(np.argmax(verdicts))
            cnt.assignments += hit + 1
            return tuple(int(v) for v in block[hit])
        cnt.assignments += width
    return None


@dataclass
class SolveOutcome:
    """Result of one solver run.

    branches is the size of the enumerated space: 2^(n - |eliminated|) rows
    for the threshold solver, whose counters.assignments counts the rows
    examined, and 2^(n - |free|) branches for the symmetric solver.
    fallback_branches counts the symmetric solver's branches whose residual
    had too many value tuples to guess, and is 0 for the threshold solver.
    restriction and params are the drawn restriction and its knobs, None
    when nothing was drawn.  eliminated is the set S the threshold solver
    decided in closed form, ascending; it is empty for the symmetric solver.
    """

    satisfiable: bool
    witness: Optional[Assignment]
    branches: int
    fallback_branches: int
    restriction: Optional[Restriction]
    params: Optional[RestrictionParams]
    counters: WorkCounters = field(default_factory=WorkCounters)
    eliminated: tuple[int, ...] = ()


def _outcome(circuit: SymmetricCircuit,
             witness_values: Optional[Sequence[int]], branches: int,
             fallback_branches: int, restriction: Optional[Restriction],
             params: Optional[RestrictionParams], cnt: WorkCounters,
             eliminated: tuple[int, ...] = ()) -> SolveOutcome:
    """The solve's result, after checking its witness on the circuit."""
    witness = Assignment(witness_values) if witness_values is not None else None
    if witness is not None:
        assert evaluate(circuit, witness), "solver produced a bad witness"
    return SolveOutcome(witness is not None, witness, branches,
                        fallback_branches, restriction, params, cnt,
                        eliminated)


def _scan_outcome(circuit: SymmetricCircuit, cnt: WorkCounters,
                  restriction: Optional[Restriction],
                  params: Optional[RestrictionParams]) -> SolveOutcome:
    """Decide the circuit with one scan of its whole cube."""
    full = _vector_scan(circuit, {}, tuple(range(circuit.n_vars)), cnt)
    return _outcome(circuit, full, 1 << circuit.n_vars, 0, restriction,
                    params, cnt)


def _branch_loop(circuit: SymmetricCircuit, assigned_vars: tuple[int, ...],
                 free_order: tuple[int, ...],
                 decide: Callable[[SymmetricCircuit], Optional[Sequence[int]]],
                 cnt: WorkCounters) -> Optional[tuple[int, ...]]:
    """First branch whose residual decide finds satisfiable.

    Branch b sets assigned_vars[pos] to bit (bits - 1 - pos) of b; the
    branches are visited in order, each folded into its residual over
    free_order and handed to decide, which returns a satisfying assignment
    of the residual or None.  Returns the total assignment of the first
    satisfiable branch; cnt.assignments grows by one per branch visited.
    """
    fold = branch_folder(circuit, assigned_vars, free_order)
    bits = len(assigned_vars)
    for b in range(1 << bits):
        cnt.assignments += 1
        found = decide(fold(b))
        if found is not None:
            values = [0] * circuit.n_vars
            for pos, var in enumerate(assigned_vars):
                values[var] = b >> (bits - 1 - pos) & 1
            for var, v in zip(free_order, found):
                values[var] = v
            return tuple(values)
    return None


def eliminate(circuit: SymmetricCircuit, eliminated: Collection[int],
              cnt: WorkCounters) -> Optional[tuple[int, ...]]:
    """First satisfying assignment of a threshold circuit, found by
    enumerating the variables outside the gate-independent set `eliminated`
    and deciding the set itself in closed form.

    The other variables are enumerated lexicographically, lowest index most
    significant, in blocks of rows.  In each row every gate is a constant or
    a function of its one eliminated input, so the top sum is a constant
    plus a gain g_i * x_i per eliminated variable: the row is satisfiable
    iff the constant plus the positive gains reaches the threshold, and then
    x_i = [g_i > 0] satisfies it.  Returns the total assignment of the first
    satisfiable row, or None; cnt.assignments grows by the rows examined.
    A set in which some gate has two inputs is refused.
    """
    require_threshold(circuit, "eliminate")
    check_accumulation(circuit)
    n = circuit.n_vars
    s_list = sorted(set(eliminated))
    if s_list and not 0 <= s_list[0] <= s_list[-1] < n:
        raise InputError("eliminated set names a variable outside the circuit")
    s_row = {v: k for k, v in enumerate(s_list)}
    enumerated = [v for v in range(n) if v not in s_row]
    column = {v: k for k, v in enumerate(enumerated)}
    bits = len(enumerated)
    m = len(circuit.bottom)
    top_w = np.array(circuit.top_gate_weights, dtype=np.int64)
    # every gate sum lies strictly inside the guard, so clipping keeps s >= t
    thresholds = np.array([min(max(g.pred.params[0], -ACCUMULATION_GUARD),
                               ACCUMULATION_GUARD) for g in circuit.bottom],
                          dtype=np.int64).reshape(m, 1)
    # weights: gate j's on the enumerated variables in row j, the direct
    # wires' in row m; flip[j], gain_w[k, j]: gate j's weight on eliminated
    # variable k and the top weight that carries its flip into k's gain
    weights = np.zeros((m + 1, bits), dtype=np.int64)
    flip = np.zeros((m, 1), dtype=np.int64)
    gain_w = np.zeros((len(s_list), m), dtype=np.int64)
    direct = np.zeros((len(s_list), 1), dtype=np.int64)
    for j, gate in enumerate(circuit.bottom):
        if sum(i in s_row for i, _ in gate.inputs) > 1:
            raise InputError(f"gate {j} has two or more inputs in the "
                             "eliminated set")
        for i, w in gate.inputs:
            if i in s_row:
                flip[j] = w
                gain_w[s_row[i], j] = top_w[j]
            else:
                weights[j, column[i]] = w
    for i, w in circuit.direct_wires:
        if i in s_row:
            direct[s_row[i]] = w
        else:
            weights[m, column[i]] = w

    # a block's sums: a table over the low `low` bits of the row index, with
    # (m + 1) * 2^low < 2^_BLOCK_ELEMENT_BITS entries, plus a constant
    low = min(bits, max(0, _BLOCK_ELEMENT_BITS - (m + 1).bit_length()))
    width = 1 << low
    low_sums = np.zeros((m + 1, 1), dtype=np.int64)
    for k in range(bits - 1, bits - low - 1, -1):
        low_sums = np.hstack([low_sums, low_sums + weights[:, k:k + 1]])
    high_shifts = np.arange(bits - low - 1, -1, -1, dtype=np.int64)
    for block in range(1 << (bits - low)):
        high = weights[:, :bits - low] @ ((block >> high_shifts) & 1)
        sums = low_sums + high[:, None]
        fired = sums[:m] >= thresholds
        flipped = sums[:m] + flip >= thresholds
        gain = gain_w @ (flipped.view(np.int8) - fired.view(np.int8)) + direct
        top = sums[m] + top_w @ fired + np.maximum(gain, 0).sum(axis=0)
        sat = top >= circuit.top_pred.params[0]
        if sat.any():
            hit = int(np.argmax(sat))
            cnt.assignments += hit + 1
            row = block * width + hit
            values = [0] * n
            for k, v in enumerate(enumerated):
                values[v] = (row >> (bits - 1 - k)) & 1
            for k, v in enumerate(s_list):
                values[v] = int(gain[k, hit] > 0)
            return tuple(values)
        cnt.assignments += width
    return None


def solve(circuit: SymmetricCircuit, *, seed: Optional[int] = None,
          delta: Fraction = DEFAULT_DELTA,
          params: Optional[RestrictionParams] = None,
          p: Optional[Fraction] = None,
          force_restriction: bool = False,
          max_branch_bits: int = MAX_BRANCH_BITS,
          counters: Optional[WorkCounters] = None) -> SolveOutcome:
    """Decide satisfiability of a depth-two threshold circuit, exactly; a
    circuit with a predicate other than `ge` is refused.

    Every solve is one `eliminate` call.  By default the eliminated set S is
    `greedy_independent_set` and nothing is drawn.  When params, p or
    force_restriction ask for the paper's restriction, one restriction is
    drawn (seed picks it; delta, params and p set its knobs) and S is its
    free variables outside the exceptional gates.  The 2^(n - |S|) rows
    outside S are enumerated, at most 2^max_branch_bits of them;
    cnt.assignments counts the rows examined.  The returned witness, if
    any, is verified before return.
    """
    cnt = counters if counters is not None else WorkCounters()
    n = circuit.n_vars
    if n < 1:
        raise InputError("circuit must have at least one variable")
    require_threshold(circuit, "solve")
    restriction = None
    if params is None and p is None and not force_restriction:
        eliminated = greedy_independent_set(circuit)
    else:
        rng = Random(seed if seed is not None else instance_seed(circuit))
        if params is None:
            params = restriction_params(circuit, delta)
        if p is not None:
            params = replace(params, p=Fraction(p))
        restriction, _ = sample_restriction(circuit, params, rng)
        # a gate outside the exceptional ones has at most one free input
        crowded = {i for j in exceptional_gates(circuit, restriction.free)
                   for i, _ in circuit.bottom[j].inputs}
        eliminated = tuple(sorted(restriction.free - crowded))
    bits = n - len(eliminated)
    if bits > max_branch_bits:
        raise ResourceGuardError(
            f"2^{bits} enumerated rows exceeds the 2^{max_branch_bits} guard")
    witness_values = eliminate(circuit, eliminated, cnt)
    return _outcome(circuit, witness_values, 1 << bits, 0, restriction,
                    params, cnt, eliminated)
