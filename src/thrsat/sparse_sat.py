"""The elimination kernel that decides every circuit of the family, the
one driver behind both solvers' entry points, the threshold solver, and the
restriction pipeline.

Every solve, threshold or symmetric, is one `eliminate` call.  It
enumerates the variables outside a gate-independent set S, one in which no
bottom gate has two inputs, in numpy blocks, and decides S in closed form:
with the other variables fixed, every gate depends on at most one variable
of S, so the top sum is a constant plus one term per variable of S.  By
default S is a greedy independent set, chosen without randomness.  When
the caller asks for the paper's random restriction, S is the free variables
of one unbiased draw that lie in no exceptional gate (a gate with two or
more free inputs); an empty S makes the kernel a cube scan.  The driver
checks the free probability p, seeds the draw and calls the kernel; the
two entry points differ only in their default p.  A circuit with no
variables needs no special case: its cube is one empty row, which the
kernel decides like any other.

`ilp_for_guess` keeps the paper's reduction from a guess of which gates
fire to a linear system for the split-and-list search.  Every witness is
checked before it is returned.
"""
from __future__ import annotations

import hashlib
import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Callable, Collection, Iterable, Optional, Sequence, Union

import numpy as np

from .counters import WorkCounters
from .errors import InputError, ResourceGuardError
from .model import (ACCUMULATION_GUARD, Assignment, IneqSystem, PredKind,
                    Predicate, Rel, Restriction, Row, SymmetricCircuit,
                    WireStats, check_accumulation, evaluate, holds_columns,
                    require_threshold, wire_stats)

DEFAULT_DELTA = Fraction(1, 48)
MAX_BRANCH_BITS = 30
# a circuit with more variables is refused before the greedy set, the draw
# and eliminate's set-up, Python loops over every variable, can run
MAX_VARS = 1 << 16
_BLOCK_ELEMENT_BITS = 14
_KIND_RANK = {kind: rank for rank, kind in enumerate(PredKind)}


@dataclass(frozen=True)
class RestrictionParams:
    """Knobs of the random restriction, all derived from the wire density c.

    delta is the accuracy parameter, DEFAULT_DELTA, epsilon the wire-mass
    budget of the selected fan-in window, a the window's ratio, k its lower
    edge, and p the probability that a variable stays free.
    """

    c: Fraction
    delta: Fraction
    epsilon: Fraction
    a: Fraction
    k: Fraction
    p: Fraction


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
        if i > index_cap + 1:
            raise AssertionError("fan-in window scan exceeded its index bound")
        mass = sum(f * cnt for f, cnt in stats.fanins.items() if k < f <= k * a)
        if mass <= budget:
            return k
        k *= a


def restriction_params(circuit: SymmetricCircuit) -> RestrictionParams:
    """Derive the restriction parameters from the circuit's wire density.

    A circuit with no bottom wires, among them every circuit with no
    variables, gets p = 1: every variable can stay free."""
    delta = DEFAULT_DELTA
    wires = circuit.wires
    if wires == 0:
        return RestrictionParams(c=Fraction(0), delta=delta, epsilon=Fraction(0),
                                 a=Fraction(1), k=Fraction(1), p=Fraction(1))
    n = circuit.n_vars
    c = Fraction(wires, n)
    epsilon = delta * delta / c
    a = (c * c) / (delta * delta)
    k = fanin_separation(wire_stats(circuit), n, epsilon, a)
    p = min(Fraction(1), delta / (c * k))
    return RestrictionParams(c=c, delta=delta, epsilon=epsilon, a=a, k=k, p=p)


def draw_restriction(circuit: SymmetricCircuit, p: Fraction,
                     rng: Random) -> Restriction:
    """One unbiased draw: each variable stays free with probability p.

    rng.random() returns a multiple of 2^-53, so it is below p exactly when
    it is below the float ceil(p * 2^53) / 2^53: the draw compares floats
    and frees the same variables as a comparison with p itself.  Only the
    free set is drawn: no variable is fixed, since the solvers enumerate
    both values of every variable outside the set they eliminate.
    """
    below = math.ceil(p * 2 ** 53) / 2 ** 53
    n = circuit.n_vars
    return Restriction(frozenset(i for i in range(n) if rng.random() < below),
                       n)


def exceptional_gates(circuit: SymmetricCircuit,
                      free: Collection[int]) -> tuple[int, ...]:
    """Indices of bottom gates with at least two free inputs.

    Every other gate has at most one free input, so the free variables in
    none of these gates form a gate-independent set.
    """
    fs = frozenset(free)
    return tuple(j for j, g in enumerate(circuit.bottom)
                 if sum(1 for i, _ in g.inputs if i in fs) >= 2)


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


@dataclass
class SolveOutcome:
    """Result of one solver run, threshold or symmetric.

    eliminated is the set S that `eliminate` decided in closed form,
    ascending, and branches = 2^(n - |S|) the rows enumerated outside it;
    counters.assignments counts the rows examined, all of them when the
    circuit is unsatisfiable.  restriction is the one restriction drawn at
    p, None when S is the greedy set.  params holds `restriction_params`
    when they chose p, that is when the threshold solver drew at its own
    p; it is None when nothing was drawn, when the caller gave p, and for
    the symmetric solver, which picks only p.
    """

    satisfiable: bool
    witness: Optional[Assignment]
    branches: int
    restriction: Optional[Restriction]
    params: Optional[RestrictionParams]
    counters: WorkCounters = field(default_factory=WorkCounters)
    eliminated: tuple[int, ...] = ()


def gain_bounds(circuit: SymmetricCircuit) -> list[int]:
    """Per variable, its absolute direct weight plus the absolute top weight
    of every gate that reads it: with the other variables fixed, flipping it
    moves the top sum by at most this much."""
    bound = [0] * circuit.n_vars
    for i, w in circuit.direct_wires:
        bound[i] += abs(w)
    for gate, top_w in zip(circuit.bottom, circuit.top_gate_weights):
        for i, _ in gate.inputs:
            bound[i] += abs(top_w)
    return bound


def _gate_test(preds: Sequence[Predicate]
               ) -> tuple[list[int], Callable[[np.ndarray], np.ndarray]]:
    """The gates grouped by the kind of their Predicate.int64_form, as an
    order of gate indices, and test(sums): row k of the (len(preds), rows)
    array sums under the predicate of gate order[k].  Each group takes one
    vectorized comparison, with its parameters as (group size, 1) columns,
    a membership list padded with the guard, which no sum reaches."""
    runs: dict[PredKind, list[tuple[int, tuple[int, ...]]]] = {}
    for j, pred in enumerate(preds):
        kind, params = pred.int64_form()
        runs.setdefault(kind, []).append((j, params))
    order: list[int] = []
    groups = []
    for kind in sorted(runs, key=_KIND_RANK.__getitem__):
        indices, params = zip(*runs[kind])
        width = max(map(len, params))
        table = np.array([row + (ACCUMULATION_GUARD,) * (width - len(row))
                          for row in params],
                         dtype=np.int64).reshape(len(params), width)
        groups.append((len(order), len(order) + len(params), kind,
                       [table[:, k:k + 1] for k in range(width)]))
        order += indices
    if not groups:
        return order, lambda sums: np.zeros(sums.shape, dtype=bool)
    if len(groups) == 1:
        _, _, kind, columns = groups[0]
        return order, lambda sums: holds_columns(kind, columns, sums)
    return order, lambda sums: np.concatenate(
        [holds_columns(kind, columns, sums[a:b])
         for a, b, kind, columns in groups])


def _steps_to(steps: Sequence[int], target: int) -> list[bool]:
    """Which of the nonnegative steps a subset summing to target takes; the
    target must be reachable.  Backtracks through the prefix reach sets."""
    prefix = [np.zeros(target + 1, dtype=bool)]
    prefix[0][0] = True
    for a in steps:
        reach = prefix[-1].copy()
        if a <= target:
            reach[a:] |= prefix[-1][:target + 1 - a]
        prefix.append(reach)
    taken = []
    for k in range(len(steps) - 1, -1, -1):
        took = not prefix[k][target]
        target -= steps[k] if took else 0
        taken.append(took)
    return taken[::-1]


def _shift_or(reach: np.ndarray, words: int, bits: np.ndarray) -> None:
    """reach |= reach << (64 * words + bits), in place, on rows of uint64
    words with the lowest word first; bits is a (rows, 1) column of shifts
    below 64.  numpy shifts a uint64 by 64 to 0, so a zero bit shift
    carries nothing from the word below."""
    n = reach.shape[1]
    carry = reach[:, :n - words - 1] >> (np.uint64(64) - bits)
    reach[:, words:] |= reach[:, :n - words] << bits
    reach[:, words + 1:] |= carry


def eliminate(circuit: SymmetricCircuit, eliminated: Collection[int],
              cnt: WorkCounters) -> Optional[tuple[int, ...]]:
    """First satisfying assignment of a circuit, found by enumerating the
    variables outside the gate-independent set `eliminated` and deciding
    the set itself in closed form.

    The other variables are enumerated lexicographically, lowest index most
    significant, in blocks of rows.  In each row every gate is a constant or
    a function of its one eliminated input, whatever its predicate, so the
    top sum is a constant plus a gain g_i * x_i per eliminated variable.  A
    `ge` top holds somewhere in the row iff the constant plus the positive
    gains reaches its threshold, and then x_i = [g_i > 0] satisfies it.
    Any other top is tested on every sum the row reaches.  The offsets
    above the row's least sum lie in [0, W] for the set's summed
    gain_bounds W, and each row keeps the reachable ones as W // 64 + 1
    packed uint64 words; an eliminated variable whose gain_bounds entry is
    below 64 moves them by one shift-or on the whole block, a wider one by
    one shift-or per whole-word shift its rows take.  The top predicate,
    tested on the (rows, W + 1) sums, is packed the same way and and-ed in;
    the witness takes the lowest reachable offset it accepts.
    Returns the total assignment of the first satisfiable row, or None;
    cnt.assignments grows by the rows examined.  A set in which some gate
    has two inputs is refused, and so is one whose W, under a top other
    than `ge`, reaches 2^_BLOCK_ELEMENT_BITS.
    """
    check_accumulation(circuit)
    n = circuit.n_vars
    s_list = sorted(set(eliminated))
    if s_list and not 0 <= s_list[0] <= s_list[-1] < n:
        raise InputError("eliminated set names a variable outside the circuit")
    top_kind, top_params = circuit.top_pred.int64_form()
    top_columns = [np.int64(v) for v in top_params]
    top_ge = top_kind is PredKind.GE
    spread = 0
    if not top_ge:
        bound = gain_bounds(circuit)
        spread = sum(bound[v] for v in s_list)
    if spread >= 1 << _BLOCK_ELEMENT_BITS:
        raise ResourceGuardError(
            f"top sums spread over {spread} values in a row, past the "
            f"2^{_BLOCK_ELEMENT_BITS} guard")
    s_row = {v: k for k, v in enumerate(s_list)}
    enumerated = [v for v in range(n) if v not in s_row]
    column = {v: k for k, v in enumerate(enumerated)}
    bits = len(enumerated)
    m = len(circuit.bottom)
    # the top sum does not depend on the order of the gates
    order, fires = _gate_test([g.pred for g in circuit.bottom])
    top_w = np.array([circuit.top_gate_weights[j] for j in order],
                     dtype=np.int64)
    # weights: gate j's on the enumerated variables in row j, the direct
    # wires' in row m; flip[j], gain_w[k, j]: gate j's weight on eliminated
    # variable k and the top weight that carries its flip into k's gain
    weights = np.zeros((m + 1, bits), dtype=np.int64)
    flip = np.zeros((m, 1), dtype=np.int64)
    gain_w = np.zeros((len(s_list), m), dtype=np.int64)
    direct = np.zeros((len(s_list), 1), dtype=np.int64)
    for j, gate in enumerate(circuit.bottom[g] for g in order):
        if sum(i in s_row for i, _ in gate.inputs) > 1:
            raise InputError(f"gate {order[j]} has two or more inputs in the "
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
    # max(m + 1, W + 1) * 2^low < 2^_BLOCK_ELEMENT_BITS entries, plus a
    # constant
    low = min(bits, max(0, _BLOCK_ELEMENT_BITS
                        - max(m + 1, spread + 1).bit_length()))
    width = 1 << low
    # filled in place, the columns doubling with each bit from the lowest
    low_sums = np.empty((m + 1, width), dtype=np.int64)
    low_sums[:, 0] = 0
    for k in range(low):
        np.add(low_sums[:, :1 << k], weights[:, bits - 1 - k:bits - k],
               out=low_sums[:, 1 << k:2 << k])
    high_shifts = np.arange(bits - low - 1, -1, -1, dtype=np.int64)
    offsets = np.arange(spread + 1, dtype=np.int64)
    # a row's reachable offsets, bit b of word k standing for offset 64k + b
    words = spread // 64 + 1
    for block in range(1 << (bits - low)):
        high = weights[:, :bits - low] @ ((block >> high_shifts) & 1)
        sums = low_sums + high[:, None]
        fired = fires(sums[:m])
        flipped = fires(sums[:m] + flip)
        gain = gain_w @ (flipped.view(np.int8) - fired.view(np.int8)) + direct
        top = sums[m] + top_w @ fired
        if top_ge:
            sat = holds_columns(top_kind, top_columns,
                                top + np.maximum(gain, 0).sum(axis=0))
        else:
            steps = np.abs(gain)
            least = top + np.minimum(gain, 0).sum(axis=0)
            reach = np.zeros((width, words), dtype=np.uint64)
            reach[:, 0] = 1
            for step, v in zip(steps, s_list):
                shift = (step & 63).astype(np.uint64)[:, None]
                # only a gain that can reach 64 shifts rows by whole words
                if bound[v] < 64:
                    _shift_or(reach, 0, shift)
                    continue
                word_shift = step >> 6
                for q in np.unique(word_shift):
                    rows = np.flatnonzero(word_shift == q)
                    part = reach[rows]
                    _shift_or(part, int(q), shift[rows])
                    reach[rows] = part
            accept = np.zeros((width, 8 * words), dtype=np.uint8)
            packed = np.packbits(holds_columns(top_kind, top_columns,
                                               least[:, None] + offsets),
                                 axis=1, bitorder="little")
            accept[:, :packed.shape[1]] = packed
            hits = reach & accept.view("<u8")
            sat = hits.any(axis=1)
        if sat.any():
            hit = int(np.argmax(sat))
            cnt.assignments += hit + 1
            row = block * width + hit
            values = [0] * n
            for k, v in enumerate(enumerated):
                values[v] = (row >> (bits - 1 - k)) & 1
            if top_ge:
                chosen = [bool(g > 0) for g in gain[:, hit]]
            else:
                # the lowest reachable offset the top accepts: the lowest
                # set bit of the first nonzero word
                first = int(np.argmax(hits[hit] != 0))
                word = int(hits[hit, first])
                taken = _steps_to([int(a) for a in steps[:, hit]],
                                  64 * first + (word & -word).bit_length() - 1)
                # a taken step is x = 1 for a positive gain, x = 0 otherwise
                chosen = [t != (g < 0) for t, g in zip(taken, gain[:, hit])]
            for k, v in enumerate(s_list):
                values[v] = int(chosen[k])
            return tuple(values)
        cnt.assignments += width
    return None


def _solve_eliminating(circuit: SymmetricCircuit, p: Optional[Fraction],
                       seed: Optional[int],
                       params: Optional[RestrictionParams],
                       max_branch_bits: int,
                       counters: Optional[WorkCounters]) -> SolveOutcome:
    """The one route of both solvers.  A circuit of more than MAX_VARS
    variables is a ResourceGuardError; one with none is decided by its one
    empty row.  p, when given, must satisfy 0 < p <= 1.  The eliminated set
    holds at most one input of each gate, so a gate of fan-in f leaves at
    least f - 1 enumerated bits: a gate past max_branch_bits + 1 is refused
    before any set is chosen.  With p None, eliminate the greedy
    independent set and draw nothing.  Otherwise draw one restriction at p
    from Random(seed), or from the instance's own seed, and eliminate its
    free variables outside the exceptional gates.  Under a top other than
    `ge`, the variables with the largest gain_bounds, the highest index
    first among equals, leave the set until its spread fits eliminate's
    guard.  params is only reported."""
    cnt = counters if counters is not None else WorkCounters()
    n = circuit.n_vars
    if n > MAX_VARS:
        raise ResourceGuardError(
            f"{n} variables exceeds the {MAX_VARS} guard")
    if p is not None:
        p = Fraction(p)
        if not 0 < p <= 1:
            raise InputError("free probability p must lie in (0, 1]")
    widest = max((g.fan_in for g in circuit.bottom), default=0)
    if widest - 1 > max_branch_bits:
        raise ResourceGuardError(
            f"a gate of fan-in {widest} leaves at least 2^{widest - 1} "
            f"enumerated rows, past the 2^{max_branch_bits} guard")
    if p is None:
        restriction = None
        eliminated = greedy_independent_set(circuit)
    else:
        rng = Random(seed if seed is not None else instance_seed(circuit))
        restriction = draw_restriction(circuit, p, rng)
        # a gate outside the exceptional ones has at most one free input
        crowded = {i for j in exceptional_gates(circuit, restriction.free)
                   for i, _ in circuit.bottom[j].inputs}
        eliminated = tuple(sorted(restriction.free - crowded))
    if circuit.top_pred.kind is not PredKind.GE:
        bound = gain_bounds(circuit)
        kept = sorted(eliminated, key=lambda v: (bound[v], v))
        # bounds are nonnegative, so the running sums only grow: the sums
        # below the guard are those of the longest prefix that fits
        sums = itertools.accumulate(bound[v] for v in kept)
        fits = sum(1 for total in sums if total < 1 << _BLOCK_ELEMENT_BITS)
        eliminated = tuple(sorted(kept[:fits]))
    bits = n - len(eliminated)
    if bits > max_branch_bits:
        raise ResourceGuardError(
            f"2^{bits} enumerated rows exceeds the 2^{max_branch_bits} guard")
    witness_values = eliminate(circuit, eliminated, cnt)
    witness = Assignment(witness_values) if witness_values is not None else None
    if witness is not None and not evaluate(circuit, witness):
        raise AssertionError("solver produced a bad witness")
    return SolveOutcome(witness is not None, witness, 1 << bits, restriction,
                        params, cnt, eliminated)


def solve(circuit: SymmetricCircuit, *, seed: Optional[int] = None,
          p: Optional[Fraction] = None,
          force_restriction: bool = False,
          max_branch_bits: int = MAX_BRANCH_BITS,
          counters: Optional[WorkCounters] = None) -> SolveOutcome:
    """Decide satisfiability of a depth-two threshold circuit, exactly; a
    circuit with a predicate other than `ge` is refused.

    Every solve is one `eliminate` call.  By default the eliminated set S is
    `greedy_independent_set` and nothing is drawn.  When p or
    force_restriction ask for the paper's restriction, one restriction is
    drawn (seed picks it) at p, or else at `restriction_params`' p, and S
    is its free variables outside the exceptional gates; p outside (0, 1]
    is an InputError.  params reports `restriction_params` only when they
    chose p, and is None otherwise.  The 2^(n - |S|) rows outside S are
    enumerated, at most 2^max_branch_bits of them, and a circuit of more
    than MAX_VARS variables is refused; a circuit with none has one empty
    row.  cnt.assignments counts the rows examined.  The returned witness,
    if any, is verified before return.
    """
    require_threshold(circuit, "solve")
    params = None
    if p is None and force_restriction:
        params = restriction_params(circuit)
        p = params.p
    return _solve_eliminating(circuit, p, seed, params, max_branch_bits,
                              counters)
