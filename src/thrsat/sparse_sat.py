"""The elimination kernel that decides every circuit of the family, the
one driver behind both solvers' entry points, the threshold solver, and the
restriction pipeline.

Every solve, threshold or symmetric, is one `eliminate` call.  It
enumerates the variables outside a gate-independent set S, one in which no
bottom gate has two inputs, in numpy blocks, and decides S in closed form:
with the other variables fixed, every gate depends on at most one variable
of S, so the top sum is a constant plus one term per variable of S.  A
direct wire x_i of weight w enters as the one-input gate x_i >= 1 of top
weight w, a gate like any other.  A block fixes its high enumerated bits,
so each gate is tested on its own small table, its sums over its inputs
among the block's low bits, and the table is added into the block's rows
along those inputs' axes; the tables, direct wires' included, count
toward one bound on a block's size.  By default S is a greedy independent
set, chosen without randomness.  When the caller asks for the paper's
random restriction, S is the free variables of one unbiased draw that lie
in no exceptional gate (a gate with two or more free inputs); an empty S
makes the kernel a cube scan.  The driver checks the free probability p,
seeds the draw and calls the kernel; the two entry points differ only in
their default p.  A circuit with no variables needs no special case: its
cube is one empty row, which the kernel decides like any other.

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
_BLOCK_ENTRY_BITS = 14
_WIRE_GATE = Predicate.ge(1)


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


def _top_terms(circuit: SymmetricCircuit
               ) -> list[tuple[Predicate, tuple[tuple[int, int], ...], int]]:
    """The top gate's terms as (predicate, inputs, top weight): the bottom
    gates in order, then each direct wire x_i of weight w as the one-input
    gate x_i >= 1 of top weight w, as in the paper's depth-two model."""
    return ([(gate.pred, gate.inputs, top_w) for gate, top_w
             in zip(circuit.bottom, circuit.top_gate_weights)]
            + [(_WIRE_GATE, ((i, 1),), w) for i, w in circuit.direct_wires])


def gain_bounds(circuit: SymmetricCircuit) -> list[int]:
    """Per variable, the absolute top weight of every top term that reads
    it, a direct wire being a one-input gate: with the other variables
    fixed, flipping it moves the top sum by at most this much."""
    bound = [0] * circuit.n_vars
    for _, inputs, top_w in _top_terms(circuit):
        for i, _ in inputs:
            bound[i] += abs(top_w)
    return bound


def _gate_test(forms: Sequence[tuple[PredKind, tuple[int, ...]]],
               sizes: Sequence[int]) -> Callable[[np.ndarray], np.ndarray]:
    """test(sums) for gates given by their Predicate.int64_form, sorted by
    kind: each row of sums holds sizes[0] sums of gate 0, then sizes[1] of
    gate 1, and so on, and is tested entry by entry under the gates'
    predicates.  Each kind takes one vectorized comparison, with its
    parameters repeated over its gates' entries, a membership list padded
    with the guard, which no sum reaches."""
    groups = []
    start = 0
    for kind, run in itertools.groupby(zip(forms, sizes),
                                       key=lambda gate: gate[0][0]):
        run = list(run)
        width = max(len(params) for (_, params), _ in run)
        table = np.repeat(np.array(
            [params + (ACCUMULATION_GUARD,) * (width - len(params))
             for (_, params), _ in run], dtype=np.int64).reshape(len(run), width),
            [size for _, size in run], axis=0)
        groups.append((start, start + len(table), kind,
                       [table[:, k] for k in range(width)]))
        start += len(table)
    if len(groups) == 1:
        _, _, kind, columns = groups[0]
        return lambda sums: holds_columns(kind, columns, sums)
    return lambda sums: np.concatenate(
        [holds_columns(kind, columns, sums[:, a:b])
         for a, b, kind, columns in groups], axis=1)


def _steps_to(steps: Sequence[int], target: int) -> list[bool]:
    """Which of the nonnegative steps a subset summing to target takes; the
    target must be reachable.  Backtracks through the prefix reach sets,
    Python ints whose bit s is set when some subset of the first steps sums
    to s."""
    prefix = [1]
    for a in steps:
        p = prefix[-1]
        prefix.append(p | p << a)
    taken = []
    for k in range(len(steps) - 1, -1, -1):
        took = not prefix[k] >> target & 1
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


@dataclass
class _Tables:
    """Gates, direct wires among them, laid end to end for one
    `_gate_test`, sorted by kind, then by their inputs' axes and eliminated
    input.  A gate's table holds its sums over its a inputs among a block's
    low bits, 2^a entries with the lowest-index input most significant; a
    gate with an eliminated input k is followed by its flipped table, the
    same sums plus k's weight.  sums holds the tables at zero high bits,
    high_w[c, g] the g-th gate's weight on high column c, owner each
    entry's gate g, and top_w each entry's gate's top weight.  spans holds
    each run of adjacent gates that share their inputs' axes and k as
    (start, stop, shape, k, many), k None for gates without an eliminated
    input, many whether the run has more than one gate, and shape the one
    that lays the run's tables, one per gate along the first axis when
    many, along their inputs' axes of a (2,) * low view of the block."""

    test: Callable[[np.ndarray], np.ndarray]
    sums: np.ndarray
    high_w: np.ndarray
    owner: np.ndarray
    top_w: np.ndarray
    spans: list[tuple[int, int, tuple[int, ...], Optional[int], bool]]

    def add(self, sums: np.ndarray, top: np.ndarray,
            sides: np.ndarray) -> None:
        """Test every entry at these sums and take c0, the gate's top
        weight where it fires and 0 elsewhere.  Add each gate's c0 along
        its inputs' axes: into top, a (2,) * low view of the block, or,
        with its flipped table's, into row k of sides, an (|S|, 2) + (2,) *
        low view."""
        c0 = self.test(sums[None])[0] * self.top_w
        for start, stop, shape, k, many in self.spans:
            table = c0[start:stop].reshape(shape)
            if many:
                table = table.sum(axis=0)
            if k is None:
                top += table
            else:
                sides[k] += table


def _gate_tables(circuit: SymmetricCircuit, s_row: dict[int, int],
                 column: dict[int, int], bits: int, low: int
                 ) -> tuple[int, Optional[_Tables], Optional[_Tables]]:
    """The top terms, bottom gates and direct wires alike, as _Tables over
    blocks whose last `low` of the `bits` enumerated columns vary and whose
    others, the high ones, are fixed.  low is first lowered until the
    terms' tables, 2^a entries for a term with a inputs among the low
    columns and twice that for one with an eliminated input, hold at most
    2^_BLOCK_ENTRY_BITS entries together, or to 0.  Returns that low, then
    the terms that read no high bit, whose tables are the same in every
    block, and the others, each as one _Tables or None."""
    # per term, its eliminated input as (row of S, weight) or None and its
    # enumerated inputs as (column, weight); columns ascend with the
    # variable index.  Bottom gates come first, so j is a gate's index
    terms = _top_terms(circuit)
    gates = []
    for j, (_, inputs, _) in enumerate(terms):
        flip, enumerated = None, []
        for i, w in sorted(inputs):
            if i in s_row:
                if flip is not None:
                    raise InputError(f"gate {j} has two or more inputs in "
                                     "the eliminated set")
                flip = (s_row[i], w)
            else:
                enumerated.append((column[i], w))
        gates.append((flip, enumerated))

    def entries(low: int) -> int:
        return sum((1 + (flip is not None))
                   << sum(c >= bits - low for c, _ in inputs)
                   for flip, inputs in gates)

    while low and entries(low) > 1 << _BLOCK_ENTRY_BITS:
        low -= 1
    high = bits - low
    # per part, the terms as (int64 form, table, shape, (high column,
    # weight) pairs, top weight, k)
    parts: tuple[list, list] = ([], [])
    for (pred, _, top_w), (flip, inputs) in zip(terms, gates):
        table, shape, high_pairs, k = [0], [1] * low, [], None
        for c, w in inputs:
            if c < high:
                high_pairs.append((c, w))
            else:
                table = [s + x for s in table for x in (0, w)]
                shape[c - high] = 2
        if flip is not None:
            k, w = flip
            table += [s + w for s in table]
        parts[bool(high_pairs)].append((pred.int64_form(), table,
                                        tuple(shape), high_pairs, top_w, k))
    out: list[Optional[_Tables]] = []
    for part in parts:
        if not part:
            out.append(None)
            continue
        # one kind after another, and within a kind the terms with the same
        # axes and k adjacent
        part.sort(key=lambda g: (g[0][0], g[2], g[5] is not None, g[5] or 0))
        high_w = np.zeros((high, len(part)), dtype=np.int64)
        spans: list[list] = []
        start = 0
        for g, (_, table, shape, high_pairs, _, k) in enumerate(part):
            for c, w in high_pairs:
                high_w[c, g] = w
            if spans and spans[-1][2:4] == [shape, k]:
                spans[-1][1] += len(table)
                spans[-1][4] = True
            else:
                spans.append([start, start + len(table), shape, k, False])
            start += len(table)
        out.append(_Tables(
            _gate_test([g[0] for g in part], [len(g[1]) for g in part]),
            np.array([s for g in part for s in g[1]], dtype=np.int64),
            high_w,
            np.repeat(np.arange(len(part)), [len(g[1]) for g in part]),
            np.array([g[4] for g in part for _ in g[1]], dtype=np.int64),
            [(a, b, (-1,) * many + (2,) * (k is not None) + shape, k, many)
             for a, b, shape, k, many in spans]))
    return low, *out


def eliminate(circuit: SymmetricCircuit, eliminated: Collection[int],
              cnt: WorkCounters) -> Optional[tuple[int, ...]]:
    """First satisfying assignment of a circuit, found by enumerating the
    variables outside the gate-independent set `eliminated` and deciding
    the set itself in closed form.

    The other variables are enumerated lexicographically, lowest index most
    significant, in blocks of rows.  A direct wire x_i of weight w is the
    one-input gate x_i >= 1 of top weight w, so the top sum adds up the top
    weights of the gates that fire.  In each row every gate is a constant
    or a function of its one eliminated input, whatever its predicate, so
    the top sum is a constant plus a gain g_i * x_i per eliminated variable.
    A block fixes its high enumerated bits, so a gate's sum there depends
    only on its a inputs among the block's low bits: the gate is tested on
    its own table of 2^a sums, not on every row, and a gate with an
    eliminated input i also on the same table plus i's weight.  Its top
    weight where it fires is added along its inputs' axes of the block's
    (2,) * low view: into the top sums, or, both tables at once, into
    sides[i], the terms that i's gates add to the top sum with x_i = 0 and
    with x_i = 1; g_i is their difference.  A gate that reads no high bit
    is tested and added once for all blocks.  The top sums and sides,
    (2|S| + 1) * rows entries, and the gates' tables together, direct
    wires' included, stay within 2^_BLOCK_ENTRY_BITS, unless a block is
    one row.
    A `ge` top holds somewhere in the row iff the constant plus the positive
    gains reaches its threshold, and then x_i = [g_i > 0] satisfies it.
    Any other top is tested on every sum the row reaches.  The offsets
    above the row's least sum lie in [0, W] for the set's summed
    gain_bounds W, and each row keeps the reachable ones as W // 64 + 1
    packed uint64 words; an eliminated variable moves them by one shift-or
    on the whole block when all its rows shift by the same whole words, and
    by one shift-or per whole-word shift otherwise.  The words are then
    unpacked once into (rows, W + 1) bits, and the top predicate, tested on
    the (rows, W + 1) sums, is and-ed into them; the witness takes the
    lowest reachable offset it accepts.  Then rows * (W + 1) stays below
    2^_BLOCK_ELEMENT_BITS too, unless a block is one row.
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
    low = min(bits, _BLOCK_ENTRY_BITS - (2 * len(s_list)).bit_length())
    if not top_ge:
        low = min(low, _BLOCK_ELEMENT_BITS - (spread + 1).bit_length())
    low, fixed, varying = _gate_tables(circuit, s_row, column, bits,
                                       max(0, low))
    high = bits - low
    width = 1 << low
    # what every block shares: the gates that read no high bit.  sides[k, x]
    # holds the top-sum terms of eliminated variable k's gates with x_k = x,
    # and top those of the rest
    top = np.zeros(width, dtype=np.int64)
    top_view = top.reshape((2,) * low)
    sides = np.zeros((len(s_list), 2, width), dtype=np.int64)
    sides_view = sides.reshape((len(s_list), 2) + (2,) * low)
    if fixed is not None:
        fixed.add(fixed.sums, top_view, sides_view)
    high_shifts = np.arange(high - 1, -1, -1, dtype=np.int64)
    offsets = np.arange(spread + 1, dtype=np.int64)
    # a row's reachable offsets, bit b of word k standing for offset 64k + b
    words = spread // 64 + 1
    block_top, block_sides = top, sides
    for block in range(1 << high):
        if varying is not None:
            on = ((block >> high_shifts) & 1).astype(bool)
            block_top, block_sides = top.copy(), sides.copy()
            varying.add(varying.sums
                        + varying.high_w[on].sum(axis=0)[varying.owner],
                        block_top.reshape(top_view.shape),
                        block_sides.reshape(sides_view.shape))
        if top_ge:
            sat = holds_columns(top_kind, top_columns,
                                block_top + block_sides.max(axis=1).sum(axis=0))
        else:
            gain = block_sides[:, 1] - block_sides[:, 0]
            steps = np.abs(gain)
            least = block_top + block_sides.min(axis=1).sum(axis=0)
            reach = np.zeros((width, words), dtype=np.uint64)
            reach[:, 0] = 1
            for step in steps:
                shift = (step & 63).astype(np.uint64)[:, None]
                word_shift = step >> 6
                first = int(word_shift[0])
                if (word_shift == first).all():
                    _shift_or(reach, first, shift)
                    continue
                for q in np.unique(word_shift):
                    rows = np.flatnonzero(word_shift == q)
                    part = reach[rows]
                    _shift_or(part, int(q), shift[rows])
                    reach[rows] = part
            hits = np.unpackbits(
                reach.astype("<u8", copy=False).view(np.uint8), axis=1,
                count=spread + 1, bitorder="little")
            hits &= holds_columns(top_kind, top_columns,
                                  least[:, None] + offsets)
            sat = hits.any(axis=1)
        if sat.any():
            hit = int(np.argmax(sat))
            cnt.assignments += hit + 1
            row = block * width + hit
            values = [0] * n
            for k, v in enumerate(enumerated):
                values[v] = (row >> (bits - 1 - k)) & 1
            if top_ge:
                chosen = list(block_sides[:, 1, hit] > block_sides[:, 0, hit])
            else:
                # the lowest reachable offset the top accepts
                taken = _steps_to([int(a) for a in steps[:, hit]],
                                  int(np.argmax(hits[hit])))
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
