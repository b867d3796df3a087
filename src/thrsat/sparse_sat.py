"""Satisfiability of sparse depth-two threshold circuits, and the parts of
the restriction pipeline that both solvers share.

The solver samples a random restriction that leaves each variable free with
a probability tuned to the circuit's wire density, then enumerates all
assignments to the non-free variables.  Each branch folds into a residual
circuit over the free variables whose gates are exactly the exceptional
gates, those with two or more free inputs.  That set depends only on the
free set, so the route is decided once per restriction and taken by every
branch:

* no exceptional gate: every residual is a single threshold over the free
  variables, decided in closed form for whole blocks of branches at once;
* at most the residual budget of them: the shared branch driver folds each
  branch into its residual and hands it to a decider, here one that guesses
  the residual's gate outputs and runs the split-and-list search on each
  guess;
* more than the budget: one exhaustive scan of the cube, branch by branch.

The symmetric-gate solver uses the same scan, the same branch driver and
the same witness check, with its own decider.  Every route is exact and
every witness is checked before it is returned.
"""
from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from random import Random
from typing import Callable, Collection, Iterable, Optional, Sequence, Union

import numpy as np

from .counters import WorkCounters
from .errors import InputError, ResourceGuardError
from .model import (Assignment, Restriction, SymmetricCircuit, WireStats,
                    branch_folder, check_accumulation, evaluate,
                    evaluate_batch, require_threshold, wire_stats)
from .splitlist import IneqSystem, Rel, Row, solve_ilp

DEFAULT_DELTA = Fraction(1, 48)
MAX_GUESS_GATES = 60
MAX_BRANCH_BITS = 30
_SCAN_CHUNK_BITS = 14


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
                       rng: Random, max_draws: int = 10
                       ) -> tuple[Restriction, int]:
    """Draw restrictions until the exceptional-gate count is within twice its
    expectation bound (3*delta*p*n); after max_draws, keep the best draw.

    Returns the restriction together with its exceptional-gate count.
    """
    n = circuit.n_vars
    cap = 2 * 3 * params.delta * params.p * n
    best: Optional[Restriction] = None
    best_exc = -1
    for _ in range(max_draws):
        r = draw_restriction(circuit, params.p, rng)
        exc = len(exceptional_gates(circuit, r.free))
        if best is None or exc < best_exc:
            best, best_exc = r, exc
        if exc <= cap:
            return r, exc
    assert best is not None
    return best, best_exc


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

    branches is the size of the enumerated branch space, 2^(n - |free|).
    fallback_branches counts the branches decided by exhaustive scanning
    rather than by their residual: for the threshold solver, the branches
    its single cube scan visited when the restriction left more exceptional
    gates than the budget (all of them when the circuit is UNSAT, none on
    the other routes); for the symmetric solver, the branches whose residual
    had too many value tuples to guess.
    """

    satisfiable: bool
    witness: Optional[Assignment]
    branches: int
    fallback_branches: int
    restriction: Optional[Restriction]
    params: Optional[RestrictionParams]
    counters: WorkCounters = field(default_factory=WorkCounters)


def _outcome(circuit: SymmetricCircuit,
             witness_values: Optional[Sequence[int]], branches: int,
             fallback_branches: int, restriction: Optional[Restriction],
             params: Optional[RestrictionParams],
             cnt: WorkCounters) -> SolveOutcome:
    """The solve's result, after checking its witness on the circuit."""
    witness = Assignment(witness_values) if witness_values is not None else None
    if witness is not None:
        assert evaluate(circuit, witness), "solver produced a bad witness"
    return SolveOutcome(witness is not None, witness, branches,
                        fallback_branches, restriction, params, cnt)


def _scan_outcome(circuit: SymmetricCircuit, cnt: WorkCounters,
                  restriction: Optional[Restriction],
                  params: Optional[RestrictionParams]) -> SolveOutcome:
    """Decide the circuit with one scan of its whole cube."""
    full = _vector_scan(circuit, {}, tuple(range(circuit.n_vars)), cnt)
    return _outcome(circuit, full, 1 << circuit.n_vars, 0, restriction,
                    params, cnt)


def _branch_vars(restriction: Restriction, max_branch_bits: int
                 ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The assigned and the free variables of the restriction, ascending,
    under the guard on the number of assigned bits."""
    assigned_vars = tuple(sorted(restriction.assigned))
    if len(assigned_vars) > max_branch_bits:
        raise ResourceGuardError(
            f"2^{len(assigned_vars)} branches exceeds the "
            f"2^{max_branch_bits} branch guard")
    return assigned_vars, restriction.free_order


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


def _closed_form_branches(circuit: SymmetricCircuit,
                          assigned_vars: tuple[int, ...],
                          free_order: tuple[int, ...],
                          cnt: WorkCounters) -> Optional[tuple[int, ...]]:
    """First branch whose residual is satisfiable, when no gate has two or
    more free inputs, decided for blocks of branches at once.

    Branch b sets assigned_vars[pos] to bit (bits - 1 - pos) of b.  Each
    gate then is a constant or a literal of its one free input, so the
    residual is one threshold: top constant T_b plus a weight w_b,i per free
    variable.  It is satisfiable iff sum_i max(w_b,i, 0) >= T_b, and then
    x_i = [w_b,i > 0] satisfies it.  The gate predicates may be of any kind;
    the top predicate must be `ge`.  Returns the total assignment of the
    first such branch; cnt.assignments grows by the branches examined.
    """
    check_accumulation(circuit)
    bits = len(assigned_vars)
    shift = {var: bits - 1 - pos for pos, var in enumerate(assigned_vars)}
    # free-variable weights that no branch changes: the direct wires
    fixed_w = dict.fromkeys(free_order, 0)
    top_terms = []
    for idx, w in circuit.direct_wires:
        if idx in fixed_w:
            fixed_w[idx] += w
        else:
            top_terms.append((shift[idx], w))
    # per gate: its assigned terms, its free input (variable, weight) or
    # None, its predicate and its top weight
    gates = []
    for gate, top_w in zip(circuit.bottom, circuit.top_gate_weights):
        terms = [(shift[i], w) for i, w in gate.inputs if i in shift]
        free_in = [(i, w) for i, w in gate.inputs if i in fixed_w]
        gates.append((terms, free_in[0] if free_in else None,
                      gate.pred, top_w))

    total = 1 << bits
    block = 1 << min(_SCAN_CHUNK_BITS, bits)
    for lo in range(0, total, block):
        width = min(block, total - lo)
        idx = np.arange(lo, lo + width, dtype=np.int64)

        def linear(terms):
            acc = np.zeros(width, dtype=np.int64)
            for sh, w in terms:
                acc += w * ((idx >> sh) & 1)
            return acc

        top = linear(top_terms)
        varying: dict[int, np.ndarray] = {}
        for terms, free_in, pred, top_w in gates:
            base = linear(terms)
            out0 = pred.holds_batch(base).astype(np.int64)
            top += top_w * out0
            if free_in is not None:
                var, w = free_in
                out1 = pred.holds_batch(base + w).astype(np.int64)
                step = top_w * (out1 - out0)
                varying[var] = varying[var] + step if var in varying else step
        reach = top + sum(max(w, 0) for var, w in fixed_w.items()
                          if var not in varying)
        for var, w in varying.items():
            reach += np.maximum(w + fixed_w[var], 0)
        sat = circuit.top_pred.holds_batch(reach)
        if sat.any():
            hit = int(np.argmax(sat))
            cnt.assignments += hit + 1
            b = lo + hit
            values = [0] * circuit.n_vars
            for var, sh in shift.items():
                values[var] = (b >> sh) & 1
            for var, w in fixed_w.items():
                if var in varying:
                    w += int(varying[var][hit])
                values[var] = int(w > 0)
            return tuple(values)
        cnt.assignments += width
    return None


def solve(circuit: SymmetricCircuit, *, seed: Optional[int] = None,
          delta: Fraction = DEFAULT_DELTA,
          params: Optional[RestrictionParams] = None,
          p: Optional[Fraction] = None,
          force_restriction: bool = False,
          fast_path_max_n: int = 20,
          few_gates_budget: Optional[float] = None,
          max_branch_bits: int = MAX_BRANCH_BITS,
          counters: Optional[WorkCounters] = None) -> SolveOutcome:
    """Decide satisfiability of a depth-two threshold circuit, exactly; a
    circuit with a predicate other than `ge` is refused.

    Small circuits are scanned outright; past fast_path_max_n variables the
    restriction pipeline takes over.  params and p override the derived
    restriction knobs, and few_gates_budget overrides the residual gate
    budget (default 3*delta*|free|).

    The restriction's exceptional-gate count m picks one route for every
    branch.  With m = 0 all branches are decided in closed form and
    cnt.assignments counts the branches examined.  With 0 < m <= budget each
    branch guesses its residual's m gate outputs; cnt.assignments counts one
    per branch and the split-and-list searches add their own work.  With
    m > budget one scan of the cube, assigned variables most significant,
    visits the branches in order; cnt.assignments counts the rows scanned
    and fallback_branches the branches visited.  The returned witness, if
    any, is verified before return.
    """
    cnt = counters if counters is not None else WorkCounters()
    n = circuit.n_vars
    if n < 1:
        raise InputError("circuit must have at least one variable")
    require_threshold(circuit, "solve")
    if n <= fast_path_max_n and not force_restriction:
        return _scan_outcome(circuit, cnt, None, None)

    rng = Random(seed if seed is not None else instance_seed(circuit))
    if params is None:
        params = restriction_params(circuit, delta)
    if p is not None:
        params = replace(params, p=Fraction(p))
    restriction, exceptional = sample_restriction(circuit, params, rng)
    assigned_vars, free_order = _branch_vars(restriction, max_branch_bits)
    if not free_order:
        # Degenerate restriction: every branch is a full assignment, which is
        # exactly one chunked scan of the cube.
        return _scan_outcome(circuit, cnt, restriction, params)

    budget = few_gates_budget if few_gates_budget is not None \
        else 3 * params.delta * len(free_order)
    total = 1 << len(assigned_vars)
    fallback_branches = 0
    if exceptional > budget:
        before = cnt.assignments
        witness_values = _vector_scan(circuit, {}, assigned_vars + free_order,
                                      cnt)
        rows = cnt.assignments - before
        fallback_branches = total if witness_values is None \
            else ((rows - 1) >> len(free_order)) + 1
    elif exceptional == 0:
        witness_values = _closed_form_branches(circuit, assigned_vars,
                                               free_order, cnt)
    else:
        witness_values = _branch_loop(
            circuit, assigned_vars, free_order,
            lambda residual: sat_few_gates(residual, counters=cnt), cnt)
    return _outcome(circuit, witness_values, total, fallback_branches,
                    restriction, params, cnt)
