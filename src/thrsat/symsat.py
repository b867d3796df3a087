"""Satisfiability of depth-two circuits built from symmetric gates.

Gates apply an arbitrary predicate (threshold, equality, congruence, or
membership in a finite set) to an integer-weighted sum of their inputs, and
so does the top gate; the circuit model lives in `thrsat.model`.  The solver
takes the threshold solver's one route, `sparse_sat.eliminate`, which
decides every predicate kind: if no gate has two inputs in the eliminated
set, each gate is a function of at most one of its variables whatever its
predicate.  The only difference is how a requested restriction picks its
free probability p: by maximizing an exact savings score over a geometric
grid.

The paper's own residual decider stays as library API: guessing the exact
value of every residual gate's weighted sum turns each guess into a system
of linear equations, solved by a meet-in-the-middle subset-sum search.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from random import Random
from typing import Iterator, Optional

from .counters import WorkCounters
from .errors import InputError, ResourceGuardError
from .model import Assignment, SymmetricCircuit, evaluate
from .sparse_sat import (MAX_BRANCH_BITS, SolveOutcome, _solve_eliminating,
                         draw_restriction, instance_seed)
from .splitlist import MAX_HALF_VARS

EXACT_SUM_MAX_VARS = 16
DEFAULT_KAPPA = 64


def candidate_values(coeffs: tuple[tuple[int, int], ...],
                     exact_max_vars: int = EXACT_SUM_MAX_VARS) -> tuple[int, ...]:
    """Values the weighted sum over Boolean variables can take (a superset).

    With few variables the exact subset sums are enumerated; otherwise the
    integer interval between the most negative and the most positive
    achievable sum is returned.  Either way the count is at most
    min(2^l, 2W + 1) for l variables of weighted fan-in W.
    """
    lo = sum(min(w, 0) for _, w in coeffs)
    hi = sum(max(w, 0) for _, w in coeffs)
    l = len(coeffs)
    if l <= exact_max_vars and (1 << l) <= hi - lo + 1:
        sums = {0}
        for _, w in coeffs:
            sums |= {s + w for s in sums}
        return tuple(sorted(sums))
    return tuple(range(lo, hi + 1))


@dataclass(frozen=True)
class EqRow:
    coeffs: tuple[tuple[int, int], ...]
    target: int

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           tuple((int(i), int(w)) for i, w in self.coeffs))
        object.__setattr__(self, "target", int(self.target))


@dataclass(frozen=True)
class EqSystem:
    """A system of exact linear equations over Boolean variables."""

    n_vars: int
    rows: tuple[EqRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        for row in self.rows:
            for idx, _ in row.coeffs:
                if not 0 <= idx < self.n_vars:
                    raise InputError(f"equation reads x{idx} but system has {self.n_vars} variables")


def _packed_digits(rows: tuple[EqRow, ...], var_set: frozenset[int],
                   var_positions: dict[int, int], base: int, tag: int) -> int:
    key = 0
    scale = 1
    for row in rows:
        s = 0
        for idx, w in row.coeffs:
            if idx in var_set and tag >> var_positions[idx] & 1:
                s += w
        key += scale * s
        scale *= base
    return key


def solve_boolean_linear_system(system: EqSystem, *,
                                counters: Optional[WorkCounters] = None,
                                max_half_vars: int = MAX_HALF_VARS
                                ) -> Optional[tuple[int, ...]]:
    """Solve the equation system by meeting in the middle.

    Variables are split in two halves; each half assignment is condensed into
    one integer by writing the per-row partial sums as digits in a base wide
    enough that distinct digit vectors never collide.  The first-half keys
    are sorted once, then each second-half key is binary-searched for the
    complement that makes every row hit its target.
    """
    cnt = counters if counters is not None else WorkCounters()
    cnt.eq_solves += 1
    n = system.n_vars
    half = (n + 1) // 2
    if half > max_half_vars:
        raise ResourceGuardError(
            f"half size {half} exceeds the {max_half_vars}-variable guard")
    first = tuple(range(half))
    second = tuple(range(half, n))
    wmax = max((abs(w) for row in system.rows for _, w in row.coeffs), default=0)
    rmax = max((abs(row.target) for row in system.rows), default=0)
    base = 2 * max(n * wmax, rmax, 1) + 1

    first_set = frozenset(first)
    second_set = frozenset(second)
    first_pos = {v: i for i, v in enumerate(first)}
    second_pos = {v: i for i, v in enumerate(second)}

    pairs = []
    for tag in range(1 << len(first)):
        cnt.vectors += 1
        pairs.append((_packed_digits(system.rows, first_set, first_pos, base, tag),
                      tag))
    pairs.sort()
    keys = [k for k, _ in pairs]

    target_key = 0
    scale = 1
    for row in system.rows:
        target_key += scale * row.target
        scale *= base

    for tag2 in range(1 << len(second)):
        cnt.vectors += 1
        need = target_key - _packed_digits(system.rows, second_set, second_pos,
                                           base, tag2)
        i = bisect_left(keys, need)
        if i < len(keys) and keys[i] == need:
            tag1 = pairs[i][1]
            values = [0] * n
            for pos, var in enumerate(first):
                values[var] = tag1 >> pos & 1
            for pos, var in enumerate(second):
                values[var] = tag2 >> pos & 1
            for row in system.rows:
                total = sum(w * values[i] for i, w in row.coeffs)
                if total != row.target:
                    raise AssertionError("digit packing collided")
            return tuple(values)
    return None


def residual_value_systems(circuit: SymmetricCircuit,
                           counters: Optional[WorkCounters] = None
                           ) -> Iterator[tuple[tuple[int, ...], int, EqSystem]]:
    """Enumerate the residual circuit's satisfying value guesses.

    Yields one (gate values, direct-wire value, equation system) triple for
    every guess of the gates' input sums and the direct-wire sum that makes
    the top predicate hold.  An assignment satisfies the circuit exactly when
    it solves the system of one of the yielded triples, so their solution
    sets cover the satisfying assignments, partitioned by value profile.
    """
    cnt = counters if counters is not None else WorkCounters()
    gate_candidates = [candidate_values(g.inputs) for g in circuit.bottom]
    top_candidates = candidate_values(circuit.direct_wires)
    for tup in product(*gate_candidates):
        outputs = [g.pred.holds(v) for g, v in zip(circuit.bottom, tup)]
        gate_total = sum(w for w, out in zip(circuit.top_gate_weights, outputs) if out)
        for tau in top_candidates:
            cnt.guesses += 1
            if not circuit.top_pred.holds(gate_total + tau):
                continue
            rows = tuple(EqRow(g.inputs, v) for g, v in zip(circuit.bottom, tup)) \
                + (EqRow(circuit.direct_wires, tau),)
            yield tup, tau, EqSystem(circuit.n_vars, rows)


def sat_by_value_guessing(circuit: SymmetricCircuit, *,
                          counters: Optional[WorkCounters] = None
                          ) -> Optional[Assignment]:
    """Decide a residual symmetric circuit by guessing value profiles."""
    cnt = counters if counters is not None else WorkCounters()
    for _, _, system in residual_value_systems(circuit, cnt):
        values = solve_boolean_linear_system(system, counters=cnt)
        if values is not None:
            found = Assignment(values)
            if not evaluate(circuit, found):
                raise AssertionError("value guessing produced a bad witness")
            return found
    return None


# --- free-probability analysis ---------------------------------------------
#
# The exponent saved by the restriction pipeline depends on the free
# probability p and on how the weighted wires spread over gate fan-in
# classes.  Candidate values of p live on a geometric grid and are scored in
# exact Fraction arithmetic, so calibration results are reproducible bit for
# bit.


def _log2_fraction(q: Fraction) -> Fraction:
    """log2 of a positive rational: exact on powers of two, float64-backed
    (then frozen into a Fraction) elsewhere."""
    q = Fraction(q)
    if q <= 0:
        raise InputError("log2 needs a positive argument")
    e = 0
    while q >= 2:
        q /= 2
        e += 1
    while q < 1:
        q *= 2
        e -= 1
    if q == 1:
        return Fraction(e)
    return e + Fraction(math.log2(float(q)))


def savings(p: Fraction, f: int, c: Fraction) -> Fraction:
    """Exponent savings of free probability p against weighted-fan-in-f gates
    at total wire density c; may be negative.

    Below the p*f < 1/(4c) knee a free variable rarely meets a second free
    one inside a gate and the savings grow linearly; past the knee the
    exceptional gates eat into the gain logarithmically.
    """
    p, c = Fraction(p), Fraction(c)
    if not 0 < p <= 1:
        raise InputError("p must lie in (0, 1]")
    if f < 1 or c <= 0:
        raise InputError("need a positive fan-in and wire density")
    if p * f < Fraction(1, 4) / c:
        return p / 4
    return p / 2 - Fraction(c, f) * _log2_fraction(8 * c * p * f)


def expected_savings(p: Fraction, densities: dict[int, Fraction],
                     c: Fraction) -> Fraction:
    """Density-weighted savings over a wire distribution.

    densities maps a weighted fan-in f to the wire density c_f its gates
    contribute; the densities may sum to less than the total c.
    """
    c = Fraction(c)
    if c <= 0:
        raise InputError("total wire density must be positive")
    return sum(Fraction(cf) / c * savings(p, f, c)
               for f, cf in densities.items())


def grid_size(c: Fraction, kappa: int = DEFAULT_KAPPA) -> int:
    """Number of grid points scanned for a circuit of wire density c."""
    c = Fraction(c)
    if c <= 0:
        return 0
    return math.ceil(kappa * c * c * _log2_fraction(max(c, Fraction(2))))


def p_grid(c: Fraction, kappa: int = DEFAULT_KAPPA) -> tuple[Fraction, ...]:
    """The candidate free probabilities 2^-1, ..., 2^-I, largest first."""
    return tuple(Fraction(1, 1 << i) for i in range(1, grid_size(c, kappa) + 1))


def choose_p(densities: dict[int, Fraction], c: Fraction,
             kappa: int = DEFAULT_KAPPA) -> Fraction:
    """Grid point with the best expected savings; ties go to the larger p.

    An empty distribution means no wires, where every variable may stay free.
    """
    if not densities:
        return Fraction(1)
    best_p, best_score = None, None
    for cand in p_grid(c, kappa):
        score = expected_savings(cand, densities, c)
        if best_score is None or score > best_score:
            best_p, best_score = cand, score
    if best_p is None:
        return Fraction(1)
    return best_p


@dataclass(frozen=True)
class PDistribution:
    """A distribution over the p grid that loads most mass on the small end.

    The mass at the i-th grid point (p = 2^-i) is proportional to 2^i, scaled
    by a normalizer in (1, 2] so the masses sum to one exactly.
    """

    points: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(
            (Fraction(p), Fraction(m)) for p, m in self.points))
        if self.points and sum(m for _, m in self.points) != 1:
            raise InputError("masses must sum to one")

    @property
    def size(self) -> int:
        return len(self.points)

    @classmethod
    def for_density(cls, c: Fraction, kappa: int = DEFAULT_KAPPA) -> "PDistribution":
        size = grid_size(c, kappa)
        if size == 0:
            return cls(((Fraction(1), Fraction(1)),))
        scale = Fraction(1 << size, (1 << size) - 1)
        return cls(tuple((Fraction(1, 1 << i),
                          scale * Fraction(1, 1 << (size - i + 1)))
                         for i in range(1, size + 1)))

    def mean_savings(self, densities: dict[int, Fraction],
                     c: Fraction) -> Fraction:
        return sum(m * expected_savings(p, densities, c)
                   for p, m in self.points)


def adversarial_densities(c: int) -> dict[int, Fraction]:
    """The wire distribution that stresses the grid hardest: one density unit
    at every power-of-two weighted fan-in up to 2^c."""
    if c < 1:
        raise InputError("need a positive density")
    return {1 << j: Fraction(1) for j in range(1, c + 1)}


def wire_distribution(circuit: SymmetricCircuit) -> dict[int, Fraction]:
    """Wire density per weighted-fan-in class: class f holds f wires for each
    of its gates, divided by the variable count."""
    if circuit.n_vars < 1:
        raise InputError("circuit must have at least one variable")
    out: dict[int, Fraction] = {}
    for g in circuit.bottom:
        f = g.weighted_fan_in
        out[f] = out.get(f, Fraction(0)) + Fraction(f, circuit.n_vars)
    return out


def solve_symmetric(circuit: SymmetricCircuit, *, seed: Optional[int] = None,
                    p: Optional[Fraction] = None,
                    force_restriction: bool = False,
                    max_branch_bits: int = MAX_BRANCH_BITS,
                    counters: Optional[WorkCounters] = None) -> SolveOutcome:
    """Decide satisfiability of a symmetric depth-two circuit, exactly.

    The route is `solve`'s: one `eliminate` call.  By default the eliminated
    set S is `greedy_independent_set` and nothing is drawn.  When p or
    force_restriction ask for the paper's restriction, one restriction is
    drawn (seed picks it) at p, or else at the grid argmax of the expected
    savings for this circuit's wire distribution, and S is its free
    variables outside the exceptional gates.  Under a top predicate other
    than `ge` the variables that widen the top sum most leave S until
    eliminate's guard admits it.  The 2^(n - |S|) rows outside S are
    enumerated, at most 2^max_branch_bits of them; cnt.assignments counts
    the rows examined.  The returned witness, if any, is verified.
    """
    restriction = None
    if p is not None or force_restriction:
        if p is None:
            densities = wire_distribution(circuit)
            p = choose_p(densities, sum(densities.values(), Fraction(0)))
        rng = Random(seed if seed is not None else instance_seed(circuit))
        restriction = draw_restriction(circuit, Fraction(p), rng)
    return _solve_eliminating(circuit, restriction, None, max_branch_bits,
                              counters)
