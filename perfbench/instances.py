"""Seeded workload generator.

Every instance is written as text in the repository's formats; the program
under test only ever sees that text and the solver arguments listed with it.
Instances are drawn from the same families as the repository's own
generators (fixed fan-in threshold circuits, mixed-predicate symmetric
circuits, sparse linear systems) but by code of the benchmark's own, so that
a change to the program cannot change the workload.

Each instance's verdict comes from the independent brute force in check.py,
and the top gate is picked from that brute force so that UNSAT instances are
just out of reach and SAT instances have their first witness late in the
order the solver visits assignments.  Restricted solves get an explicit
restriction seed, picked by replaying the documented draw (each variable
free with probability p, in index order, from `random.Random(seed)`), so
that every seed of the benchmark gives the same branch count.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Optional

import numpy as np

from check import (Circuit, System, _holds_array, bits_of, decide_system,
                   read_circuit, read_system, top_sums)

WORKLOADS = ("tc-scan", "tc-restrict", "sym-restrict", "ilp-split")

# The default restriction accuracy of the threshold solver; the first draw is
# kept when its exceptional-gate count is at most 6 * delta * p * n.
_DELTA = Fraction(1, 48)
# The first variables a SAT instance's witnesses agree on read this prefix,
# so the first witness lies between 10/16 and 11/16 of the visiting order.
_PREFIX = (1, 0, 1, 0)
_LATE = (0.625, 0.6875)


@dataclass
class Instance:
    name: str
    kind: str                 # circuit, symmetric or ilp: the CLI's kind
    text: str
    sat: bool                 # expected verdict, from the brute force
    witness: Optional[str]    # the brute force's witness, for the selftest
    role: str                 # "unsat" or "sat": the metric it is timed in
    args: dict = field(default_factory=dict)   # solver keywords
    cli: bool = False         # also solved through `thrsat solve`
    restricted: bool = False  # a restricted solve, compared with a cube scan


# --- text ---------------------------------------------------------------------

def _terms(terms, prefix=""):
    return " ".join(f"{prefix}{i}:{w}" for i, w in terms)


def _pred_text(pred):
    if pred[0] in ("ge", "eq"):
        return f"{pred[0]} {pred[1]}"
    if pred[0] == "mod":
        return f"mod {pred[1]} {pred[2]}"
    return "set " + ",".join(str(v) for v in sorted(pred[1:]))


def _top_text(c: Circuit) -> str:
    parts = [_terms(((j, w) for j, w in enumerate(c.top_weights) if w), "g"),
             _terms(c.direct, "x")]
    return " ".join(p for p in parts if p)


def circuit_text(c: Circuit, symmetric: bool) -> str:
    if symmetric:
        wires = sum(abs(w) for inputs, _ in c.gates for _, w in inputs)
        lines = [f"sc2 {c.n} {len(c.gates)} {-(-wires // c.n)}"]
        lines += [f"sgate {_pred_text(p)} {_terms(inp)}" for inp, p in c.gates]
        lines.append(f"stop {_pred_text(c.top)} {_top_text(c)}".rstrip())
    else:
        lines = [f"tc2 {c.n} {len(c.gates)}"]
        lines += [f"gate {p[1]} {_terms(inp)}" for inp, p in c.gates]
        lines.append(f"top {c.top[1]} {_top_text(c)}".rstrip())
    return "\n".join(lines) + "\n"


def system_text(s: System) -> str:
    lines = [f"ilp {s.n} {len(s.rows)} {s.arity}"]
    lines += [f"row {rel} {rhs} {_terms(coeffs)}" for coeffs, rel, rhs in s.rows]
    return "\n".join(lines) + "\n"


# --- random structure ------------------------------------------------------------

def _weight(rng: Random, bound: int) -> int:
    return rng.randint(1, bound) * rng.choice((-1, 1))


def _range(terms) -> tuple[int, int]:
    return (sum(min(w, 0) for _, w in terms), sum(max(w, 0) for _, w in terms))


def _gate_inputs(rng: Random, n: int, fan_in: int, bound: int):
    return tuple((i, _weight(rng, bound)) for i in sorted(rng.sample(range(n), fan_in)))


def _plan(wires: int, fan_in: int) -> list[int]:
    return [fan_in] * (wires // fan_in) + ([wires % fan_in] if wires % fan_in else [])


def threshold_structure(rng: Random, n: int) -> Circuit:
    """Density one, fan-in three, weights in +-1..8; top predicate unset."""
    gates = []
    for f in _plan(n, 3):
        inputs = _gate_inputs(rng, n, f, 8)
        lo, hi = _range(inputs)
        gates.append((inputs, ("ge", rng.randint(lo + 1, hi))))
    weights = tuple(_weight(rng, 8) for _ in gates)
    return Circuit(n, tuple(gates), weights, (), ("ge", 0))


def _symmetric_pred(rng: Random, inputs, kind: str):
    lo, hi = _range(inputs)
    if kind == "ge":
        return ("ge", rng.randint(lo + 1, hi))
    if kind == "eq":
        return ("eq", rng.randint(lo, hi))
    if kind == "mod":
        m = rng.randint(2, 5)
        return ("mod", m, rng.randint(0, m - 1))
    return ("set",) + tuple(sorted(rng.sample(range(lo, hi + 1),
                                              rng.randint(1, min(3, hi - lo + 1)))))


def _split(rng: Random, total: int, parts: int, top: int) -> list[int]:
    """A random composition of total into parts, each in 1..top."""
    while True:
        cut = [rng.randint(1, top) for _ in range(parts - 1)]
        last = total - sum(cut)
        if 1 <= last <= top:
            return cut + [last]


def symmetric_structure(rng: Random, n: int, wires: int, direct: int) -> Circuit:
    """Fan-in three gates with weights in +-1..3 and mixed ge, eq, mod and set
    predicates, plus a few direct wires; top predicate unset.

    The calibration of p and the cost of evaluating a gate depend on the
    weighted fan-ins and the predicate kinds, so both are fixed for every
    seed: the gates' weight magnitudes sum to 5, 6 or 7 in fixed numbers
    (6 on average, so the wire density c is exactly 2 * wires / n), and the
    kinds come in the proportion 4:2:2:2."""
    count = wires // 3
    assert count * 3 == wires, "symmetric circuits have fan-in three"
    sums = [5, 7] * (count // 3) + [6] * (count - 2 * (count // 3))
    kinds = [("ge", "ge", "eq", "mod", "set")[k % 5] for k in range(count)]
    rng.shuffle(sums)
    rng.shuffle(kinds)
    gates = []
    for total, kind in zip(sums, kinds):
        variables = sorted(rng.sample(range(n), 3))
        inputs = tuple((i, m * rng.choice((-1, 1)))
                       for i, m in zip(variables, _split(rng, total, 3, 3)))
        gates.append((inputs, _symmetric_pred(rng, inputs, kind)))
    weights = tuple(_weight(rng, 3) for _ in gates)
    direct_terms = _gate_inputs(rng, n, direct, 3)
    return Circuit(n, tuple(gates), weights, direct_terms, ("ge", 0))


# --- restriction seeds ---------------------------------------------------------------

def free_set(seed: int, n: int, p: Fraction) -> list[int]:
    rng = Random(seed)
    return [i for i in range(n) if rng.random() < p]


def _exceptional(c: Circuit, free: list[int]) -> int:
    fs = set(free)
    return sum(1 for inputs, _ in c.gates if sum(i in fs for i, _ in inputs) >= 2)


def restriction_seed(rng: Random, c: Circuit, p: Fraction, n_free: int,
                     n_exceptional: int) -> Optional[int]:
    """A seed whose first draw leaves exactly n_free variables free and
    n_exceptional gates with two or more free inputs."""
    base = rng.randrange(1 << 30)
    for seed in range(base, base + 4000):
        free = free_set(seed, c.n, p)
        if len(free) == n_free and _exceptional(c, free) == n_exceptional:
            return seed
    return None


def empty_draw_seed(rng: Random, n: int, p_max: Fraction) -> int:
    """A seed whose draw leaves no variable free at any p <= p_max."""
    while True:
        seed = rng.randrange(1 << 30)
        if not free_set(seed, n, p_max):
            return seed


def branch_index(points: np.ndarray, n: int, free: list[int]) -> np.ndarray:
    """The branch the restricted solver visits each point in: the assigned
    variables read as a binary number, lowest index most significant."""
    out = np.zeros_like(points)
    fs = set(free)
    for i in range(n):
        if i not in fs:
            out = (out << 1) | ((points >> (n - 1 - i)) & 1)
    return out


# --- top predicate selection -------------------------------------------------------------

def _shifted(pred: tuple, b: int) -> tuple:
    """The predicate q with q(s) == pred(s + b)."""
    if pred[0] in ("ge", "eq"):
        return (pred[0], pred[1] - b)
    if pred[0] == "mod":
        return ("mod", pred[1], (pred[2] - b) % pred[1])
    return ("set",) + tuple(v - b for v in pred[1:])


def flip(c: Circuit, mask: int) -> Circuit:
    """The same circuit over the literals x_i -> 1 - x_i for every i whose
    bit (n - 1 - i) is set in mask.  Point j of the result is point
    j ^ mask of c, and every gate keeps its output there."""
    flipped = {i for i in range(c.n) if mask >> (c.n - 1 - i) & 1}

    def terms(inputs):
        shift = sum(w for i, w in inputs if i in flipped)
        return tuple((i, -w if i in flipped else w) for i, w in inputs), shift

    gates = []
    for inputs, pred in c.gates:
        new_inputs, shift = terms(inputs)
        gates.append((new_inputs, _shifted(pred, shift)))
    direct, shift = terms(c.direct)
    return Circuit(c.n, tuple(gates), c.top_weights, direct, _shifted(c.top, shift))


def permute(c: Circuit, perm: list[int]) -> Circuit:
    """The same circuit with variable v renamed perm[v]."""
    def terms(inputs):
        return tuple(sorted((perm[i], w) for i, w in inputs))
    return Circuit(c.n, tuple((terms(inputs), pred) for inputs, pred in c.gates),
                   c.top_weights, terms(c.direct), c.top)


def _tops(rng: Random, lo: int, hi: int, symmetric: bool):
    tops = [("ge", t) for t in range(lo + 1, hi + 2)]
    if symmetric:
        tops += [("eq", v) for v in range(lo, hi + 1)]
        tops += [("mod", m, r) for m in (3, 4, 5) for r in range(m)]
    rng.shuffle(tops)
    return tops


def _with_top(c: Circuit, top: tuple) -> Circuit:
    return Circuit(c.n, c.gates, c.top_weights, c.direct, top)


def _seed_with(rng: Random, c: Circuit, restriction) -> tuple[int, list[int]]:
    """A restriction seed and its free set: a draw of the planned size for a
    restricted solve, an empty draw for a scan."""
    if restriction is None:
        return empty_draw_seed(rng, c.n, Fraction(1, 4)), []
    p, n_free, _ = restriction
    while True:
        seed = rng.randrange(1 << 30)
        free = free_set(seed, c.n, p)
        if len(free) == n_free:
            return seed, free


def finish_circuit(rng: Random, c: Circuit, want_sat: bool, symmetric: bool,
                   restriction=None) -> Optional[tuple[Circuit, Optional[str], int]]:
    """Give the circuit a top predicate and a restriction seed.

    restriction is (p, free variables, exceptional gates) for a restricted
    solve, None for a scan.  An UNSAT circuit gets a top no point reaches
    (a `ge` top only just out of reach).  A SAT circuit gets a top whose
    witnesses all agree on four variables; those are renamed to the first
    four variables the solver enumerates and flipped to read 1, 0, 1, 0, so
    that its first witness lies between 10/16 and 11/16 of the visiting
    order.
    Returns the circuit, its lexicographically first witness and the seed,
    or None when nothing fits.
    """
    n = c.n
    if restriction is not None and restriction[2] > 6 * _DELTA * restriction[0] * n:
        raise ValueError("the threshold solver would not keep that draw")
    sums = top_sums(c)
    lo, hi = int(sums.min()), int(sums.max())
    values = np.arange(lo, hi + 1, dtype=np.int64)
    counts = np.bincount(sums - lo, minlength=hi - lo + 1)
    for top in _tops(rng, lo, hi, symmetric):
        hits = int(counts[_holds_array(top, values)].sum())
        if not want_sat:
            if hits or (top[0] == "ge" and top[1] != hi + 1):
                continue
            done = _with_top(c, top)
            if restriction is None:
                return done, None, empty_draw_seed(rng, n, Fraction(1, 4))
            seed = restriction_seed(rng, done, *restriction)
            return None if seed is None else (done, None, seed)
        if not 1 <= hits <= 1 << 16:
            continue
        points = np.flatnonzero(_holds_array(top, sums))
        bits = (points[:, None] >> (n - 1 - np.arange(n))) & 1
        forced = [v for v in range(n) if bits[:, v].min() == bits[:, v].max()]
        if len(forced) < len(_PREFIX):
            continue
        for _ in range(50):
            seed, free = _seed_with(rng, c, restriction)
            firsts = [v for v in range(n) if v not in free][:len(_PREFIX)]
            chosen = rng.sample(forced, len(_PREFIX))
            others = [v for v in range(n) if v not in chosen]
            slots = [v for v in range(n) if v not in firsts]
            rng.shuffle(slots)
            perm = [0] * n
            for v, slot in zip(chosen + others, firsts + slots):
                perm[v] = slot
            renamed = permute(_with_top(c, top), perm)
            if restriction is not None \
                    and _exceptional(renamed, free) != restriction[2]:
                continue
            mask = 0
            for v, slot, want in zip(chosen, firsts, _PREFIX):
                if bits[0, v] != want:
                    mask |= 1 << (n - 1 - slot)
            for slot in slots:
                mask |= rng.getrandbits(1) << (n - 1 - slot)
            moved = np.zeros_like(points)
            for v in range(n):
                moved |= bits[:, v] << (n - 1 - perm[v])
            moved ^= mask
            visit = moved if restriction is None else branch_index(moved, n, free)
            size = 1 << (n - len(free))
            assert _LATE[0] <= int(visit.min()) / size < _LATE[1]
            witness = "".join(map(str, bits_of(int(moved.min()), n)))
            return flip(renamed, mask), witness, seed
    return None


# --- linear systems -------------------------------------------------------------------------

def random_system(rng: Random, n: int, rows: int, arity: int,
                  shifts: tuple[int, ...]) -> System:
    """Sparse rows around a planted point: each row's right-hand side sits a
    shift drawn from shifts past the planted point's value (a shift of 0
    keeps the point), so the system is close to the feasibility boundary."""
    x = [rng.randrange(arity) for _ in range(n)]
    # row sizes and relations in fixed proportions: the half lists' width
    # (rows, with eq rows counted twice) is then the same for every seed
    sizes = [2 + k % 3 for k in range(rows)]
    rels = [("ge", "gt", "le", "lt", "eq")[k % 5] for k in range(rows)]
    rng.shuffle(sizes)
    rng.shuffle(rels)
    out = []
    for size, rel in zip(sizes, rels):
        coeffs = _gate_inputs(rng, n, size, 8)
        v = sum(w * x[i] for i, w in coeffs)
        shift = rng.choice(shifts)
        rhs = {"ge": v + shift, "gt": v - 1 + shift, "le": v - shift,
               "lt": v + 1 - shift, "eq": v + shift * rng.choice((1, -1))}[rel]
        out.append((coeffs, rel, rhs))
    return System(n, arity, tuple(out))


# --- workloads ------------------------------------------------------------------------------

def _circuit_instance(rng, name, kind, structure, want_sat, restriction=None,
                      **flags) -> Optional[Instance]:
    symmetric = kind == "symmetric"
    finished = finish_circuit(rng, structure, want_sat, symmetric, restriction)
    if finished is None:
        return None
    c, witness, seed = finished
    text = circuit_text(c, symmetric)
    assert read_circuit(text) == c, "emitted text does not read back"
    args = {"seed": seed}
    if restriction is not None:
        args.update(p=str(restriction[0]), force_restriction=True)
    return Instance(name, kind, text, want_sat, witness,
                    "sat" if want_sat else "unsat", args, **flags)


def _draw(rng, make, tries=200):
    for _ in range(tries):
        inst = make()
        if inst is not None:
            return inst
    raise RuntimeError("no instance fits the workload's constraints")


def _tc_scan(rng: Random) -> list[Instance]:
    out = []
    for role, k, cli in (("unsat", 1, True), ("unsat", 2, False),
                         ("sat", 1, True), ("sat", 2, False)):
        out.append(_draw(rng, lambda: _circuit_instance(
            rng, f"{role}-{k}-n22", "circuit", threshold_structure(rng, 22),
            role == "sat", cli=cli)))
    return out


def _tc_restrict(rng: Random) -> list[Instance]:
    out = []
    # route, n and (p, free variables, exceptional gates)
    plan = (("guess", 18, (Fraction(1, 4), 6, 0)),
            ("fallback", 20, (Fraction(1, 2), 10, 1)))
    for role in ("unsat", "sat"):
        for route, n, restriction in plan:
            out.append(_draw(rng, lambda: _circuit_instance(
                rng, f"{role}-{route}-n{n}", "circuit",
                threshold_structure(rng, n), role == "sat", restriction,
                cli=route == "fallback", restricted=True)))
    return out


def _sym_restrict(rng: Random) -> list[Instance]:
    out = []
    for role in ("unsat", "sat"):
        n = 18
        out.append(_draw(rng, lambda: _circuit_instance(
            rng, f"{role}-guess-n{n}", "symmetric",
            symmetric_structure(rng, n, 2 * n, 2), role == "sat",
            (Fraction(1, 4), 5, 0), restricted=True)))
        n = 21
        out.append(_draw(rng, lambda: _circuit_instance(
            rng, f"{role}-default-n{n}", "symmetric",
            symmetric_structure(rng, n, 2 * n, 2), role == "sat", cli=True)))
    return out


def _ilp_split(rng: Random) -> list[Instance]:
    out = []
    plan = ((26, 12, 2, True), (26, 14, 2, False), (28, 16, 2, False),
            (16, 10, 3, False))
    # planted-point shifts: mostly kept rows for SAT, more cut rows for UNSAT
    shifts = {"unsat": (0, 0, 1, 2), "sat": (0, 0, 0, 1)}
    for role in ("unsat", "sat"):
        for n, rows, arity, cli in plan:
            def make():
                s = random_system(rng, n, rows, arity, shifts[role])
                if decide_system(s) != (role == "sat"):
                    return None
                text = system_text(s)
                assert read_system(text) == s, "emitted text does not read back"
                return Instance(f"{role}-n{n}-r{rows}-a{arity}", "ilp", text,
                                role == "sat", None, role, {}, cli=cli)
            out.append(_draw(rng, make))
    return out


def make_workload(workload: str, seed: int) -> list[Instance]:
    """The workload's instances for this seed; the same seed always gives
    the same instances."""
    makers = {"tc-scan": _tc_scan, "tc-restrict": _tc_restrict,
              "sym-restrict": _sym_restrict, "ilp-split": _ilp_split}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}")
    return makers[workload](Random(f"{workload}:{seed}"))


if __name__ == "__main__":
    for inst in make_workload(sys.argv[1], int(sys.argv[2])):
        print(f"# {inst.name} {inst.role} sat={inst.sat} args={inst.args}")
        print(inst.text, end="")
