"""Independent checker for the benchmark: text readers, evaluators and
brute-force deciders that share no code with `thrsat`.

The readers follow the text formats documented in the repository README
(`tc2`, `sc2`, `ilp`).  A circuit of either family is read into one shape:
every bottom gate is a predicate on a weighted input sum, a threshold gate
being the predicate `ge t`.  Witnesses are checked with a plain Python
evaluator; verdicts come from exhaustive numpy evaluation of the whole cube
(circuits) or from a dynamic program over exact partial row sums (linear
systems).

Run as a command it regenerates a workload's instances for a seed, decides
every one of them anew from its text and compares with the verdict the
generator recorded; `selftest` shows that a flipped verdict and a corrupted
witness are both reported:

    python3 perfbench/check.py verdicts --workload tc-scan --seed 3
    python3 perfbench/check.py selftest --workload ilp-split --seed 3
"""
from __future__ import annotations

import argparse
import sys
import time
from itertools import product
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

INT_BOUND = 1 << 31
_CHUNK_BITS = 20


class FormatError(ValueError):
    pass


@dataclass(frozen=True)
class Circuit:
    """Depth-two circuit; preds are tuples ('ge', t), ('eq', v),
    ('mod', m, r) or ('set', v1, v2, ...)."""

    n: int
    gates: tuple  # ((inputs, pred), ...) with inputs ((var, weight), ...)
    top_weights: tuple
    direct: tuple  # ((var, weight), ...)
    top: tuple


@dataclass(frozen=True)
class System:
    n: int
    arity: int
    rows: tuple  # ((coeffs, rel, rhs), ...) with rel in ge gt le lt eq


# --- text readers ------------------------------------------------------------

def _lines(text: str) -> list[list[str]]:
    out = []
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens:
            out.append(tokens)
    return out


def _int(token: str) -> int:
    value = int(token, 10)
    if not -INT_BOUND <= value < INT_BOUND:
        raise FormatError(f"integer {value} outside 32 bits")
    return value


def _term(token: str, prefix: str = "") -> tuple[int, int]:
    head, sep, tail = token.partition(":")
    if not sep or not head.startswith(prefix):
        raise FormatError(f"bad term {token!r}")
    return _int(head[len(prefix):]), _int(tail)


def _pred(tokens: list[str]) -> tuple[tuple, list[str]]:
    kind = tokens[0]
    if kind in ("ge", "eq"):
        return (kind, _int(tokens[1])), tokens[2:]
    if kind == "mod":
        return ("mod", _int(tokens[1]), _int(tokens[2])), tokens[3:]
    if kind == "set":
        return ("set",) + tuple(_int(v) for v in tokens[1].split(",")), tokens[2:]
    raise FormatError(f"unknown predicate {kind!r}")


def _top(tokens: list[str], m: int, n: int) -> tuple[tuple, tuple]:
    weights = [0] * m
    direct = []
    for token in tokens:
        if token.startswith("g"):
            j, w = _term(token, "g")
            weights[j] = w
        else:
            i, w = _term(token, "x")
            if not 0 <= i < n:
                raise FormatError(f"direct wire x{i} out of range")
            direct.append((i, w))
    return tuple(weights), tuple(sorted(direct))


def _inputs(tokens: list[str], n: int) -> tuple:
    inputs = tuple(_term(t) for t in tokens)
    if any(not 0 <= i < n for i, _ in inputs):
        raise FormatError("input index out of range")
    return inputs


def read_circuit(text: str) -> Circuit:
    """Read a `tc2` or an `sc2` circuit."""
    lines = _lines(text)
    head = lines[0]
    if head[0] == "tc2":
        n, m = _int(head[1]), _int(head[2])
        gates = tuple((_inputs(t[2:], n), ("ge", _int(t[1])))
                      for t in lines[1:1 + m])
        last = lines[1 + m]
        if last[0] != "top":
            raise FormatError("expected a top line")
        top = ("ge", _int(last[1]))
        rest = last[2:]
    elif head[0] == "sc2":
        n, m = _int(head[1]), _int(head[2])
        gates = []
        for t in lines[1:1 + m]:
            pred, rest = _pred(t[1:])
            gates.append((_inputs(rest, n), pred))
        gates = tuple(gates)
        last = lines[1 + m]
        if last[0] != "stop":
            raise FormatError("expected a stop line")
        top, rest = _pred(last[1:])
    else:
        raise FormatError(f"unknown header {head[0]!r}")
    if len(lines) != m + 2 or len(gates) != m:
        raise FormatError("gate count does not match the header")
    weights, direct = _top(rest, m, n)
    return Circuit(n, gates, weights, direct, top)


def read_system(text: str) -> System:
    lines = _lines(text)
    head = lines[0]
    if head[0] != "ilp":
        raise FormatError(f"unknown header {head[0]!r}")
    n, m, arity = (_int(t) for t in head[1:4])
    rows = tuple((_inputs(t[3:], n), t[1], _int(t[2])) for t in lines[1:])
    if len(rows) != m or any(rel not in _RELS for _, rel, _ in rows):
        raise FormatError("bad row lines")
    return System(n, arity, rows)


def read_instance(kind: str, text: str):
    return read_system(text) if kind == "ilp" else read_circuit(text)


# --- evaluators ----------------------------------------------------------------

def holds(pred: tuple, s: int) -> bool:
    kind = pred[0]
    if kind == "ge":
        return s >= pred[1]
    if kind == "eq":
        return s == pred[1]
    if kind == "mod":
        return s % pred[1] == pred[2]
    return s in pred[1:]


_RELS = {"ge": lambda s, r: s >= r, "gt": lambda s, r: s > r,
         "le": lambda s, r: s <= r, "lt": lambda s, r: s < r,
         "eq": lambda s, r: s == r}


def circuit_accepts(c: Circuit, x: Sequence[int]) -> bool:
    total = 0
    for (inputs, pred), tw in zip(c.gates, c.top_weights):
        if holds(pred, sum(w * x[i] for i, w in inputs)):
            total += tw
    total += sum(w * x[i] for i, w in c.direct)
    return holds(c.top, total)


def system_accepts(s: System, x: Sequence[int]) -> bool:
    return all(_RELS[rel](sum(w * x[i] for i, w in coeffs), rhs)
               for coeffs, rel, rhs in s.rows)


def read_witness(text: str, n: int, arity: int) -> Optional[tuple[int, ...]]:
    """One digit per variable, or None when the text is not such a string."""
    digits = text.strip()
    if len(digits) != n or not digits.isdigit():
        return None
    values = tuple(int(ch) for ch in digits)
    return values if all(v < arity for v in values) else None


def check_answer(kind: str, text: str, expected_sat: bool, sat: bool,
                 witness: Optional[str]) -> Optional[str]:
    """None when the answer is right, else what is wrong with it.  witness is
    the solver's digit string; it is read and evaluated here."""
    if sat != expected_sat:
        return f"verdict {'SAT' if sat else 'UNSAT'}, expected " \
               f"{'SAT' if expected_sat else 'UNSAT'}"
    if not sat:
        return None
    inst = read_instance(kind, text)
    arity = inst.arity if kind == "ilp" else 2
    x = read_witness(witness or "", inst.n, arity)
    if x is None:
        return f"malformed witness {witness!r}"
    ok = system_accepts(inst, x) if kind == "ilp" else circuit_accepts(inst, x)
    return None if ok else f"witness {witness} does not satisfy the instance"


# --- brute-force deciders -------------------------------------------------------

def _holds_array(pred: tuple, s: np.ndarray) -> np.ndarray:
    kind = pred[0]
    if kind == "ge":
        return s >= pred[1]
    if kind == "eq":
        return s == pred[1]
    if kind == "mod":
        return np.mod(s, pred[1]) == pred[2]
    return np.isin(s, np.asarray(pred[1:], dtype=s.dtype))


def _half_table(terms, lo_var: int, bits: int, n: int) -> np.ndarray:
    """Sum of w * x_i over the variables lo_var .. lo_var+bits-1, for every
    assignment of those variables in lexicographic order (lowest index is
    the most significant bit)."""
    idx = np.arange(1 << bits, dtype=np.int64)
    table = np.zeros(1 << bits, dtype=np.int64)
    for i, w in terms:
        if lo_var <= i < lo_var + bits:
            table += w * ((idx >> (lo_var + bits - 1 - i)) & 1)
    return table


def _top_sum_chunks(c: Circuit, chunk_bits: int):
    """The top gate's weighted input sum over the cube, in lexicographic
    order of (x0, ..., x_{n-1}), as consecutive blocks of about 2^chunk_bits
    points; only one block is held at a time."""
    n = c.n
    hb = n // 2
    lb = n - hb
    gate_tables = [(_half_table(inputs, 0, hb, n), _half_table(inputs, hb, lb, n))
                   for inputs, _ in c.gates]
    d_hi = _half_table(c.direct, 0, hb, n)
    d_lo = _half_table(c.direct, hb, lb, n)
    rows = max(1, (1 << chunk_bits) >> lb)
    for h0 in range(0, 1 << hb, rows):
        h1 = min(h0 + rows, 1 << hb)
        acc = d_hi[h0:h1, None] + d_lo[None, :]
        for (hi, lo), (_, pred), tw in zip(gate_tables, c.gates, c.top_weights):
            fired = _holds_array(pred, hi[h0:h1, None] + lo[None, :])
            acc += tw * fired
        yield acc.ravel()


def top_sums(c: Circuit) -> np.ndarray:
    """The top gate's weighted input sum for every point of the cube, in
    lexicographic order of (x0, ..., x_{n-1})."""
    out = np.empty(1 << c.n, dtype=np.int64)
    start = 0
    for block in _top_sum_chunks(c, _CHUNK_BITS):
        out[start:start + block.size] = block
        start += block.size
    return out


def bits_of(index: int, n: int) -> tuple[int, ...]:
    return tuple((index >> (n - 1 - i)) & 1 for i in range(n))


def decide_circuit(c: Circuit) -> Optional[tuple[int, ...]]:
    """Lexicographically first satisfying assignment, or None."""
    ok = _holds_array(c.top, top_sums(c))
    if not ok.any():
        return None
    return bits_of(int(np.argmax(ok)), c.n)


def _var_order(s: System) -> list[int]:
    """Variables row by row, each next row the one with the fewest variables
    not yet placed, so that few rows are open at a time."""
    order: list[int] = []
    placed: set[int] = set()
    left = [frozenset(i for i, _ in coeffs) for coeffs, _, _ in s.rows]
    while left:
        left.sort(key=lambda vs: len(vs - placed))
        for v in sorted(left.pop(0) - placed):
            order.append(v)
            placed.add(v)
    return order


def decide_system(s: System) -> bool:
    """Feasibility by eliminating variables one at a time while keeping the
    set of distinct partial sums of the rows still open.  A row's partial sum
    is clipped once the row can no longer fail, and the state is dropped once
    it can no longer hold, which keeps the sets small on sparse systems."""
    n_rows = len(s.rows)
    coef = np.zeros((n_rows, s.n), dtype=np.int64)
    for j, (coeffs, _, _) in enumerate(s.rows):
        for i, w in coeffs:
            coef[j, i] = w
    for coeffs, rel, rhs in s.rows:
        if not coeffs and not _RELS[rel](0, rhs):
            return False
    order = _var_order(s)
    top = s.arity - 1
    # lo_rest[k], hi_rest[k]: least and greatest sum each row can still gain
    # from the variables at positions k and later
    lo_rest = np.zeros((len(order) + 1, n_rows), dtype=np.int64)
    hi_rest = np.zeros((len(order) + 1, n_rows), dtype=np.int64)
    for k in range(len(order) - 1, -1, -1):
        col = coef[:, order[k]] * top
        lo_rest[k] = lo_rest[k + 1] + np.minimum(col, 0)
        hi_rest[k] = hi_rest[k + 1] + np.maximum(col, 0)
    # each row holds iff its sum lies in [need_lo, need_hi]
    far = 1 << 60
    need_lo = np.array([rhs + (rel == "gt") if rel in ("ge", "gt", "eq") else -far
                        for _, rel, rhs in s.rows], dtype=np.int64)
    need_hi = np.array([rhs - (rel == "lt") if rel in ("le", "lt", "eq") else far
                        for _, rel, rhs in s.rows], dtype=np.int64)
    states = np.zeros((1, n_rows), dtype=np.int64)
    for k, v in enumerate(order):
        col = coef[:, v]
        states = np.concatenate([states + a * col for a in range(s.arity)])
        lo_now = states + lo_rest[k + 1]
        hi_now = states + hi_rest[k + 1]
        alive = ((hi_now >= need_lo) & (lo_now <= need_hi)).all(axis=1)
        states, lo_now, hi_now = states[alive], lo_now[alive], hi_now[alive]
        if len(states) == 0:
            return False
        # a row that holds whatever comes next gets one fixed partial sum
        # that also holds whatever comes next, so that states differing only
        # there merge
        settled = (lo_now >= need_lo) & (hi_now <= need_hi)
        canon = np.where(need_lo > -far, need_lo - lo_rest[k + 1],
                         need_hi - hi_rest[k + 1])
        states = np.unique(np.where(settled, canon, states), axis=0)
    return True


def system_witness(s: System) -> Optional[tuple[int, ...]]:
    """A satisfying assignment, found by fixing one variable at a time to
    the first value that keeps the system feasible."""
    if not decide_system(s):
        return None
    rows = list(s.rows)
    values = []
    for v in range(s.n):
        for a in range(s.arity):
            trial = System(s.n, s.arity, tuple(rows) + ((((v, 1),), "eq", a),))
            if decide_system(trial):
                rows.append((((v, 1),), "eq", a))
                values.append(a)
                break
    return tuple(values)


# --- machine speed ------------------------------------------------------------

_REFERENCE_CHUNK_BITS = 12
_REFERENCE = Circuit(
    18, tuple((((j, 1), ((j + 5) % 18, -2), ((j + 11) % 18, 3)), ("ge", 1))
              for j in range(18)),
    tuple((-1) ** j * (1 + j % 4) for j in range(18)), (), ("ge", 3))


def reference_seconds() -> float:
    """Time of a fixed piece of work that shares nothing with `thrsat`: a
    numpy evaluation of a fixed 18-variable circuit over its cube and a
    plain Python evaluation of it on 1000 points, about as much array work
    as interpreted work.  The cube goes in blocks of 2^12 points, so that
    the reference's own arrays stay far below any solve's and do not set
    the worker's peak memory."""
    start = time.perf_counter()
    for block in _top_sum_chunks(_REFERENCE, _REFERENCE_CHUNK_BITS):
        _holds_array(_REFERENCE.top, block).sum()
    for k in range(1000):
        circuit_accepts(_REFERENCE, bits_of(k * 7919 % (1 << 18), 18))
    return time.perf_counter() - start


# --- command line -------------------------------------------------------------

def _cmd_verdicts(args) -> int:
    from instances import make_workload
    bad = 0
    for inst in make_workload(args.workload, args.seed):
        parsed = read_instance(inst.kind, inst.text)
        if inst.kind == "ilp":
            sat = decide_system(parsed)
        else:
            sat = decide_circuit(parsed) is not None
        same = sat == inst.sat
        bad += not same
        print(f"{inst.name}: {'SAT' if sat else 'UNSAT'}"
              f"{'' if same else '  MISMATCH with the recorded verdict'}")
    return 1 if bad else 0


def _cross_check(seed: int) -> int:
    """Compare both deciders with plain enumeration through the evaluators
    on small instances of the workloads' families; returns the mismatches."""
    from random import Random
    from instances import random_system, symmetric_structure, threshold_structure
    rng = Random(seed)
    bad = 0
    for k in range(30):
        if k % 3 == 2:
            s = random_system(rng, 7, 6, 2 + k % 2, (0, 0, 1, 2))
            expect = any(system_accepts(s, x) for x in product(range(s.arity), repeat=s.n))
            bad += decide_system(s) != expect
            continue
        c = threshold_structure(rng, 10) if k % 3 == 0 \
            else symmetric_structure(rng, 9, 18, 2)
        top = rng.choice((("ge", rng.randint(-8, 8)), ("eq", rng.randint(-4, 4)),
                          ("mod", 3, rng.randrange(3))))
        c = Circuit(c.n, c.gates, c.top_weights, c.direct, top)
        first = next((x for x in product((0, 1), repeat=c.n) if circuit_accepts(c, x)), None)
        bad += decide_circuit(c) != first
    return bad


def _cmd_selftest(args) -> int:
    """Hand the checker a flipped verdict and a corrupted witness for every
    instance; each must be reported.  Also compare the deciders with plain
    enumeration on small instances."""
    from instances import make_workload
    missed = _cross_check(args.seed)
    if missed:
        print(f"{missed} small instances decided differently from plain enumeration")
    for inst in make_workload(args.workload, args.seed):
        if check_answer(inst.kind, inst.text, inst.sat, not inst.sat,
                        "0" * 64) is None:
            print(f"{inst.name}: flipped verdict not reported")
            missed += 1
        if inst.sat:
            parsed = read_instance(inst.kind, inst.text)
            arity = parsed.arity if inst.kind == "ilp" else 2
            accepts = system_accepts if inst.kind == "ilp" else circuit_accepts
            witness = inst.witness or "".join(map(str, system_witness(parsed)))
            if check_answer(inst.kind, inst.text, True, True, witness) is not None:
                print(f"{inst.name}: the brute force's own witness is rejected")
                missed += 1
                continue
            x = list(read_witness(witness, parsed.n, arity))
            corrupted = None
            for i in range(parsed.n):
                y = list(x)
                y[i] = (y[i] + 1) % arity
                if not accepts(parsed, y):
                    corrupted = "".join(map(str, y))
                    break
            if corrupted is not None and check_answer(
                    inst.kind, inst.text, True, True, corrupted) is None:
                print(f"{inst.name}: corrupted witness not reported")
                missed += 1
    print("selftest:", "FAIL" if missed else "PASS")
    return 1 if missed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="check.py")
    parser.add_argument("command", choices=("verdicts", "selftest"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    return _cmd_verdicts(args) if args.command == "verdicts" else _cmd_selftest(args)


if __name__ == "__main__":
    sys.exit(main())
