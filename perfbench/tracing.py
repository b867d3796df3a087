"""Per-layer tracing from outside the program.

The tracer replaces functions of `thrsat` with timing wrappers.  Modules
import names from each other directly (`from .model import simplify`), so a
wrapper is put in place of every reference to the original function object
found in a loaded `thrsat` module, including default argument values (the
scan takes its batch evaluator as a default).  Nothing inside `src/` is
changed.  A name that no longer exists is recorded as absent and its
metrics read zero; a count that can no longer be read from a call's
arguments or result is recorded as uncounted.

Spans are aggregated in memory per name: calls, total time and the time
covered by wrapped callees, so that self time is total minus children.
Parent-child call counts are kept too, and everything is returned by
`Tracer.report()` for the benchmark to write out.
"""
from __future__ import annotations

import importlib
import sys
import time
import types

# span name -> the functions it covers, as "module:attribute"
SPANS = {
    "formats.parse": ("thrsat.formats:parse_circuit", "thrsat.formats:parse_symmetric",
                      "thrsat.formats:parse_ilp"),
    "model.simplify": ("thrsat.model:simplify",),
    "model.evaluate_batch": ("thrsat.model:evaluate_batch",),
    "model.evaluate": ("thrsat.model:evaluate",),
    "sparse_sat.solve": ("thrsat.sparse_sat:solve",),
    "sparse_sat.restriction_params": ("thrsat.sparse_sat:restriction_params",),
    "sparse_sat.sample_restriction": ("thrsat.sparse_sat:sample_restriction",),
    "sparse_sat.vector_scan": ("thrsat.sparse_sat:_vector_scan",),
    "sparse_sat.sat_few_gates": ("thrsat.sparse_sat:sat_few_gates",),
    "sparse_sat.ilp_for_guess": ("thrsat.sparse_sat:ilp_for_guess",),
    "splitlist.solve_ilp": ("thrsat.splitlist:solve_ilp",),
    "splitlist.half_lists": ("thrsat.splitlist:half_lists",),
    "splitlist.verify": ("thrsat.splitlist:verify",),
    "vecdom.find_dominating_pair": ("thrsat.vecdom:find_dominating_pair",),
    "symsat.solve_symmetric": ("thrsat.symsat:solve_symmetric",),
    "symsat.choose_p": ("thrsat.symsat:choose_p",),
    "symsat.p_grid": ("thrsat.symsat:p_grid",),
    "symsat.simplify_symmetric": ("thrsat.symsat:simplify_symmetric",),
    "symsat.value_tuple_count": ("thrsat.symsat:value_tuple_count",),
    "symsat.sat_by_value_guessing": ("thrsat.symsat:sat_by_value_guessing",),
    "symsat.solve_boolean_linear_system": ("thrsat.symsat:solve_boolean_linear_system",),
    "symsat.evaluate_symmetric_batch": ("thrsat.symsat:evaluate_symmetric_batch",),
}


def _rows(args, kwargs, result) -> dict:
    values = args[1] if len(args) > 1 else kwargs.get("values")
    return {"rows": int(values.shape[0])}


def _vecdom(args, kwargs, result) -> dict:
    counters = result[1]
    return {"recursion_nodes": counters.recursion_nodes,
            "comparisons": counters.comparisons,
            "median_selections": counters.median_selections,
            "max_dim": len(args[0].strict)}


def _half_lists(args, kwargs, result) -> dict:
    return {"vectors": len(result[0].vectors) + len(result[1].vectors)}


# span name -> what to count from a call's arguments and result
COUNTS = {
    "model.evaluate_batch": _rows,
    "symsat.evaluate_symmetric_batch": _rows,
    "sparse_sat.sample_restriction": lambda a, k, r: {"exceptional_gates": r[1]},
    "symsat.p_grid": lambda a, k, r: {"points": len(r)},
    "vecdom.find_dominating_pair": _vecdom,
    "splitlist.half_lists": _half_lists,
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []      # [name, child time] per open span
        self.spans: dict[str, list] = {}  # name -> [calls, total ns, child ns]
        self.edges: dict[tuple, int] = {}  # (parent, child) -> calls
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._patched: list[tuple] = []   # (owner, attribute or None, old value)

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [name, 0]
            self.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.stack.pop()
                span = self.spans.setdefault(name, [0, 0, 0])
                span[0] += 1
                span[1] += elapsed
                span[2] += frame[1]
                parent = self.stack[-1][0] if self.stack else None
                if self.stack:
                    self.stack[-1][1] += elapsed
                self.edges[(parent, name)] = self.edges.get((parent, name), 0) + 1
            if count is not None:
                try:
                    counted = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the function's interface changed: count nothing
                    self.uncounted.add(name)
                    counted = {}
                for key, value in counted.items():
                    full = f"{name}.{key}"
                    if key == "max_dim":
                        self.counts[full] = max(self.counts.get(full, 0), value)
                    else:
                        self.counts[full] = self.counts.get(full, 0) + value
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for name, targets in SPANS.items():
            found = False
            for target in targets:
                module_name, attr = target.split(":")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if isinstance(fn, types.FunctionType) and id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
                    found = True
            if not found:
                self.absent.append(name)
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "thrsat" or n.startswith("thrsat.")) and m is not None]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is wrappers[id(value)][0]:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        # default argument values that hold a wrapped function
        for module in modules:
            for value in list(vars(module).values()):
                fn = getattr(value, "__wrapped__", value)
                if not isinstance(fn, types.FunctionType) or not fn.__defaults__:
                    continue
                defaults = tuple(
                    wrappers[id(d)][1] if id(d) in wrappers and d is wrappers[id(d)][0]
                    else d for d in fn.__defaults__)
                if defaults != fn.__defaults__:
                    self._patched.append((fn, None, fn.__defaults__))
                    fn.__defaults__ = defaults

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            if attr is None:
                owner.__defaults__ = old
            else:
                setattr(owner, attr, old)
        self._patched.clear()

    def report(self) -> dict:
        return {
            "spans": {name: {"calls": c, "total_s": t / 1e9, "self_s": (t - ch) / 1e9}
                      for name, (c, t, ch) in self.spans.items()},
            "edges": [{"parent": p, "child": c, "calls": k}
                      for (p, c), k in sorted(self.edges.items(), key=str)],
            "counts": dict(self.counts),
            "absent": list(self.absent),
            "uncounted": sorted(self.uncounted),
        }
