"""The benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload tc-scan --seed 1 --seconds 20 --trace 0

Run from the repository root.  The instances are generated from the seed
(instances.py) and written under perfbench/work/.  Measurement runs in
rounds; each round is a fresh worker process (worker.py) that imports
`thrsat`, parses the instances, solves all of them through the library and
then the CLI instances through `thrsat solve`.  Rounds repeat until
--seconds have passed.  Every verdict is compared with the brute force's and
every witness is evaluated by check.py, which shares no code with `thrsat`.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics: each solve time is scaled by a reference timed around
it in the same process (see README.md), its median over rounds taken per
instance and summed over the instances of its kind; set-up time and peak
memory are medians over rounds.  With --trace 1 rounds alternate between
untraced and traced, and the line holds the per-layer metrics of the traced
rounds plus the tracing overhead.  Both modes write the round data to
perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import check_answer  # noqa: E402
from instances import WORKLOADS, make_workload  # noqa: E402

EXT = {"circuit": "tc2", "symmetric": "sc2", "ilp": "ilp"}
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150
# check.reference_seconds() on the quiet 2-core machine the benchmark was
# built on (Python 3.11); solve times are scaled to this speed
REFERENCE_NOMINAL_S = 0.030

# per-layer metric -> (unit, where a traced round holds it): a (span, field)
# pair, a count name, or None for the values _layer_values works out itself
PER_LAYER = {
    "formats.parse_s": ("s", ("formats.parse", "total_s")),
    "model.simplify_s": ("s", ("model.simplify", "total_s")),
    "model.simplify_calls": ("count", ("model.simplify", "calls")),
    "model.evaluate_batch_s": ("s", ("model.evaluate_batch", "total_s")),
    "model.evaluate_batch_rows": ("count", "model.evaluate_batch.rows"),
    "model.evaluate_s": ("s", ("model.evaluate", "total_s")),
    "sparse_sat.restriction_params_s": ("s", ("sparse_sat.restriction_params", "total_s")),
    "sparse_sat.sample_restriction_s": ("s", ("sparse_sat.sample_restriction", "total_s")),
    "sparse_sat.vector_scan_self_s": ("s", ("sparse_sat.vector_scan", "self_s")),
    "sparse_sat.vector_scan_calls": ("count", ("sparse_sat.vector_scan", "calls")),
    "sparse_sat.sat_few_gates_self_s": ("s", ("sparse_sat.sat_few_gates", "self_s")),
    "sparse_sat.sat_few_gates_calls": ("count", ("sparse_sat.sat_few_gates", "calls")),
    "sparse_sat.ilp_for_guess_s": ("s", ("sparse_sat.ilp_for_guess", "total_s")),
    "sparse_sat.solve_self_s": ("s", ("sparse_sat.solve", "self_s")),
    "sparse_sat.free_vars": ("count", "layers.free_vars"),
    "sparse_sat.exceptional_gates": ("count", "sparse_sat.sample_restriction.exceptional_gates"),
    "sparse_sat.branches": ("count", "layers.branches"),
    "sparse_sat.fallback_branches": ("count", "layers.fallback_branches"),
    "sparse_sat.fallback_ratio": ("ratio", None),
    "splitlist.solve_ilp_self_s": ("s", ("splitlist.solve_ilp", "self_s")),
    "splitlist.solve_ilp_calls": ("count", ("splitlist.solve_ilp", "calls")),
    "splitlist.half_lists_s": ("s", ("splitlist.half_lists", "total_s")),
    "splitlist.vectors": ("count", "splitlist.half_lists.vectors"),
    "splitlist.verify_s": ("s", ("splitlist.verify", "total_s")),
    "vecdom.find_dominating_pair_s": ("s", ("vecdom.find_dominating_pair", "total_s")),
    "vecdom.calls": ("count", ("vecdom.find_dominating_pair", "calls")),
    "vecdom.recursion_nodes": ("count", "vecdom.find_dominating_pair.recursion_nodes"),
    "vecdom.comparisons": ("count", "vecdom.find_dominating_pair.comparisons"),
    "vecdom.median_selections": ("count", "vecdom.find_dominating_pair.median_selections"),
    "vecdom.max_dim": ("count", "vecdom.find_dominating_pair.max_dim"),
    "symsat.choose_p_s": ("s", ("symsat.choose_p", "total_s")),
    "symsat.grid_points": ("count", "symsat.p_grid.points"),
    "symsat.simplify_symmetric_s": ("s", ("symsat.simplify_symmetric", "total_s")),
    "symsat.simplify_symmetric_calls": ("count", ("symsat.simplify_symmetric", "calls")),
    "symsat.value_tuple_count_s": ("s", ("symsat.value_tuple_count", "total_s")),
    "symsat.sat_by_value_guessing_self_s": ("s", ("symsat.sat_by_value_guessing", "self_s")),
    "symsat.value_guesses": ("count", "layers.value_guesses"),
    "symsat.fallback_branches": ("count", "layers.sym_fallback_branches"),
    "symsat.solve_boolean_linear_system_s": ("s", ("symsat.solve_boolean_linear_system", "total_s")),
    "symsat.eq_solves": ("count", ("symsat.solve_boolean_linear_system", "calls")),
    "symsat.evaluate_symmetric_batch_s": ("s", ("symsat.evaluate_symmetric_batch", "total_s")),
    "symsat.evaluate_symmetric_batch_rows": ("count", "symsat.evaluate_symmetric_batch.rows"),
    "cli.import_s": ("s", None),
    "ref.cube_scan_s": ("s", None),
    "counters.total": ("count", None),
    "trace.overhead_s": ("s", None),
    "trace.absent_spans": ("count", None),
}


def _layer_values(result: dict) -> dict:
    """Per-layer metrics of one traced round."""
    trace = result["trace"]
    spans, counts = trace["spans"], dict(trace["counts"])
    counts.update({f"layers.{k}": v for k, v in trace["layers"].items()})
    out = {}
    for name, (_, source) in PER_LAYER.items():
        if isinstance(source, tuple):
            span = spans.get(source[0])
            out[name] = 0 if span is None else span[source[1]]
        elif source is not None:
            out[name] = counts.get(source, 0)
    branches = trace["layers"]["branches"]
    out["sparse_sat.fallback_ratio"] = (trace["layers"]["fallback_branches"] / branches
                                        if branches else 0)
    out["cli.import_s"] = result["import_s"]
    out["ref.cube_scan_s"] = sum(r["s"] for r in trace["ref_cube_scan"])
    out["counters.total"] = sum(op.get("counters_total", 0) for op in result["ops"])
    out["trace.absent_spans"] = len(trace["absent"])
    return out


def _scaled(result: dict) -> list[float]:
    """Each operation's time scaled by the reference timed just before and
    just after it in the same process."""
    refs = result["ref_s"]
    return [op["s"] * REFERENCE_NOMINAL_S / ((refs[i] + refs[i + 1]) / 2)
            for i, op in enumerate(result["ops"])]


def _lib_seconds(result: dict) -> float:
    return sum(s for s, op in zip(_scaled(result), result["ops"]) if op["via"] == "lib")


def _run_round(spec_path: Path, out_path: Path) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                           str(out_path)], cwd=ROOT, timeout=ROUND_TIMEOUT_S,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_round(result: dict, by_name: dict) -> tuple[list[str], list[str]]:
    """Operations that failed to give an answer, and answers that are wrong."""
    failed, wrong = [], []
    for op in result["ops"]:
        label = f"{op['via']} {op['name']}"
        if op.get("error"):
            failed.append(f"{label}: {op['error']}")
            continue
        inst = by_name[op["name"]]
        problem = check_answer(inst.kind, inst.text, inst.sat, op["sat"], op["witness"])
        if problem:
            wrong.append(f"{label}: {problem}")
    return failed, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "thrsat" / "__init__.py").is_file():
        print(f"error: no thrsat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    instances = make_workload(args.workload, args.seed)
    by_name = {inst.name: inst for inst in instances}
    work = HERE / "work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    results_dir = HERE / "results"
    work.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(exist_ok=True)
    spec = {"root": str(ROOT), "trace": False, "instances": []}
    for inst in instances:
        path = work / f"{inst.name}.{EXT[inst.kind]}"
        path.write_text(inst.text, encoding="utf-8")
        spec["instances"].append({"name": inst.name, "kind": inst.kind,
                                  "path": str(path), "role": inst.role,
                                  "args": inst.args, "cli": inst.cli,
                                  "restricted": inst.restricted})

    rounds: list[dict] = []
    failures: list[str] = []
    wrong: list[str] = []
    start = time.perf_counter()
    try:
        min_rounds = 2 * MIN_ROUNDS if args.trace else MIN_ROUNDS
        while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
            spec["trace"] = bool(args.trace) and len(rounds) % 2 == 1
            spec_path = work / "round.json"
            spec_path.write_text(json.dumps(spec), encoding="utf-8")
            result = _run_round(spec_path, work / "result.json")
            result["traced"] = spec["trace"]
            round_failures, round_wrong = _check_round(result, by_name)
            failures += round_failures
            wrong += round_wrong
            rounds.append(result)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass

    attempted = sum(len(r["ops"]) for r in rounds)
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    for line in wrong:
        print(f"wrong: {line}", file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if args.trace:
        per_round = [_layer_values(r) for r in traced]
        metrics = {name: {"value": statistics.median(v[name] for v in per_round),
                          "unit": unit}
                   for name, (unit, _) in PER_LAYER.items() if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(map(_lib_seconds, traced))
            - statistics.median(map(_lib_seconds, plain)), "unit": "s"}
        for key in ("absent", "uncounted"):
            names = traced[0]["trace"][key]
            if names:
                print(f"{key} spans: {', '.join(names)}")
    else:
        def summed(via: str, role: str) -> float:
            times: dict[str, list[float]] = {}
            for r in plain:
                for s, op in zip(_scaled(r), r["ops"]):
                    if op["via"] == via and op["role"] == role:
                        times.setdefault(op["name"], []).append(s)
            return sum(statistics.median(ts) for ts in times.values())
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "unsat_s": summed("lib", "unsat"),
            "sat_s": summed("lib", "sat"),
            "cli_s": summed("cli", "cli"),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        units = {"setup_s": "s", "unsat_s": "s", "sat_s": "s", "cli_s": "s",
                 "peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": rounds, "failed": failures, "wrong": wrong,
              "instances": [{"name": i.name, "kind": i.kind, "role": i.role,
                             "sat": i.sat, "args": i.args} for i in instances]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
