"""Steadiness check: two sets of runs of the same code.

    python3 perfbench/steady.py

Runs the benchmark command from BENCHMARK.json ten times per workload in
each of two sets, each run with its own seed (set k uses seeds 1000k+1 ...
1000k+10), at the run length BENCHMARK.json fixes.  For every workload and
end-to-end metric it prints each set's median and quartiles, the spread
(interquartile distance over the median) and the shift of the second median
against the first, and whether both spreads and the shift stay within the
metric's bound.  Every run must be correct and have no failed operation.
The raw values go to perfbench/results/steady.json.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = (1, 2)


def _run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def _summary(vals: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread."""
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict = {}
    ok = True
    for k in SETS:
        for workload in workloads:
            for i in range(1, RUNS + 1):
                seed = 1000 * k + i
                out = _run(bench["command"], workload, seed, bench["run_seconds"])
                if not out["correct"] or out["failed"]:
                    ok = False
                    print(f"{workload} seed {seed}: correct={out['correct']} "
                          f"failed={out['failed']} of {out['attempted']}",
                          file=sys.stderr)
                for name, metric in out["metrics"].items():
                    values.setdefault((workload, name, k), []).append(metric["value"])
                print(f"set {k} {workload} seed {seed}: " + " ".join(
                    f"{n}={m['value']:.4g}" for n, m in out["metrics"].items()),
                    flush=True)

    print(f"\n{'workload':13} {'metric':12} {'median1':>9} {'q1..q3':>19} {'spread1':>8}"
          f" {'median2':>9} {'q1..q3':>19} {'spread2':>8} {'shift':>7} {'bound':>6}"
          f"  verdict")
    for workload in workloads:
        for name, bound in bounds.items():
            (med1, q1, q3, spread1), (med2, q1b, q3b, spread2) = [
                _summary(values[(workload, name, k)]) for k in SETS]
            shift = (med2 - med1) / med1
            within = abs(shift) <= bound and spread1 <= bound and spread2 <= bound
            ok &= within
            print(f"{workload:13} {name:12} {med1:9.4f} {q1:9.4f}..{q3:<9.4f} "
                  f"{spread1:8.3f} {med2:9.4f} {q1b:9.4f}..{q3b:<9.4f} {spread2:8.3f} "
                  f"{shift:+7.3f} {bound:6.2f}  {'ok' if within else 'NOT WITHIN'}")
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "steady.json").write_text(json.dumps(
        {f"{w}/{n}/set{k}": v for (w, n, k), v in values.items()}, indent=1),
        encoding="utf-8")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
