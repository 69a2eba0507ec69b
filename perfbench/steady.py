"""Steadiness check: run workloads repeatedly and judge their spread.

Run from the repository root::

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads chat

Each set runs every workload ``--runs`` times, each with its own seed (set
``k`` uses seeds ``k*runs+1 .. k*runs+runs``), through the command in
``BENCHMARK.json``.  For every end-to-end metric it
prints the median, the quartiles as ``statistics.quantiles(values, n=4)``
gives them and the spread (quartile distance over the median) against the
metric's bound.  With two sets it also reports whether the second set's
median is worse than the first's by more than the bound.  Raw results go
to ``perfbench/out/steady.json``.  The exit code is 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(command)} reported incorrect outputs:\n{done.stdout}")
    return result


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    raw = {}
    for index in range(args.sets):
        base = index * args.runs
        for workload in workloads:
            for seed in range(base + 1, base + args.runs + 1):
                result = run_once(spec, workload, seed, args.trace)
                raw.setdefault(workload, [[] for _ in range(args.sets)])[index].append(
                    {name: value["value"] for name, value in result["metrics"].items()}
                )
                print(f"set {index + 1} {workload} seed {seed} done", file=sys.stderr, flush=True)
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(raw, indent=1))

    failures = 0
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':<36} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for metric in metrics:
            name, bound = metric["name"], metric.get("bound")
            medians = []
            for index, runs in enumerate(raw[workload]):
                q1, median, q3 = statistics.quantiles([run[name] for run in runs], n=4)
                medians.append(median)
                spread = (q3 - q1) / abs(median) if median else float("nan")
                verdict = ""
                if bound is not None:
                    if not spread <= bound:
                        verdict, failures = "SPREAD OVER BOUND", failures + 1
                    elif spread > bound / 3:
                        verdict = "over a third of bound"
                print(f"  {name:<36} {index + 1:>3} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>7.2%} {bound if bound is not None else '':>6}  {verdict}")
            if bound is not None and len(medians) > 1:
                drift = worse_by(medians[0], medians[1], metric["better"])
                if drift > bound:
                    failures += 1
                    print(f"  {name:<36} second median worse by {drift:.2%} > bound {bound}")
    print(f"\n{failures} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
