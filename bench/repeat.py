#!/usr/bin/env python3
"""Run one workload k times, each with another seed, and summarise.

    python3 bench/repeat.py --workload mc_narrow --runs 10 [--seed 1] [--trace 0]
                            [--save runs.json] [--against earlier.json]

Run it from the checkout root.  It reads the command, run_seconds and the
metric bounds from BENCHMARK.json.  For each metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, and whether the spread fits the metric's bound and a
third of it.  setup_s is shown but its spread is not gated.  With
``--against``, each median is also compared with the median of an earlier
``--save`` file and must not be worse by more than the bound.

Exit code 0 when every run was correct and every gated spread and median
fits its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

NOT_SPREAD_GATED = ("setup_s",)


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        sys.stderr.write(proc.stderr)
        return {"seed": seed, "returncode": proc.returncode, "result": None}
    return {"seed": seed, "returncode": proc.returncode, "result": result}


def worse_by(new: float, old: float, better: str) -> float:
    """How much worse `new` is than `old`, as a share of `old` (<= 0: not worse)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Repeat one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed; run i uses seed + i")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write every run's result to this JSON file")
    parser.add_argument("--against", help="an earlier --save file to compare medians with")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    bench = json.loads(Path("BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    runs = []
    for i in range(args.runs):
        run = run_once(bench["command"], args.workload, args.seed + i, bench["run_seconds"],
                       args.trace)
        res = run["result"]
        print(f"run seed={run['seed']} exit={run['returncode']} "
              + ("no result" if res is None else
                 f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}"),
              flush=True)
        runs.append(run)
    if args.save:
        Path(args.save).write_text(json.dumps({"workload": args.workload, "runs": runs}))

    ok = all(r["result"] is not None and r["result"]["correct"] for r in runs)
    good = [r["result"] for r in runs if r["result"] is not None]
    earlier = None
    if args.against:
        earlier = [r["result"] for r in json.loads(Path(args.against).read_text())["runs"]
                   if r["result"] is not None]
    print(f"{'metric':<52} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6}  verdict")
    for name, meta in declared.items():
        values = [r["metrics"][name]["value"] for r in good if name in r["metrics"]]
        if len(values) < 2:
            print(f"{name:<52} missing")
            ok = False
            continue
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = meta.get("bound")
        verdict = ""
        if bound is not None:
            if name in NOT_SPREAD_GATED:
                verdict = "spread not gated"
            elif spread > bound:
                verdict, ok = "SPREAD OVER BOUND", False
            elif spread > bound / 3:
                verdict = "fits bound, not a third of it"
            else:
                verdict = "fits a third of bound"
            if earlier is not None:
                old = statistics.median(r["metrics"][name]["value"] for r in earlier)
                change = worse_by(med, old, meta["better"])
                verdict += f"; vs earlier {change:+.3f}"
                if change > bound:
                    verdict += " WORSE THAN BOUND"
                    ok = False
        bound_text = "" if bound is None else f"{bound:.2f}"
        print(f"{name:<52} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
              f"{bound_text:>6}  {verdict}")
    print("all runs correct and within bounds" if ok else "NOT all runs correct and within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
