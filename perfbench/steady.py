#!/usr/bin/env python3
"""Steadiness report: run workloads over several seeds and summarize spread.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 decide-steady fleet-sim

For every end-to-end metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), and the spread, the
quartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json. A spread under a third of the bound is steady. The
report is also written to .bench_build/steady.json.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-2000:]}")
    env = next((l for l in lines if l.startswith("# env")), "")
    steal = re.search(r"CPU steal ([0-9.]+)%", out.stderr)
    return env, json.loads(lines[-1]), float(steal.group(1)) if steal else float("nan")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workloads", nargs="*", default=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report = {}
    for w in args.workloads:
        values, bad, env, steal = {}, 0, "", []
        for i in range(args.runs):
            env, res, st = run_once(w, args.first_seed + i, args.seconds, args.trace)
            steal.append(st)
            if not res["correct"] or res["failed"]:
                bad += 1
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w}: {args.runs} runs, {bad} with failures\n  {env}")
        print("  CPU steal % by seed: " + " ".join(f"{x:.1f}" for x in steal))
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        rows = {}
        for name in sorted(values):
            v = values[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "FAIL")
            print(f"  {name:34} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} {bound if bound is not None else '':>6} {flag}")
            print("      by seed: " + " ".join(f"{x:.4g}" for x in v))
            rows[name] = {"values": v, "median": med, "q1": q1, "q3": q3, "spread": spread}
        report[w] = {"env": env, "runs_with_failures": bad, "steal_pct": steal, "metrics": rows}
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "steady.json"), "w") as f:
        json.dump(report, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
