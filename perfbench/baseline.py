#!/usr/bin/env python3
"""Measure a baseline: every workload over several seeds, plus one traced run.

    python3 perfbench/baseline.py [--seeds 1-10] [--workload NAME ...]
                                  [--seconds S] > perfbench/baseline.json

For each workload and end-to-end metric, reports the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread, the
quartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json. A spread above a third of its bound is flagged on
standard error (setup_s is exempt: its bound guards medians only). The
per-layer metrics come from one --trace 1 run at the first seed. Exits 1
if any run fails its correctness gates.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(workload, seed, seconds, trace):
    """(host fingerprint, result) of one run.py invocation."""
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"(exit {proc.returncode})")
    host = next(json.loads(l.partition(" ")[2]) for l in lines
                if l.startswith("host "))
    return host, json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10", type=parse_seeds)
    ap.add_argument("--workload", nargs="*", choices=names, default=names)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    baseline = {"run_seconds": args.seconds, "seeds": args.seeds,
                "end_to_end": {}, "per_layer": {}}
    for w in args.workload:
        values = {}
        units = {}
        for seed in args.seeds:
            host, result = run(w, seed, args.seconds, 0)
            baseline["host"] = host
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{w} seed {seed}: wall_s "
                  f"{result['metrics']['wall_s']['value']:.4f}",
                  file=sys.stderr, flush=True)
        table = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            table[name] = {"unit": units[name], "median": med, "q1": q1,
                           "q3": q3, "spread": spread,
                           "bound": bounds[name], "values": vals}
            if name != "setup_s" and spread > bounds[name] / 3:
                print(f"{w}: {name} spread {spread:.4f} exceeds a third "
                      f"of its bound {bounds[name]}", file=sys.stderr)
        baseline["end_to_end"][w] = table
        _, traced = run(w, args.seeds[0], args.seconds, 1)
        baseline["per_layer"][w] = {n: m["value"]
                                    for n, m in traced["metrics"].items()}
    print(json.dumps(baseline, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
