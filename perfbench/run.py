#!/usr/bin/env python3
"""The repository benchmark: build it, run workloads, check, report.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Builds perfbench/ (which builds libqnetp from the repository sources) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
workload (or all of them, each in its own process) for --seconds of host
time. --trace 0 reports the end-to-end metrics from the timing build;
--trace 1 reports the per-layer metrics from the traced build, plus the
tracing overhead against an untraced run made in the same budget.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where attempted/failed count trials and a trial fails when it breaks any
correctness gate. The exit code is 0 only when every gate passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["fabric108", "fabric108-sharded", "traffic-overload",
             "chaos-regions4"]
# Host-time budget for all benchmark processes of one invocation per
# workload (a run must end within 180 s).
RUN_TIMEOUT_S = 170
# Share of a --trace 1 budget spent on the untraced reference run. Equal
# shares give both builds as many repeats, so their fastest pieces are
# comparable.
UNTRACED_SHARE = 0.5


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build both binaries; returns the build dir."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                    "perfbench", "perfbench_traced"],
                   check=True, stdout=sys.stderr)
    return out


def run_binary(binary, workload, seed, seconds, deadline):
    """Runs one benchmark process and returns its result, or raises."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{binary.name} {workload} timed out")
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{binary.name} {workload} printed no result "
                           f"(exit {proc.returncode})")
    for line in lines[:-1]:  # the host and detail lines
        print(line)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{binary.name} {workload} exited "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def measure(out, workload, seed, seconds, trace):
    """One workload's result: the object printed as the last line."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not trace:
        return run_binary(out / "perfbench", workload, seed, seconds,
                          deadline)
    plain = run_binary(out / "perfbench", workload, seed,
                       seconds * UNTRACED_SHARE, deadline)
    traced = run_binary(out / "perfbench_traced", workload, seed,
                        seconds * (1.0 - UNTRACED_SHARE), deadline)
    metrics = traced["metrics"]
    traced_wall = metrics.pop("wall_s")["value"]
    plain_wall = plain["metrics"]["wall_s"]["value"]
    metrics["trace.overhead_frac"] = {
        "value": traced_wall / plain_wall - 1.0, "unit": "frac"}
    return {
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": metrics,
    }


def check_metrics(spec, result, trace):
    """Every metric BENCHMARK.json declares is present, in its unit."""
    problems = []
    for m in spec["per_layer" if trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        got = result["metrics"].get(name)
        if got is None:
            problems.append(f"metric {name} missing")
        elif got["unit"] != unit:
            problems.append(f"metric {name} in {got['unit']}, not {unit}")
        elif got["value"] is None:
            problems.append(f"metric {name} is not a finite number")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        out = build()
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results, problems = {}, []
    started = time.monotonic()
    for name in names:
        try:
            result = measure(out, name, args.seed, args.seconds,
                             args.trace == 1)
        except RuntimeError as e:
            log(f"perfbench: {e}")
            return 1
        results[name] = result
        problems += [f"{name}: {p}"
                     for p in check_metrics(spec, result, args.trace == 1)]
    for p in problems:
        log(f"perfbench: {p}")

    if len(names) == 1:
        final = results[names[0]]
    else:
        for name, result in results.items():
            log(f"== {name}")
            for metric, m in result["metrics"].items():
                log(f"  {metric:<36} {m['value']:>14.6g} {m['unit']}")
        log(f"all workloads in {time.monotonic() - started:.1f} s")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    final["correct"] = final["correct"] and not problems
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
