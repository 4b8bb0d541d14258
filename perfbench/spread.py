#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload gemm-bench --seeds 1-10
    python3 perfbench/spread.py --workload gemm-bench --seeds 1-10 --save a.json
    python3 perfbench/spread.py --workload gemm-bench --seeds 1-10 --against a.json
    python3 perfbench/spread.py --workload gemm-bench --seeds 1-2 --trace

Untraced (default): for every end-to-end metric of BENCHMARK.json, the
median over the seeds, and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to
the metric's bound. `--against` compares the medians with a saved set.

`--trace`: runs every seed traced twice and checks that the work counts
(every per-layer metric whose unit is not a time) repeat exactly.

Exit status 1 when a spread exceeds its bound (setup_s is exempt), a
median moved by more than its bound, a run was not correct, or a work
count differed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_UNITS = {"ns", "us", "ms", "s"}


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"seed {seed}: NOT CORRECT ({result['failed']} of "
              f"{result['attempted']} cells failed)\n{out.stderr}")
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    ok = True

    if args.trace:
        for seed in seeds(args.seeds):
            a, b = (run(args.workload, seed, seconds, True) for _ in range(2))
            ok &= a["correct"] and b["correct"]
            for name, m in a["metrics"].items():
                if m["unit"] in TIME_UNITS or name == "obs.trace_overhead":
                    continue
                same = m["value"] == b["metrics"][name]["value"]
                ok &= same
                print(f"seed {seed} {name:<32} {m['value']:>14.6f} "
                      f"{'identical' if same else 'DIFFERS: %r' % b['metrics'][name]['value']}")
        return 0 if ok else 1

    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seeds(args.seeds):
        result = run(args.workload, seed, seconds, False)
        ok &= result["correct"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
    prev = {}
    if args.against:
        with open(args.against) as f:
            prev = json.load(f)
    print(f"{'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6} {'bound/3':>8}")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        line = (f"{m['name']:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                f"{spread:>8.4f} {m['bound']:>6} "
                f"{'ok' if spread < m['bound'] / 3 else 'WIDE':>8}")
        if m["name"] != "setup_s" and spread > m["bound"]:
            ok = False
        if m["name"] in prev:
            old = statistics.median(prev[m["name"]])
            worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
            ok &= worse <= m["bound"]
            line += f"  vs {old:.6g}: {worse:+.4f} worse"
        print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
