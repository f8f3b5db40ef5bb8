#!/usr/bin/env python3
"""Steadiness check: runs two sets of ten benchmark runs of one build and
reports, per workload and end-to-end metric, each set's median and
quartiles, the spread (interquartile distance over the median), and
whether the sets agree within the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py                          # every workload
    python3 perfbench/steady.py --workloads serve_reads  # some of them

Each run measures for BENCHMARK.json's run_seconds. Set k uses seeds
k*1000+1 .. k*1000+10, so the two sets see different inputs, as a later
comparison of two commits would. Workloads are interleaved within a set
so slow drift of the host reaches all of them. A metric passes when its
spread in each set is within its bound and the second set's median is
not worse than the first's by more than the bound; the failed-operation
share of every run must be the same in both sets.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_benchmark(path):
    with open(path) as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, elapsed


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


SETS = 2
SEEDS_PER_SET = 10


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    args = ap.parse_args()

    bench = load_benchmark(args.benchmark)
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    # results[set][workload] = list of result objects
    results = [{w: [] for w in workloads} for _ in range(SETS)]
    for s in range(SETS):
        for i in range(SEEDS_PER_SET):
            seed = (s + 1) * 1000 + i + 1
            for w in workloads:
                result, elapsed = run_once(bench, w, seed, seconds)
                results[s][w].append(result)
                print(f"set {s + 1} {w} seed {seed}: {elapsed:.1f} s, attempted {result['attempted']}, "
                      f"failed {result['failed']}, correct {result['correct']}", file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        print(f"\n## {w}\n")
        header = "| metric | bound |" + "".join(
            f" set {s + 1} median | set {s + 1} q1..q3 | set {s + 1} spread |" for s in range(SETS))
        header += " set 2 vs 1 | verdict |"
        print(header)
        print("|" + "---|" * (header.count("|") - 1))
        for m in metrics:
            name, bound, better = m["name"], m["bound"], m["better"]
            row = f"| {name} | {bound} |"
            meds, verdict = [], "ok"
            for s in range(SETS):
                vals = [r["metrics"][name]["value"] for r in results[s][w]]
                med, q1, q3, spread = summarize(vals)
                meds.append(med)
                row += f" {med:.6g} | {q1:.6g}..{q3:.6g} | {spread:.4f} |"
                if spread > bound:
                    verdict = "spread over bound"
            change = (meds[1] - meds[0]) / meds[0] if meds[0] else float("inf")
            worse = change > bound if better == "lower" else -change > bound
            if worse:
                verdict = "median worse than bound"
            row += f" {change:+.4f} | {verdict} |"
            ok &= verdict == "ok"
            print(row)
        shares = []
        for s in range(SETS):
            failed = sum(r["failed"] for r in results[s][w])
            attempted = sum(r["attempted"] for r in results[s][w])
            shares.append({r["failed"] / r["attempted"] for r in results[s][w]})
            print(f"\nset {s + 1}: {failed} of {attempted} operations failed; "
                  f"all correct: {all(r['correct'] for r in results[s][w])}")
        if len(shares[0] | shares[1]) != 1:
            print("failed-operation shares differ between runs")
            ok = False
    print(f"\nsteady: {'yes' if ok else 'no'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
