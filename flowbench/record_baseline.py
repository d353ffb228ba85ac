#!/usr/bin/env python3
"""Run the benchmark over several seeds and record medians and quartiles.

    python3 flowbench/record_baseline.py --runs 10 --out flowbench/baseline.json

For each workload it makes --runs untraced runs (--trace 0) with seeds 1 to
--runs, and reports per end-to-end metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json. One traced run per workload
(--trace 1, first seed) gives the per-layer table. The output is one JSON
document; a spread above a third of its bound is flagged on stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True, check=True, timeout=900)
    lines = result.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.runs + 1))

    document = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        values = {metric: [] for metric in bounds}
        runs = []
        for seed in seeds:
            result, record = run(name, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "host": record["detail"].get("host")})
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
            fingerprint = record["fingerprint"]
            commit = record["commit"]
        table = {}
        for metric, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            table[metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[metric]}
            flag = "  <-- above bound/3" if spread > bounds[metric] / 3 else ""
            print("%-18s %-18s median %-14.6g spread %.4f (bound %.2f)%s"
                  % (name, metric, median, spread, bounds[metric], flag), file=sys.stderr)
        entry = {"fingerprint": fingerprint, "commit": commit, "end_to_end": table,
                 "runs": runs}
        result, record = run(name, seeds[0], spec["run_seconds"], 1)
        entry["per_layer"] = {"seed": seeds[0], "correct": result["correct"],
                              "not_measured": record["detail"].get("not_measured", []),
                              "metrics": result["metrics"]}
        document["workloads"][name] = entry
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(document, out, indent=1, sort_keys=True)
            out.write("\n")


if __name__ == "__main__":
    main()
