#!/usr/bin/env python3
"""Smoke test of the flowcam benchmark at tiny lengths.

    python3 flowbench/smoke_test.py

For every workload and both trace modes it runs flowbench/run.py with a few
thousand packets and checks that the result line has exactly the keys
correct, attempted, failed and metrics, that every metric named in
BENCHMARK.json is emitted with its unit, that the record marks the replay
metrics not measured exactly on the workloads without the FlowLut-level
replay, and that all correctness checks pass. It then corrupts one expected
value (--corrupt-expected) and checks that the run is reported incorrect
with every packet counted as failed. Exits 0 when all of that holds.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PACKETS = "3000"


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "0", "--trace", str(trace), "--packets", PACKETS,
               *extra]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, check=False, timeout=600)
    if result.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (command, result.returncode, result.stderr))
    lines = result.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s --trace %d" % (workload, trace)
            before = len(problems)
            result, record = run(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (label, sorted(result)))
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: checks failed: %s" % (label, record["checks_failed"]))
            for name in ("fingerprint", "commit", "seed"):
                if name not in record:
                    problems.append("%s: record lacks %s" % (label, name))
            expected = {m["name"]: m["unit"] for m in spec[section]}
            emitted = result["metrics"]
            if set(emitted) != set(expected):
                problems.append("%s: metrics %s, expected %s"
                                % (label, sorted(emitted), sorted(expected)))
            for name, unit in expected.items():
                value = emitted.get(name, {})
                if value.get("unit") != unit or not isinstance(value.get("value"), (int, float)):
                    problems.append("%s: %s emitted as %s, expected unit %s"
                                    % (label, name, value, unit))
            # Metrics are marked not measured exactly where the FlowLut-level
            # replay does not run, and only metrics it alone measures.
            detail = record["detail"]
            not_measured = set(detail.get("not_measured", ()))
            if trace == 1 and (bool(not_measured) == detail["flowlut_replay"]
                               or not not_measured <= set(expected)):
                problems.append("%s: not_measured %s with flowlut_replay %s"
                                % (label, sorted(not_measured), detail["flowlut_replay"]))
            print(("ok   " if len(problems) == before else "FAIL ") + label, flush=True)

    for trace in (0, 1):
        result, _ = run(spec["workloads"][0]["name"], trace, "--corrupt-expected")
        if result["correct"] or result["failed"] != result["attempted"]:
            problems.append("--trace %d: a corrupted expected value was not caught: %s"
                            % (trace, {k: result[k] for k in ("correct", "attempted", "failed")}))
    for problem in problems:
        print(problem)
    print("smoke test %s" % ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
