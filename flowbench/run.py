#!/usr/bin/env python3
"""The flowcam benchmark: builds flowbench from source and runs one workload.

    python3 flowbench/run.py --workload linerate_baseline --seed 2014 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 makes
the separate traced run that gives the per-layer metrics. --workload all runs
every workload both ways and prints one table. The last line of standard
output is always one JSON object with the keys correct, attempted, failed and
metrics; the line before it is the full record (host fingerprint, commit,
seed, quartiles, checks and, with --trace 0, the itemised Table II rows).

Every repetition is a batch job: a fixed number of packets offered at a
fixed rate in simulated time. A run makes about one repetition per
REP_SECONDS of --seconds, cycling over STREAMS workload streams drawn from
--seed, so the number of repetitions depends on --seconds only, never on how
fast the code is. Each repetition runs in a fresh process, so its set-up is
cold and its peak resident memory is its own. pkt_per_mstep is the packets
of all streams over the sum of each stream's best repetition, with run time
counted in millions of steps of a fixed reference loop that flowbench times
around each repetition, so that much of the host's drift cancels. See
README.md for the workloads, the metrics and which layer metric should move
which end-to-end metric.
"""

import argparse
import functools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "flowbench")
BINARY = os.path.join(BUILD_DIR, "flowbench")

WORKLOADS = ["linerate_baseline", "flood_governed", "sparse_heavy", "sharded_churn"]
REP_SECONDS = 0.8  # one repetition per this many seconds of --seconds.
STREAMS = 4  # workload streams per --trace 0 run; see stream_seeds().
LATENCY_FIELDS = ("lat_p50_ns", "lat_p95_ns", "lat_p99_ns", "lat_max_ns")

END_TO_END_UNITS = {
    "pkt_per_mstep": "pkt/Mstep",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_mdesc_per_s": "Mdesc/sim-s",
    "real_tracked_frac": "ratio",
    "paper_err_pct": "%",
}

PER_LAYER_UNITS = {
    "workload.source_s": "s",
    "workload.source_ns_per_draw": "ns",
    "workload.draws_per_pkt": "draws/pkt",
    "workload.rss_b_per_pkt": "B/pkt",
    "shard.cpu_s": "s",
    "analyzer.overhead_s": "s",
    "analyzer.buffer_retries_per_pkt": "1/pkt",
    "analyzer.events_per_pkt": "1/pkt",
    "core.tick_s": "s",
    "core.ns_per_cycle": "ns",
    "core.offer_s": "s",
    "core.pop_s": "s",
    "core.skipped_cycle_frac": "ratio",
    "core.stepped_cycles_per_pkt": "cycles/pkt",
    "core.cam_hit_frac": "ratio",
    "core.lu2_per_pkt": "1/pkt",
    "core.new_flow_frac": "ratio",
    "core.admission_rejects_per_pkt": "1/pkt",
    "core.expired_per_pkt": "1/pkt",
    "core.sim_lat_p50_ns": "sim-ns",
    "core.sim_lat_p99_ns": "sim-ns",
    "hash.ns_per_key": "ns",
    "hash.ns_per_key_multi": "ns",
    "dram.tick_s": "s",
    "dram.ns_per_tick": "ns",
    "dram.ticks_per_pkt": "ticks/pkt",
    "dram.stalled_tick_frac": "ratio",
    "dram.row_hit_frac": "ratio",
    "dram.acts_per_pkt": "1/pkt",
    "dram.turnarounds_per_pkt": "1/pkt",
    "dram.path_a_share": "ratio",
    "governor.transitions": "count",
    "governor.max_level": "level",
    "obs.overhead_frac": "ratio",
}

# Per-layer metrics only the FlowLut-level replay measures.
REPLAY_METRICS = ("analyzer.overhead_s", "core.tick_s", "core.ns_per_cycle", "core.offer_s",
                  "core.pop_s", "core.skipped_cycle_frac", "core.stepped_cycles_per_pkt",
                  "dram.tick_s", "dram.ns_per_tick", "dram.ticks_per_pkt",
                  "dram.stalled_tick_frac", "dram.row_hit_frac", "dram.acts_per_pkt",
                  "dram.turnarounds_per_pkt", "dram.path_a_share")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build flowbench; exits 1 when that fails."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
                     + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                text=True, check=False)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            log("flowbench: build failed: " + " ".join(step))
            sys.exit(1)


def flowbench(*args, cpu=None):
    """Run the binary in a fresh process and return its JSON output. It runs
    in the build directory, where the traced run writes its recorder samples.
    With cpu set, the process is pinned to that CPU."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    result = subprocess.run([BINARY, *map(str, args)], cwd=BUILD_DIR, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, check=False, timeout=170,
                            preexec_fn=pin)
    if result.returncode != 0:
        log(result.stderr)
        raise RuntimeError("flowbench %s exited with %d" % (args[0], result.returncode))
    return json.loads(result.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values):
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def fingerprint(info):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "compiler": info["compiler"],
            "build_type": info["build_type"], "machine": platform.machine()}


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, check=False)
    return result.stdout.strip() or "unknown"


class Checks:
    """Correctness checks with per-run failure accounting.

    An operation is an offered packet. It fails if it never completes; every
    packet of a run that fails a check counts as failed.
    """

    def __init__(self, packets, corrupt=False):
        self.packets = packets
        # The smoke test's deliberately wrong expectation: one packet more
        # than every run offers.
        self.offset = 1 if corrupt else 0
        self.failures = []
        self.attempted = 0
        self.failed = 0

    def note(self, ok, message):
        if not ok:
            self.failures.append(message)
        return ok

    def run(self, label, sim, packets=None):
        """Account one full run: completions == packets and drained."""
        expected = (self.packets if packets is None else packets) + self.offset
        self.attempted += sim["packets"]
        ok = self.note(sim["completions"] == expected and sim["packets"] == expected,
                       "%s: %d of %d packets completed (expected %d)"
                       % (label, sim["completions"], sim["packets"], expected))
        ok = self.note(sim["drained"], "%s: pipeline did not drain" % label) and ok
        self.failed += sim["packets"] if not ok else sim["packets"] - sim["completions"]
        return ok

    def fail_all(self, message):
        self.note(False, message)
        self.failed = self.attempted

    @property
    def correct(self):
        return not self.failures


def sim_view(sim):
    """The simulated metrics that must be identical across runs of one seed
    (latency percentiles are filled only with the recorder on)."""
    return {k: v for k, v in sim.items() if k not in LATENCY_FIELDS}


def check_identical(checks, reference, others, label):
    base = sim_view(reference)
    for index, other in enumerate(others):
        view = sim_view(other)
        if view != base:
            diff = sorted(k for k in base if base.get(k) != view.get(k))
            checks.fail_all("%s: run %d differs from the reference in %s" % (label, index, diff))
            return False
    return True


def metric(value, unit):
    return {"value": value, "unit": unit}


def stream_seeds(seed):
    """The workload seeds of one run, all drawn from --seed. One stream's cost
    depends on its seed (on linerate_baseline, seeds differ by about 20% in
    new flows and 10% in host time), so a run measures several."""
    return [seed * STREAMS + k for k in range(STREAMS)]


def repetitions(name, seeds, packets, count):
    """The run's fresh-process repetitions, in order, as a generator of
    (seed, result). They cycle over the seeds and, on another cycle, over the
    CPUs this process may use: on a shared host one CPU can stay slower than
    the others for tens of seconds, so every stream gets the same mix."""
    cpus = sorted(os.sched_getaffinity(0))
    for index in range(count):
        cycle, position = divmod(index, len(seeds))
        seed = seeds[position]
        cpu = cpus[(position + cycle) % len(cpus)]
        yield seed, flowbench("run", "--workload", name, "--seed", seed, "--packets", packets,
                              cpu=cpu)


@functools.lru_cache(maxsize=None)
def table2(seed):
    """The Table II rows; they depend on the seed only, so one invocation
    computes them once whatever the number of workloads it runs."""
    return flowbench("paper", "--seed", seed)


def msteps(rep):
    """A repetition's run time in millions of host reference steps."""
    return rep["run_s"] * 1e3 / rep["ref_ns_per_step"]


def measure_end_to_end(name, seed, count, packets, checks):
    """--trace 0: timed repetitions with tracing off over the run's streams,
    and the Table II rows."""
    record = {}
    paper = table2(seed)
    checks.note(len(paper["rows"]) == 9 and all(math.isfinite(r["sim_mdesc_per_s"])
                                                for r in paper["rows"]),
                "Table II: expected 9 finite rows")

    reps = {}  # stream seed -> its repetitions
    for index, (stream, rep) in enumerate(repetitions(name, stream_seeds(seed), packets, count)):
        checks.run("run %d (seed %d)" % (index, stream), rep["sim"])
        reps.setdefault(stream, []).append(rep)
    for stream, runs in reps.items():
        check_identical(checks, runs[0]["sim"], [r["sim"] for r in runs[1:]],
                        "seed %d: simulated metrics across repetitions" % stream)

    every = [r for runs in reps.values() for r in runs]
    rates = [r["packets"] / r["run_s"] for r in every]
    refs = [r["ref_ns_per_step"] for r in every]
    setups = [r["setup_s"] for r in every]
    rss = [r["peak_rss_b"] / 1e6 for r in every]
    # Each stream at its best repetition, with run time counted in host
    # reference steps. The reference, timed around each repetition, takes out
    # much of a shared host's drift over minutes; the best of a fixed number
    # of short repetitions takes out much of its change between repetitions.
    best = [min(runs, key=msteps) for runs in reps.values()]
    sims = [runs[0]["sim"] for runs in reps.values()]
    background = sum(s["packets"] - s["overlay_packets"] for s in sims)
    values = {
        "pkt_per_mstep": sum(r["packets"] for r in best) / sum(msteps(r) for r in best),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "sim_mdesc_per_s": statistics.mean(s["mdesc_per_s"] for s in sims),
        "real_tracked_frac": (1.0 - sum(s["drops_real"] for s in sims) / background
                              if background else 1.0),
        "paper_err_pct": paper["paper_err_pct"],
    }
    record["streams"] = {str(stream): {"best_pkt_per_mstep": b["packets"] / msteps(b),
                                       "best_pkt_per_s": b["packets"] / b["run_s"],
                                       "best_ref_ns_per_step": b["ref_ns_per_step"],
                                       "repetitions": len(reps[stream]),
                                       "sim": {k: b["sim"][k] for k in (
                                           "packets", "overlay_packets", "completions",
                                           "cycles", "drops_real", "mdesc_per_s")}}
                         for stream, b in zip(reps, best)}
    record["host"] = {"rep_pkt_per_s": summary(rates), "ref_ns_per_step": summary(refs),
                      "setup_s": summary(setups), "peak_rss_mb": summary(rss)}
    record["table2"] = paper["rows"]
    return {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}, record


def measure_per_layer(name, seed, count, packets, checks):
    """--trace 1: untraced repetitions with the traced run (runner path with
    timed draws and the recorder on, plus the FlowLut-level replay) in their
    middle, then one half-length repetition, all on the first stream of the
    --trace 0 run."""
    seed = stream_seeds(seed)[0]
    untraced = []
    trace = None
    for index, (_, rep) in enumerate(repetitions(name, [seed], packets, count)):
        checks.run("untraced run %d" % index, rep["sim"])
        untraced.append(rep)
        if index == count // 2:
            trace = flowbench("trace", "--workload", name, "--seed", seed, "--packets", packets)
            checks.run("traced run", trace["sim"])
    half_packets = packets // 2
    half = flowbench("run", "--workload", name, "--seed", seed, "--packets", half_packets)
    checks.run("half-length run", half["sim"], half_packets)
    check_identical(checks, trace["sim"], [r["sim"] for r in untraced],
                    "traced vs untraced simulated metrics")
    checks.note(trace["hash_multi_identical"], "digest_multi differs from digest")

    sim = trace["sim"]
    n = sim["packets"]
    completions = max(1, sim["completions"])
    run_s = statistics.median(r["run_s"] for r in untraced)
    cpu_s = statistics.median(r["cpu_s"] for r in untraced)
    full_rss = statistics.median(r["peak_rss_b"] for r in untraced)
    events = (sim["new_flows"] + sim["events_port_scan"] + sim["events_heavy_hitter"]
              + sim["events_table_pressure"] + sim["events_flow_expired"])
    values = {
        "workload.source_s": trace["source_s"],
        "workload.source_ns_per_draw": trace["source_s"] * 1e9 / max(1, trace["draws"]),
        "workload.draws_per_pkt": trace["draws"] / n,
        "workload.rss_b_per_pkt": (full_rss - half["peak_rss_b"]) / (n - half_packets),
        "shard.cpu_s": cpu_s,
        "analyzer.buffer_retries_per_pkt": sim["buffer_retries"] / n,
        "analyzer.events_per_pkt": events / n,
        "core.cam_hit_frac": sim["cam_hits"] / completions,
        "core.lu2_per_pkt": sim["lu2_hits"] / n,
        "core.new_flow_frac": sim["new_flows"] / completions,
        "core.admission_rejects_per_pkt": sim["admission_rejects"] / n,
        "core.expired_per_pkt": sim["flows_expired"] / n,
        "core.sim_lat_p50_ns": sim["lat_p50_ns"],
        "core.sim_lat_p99_ns": sim["lat_p99_ns"],
        "hash.ns_per_key": trace["hash_ns_per_key"],
        "hash.ns_per_key_multi": trace["hash_ns_per_key_multi"],
        "governor.transitions": sim["governor_transitions"],
        "governor.max_level": sim["governor_max_level"],
        "obs.overhead_frac": trace["run_s"] / run_s - 1.0,
    }
    record = {"untraced_run_s": summary([r["run_s"] for r in untraced]),
              "traced_run_s": trace["run_s"], "flowlut_replay": "replay" in trace}
    replay = trace.get("replay")
    if replay is None:
        # The FlowLut-level replay runs only where FlowLut::step() is the
        # whole stack below the analyzer (no governor, no shards). Elsewhere
        # its layers cannot be separated from outside the program: they are
        # listed as not measured and carry 0 only because every per-layer
        # metric must be a number.
        record["not_measured"] = list(REPLAY_METRICS)
        values.update({k: 0.0 for k in REPLAY_METRICS})
    else:
        ok = checks.note(trace["replay_matches_step"],
                         "FlowLut replay diverges from plain FlowLut::step()")
        ok = checks.note(replay["audit"] == 0 and trace["plain_audit"] == 0,
                         "FlowLut::audit(true) reported violations") and ok
        ok = checks.note(replay["drained"] and trace["plain_drained"]
                         and replay["completions"] == n, "FlowLut replay did not complete") and ok
        if not ok:
            checks.fail_all("FlowLut-level replay check failed")
        stepped = max(1, replay["stepped"])
        accesses = replay["row_hits"] + replay["row_misses"] + replay["row_conflicts"]
        requests = replay["requests_a"] + replay["requests_b"]
        values.update({
            "analyzer.overhead_s": run_s - trace["plain_wall_s"],
            "core.tick_s": replay["core_s"],
            "core.ns_per_cycle": replay["core_s"] * 1e9 / stepped,
            "core.offer_s": replay["offer_s"],
            "core.pop_s": replay["pop_s"],
            "core.skipped_cycle_frac": replay["skipped"] / (replay["skipped"] + stepped),
            "core.stepped_cycles_per_pkt": stepped / n,
            "dram.tick_s": replay["dram_s"],
            "dram.ns_per_tick": replay["dram_s"] * 1e9 / max(1, replay["ctrl_ticks"]),
            "dram.ticks_per_pkt": replay["ctrl_ticks"] / n,
            "dram.stalled_tick_frac": replay["stalled_ticks"] / max(1, replay["ctrl_ticks"]),
            "dram.row_hit_frac": replay["row_hits"] / max(1, accesses),
            "dram.acts_per_pkt": replay["activates"] / n,
            "dram.turnarounds_per_pkt": replay["rw_turnarounds"] / n,
            "dram.path_a_share": replay["requests_a"] / max(1, requests),
        })
        record["replay"] = replay
        record["plain_step_wall_s"] = trace["plain_wall_s"]
    return {k: metric(values[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS}, record


def run_one(name, seed, count, traced, packets, corrupt, context):
    checks = Checks(packets, corrupt)
    measure = measure_per_layer if traced else measure_end_to_end
    try:
        metrics, detail = measure(name, seed, count, packets, checks)
    except (RuntimeError, KeyError, ValueError, ZeroDivisionError,
            subprocess.TimeoutExpired) as error:
        checks.attempted = max(checks.attempted, packets)
        checks.fail_all("%s: %s" % (type(error).__name__, error))
        metrics, detail = {}, {}
    record = dict(context)
    record.update({"workload": name, "trace": int(traced), "packets": packets,
                   "repetitions": count, "checks_failed": checks.failures, "detail": detail,
                   "metrics": metrics})
    result = {"correct": checks.correct, "attempted": max(1, checks.attempted),
              "failed": checks.failed, "metrics": metrics}
    return record, result


def print_table(records):
    for record in records:
        log("%s (trace %d): %s" % (record["workload"], record["trace"],
                                  "ok" if not record["checks_failed"] else
                                  "FAILED " + "; ".join(record["checks_failed"])))
        not_measured = record["detail"].get("not_measured", ())
        for name, m in record["metrics"].items():
            if name in not_measured:
                log("    %-34s %18s" % (name, "not measured"))
            else:
                log("    %-34s %18.6g %s" % (name, m["value"], m["unit"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=2014,
                        help="workload seed (2014 by default; recheck claims with --seed 7)")
    parser.add_argument("--seconds", type=float, default=30,
                        help="sets the repetitions of a run: one per %g seconds" % REP_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--packets", type=int, default=0,
                        help="override the workload's packet count (smoke tests)")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="expect one packet more than offered, so every check fails")
    args = parser.parse_args()

    build()
    info = flowbench("list")
    lengths = {w["name"]: w["packets"] for w in info["workloads"]}
    context = {"fingerprint": fingerprint(info), "commit": git_commit(), "seed": args.seed}
    # A whole number of cycles over the streams, at least one.
    count = max(1, int(args.seconds / REP_SECONDS / STREAMS)) * STREAMS

    names = WORKLOADS if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    records, results = [], []
    for name in names:
        for traced in modes:
            packets = args.packets or lengths[name]
            record, result = run_one(name, args.seed, count, traced, packets,
                                     args.corrupt_expected, context)
            records.append(record)
            results.append(result)
    print_table(records)

    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {"%s/%s" % (rec["workload"], k): v
                             for rec in records for k, v in rec["metrics"].items()}}
    for record in records:
        print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(final))


if __name__ == "__main__":
    main()
