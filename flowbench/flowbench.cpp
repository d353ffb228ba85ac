// flowbench: the measuring half of the flowcam benchmark; run.py builds and
// runs it. Each invocation does one job and prints one JSON object on stdout:
//
//   flowbench run   --workload W --seed S [--packets N]
//       One untraced batch run through the public ScenarioRunner /
//       ShardedEngine entry points. The scenario is wrapped in a probe
//       decorator that only stamps the first draw (so setup = run call ->
//       first packet drawn). The host reference (reference_ns_per_step) is
//       timed just before and after the run.
//   flowbench trace --workload W --seed S [--packets N]
//       The traced run: (a) the runner path with every draw timed and the
//       recorder on (which fills the simulated latency percentiles; obs-on
//       runs are cycle-identical to obs-off runs); (b) for workloads without governor or shards, a
//       FlowLut-level replay that rebuilds FlowLut::step() from public calls
//       and times each layer, checked against plain step() on the same
//       stream; (c) IndexGenerator digest vs digest_multi on the stream's keys.
//       The recorder's samples go to kObsPath in the working directory.
//   flowbench paper --seed S
//       The 9 Table II(A)/(B) rows through bench_util.hpp's pattern runners,
//       averaged over kPaperSets pattern-seed sets.
//   flowbench list
//       Workload names and their default packet counts.
//
// No timing here is ever reported by the program under test: every span is
// taken around a call into a layer's public API from this file.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_util.hpp"
#include "core/flow_lut.hpp"
#include "shard/sharded_engine.hpp"
#include "workload/compose.hpp"
#include "workload/config_patch.hpp"
#include "workload/metrics.hpp"
#include "workload/registry.hpp"
#include "workload/runner.hpp"

using namespace flowcam;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
    const char* name;
    const char* spec;                   ///< builtin scenario name.
    std::vector<std::string> patches;   ///< ConfigPatch assignments.
    u64 packets;                        ///< default batch length.
    /// FlowLut-level replay applies: no governor, no shards and no
    /// runner.time_scale, so FlowLut::step() fed the unscaled record stream is
    /// the whole stack below the analyzer.
    bool flowlut_replay;
};

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> list = {
        {"linerate_baseline", "baseline", {"runner.cycles_per_packet=2"}, 100'000, true},
        {"flood_governed",
         "syn_flood",
         {"scenario.attack=0.8", "lut.buckets_per_mem=1024", "governor.on=1",
          "runner.time_scale=1e5"},
         75'000,
         false},
        {"sparse_heavy", "heavy_hitter", {"runner.cycles_per_packet=16"}, 100'000, true},
        // One thread: the lanes' epoch barrier makes a multi-threaded run wait
        // for its slowest thread, which on a shared host widens the spread.
        {"sharded_churn", "churn", {"shard.lanes=4"}, 50'000, false},
    };
    return list;
}

const Workload* find_workload(const std::string& name) {
    for (const Workload& w : workloads()) {
        if (name == w.name) return &w;
    }
    return nullptr;
}

[[noreturn]] void die(const std::string& message) {
    std::cerr << "flowbench: " << message << "\n";
    std::exit(2);
}

workload::ConfigTree make_tree(const Workload& w, u64 seed, u64 packets) {
    workload::ConfigTree tree;
    const workload::ConfigPatch& patch = workload::ConfigPatch::registry();
    for (const std::string& assignment : w.patches) {
        if (Status status = patch.apply_assignment(tree, assignment); !status.is_ok()) {
            die("bad workload patch '" + assignment + "': " + status.to_string());
        }
    }
    tree.runner.packets = packets;
    tree.scenario.seed = seed;
    // What a one-cell Experiment resolves for ScenarioRunner::run; set here so
    // the sharded entry point sees the same horizon.
    tree.scenario.horizon_packets = packets;
    return tree;
}

// ---------------------------------------------------------------------------
// Small utilities

/// The flow key the analyzer builds for a record (TrafficAnalyzer::feed_record).
core::FlowKey key_of(const net::PacketRecord& record) {
    return record.key_override.empty() ? core::FlowKey(net::NTuple::from_five_tuple(record.tuple))
                                       : core::FlowKey(record.key_override);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of this process in bytes (VmHWM), 0 when unavailable.
u64 peak_rss_bytes() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
        }
    }
    return 0;
}

/// Host nanoseconds per step of a fixed chain of dependent 64-bit mixes: the
/// benchmark's measure of how fast the host runs right now. It lives here, not
/// in src/, so no change to the program under test can change it. A shared
/// host's speed drifts by tens of percent over minutes; throughput counted in
/// these steps drifts less.
double reference_ns_per_step() {
    constexpr u64 kSteps = 4'000'000;
    static volatile u64 sink;
    u64 x = 1;
    const auto start = Clock::now();
    for (u64 i = 0; i < kSteps; ++i) {
        x += i + 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        x ^= x >> 31;
    }
    const double ns = seconds_between(start, Clock::now()) * 1e9 / static_cast<double>(kSteps);
    sink = x;
    return ns;
}

/// Cost of one steady_clock read pair, subtracted once per timed span.
double clock_overhead_ns() {
    std::vector<double> samples;
    for (int i = 0; i < 2001; ++i) {
        const auto a = Clock::now();
        const auto b = Clock::now();
        samples.push_back(std::chrono::duration<double, std::nano>(b - a).count());
    }
    std::nth_element(samples.begin(), samples.begin() + 1000, samples.end());
    return samples[1000];
}

/// Accumulates one layer's timed spans.
struct Span {
    double ns = 0.0;
    u64 count = 0;
    void add(Clock::time_point a, Clock::time_point b) {
        ns += std::chrono::duration<double, std::nano>(b - a).count();
        ++count;
    }
    [[nodiscard]] double seconds(double overhead_ns) const {
        return std::max(0.0, ns - overhead_ns * static_cast<double>(count)) * 1e-9;
    }
};

class Json {
  public:
    Json& num(const std::string& key, double value) {
        return raw(key, workload::shortest_double(value));
    }
    Json& num(const std::string& key, u64 value) { return raw(key, std::to_string(value)); }
    Json& boolean(const std::string& key, bool value) { return raw(key, value ? "true" : "false"); }
    Json& str(const std::string& key, const std::string& value) {
        return raw(key, "\"" + workload::json_escape(value) + "\"");
    }
    Json& raw(const std::string& key, const std::string& literal) {
        body_ << (first_ ? "" : ",") << "\"" << workload::json_escape(key) << "\":" << literal;
        first_ = false;
        return *this;
    }
    [[nodiscard]] std::string text() const { return "{" + body_.str() + "}"; }

  private:
    std::ostringstream body_;
    bool first_ = true;
};

// ---------------------------------------------------------------------------
// Runner path: the probe decorator and one pass through the public entry point

/// Per-scenario-instance draw accounting. Sharded runs build one scenario per
/// slice, each drawing on its lane's thread, so every instance owns its probe.
struct DrawProbe {
    Clock::time_point first{};
    bool seen = false;
    u64 draws = 0;
    Span span;
};

/// Scenario decorator: forwards the stream unchanged. Untimed, it stamps the
/// first draw only; timed, it also times every next() call.
class ProbeScenario final : public workload::Scenario {
  public:
    ProbeScenario(std::unique_ptr<workload::Scenario> inner, DrawProbe& probe, bool timed)
        : inner_(std::move(inner)), probe_(probe), timed_(timed) {}

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] std::string description() const override { return inner_->description(); }

    net::PacketRecord next() override {
        if (!probe_.seen) {
            probe_.seen = true;
            probe_.first = Clock::now();
        }
        ++probe_.draws;
        if (!timed_) return inner_->next();
        const auto a = Clock::now();
        net::PacketRecord record = inner_->next();
        probe_.span.add(a, Clock::now());
        return record;
    }

  private:
    std::unique_ptr<workload::Scenario> inner_;
    DrawProbe& probe_;
    bool timed_;
};

struct PassResult {
    workload::ScenarioMetrics metrics;
    double setup_s = 0.0;  ///< run call -> first packet drawn.
    double run_s = 0.0;    ///< first packet drawn -> run returned.
    double cpu_s = 0.0;    ///< process CPU time over the whole call.
    u64 draws = 0;
    Span source;
};

/// The traced run's recorder sample file, in the working directory.
constexpr const char* kObsPath = "flowbench-obs.jsonl";

/// One run through the public entry point. Traced: every draw is timed and
/// the flight recorder is on.
PassResult run_pass(const Workload& w, u64 seed, u64 packets, bool traced) {
    workload::ConfigTree tree = make_tree(w, seed, packets);
    if (traced) {
        // Sampling at an interval longer than any run keeps the recorder on
        // (latency histogram, counters) with one snapshot at each end.
        tree.runner.obs.sample_interval = u64{1} << 60;
        tree.runner.obs.sample_path = kObsPath;
    }

    std::deque<DrawProbe> probes;
    workload::Registry registry = workload::builtin_registry();
    const std::string spec = w.spec;
    registry.add(spec, "probe-wrapped " + spec,
                 [&probes, spec, traced](const workload::ScenarioConfig& config)
                     -> Result<std::unique_ptr<workload::Scenario>> {
                     auto inner = workload::builtin_registry().create(spec, config);
                     if (!inner) return inner.status();
                     probes.emplace_back();
                     return std::unique_ptr<workload::Scenario>(std::make_unique<ProbeScenario>(
                         std::move(inner).value(), probes.back(), traced));
                 });

    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    Result<workload::ScenarioMetrics> result =
        tree.runner.shard.active()
            ? shard::ShardedEngine(tree.runner).run(spec, tree.scenario, registry)
            : workload::ScenarioRunner(tree.runner).run(registry, spec, tree.scenario);
    const auto t1 = Clock::now();
    const double cpu1 = process_cpu_s();
    if (!result) die("run failed: " + result.status().to_string());

    PassResult pass;
    pass.metrics = std::move(result).value();
    pass.cpu_s = cpu1 - cpu0;
    Clock::time_point first = t1;
    for (const DrawProbe& probe : probes) {
        if (probe.seen) first = std::min(first, probe.first);
        pass.draws += probe.draws;
        pass.source.ns += probe.span.ns;
        pass.source.count += probe.span.count;
    }
    pass.setup_s = seconds_between(t0, first);
    pass.run_s = seconds_between(first, t1);
    return pass;
}

/// A JSON array of already-rendered JSON values.
std::string json_array(const std::vector<std::string>& items) {
    std::string array = "[";
    for (const std::string& item : items) {
        if (array.size() > 1) array += ',';
        array += item;
    }
    return array + "]";
}

// ---------------------------------------------------------------------------
// FlowLut-level replay: the same record stream at the same offer cadence,
// straight into core::FlowLut, stepped either by FlowLut::step() (reference)
// or by its public decomposition (traced).

struct ReplayResult {
    core::FlowLutStats stats;
    Cycle cycles = 0;
    u64 packets = 0;
    u64 completions = 0;
    u64 audit = 0;
    bool drained = false;
    double wall_s = 0.0;
    u64 stepped = 0;
    u64 skipped = 0;
    u64 ctrl_ticks = 0;
    u64 stalled_ticks = 0;
    dram::ControllerStats ctrl[2];
    Span source, offer, dram, core, pop;
};

template <bool Traced>
ReplayResult replay_flowlut(const Workload& w, u64 seed, u64 packets) {
    const workload::ConfigTree tree = make_tree(w, seed, packets);
    const core::FlowLutConfig& config = tree.runner.analyzer.lut;
    auto scenario = workload::make_scenario(w.spec, tree.scenario);
    if (!scenario) die("scenario: " + scenario.status().to_string());
    workload::Scenario& source = *scenario.value();

    core::FlowLut lut(config);
    const hash::IndexGenerator& indexer = lut.table().indexer();
    const u32 cadence = std::max<u32>(1, tree.runner.cycles_per_packet);
    const u32 ratio = config.memory_clock_ratio;
    const u64 max_cycles = tree.runner.max_cycles;

    ReplayResult r;
    net::PacketRecord record;
    core::FlowKey key;
    u64 digest = 0;
    u64 index_a = 0;
    u64 index_b = 0;
    bool pending = false;
    dram::DramController* ctrl[2] = {&lut.controller(core::Path::kA),
                                      &lut.controller(core::Path::kB)};

    const auto start = Clock::now();
    while (r.stepped + r.skipped < max_cycles) {
        const Cycle now = lut.now();
        if (r.packets < packets && (pending || now % cadence == 0)) {
            if (!pending) {
                if constexpr (Traced) {
                    const auto a = Clock::now();
                    record = source.next();
                    r.source.add(a, Clock::now());
                } else {
                    record = source.next();
                }
            }
            const auto a = Traced ? Clock::now() : Clock::time_point{};
            if (!pending) {
                key = key_of(record);
                digest = indexer.digest(0, key.view());
                index_a = indexer.index_of_digest(digest);
                index_b = indexer.index(1, key.view());
                pending = true;
            }
            if (lut.offer_prepared(key, index_a, index_b, digest, record.timestamp_ns,
                                   record.frame_bytes, record.flow_index)) {
                pending = false;
                ++r.packets;
            }
            if constexpr (Traced) r.offer.add(a, Clock::now());
        }

        if constexpr (Traced) {
            const auto a = Clock::now();
            for (u32 sub = 0; sub < ratio; ++sub) {
                const Cycle memory_cycle = now * ratio + sub;
                for (dram::DramController* c : ctrl) {
                    if (c->stalled_until() > memory_cycle) ++r.stalled_ticks;
                    c->tick(memory_cycle);
                }
            }
            const auto b = Clock::now();
            lut.tick(now);
            lut.skip_idle(1);
            const auto c = Clock::now();
            r.dram.add(a, b);
            r.core.add(b, c);
            r.ctrl_ticks += 2 * ratio;
        } else {
            lut.step();
        }
        ++r.stepped;

        const auto pop_start = Traced ? Clock::now() : Clock::time_point{};
        while (lut.pop_completion()) ++r.completions;
        if constexpr (Traced) r.pop.add(pop_start, Clock::now());

        if (r.packets >= packets && lut.drained()) {
            r.drained = true;
            break;
        }
        // The engine's fast-forward: the source is idle until its next offer
        // slot (or forever once exhausted), the LUT reports its own hint.
        u64 source_hint = ~u64{0};
        if (r.packets < packets) {
            source_hint = pending ? 0 : (cadence - ((now + 1) % cadence)) % cadence;
        }
        const u64 lut_hint = lut.completions_pending() ? 0 : lut.idle_cycles_hint();
        const u64 skip = std::min({source_hint, lut_hint, max_cycles - r.stepped - r.skipped});
        if (skip > 0) {
            lut.skip_idle(skip);
            r.skipped += skip;
        }
    }
    r.wall_s = seconds_between(start, Clock::now());
    r.stats = lut.stats();
    r.cycles = lut.now();
    r.audit = lut.audit(/*final_pass=*/r.drained);
    r.ctrl[0] = ctrl[0]->stats();
    r.ctrl[1] = ctrl[1]->stats();
    return r;
}

static_assert(std::has_unique_object_representations_v<core::FlowLutStats>,
              "FlowLutStats is compared bytewise");

// ---------------------------------------------------------------------------
// Hash layer: digest() vs digest_multi() over the same keys.

struct HashTiming {
    double ns_per_key = 0.0;
    double ns_per_key_multi = 0.0;
    bool identical = true;
};

HashTiming time_hash(const Workload& w, u64 seed) {
    constexpr std::size_t kKeys = 4096;
    constexpr std::size_t kBatch = 16;  // the runner's batched-source lookahead.
    constexpr int kRounds = 64;
    constexpr int kTrials = 5;
    const workload::ConfigTree tree = make_tree(w, seed, kKeys);
    auto scenario = workload::make_scenario(w.spec, tree.scenario);
    if (!scenario) die("scenario: " + scenario.status().to_string());
    std::vector<core::FlowKey> keys;
    keys.reserve(kKeys);
    for (std::size_t i = 0; i < kKeys; ++i) {
        keys.push_back(key_of(scenario.value()->next()));
    }
    core::FlowLut lut(tree.runner.analyzer.lut);
    const hash::IndexGenerator& indexer = lut.table().indexer();
    std::vector<std::span<const u8>> views;
    for (const core::FlowKey& key : keys) views.push_back(key.view());

    HashTiming timing;
    std::vector<u64> scalar(kKeys), multi(kKeys);
    std::vector<double> single_ns, multi_ns;
    for (int trial = 0; trial < kTrials; ++trial) {
        auto a = Clock::now();
        for (int round = 0; round < kRounds; ++round) {
            for (std::size_t i = 0; i < kKeys; ++i) scalar[i] = indexer.digest(0, views[i]);
        }
        auto b = Clock::now();
        single_ns.push_back(std::chrono::duration<double, std::nano>(b - a).count() /
                            static_cast<double>(kKeys * kRounds));
        a = Clock::now();
        for (int round = 0; round < kRounds; ++round) {
            for (std::size_t i = 0; i < kKeys; i += kBatch) {
                indexer.digest_multi(0, views.data() + i, std::min(kBatch, kKeys - i),
                                     multi.data() + i);
            }
        }
        b = Clock::now();
        multi_ns.push_back(std::chrono::duration<double, std::nano>(b - a).count() /
                           static_cast<double>(kKeys * kRounds));
        timing.identical = timing.identical && scalar == multi;
    }
    std::sort(single_ns.begin(), single_ns.end());
    std::sort(multi_ns.begin(), multi_ns.end());
    timing.ns_per_key = single_ns[kTrials / 2];
    timing.ns_per_key_multi = multi_ns[kTrials / 2];
    return timing;
}

// ---------------------------------------------------------------------------
// Modes

struct Args {
    std::string mode;
    std::map<std::string, std::string> options;

    [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const {
        const auto it = options.find(key);
        return it == options.end() ? fallback : it->second;
    }
    [[nodiscard]] u64 get_u64(const std::string& key, u64 fallback) const {
        const auto it = options.find(key);
        return it == options.end() ? fallback : std::strtoull(it->second.c_str(), nullptr, 10);
    }
};

Args parse_args(int argc, char** argv) {
    if (argc < 2) die("usage: flowbench run|trace|paper|list [--key value]...");
    Args args;
    args.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag.rfind("--", 0) != 0 || i + 1 >= argc) die("bad argument '" + flag + "'");
        args.options[flag.substr(2)] = argv[++i];
    }
    return args;
}

const Workload& workload_arg(const Args& args) {
    const Workload* w = find_workload(args.get("workload", ""));
    if (w == nullptr) die("unknown --workload '" + args.get("workload", "") + "'");
    return *w;
}

int mode_run(const Args& args) {
    const Workload& w = workload_arg(args);
    const u64 seed = args.get_u64("seed", 2014);
    const u64 packets = args.get_u64("packets", w.packets);
    // The reference brackets the run on the same CPU, in the same process.
    const double ref_before = reference_ns_per_step();
    const PassResult pass = run_pass(w, seed, packets, false);
    const double ref_after = reference_ns_per_step();

    Json out;
    out.str("mode", "run")
        .str("workload", w.name)
        .num("seed", seed)
        .num("packets", packets)
        .num("setup_s", pass.setup_s)
        .num("run_s", pass.run_s)
        .num("cpu_s", pass.cpu_s)
        .num("ref_ns_per_step", (ref_before + ref_after) / 2.0)
        .num("peak_rss_b", peak_rss_bytes())
        .raw("sim", workload::metrics_json_object(pass.metrics));
    std::cout << out.text() << "\n";
    return 0;
}

std::string replay_json(const ReplayResult& r, double overhead_ns) {
    const auto ctrl_sum = [&](u64 dram::ControllerStats::* field) {
        return r.ctrl[0].*field + r.ctrl[1].*field;
    };
    Json out;
    out.num("cycles", r.cycles)
        .num("packets", r.packets)
        .num("completions", r.completions)
        .num("audit", r.audit)
        .boolean("drained", r.drained)
        .num("wall_s", r.wall_s)
        .num("stepped", r.stepped)
        .num("skipped", r.skipped)
        .num("ctrl_ticks", r.ctrl_ticks)
        .num("stalled_ticks", r.stalled_ticks)
        .num("source_s", r.source.seconds(overhead_ns))
        .num("offer_s", r.offer.seconds(overhead_ns))
        .num("dram_s", r.dram.seconds(overhead_ns))
        .num("core_s", r.core.seconds(overhead_ns))
        .num("pop_s", r.pop.seconds(overhead_ns))
        .num("row_hits", ctrl_sum(&dram::ControllerStats::row_hits))
        .num("row_misses", ctrl_sum(&dram::ControllerStats::row_misses))
        .num("row_conflicts", ctrl_sum(&dram::ControllerStats::row_conflicts))
        .num("activates", ctrl_sum(&dram::ControllerStats::activates))
        .num("rw_turnarounds", ctrl_sum(&dram::ControllerStats::rw_turnarounds))
        .num("requests_a", r.ctrl[0].reads_accepted + r.ctrl[0].writes_accepted)
        .num("requests_b", r.ctrl[1].reads_accepted + r.ctrl[1].writes_accepted);
    return out.text();
}

int mode_trace(const Args& args) {
    const Workload& w = workload_arg(args);
    const u64 seed = args.get_u64("seed", 2014);
    const u64 packets = args.get_u64("packets", w.packets);
    const double overhead_ns = clock_overhead_ns();

    // (a) runner path, every draw timed, recorder on.
    const PassResult pass = run_pass(w, seed, packets, true);
    Json out;
    out.str("mode", "trace")
        .str("workload", w.name)
        .num("seed", seed)
        .num("packets", packets)
        .num("clock_overhead_ns", overhead_ns)
        .num("setup_s", pass.setup_s)
        .num("run_s", pass.run_s)
        .num("cpu_s", pass.cpu_s)
        .num("draws", pass.draws)
        .num("source_s", pass.source.seconds(overhead_ns))
        .raw("sim", workload::metrics_json_object(pass.metrics));

    // (b) FlowLut-level replay against plain step() on the same stream.
    if (w.flowlut_replay) {
        const ReplayResult plain = replay_flowlut<false>(w, seed, packets);
        const ReplayResult traced = replay_flowlut<true>(w, seed, packets);
        const bool same_stats =
            std::memcmp(&plain.stats, &traced.stats, sizeof(core::FlowLutStats)) == 0;
        out.raw("replay", replay_json(traced, overhead_ns))
            .num("plain_wall_s", plain.wall_s)
            .boolean("replay_matches_step", plain.cycles == traced.cycles && same_stats &&
                                                plain.completions == traced.completions &&
                                                plain.stepped == traced.stepped &&
                                                plain.skipped == traced.skipped)
            .num("plain_audit", plain.audit)
            .boolean("plain_drained", plain.drained);
    }

    // (c) hash layer.
    const HashTiming hash = time_hash(w, seed);
    out.num("hash_ns_per_key", hash.ns_per_key)
        .num("hash_ns_per_key_multi", hash.ns_per_key_multi)
        .boolean("hash_multi_identical", hash.identical);
    std::cout << out.text() << "\n";
    return 0;
}

struct Table2Row {
    std::string name;
    double sim;
    double paper;
};

/// Table II(A)/(B) through bench_util.hpp's pattern runners, with the
/// configurations of bench_table2a_load_balance / bench_table2b_miss_rate.
/// shift = 0 reproduces those benches' pattern seeds exactly; any other value
/// adds itself to every pattern seed.
std::vector<Table2Row> table2_rows(u64 shift) {
    constexpr u64 kDescriptors = 10000;
    std::vector<Table2Row> rows;
    const auto config_2a = [](core::BalancePolicy policy, double weight_a) {
        core::FlowLutConfig config;
        config.buckets_per_mem = u64{1} << 16;
        config.ways = 4;
        config.cam_capacity = 2048;
        config.balance = policy;
        config.weight_a = weight_a;
        return config;
    };
    {
        Xoshiro256 pattern_rng(2014 + shift);
        core::FlowLut lut(config_2a(core::BalancePolicy::kHashBit, 0.5));
        const u64 buckets = lut.config().buckets_per_mem;
        const auto result = bench::run_raw_pattern(
            lut, [&](u64) { return pattern_rng.bounded(buckets); }, kDescriptors, 1 + shift);
        rows.push_back({"II(A) random hash", result.mdesc_per_s, 44.05});
    }
    for (const auto& [weight, paper] :
         std::vector<std::pair<double, double>>{{0.5, 44.59}, {0.25, 41.09}, {0.0, 36.53}}) {
        core::FlowLut lut(config_2a(core::BalancePolicy::kWeightedHash, weight));
        const auto result =
            bench::run_raw_pattern(lut, [](u64 i) { return i; }, kDescriptors, 2 + shift);
        rows.push_back({"II(A) bank increment, path-A weight " + workload::shortest_double(weight),
                        result.mdesc_per_s, paper});
    }
    for (const auto& [miss, paper] : std::vector<std::pair<double, double>>{
             {1.0, 46.90}, {0.75, 54.97}, {0.5, 70.16}, {0.25, 94.36}, {0.0, 96.92}}) {
        core::FlowLutConfig config;
        config.buckets_per_mem = u64{1} << 14;
        config.ways = 4;
        config.cam_capacity = 2048;
        core::FlowLut lut(config);
        bench::MissRateWorkload workload(lut, 10000, 1.0 - miss, 42 + shift);
        const auto result = bench::run_throughput(
            lut, [&](u64 i) { return workload(i); }, kDescriptors, 2);
        rows.push_back({"II(B) miss rate " + workload::shortest_double(miss), result.mdesc_per_s,
                        paper});
    }
    return rows;
}

/// Pattern-seed sets each Table II row is averaged over.
constexpr u64 kPaperSets = 4;

/// The 9 Table II rows, each simulated value the mean over kPaperSets
/// pattern-seed sets (set k shifts the pattern seeds by (seed - 2014) +
/// k * 2^32, so set 0 at seed 2014 is exactly the benches' stimulus), and the
/// mean absolute percentage error of those values against the paper.
int mode_paper(const Args& args) {
    const u64 seed = args.get_u64("seed", 2014);
    std::vector<Table2Row> rows;
    for (u64 k = 0; k < kPaperSets; ++k) {
        // Unsigned wrap-around for seeds below 2014 still yields a valid seed.
        const std::vector<Table2Row> set = table2_rows(seed - 2014 + (k << 32));
        if (rows.empty()) {
            rows = set;
            for (Table2Row& row : rows) row.sim = 0.0;
        }
        for (std::size_t i = 0; i < rows.size(); ++i) {
            rows[i].sim += set[i].sim / static_cast<double>(kPaperSets);
        }
    }

    std::vector<std::string> items;
    double err_sum = 0.0;
    for (const Table2Row& row : rows) {
        const double err = std::abs(row.sim - row.paper) / row.paper * 100.0;
        err_sum += err;
        Json item;
        item.str("row", row.name)
            .num("sim_mdesc_per_s", row.sim)
            .num("paper_mdesc_per_s", row.paper)
            .num("abs_err_pct", err);
        items.push_back(item.text());
    }
    Json out;
    out.str("mode", "paper")
        .num("seed", seed)
        .num("sets", kPaperSets)
        .raw("rows", json_array(items))
        .num("paper_err_pct", err_sum / static_cast<double>(rows.size()));
    std::cout << out.text() << "\n";
    return 0;
}

int mode_list() {
    std::vector<std::string> items;
    for (const Workload& w : workloads()) {
        Json row;
        row.str("name", w.name)
            .str("spec", w.spec)
            .num("packets", w.packets)
            .boolean("flowlut_replay", w.flowlut_replay);
        items.push_back(row.text());
    }
    Json out;
    out.raw("workloads", json_array(items))
        .str("compiler", FLOWBENCH_COMPILER)
        .str("build_type", FLOWBENCH_BUILD_TYPE);
    std::cout << out.text() << "\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    if (args.mode == "run") return mode_run(args);
    if (args.mode == "trace") return mode_trace(args);
    if (args.mode == "paper") return mode_paper(args);
    if (args.mode == "list") return mode_list();
    die("unknown mode '" + args.mode + "'");
}
