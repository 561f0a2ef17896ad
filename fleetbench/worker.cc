// fleetbench_worker: one iteration of one fleet benchmark workload.
//
// Each iteration runs in its own process, so the peak resident memory it
// reports belongs to that iteration alone. The worker drives the simulator
// only through its public API (ShardedFleet, ShardedSimulation,
// AdversaryExperiment, BaseImage, AcquireDistributionImage, KvStore,
// Sha256, TraceRecorder/MetricsRegistry) and times each call from outside.
// It prints one JSON object of raw measurements on stdout, written with the
// benches' JsonWriter; run.py in this directory aggregates iterations, runs
// the output checks and prints the metrics.
//
// Usage:
//   fleetbench_worker --workload=churn_serial|crossed_4t|adversary_mixed
//                     --seed=S [--n=N] [--threads=T] [--full-recompute]
//                     [--traced] [--ckpt=PATH]
//   fleetbench_worker --prepare-ckpt=PATH
//
// --traced enables the program's own self-profile (metrics registry and
// trace recording with record_wall_time) and adds the traced fields. A
// traced iteration's trace and metrics bytes carry wall-clock content, so
// its digest is not comparable to an untraced one.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "bench/bench_stats.h"
#include "src/adversary/experiment.h"
#include "src/core/fleet.h"
#include "src/crypto/sha256.h"
#include "src/store/image_checkpoint.h"
#include "src/store/kv_store.h"
#include "src/util/thread_pool.h"

#ifndef FLEETBENCH_BUILD_TYPE
#define FLEETBENCH_BUILD_TYPE "unknown"
#endif

using namespace nymix;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

uint64_t CurrentRssKb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) / 1024;
}

uint64_t PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss);  // KiB on Linux
}

// One key/value pair of the record each worker prints.
void Num(JsonWriter& rec, std::string_view key, double value) {
  rec.Key(key);
  rec.Number(value);
}

void Int(JsonWriter& rec, std::string_view key, uint64_t value) {
  rec.Key(key);
  rec.Number(value);
}

void Str(JsonWriter& rec, std::string_view key, std::string_view value) {
  rec.Key(key);
  rec.String(value);
}

void Array(JsonWriter& rec, std::string_view key, const std::vector<double>& values) {
  rec.Key(key);
  rec.BeginArray();
  for (double value : values) {
    rec.Number(value);
  }
  rec.EndArray();
}

// Percentile summary of one per-call timing: the median, and the highest
// sample that still has at least ten samples beyond it (the maximum when
// there are fewer than eleven).
void EmitSamples(JsonWriter& rec, const std::string& name, std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  double sum = 0;
  for (double s : samples) {
    sum += s;
  }
  Num(rec, name + ".p50", n == 0 ? 0 : samples[n / 2]);
  Num(rec, name + ".tail", n == 0 ? 0 : samples[n >= 11 ? n - 11 : n - 1]);
  Int(rec, name + ".n", n);
  Num(rec, name + ".sum", sum);
}

// Same summary from a log-bucket histogram (its ~4.5% bucket error).
void EmitHistogram(JsonWriter& rec, const std::string& name, const Histogram& h) {
  const uint64_t n = h.count();
  const double tail_pct =
      n >= 11 ? 100.0 * static_cast<double>(n - 10) / static_cast<double>(n) : 100.0;
  Num(rec, name + ".p50", h.Percentile(50));
  Num(rec, name + ".tail", h.Percentile(tail_pct));
  Int(rec, name + ".n", n);
}

// The program's own self-profile, summed over shards in shard-id order.
void EmitTraced(JsonWriter& rec, ShardedSimulation& sharded) {
  std::vector<double> ksm_scan_us;
  std::map<std::string, uint64_t> counters;
  Histogram event_wall_ns;
  Histogram nym_startup_us;
  for (int s = 0; s < sharded.shard_count(); ++s) {
    const Observability& obs = sharded.shard_obs(s);
    for (const TraceRecorder::Event& e : obs.trace.events()) {
      if (e.phase == 'X' && e.name == "ksm_scan" && e.wall_us >= 0) {
        ksm_scan_us.push_back(e.wall_us);
      }
    }
    for (const auto& [name, counter] : obs.metrics.counters()) {
      counters[name] += counter.value();
    }
    const auto& histograms = obs.metrics.histograms();
    if (auto it = histograms.find("core.event_loop.event_wall_ns"); it != histograms.end()) {
      event_wall_ns.MergeFrom(it->second);
    }
    if (auto it = histograms.find("core.nym_startup_us"); it != histograms.end()) {
      nym_startup_us.MergeFrom(it->second);
    }
  }
  EmitSamples(rec, "ksm_scan_us", std::move(ksm_scan_us));
  EmitHistogram(rec, "event_wall_ns", event_wall_ns);
  EmitHistogram(rec, "nym_startup_us", nym_startup_us);
  for (const char* name :
       {"anon.tor.circuits_built", "anon.tor.circuit_cells", "net.flows_started",
        "net.flow_wire_bytes", "hv.ksm.passes", "core.event_loop.callback_node_reuses",
        "core.event_loop.callback_node_allocs"}) {
    Int(rec, name, counters[name]);
  }
}

void EmitExecutor(JsonWriter& rec, ShardedSimulation& sharded) {
  uint64_t full = 0;
  uint64_t component = 0;
  uint64_t skips = 0;
  for (int s = 0; s < sharded.shard_count(); ++s) {
    FlowScheduler& flows = sharded.shard(s).flows();
    full += flows.waterfills_full();
    component += flows.waterfills_component();
    skips += flows.waterfill_skips();
  }
  Int(rec, "waterfills_full", full);
  Int(rec, "waterfills_component", component);
  Int(rec, "waterfill_skips", skips);
  Int(rec, "threads", static_cast<uint64_t>(sharded.thread_count()));
  Int(rec, "epochs", sharded.epochs());
  Int(rec, "cross_deliveries", sharded.cross_deliveries());
  // The executor creates its parallel.* instruments at construction.
  EmitHistogram(rec, "barrier_wait_ms",
                sharded.executor_metrics().histograms().at("parallel.barrier_wait_ms"));
  Num(rec, "shard_skew_events", sharded.shard_skew_events_mean());
  Num(rec, "outbox_depth", sharded.outbox_depth_max());
}

void EmitFleet(JsonWriter& rec, const ShardedFleet& fleet) {
  Int(rec, "events", fleet.events_executed());
  Int(rec, "visits", fleet.visits());
  Int(rec, "churns", fleet.churns());
  Int(rec, "cloud_fetches", fleet.cloud_fetches());
  Int(rec, "visit_failures", fleet.visit_failures());
  Int(rec, "create_failures", fleet.create_failures());
  Int(rec, "slots_abandoned", fleet.slots_abandoned());
  Int(rec, "ksm_memories_merged", fleet.ksm_memories_merged());
  Int(rec, "ksm_memories_skipped", fleet.ksm_memories_skipped());
  Int(rec, "ksm_pages_sharing", fleet.ksm_pages_sharing());
}

struct Args {
  std::string workload;
  uint64_t seed = 13;
  int n = 0;        // 0 = the workload's own size
  int threads = 0;  // 0 = the workload's own thread count
  bool full_recompute = false;
  bool traced = false;
  std::string ckpt;
  std::string prepare_ckpt;
};

// Per-call wall timings in ms, one sample per call, emitted as arrays.
class Timings {
 public:
  // Times `fn()` under `name` and returns its result.
  template <typename Fn>
  auto Time(const std::string& name, Fn&& fn) {
    Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      samples_[name].push_back(MsSince(start));
    } else {
      auto result = fn();
      samples_[name].push_back(MsSince(start));
      return result;
    }
  }
  void Emit(JsonWriter& rec) const {
    for (const auto& [name, values] : samples_) {
      Array(rec, name, values);
    }
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

// Setup is short and noisy, so each iteration sets the workload up
// kSetupRepeats times (tearing the previous one down first) and runs the
// last; setup_s carries every setup's seconds.
constexpr int kSetupRepeats = 5;

// Setup/run phase bookkeeping shared by the three workloads.
class Phases {
 public:
  template <typename Build>
  auto SetUp(Build&& build) {
    decltype(build()) setup;
    for (int i = 0; i < kSetupRepeats; ++i) {
      setup = nullptr;
      setup_start_ = Clock::now();
      setup = build();
      if (setup == nullptr) {
        break;
      }
      setups_s_.push_back(SecondsBetween(setup_start_, Clock::now()));
    }
    return setup;
  }
  void BeginRun() {
    rss_after_setup_kb_ = CurrentRssKb();
    cpu_start_ = ProcessCpuSeconds();
    run_start_ = Clock::now();
  }
  void EndRun() {
    run_end_ = Clock::now();
    cpu_run_s_ = ProcessCpuSeconds() - cpu_start_;
  }
  // wall_s runs from the start of the kept setup to now.
  void Emit(JsonWriter& rec, int n) const {
    Int(rec, "n", static_cast<uint64_t>(n));
    Array(rec, "setup_s", setups_s_);
    Num(rec, "run_s", SecondsBetween(run_start_, run_end_));
    Num(rec, "wall_s", SecondsBetween(setup_start_, Clock::now()));
    Num(rec, "cpu_run_s", cpu_run_s_);
    Int(rec, "rss_after_setup_kb", rss_after_setup_kb_);
    Int(rec, "peak_rss_kb", PeakRssKb());
  }

 private:
  std::vector<double> setups_s_;
  Clock::time_point setup_start_;
  Clock::time_point run_start_;
  Clock::time_point run_end_;
  uint64_t rss_after_setup_kb_ = 0;
  double cpu_start_ = 0;
  double cpu_run_s_ = 0;
};

constexpr int kChurnSerialN = 256;
constexpr int kCrossedN = 256;
constexpr int kCrossedShards = 8;
constexpr int kCrossedThreads = 4;
constexpr int kAdversaryN = 128;
constexpr int kAdversaryShards = 4;

FleetOptions FleetShape(int n) {
  FleetOptions options;
  options.nym_count = n;
  options.nyms_per_host = 8;
  options.visits_per_generation = 2;
  options.generations = 2;
  return options;
}

// A built fleet workload; members are destroyed fleet first.
struct FleetSetup {
  std::unique_ptr<KvStore> store;
  std::unique_ptr<ShardedSimulation> sharded;
  std::unique_ptr<ShardedFleet> fleet;
};

int ChurnSerial(const Args& args, JsonWriter& rec) {
  const int n = args.n > 0 ? args.n : kChurnSerialN;
  Phases phases;
  Timings timings;
  std::unique_ptr<FleetSetup> setup = phases.SetUp([&] {
    auto built = std::make_unique<FleetSetup>();
    FleetOptions options = FleetShape(n);
    options.full_recompute = args.full_recompute;
    options.images.push_back(timings.Time("image_build_ms", [] {
      return BaseImage::CreateDistribution(kFleetImageName, kFleetImageSeed,
                                           kFleetImageSizeBytes);
    }));
    built->sharded = std::make_unique<ShardedSimulation>(args.seed, ShardPlan{1, 1});
    if (args.traced) {
      built->sharded->EnableObservability(/*record_wall_time=*/true);
    }
    built->fleet = timings.Time("fleet_build_ms", [&] {
      return std::make_unique<ShardedFleet>(*built->sharded, options, args.seed);
    });
    return built;
  });
  ShardedFleet& fleet = *setup->fleet;

  phases.BeginRun();
  fleet.Run();
  phases.EndRun();

  FleetKsmStats ksm = timings.Time("ksm_reconcile_ms", [&] { return fleet.ReconcileKsm(); });
  phases.Emit(rec, n);
  timings.Emit(rec);
  Int(rec, "fleet_pages_sharing", ksm.pages_sharing);
  EmitFleet(rec, fleet);
  EmitExecutor(rec, *setup->sharded);
  if (args.traced) {
    EmitTraced(rec, *setup->sharded);
  }
  return 0;
}

int Crossed(const Args& args, JsonWriter& rec) {
  const int n = args.n > 0 ? args.n : kCrossedN;
  const int threads = args.threads > 0 ? args.threads : kCrossedThreads;
  if (args.ckpt.empty()) {
    std::fprintf(stderr, "fleetbench_worker: crossed_4t needs --ckpt=PATH\n");
    return 2;
  }
  Phases phases;
  Timings timings;
  std::unique_ptr<FleetSetup> setup = phases.SetUp([&]() -> std::unique_ptr<FleetSetup> {
    auto built = std::make_unique<FleetSetup>();
    FleetOptions options = FleetShape(n);
    options.topology = FleetTopology::kCrossed;
    Status restored = timings.Time("image_restore_ms", [&]() -> Status {
      Result<KvStore> store = KvStore::Load(args.ckpt);
      if (!store.ok()) {
        return store.status();
      }
      built->store = std::make_unique<KvStore>(std::move(*store));
      // One image object per shard: the Merkle-verification memo is per
      // object and must not be shared by shards running concurrently.
      for (int s = 0; s < kCrossedShards; ++s) {
        auto image = AcquireDistributionImage(*built->store, kFleetImageName, kFleetImageSeed,
                                              kFleetImageSizeBytes);
        if (!image.ok()) {
          return image.status();
        }
        options.images.push_back(std::move(*image));
      }
      return Status::Ok();
    });
    if (!restored.ok()) {
      std::fprintf(stderr, "fleetbench_worker: %s\n", restored.ToString().c_str());
      return nullptr;
    }
    built->sharded = std::make_unique<ShardedSimulation>(args.seed,
                                                         ShardPlan{kCrossedShards, threads});
    built->sharded->EnableObservability(/*record_wall_time=*/args.traced);
    built->fleet = timings.Time("fleet_build_ms", [&] {
      return std::make_unique<ShardedFleet>(*built->sharded, options, args.seed);
    });
    return built;
  });
  if (setup == nullptr) {
    return 1;
  }
  ShardedSimulation& sharded = *setup->sharded;
  ShardedFleet& fleet = *setup->fleet;

  phases.BeginRun();
  fleet.Run();
  phases.EndRun();

  FleetKsmStats ksm = timings.Time("ksm_reconcile_ms", [&] { return fleet.ReconcileKsm(); });
  timings.Time("merge_ms", [&] { sharded.MergeObservability(); });
  std::string trace =
      timings.Time("trace_encode_ms", [&] { return sharded.merged().trace.ToChromeJson(); });
  std::string metrics = timings.Time("metrics_encode_ms", [&] {
    std::ostringstream out;
    sharded.merged().metrics.WriteJson(out);
    return out.str();
  });
  std::string digest = timings.Time("digest_ms", [&] {
    Sha256 hasher;
    hasher.Update(ByteSpan(reinterpret_cast<const uint8_t*>(trace.data()), trace.size()));
    hasher.Update(ByteSpan(reinterpret_cast<const uint8_t*>(metrics.data()), metrics.size()));
    return HexEncode(DigestToBytes(hasher.Finish()));
  });
  Status saved = timings.Time("checkpoint_save_ms", [&] { return setup->store->Save(args.ckpt); });
  if (!saved.ok()) {
    std::fprintf(stderr, "fleetbench_worker: %s\n", saved.ToString().c_str());
    return 1;
  }
  phases.Emit(rec, n);
  timings.Emit(rec);
  Int(rec, "trace_bytes", trace.size());
  Int(rec, "digest_bytes", trace.size() + metrics.size());
  Int(rec, "checkpoint_bytes", setup->store->log().size());
  Str(rec, "digest", digest);
  Int(rec, "fleet_pages_sharing", ksm.pages_sharing);
  EmitFleet(rec, fleet);
  EmitExecutor(rec, sharded);
  if (args.traced) {
    EmitTraced(rec, sharded);
  }
  return 0;
}

// A built adversary workload; the experiment is destroyed first.
struct AdversarySetup {
  std::unique_ptr<ShardedSimulation> sharded;
  std::unique_ptr<AdversaryExperiment> experiment;
};

int Adversary(const Args& args, JsonWriter& rec) {
  const int n = args.n > 0 ? args.n : kAdversaryN;
  const int threads = args.threads > 0 ? args.threads : 1;
  AdversaryOptions options;
  options.nym_count = n;
  options.nyms_per_host = 2;
  options.generations = 3;
  options.workload = WorkloadMix::kMixed;
  options.plant = LeakPlant::kNone;
  Phases phases;
  Timings timings;
  std::unique_ptr<AdversarySetup> setup = phases.SetUp([&] {
    auto built = std::make_unique<AdversarySetup>();
    built->sharded = std::make_unique<ShardedSimulation>(args.seed,
                                                         ShardPlan{kAdversaryShards, threads});
    if (args.traced) {
      built->sharded->EnableObservability(/*record_wall_time=*/true);
    }
    built->experiment = timings.Time("fleet_build_ms", [&] {
      return std::make_unique<AdversaryExperiment>(*built->sharded, options, args.seed);
    });
    return built;
  });
  ShardedSimulation& sharded = *setup->sharded;
  AdversaryExperiment& experiment = *setup->experiment;

  phases.BeginRun();
  experiment.Run();
  phases.EndRun();

  AdversaryReport report = timings.Time("analyze_ms", [&] { return experiment.Analyze(); });
  phases.Emit(rec, n);
  timings.Emit(rec);
  uint64_t events = 0;
  for (int s = 0; s < sharded.shard_count(); ++s) {
    events += sharded.shard(s).loop().events_executed();
  }
  Int(rec, "events", events);
  Int(rec, "visits", experiment.visits());
  Int(rec, "churns", experiment.churns());
  Int(rec, "nym_instances", report.nym_instances);
  Int(rec, "entry_flows", report.entry_flows);
  Int(rec, "exit_flows", report.exit_flows);
  Int(rec, "tap_packets", report.tap_packets);
  Int(rec, "tap_bytes", report.tap_bytes);
  Num(rec, "advantage", report.linkage.advantage);
  Num(rec, "linkage_probability", report.linkage.linkage_probability);
  Num(rec, "anonymity_min", report.anonymity.min_set);
  Num(rec, "anonymity_mean", report.anonymity.mean_set);
  Int(rec, "anonymity_samples", report.anonymity.samples);
  Num(rec, "flowcorr_accuracy", report.correlation.accuracy);
  Int(rec, "flowcorr_matched_correct", report.correlation.matched_correct);
  Int(rec, "flowcorr_matched_wrong", report.correlation.matched_wrong);
  Int(rec, "flowcorr_ambiguous", report.correlation.ambiguous);
  Int(rec, "flowcorr_unmatched", report.correlation.unmatched);
  EmitExecutor(rec, sharded);
  if (args.traced) {
    EmitTraced(rec, sharded);
  }
  return 0;
}

// Cold-builds the distribution image once and checkpoints it, so that
// crossed_4t iterations measure the restore path.
int PrepareCheckpoint(const std::string& path) {
  KvStore store;
  auto image =
      AcquireDistributionImage(store, kFleetImageName, kFleetImageSeed, kFleetImageSizeBytes);
  if (!image.ok()) {
    std::fprintf(stderr, "fleetbench_worker: %s\n", image.status().ToString().c_str());
    return 1;
  }
  Status saved = store.Save(path);
  if (!saved.ok()) {
    std::fprintf(stderr, "fleetbench_worker: %s\n", saved.ToString().c_str());
    return 1;
  }
  return 0;
}

int Usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: fleetbench_worker --workload=churn_serial|crossed_4t|adversary_mixed\n"
               "                         --seed=S [--n=N] [--threads=T] [--full-recompute]\n"
               "                         [--traced] [--ckpt=PATH]\n"
               "       fleetbench_worker --prepare-ckpt=PATH\n");
  return code;
}

bool ParseInt(const std::string& text, uint64_t max, uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  try {
    out = std::stoull(text);
  } catch (const std::out_of_range&) {
    return false;
  }
  return out <= max;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const bool has_value = eq != std::string::npos;
    uint64_t number = 0;
    if (arg == "--help") {
      return Usage(0);
    } else if (key == "--workload" && has_value) {
      args.workload = value;
    } else if (key == "--seed" && has_value && ParseInt(value, UINT64_MAX, number)) {
      args.seed = number;
    } else if (key == "--n" && has_value && ParseInt(value, 1 << 20, number) && number > 0) {
      args.n = static_cast<int>(number);
    } else if (key == "--threads" && has_value && ParseInt(value, 64, number) && number > 0) {
      args.threads = static_cast<int>(number);
    } else if (key == "--ckpt" && has_value && !value.empty()) {
      args.ckpt = value;
    } else if (key == "--prepare-ckpt" && has_value && !value.empty()) {
      args.prepare_ckpt = value;
    } else if (arg == "--full-recompute") {
      args.full_recompute = true;
    } else if (arg == "--traced") {
      args.traced = true;
    } else {
      std::fprintf(stderr, "fleetbench_worker: bad argument \"%s\"\n", arg.c_str());
      return Usage(2);
    }
  }
  if (!args.prepare_ckpt.empty()) {
    return PrepareCheckpoint(args.prepare_ckpt);
  }

  // The record is one compact JSON line.
  std::ostringstream out;
  JsonWriter rec(out);
  rec.BeginObject(JsonWriter::kCompact);
  Str(rec, "workload", args.workload);
  Int(rec, "seed", args.seed);
  Int(rec, "hardware_threads", static_cast<uint64_t>(ThreadPool::HardwareThreads()));
  Str(rec, "build_type", FLEETBENCH_BUILD_TYPE);
  Int(rec, "traced", args.traced ? 1 : 0);
  int code = 0;
  if (args.workload == "churn_serial") {
    code = ChurnSerial(args, rec);
  } else if (args.workload == "crossed_4t") {
    code = Crossed(args, rec);
  } else if (args.workload == "adversary_mixed") {
    code = Adversary(args, rec);
  } else {
    std::fprintf(stderr, "fleetbench_worker: unknown workload \"%s\"\n", args.workload.c_str());
    return Usage(2);
  }
  if (code == 0) {
    rec.EndObject();
    std::printf("%s\n", out.str().c_str());
  }
  return code;
}
