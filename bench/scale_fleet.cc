// Fleet-scale wall-clock benchmark: how fast does the simulator itself run
// as the modeled deployment grows? N nyms are spread over N/8 hosts (the
// §5.2 16 GB desktop comfortably fits 8 nymboxes), each host with live KSM
// scanning, a private test Tor deployment, and a Tor-fetch browsing
// workload with nym churn (terminate + replace). This is the harness for
// the incremental hot paths (docs/performance.md): closed-form KSM scans,
// dirty-driven fair-share rescheduling, and the event-loop node pool.
// Every point, serial or threaded, is one ShardedFleet run (src/core/fleet.h)
// with the FleetOptions defaults; the serial series runs it at
// ShardPlan{1, 1}.
//
// Usage (--help prints it; an unknown flag or bad value exits 2):
//   scale_fleet [--n=8,64,256,1024] [--mode=both|incremental|full]
//               [--out=BENCH_scale.json] [--seed=13]
//               [--threads=1,8] [--shards=8] [--topology=isolated|crossed]
//               [--warm-start[=CKPT]] [--stats-out=...] [--trace-out=...]
//               [--trace-format=json|nbt]
//
// --warm-start restores every fleet's base images from a deterministic
// image checkpoint (src/store) instead of rebuilding them — O(changed):
// only an image whose (name, seed, size) identity is missing from the
// checkpoint gets cold-built (and written back, so the next run is warm).
// The checkpoint file defaults to BENCH_scale.ckpt. Image content is a
// pure function of its identity, so warm and cold runs produce
// byte-identical traces — CI's warm-start smoke compares the SHA-256s.
// Each run records "checkpoint_restore_ms" (time spent in the restore
// path) and each threaded point records "trace_encode_ms" (trace
// serialization cost); tools/bench_diff.py gates both warn-only.
//
// --mode=both (default) runs every N in both modes (FleetOptions::
// full_recompute false/true) and reports the wall-clock speedup;
// --mode=full runs only the pre-incremental recompute-the-world
// reference. Virtual-time results are
// mode-independent: the incremental paths are exact, so a --trace-out from
// an incremental run is byte-identical to one from a full run (asserted by
// tests/determinism_test.cc).
//
// --threads=T1,T2,... additionally runs each N through the sharded
// parallel executor (src/parallel) at each thread count, with --shards
// fixing the partition (default 8). Every threaded point records a SHA-256
// of its merged trace and metrics dump; the bench FAILS (exit 1) if any
// two thread counts disagree for the same N — that is the executor's
// byte-identity contract, checked on every bench run. The fleet KSM
// reconcile (fleet_pages_sharing, cross_host_extra_sharing) is gated the
// same way across thread counts and between the modes of --mode=both.
// The JSON gains "threaded", "threads_speedup" and "hardware_threads" entries;
// tools/bench_diff.py gates the speedup only when the recorded hardware
// actually has the cores to show one.
//
// --topology=crossed runs the threaded series over the cross-shard fleet
// workload (src/core/fleet.h, FleetTopology::kCrossed): every page visit is
// followed by a windowed cloud fetch served from the next shard over a
// CrossShardChannel ring, so the executor's adaptive horizons, mailboxes
// and placement actually get exercised (cross_deliveries > 0, epochs > 1).
// Each n first runs a serial calibration pass whose observed per-host
// weights feed BalancedPlacement; the resulting placement is shared by
// every thread count of that n. Threaded rows gain "topology",
// "cloud_fetches" and the parallel.* executor columns (barrier_wait_ms,
// shard_skew_events, outbox_depth).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_stats.h"
#include "src/core/fleet.h"
#include "src/crypto/sha256.h"
#include "src/store/file_io.h"
#include "src/store/image_checkpoint.h"
#include "src/store/kv_store.h"
#include "src/util/bytes.h"
#include "src/util/thread_pool.h"

using namespace nymix;

namespace {

// One measured fleet run, serial or threaded. Every run fills every field;
// WriteJson emits the serial columns for the incremental/full series and
// the threaded columns for the threaded one.
struct PointResult {
  int n = 0;
  int shards = 0;
  int threads = 0;
  double wall_seconds = 0;
  uint64_t events = 0;
  double events_per_sec = 0;
  double sim_seconds = 0;
  uint64_t visits = 0;
  uint64_t churns = 0;
  uint64_t waterfills_full = 0;
  uint64_t waterfills_component = 0;
  uint64_t waterfill_skips = 0;
  uint64_t ksm_memories_merged = 0;
  uint64_t ksm_memories_skipped = 0;
  uint64_t ksm_pages_sharing = 0;
  double checkpoint_restore_ms = 0;

  uint64_t epochs = 0;
  uint64_t cross_deliveries = 0;
  uint64_t cloud_fetches = 0;
  uint64_t fleet_pages_sharing = 0;
  uint64_t cross_host_extra_sharing = 0;
  // parallel.* executor self-metrics (see sharded_sim.h) — wall-clock and
  // load-shape diagnostics, reported per point, never part of the digests.
  double barrier_wait_ms = 0;
  double shard_skew_events = 0;
  double outbox_depth = 0;
  // Set only for observed runs.
  std::string trace_sha256;
  std::string stats_sha256;
  double trace_encode_ms = 0;
};

// Warm-start context: the deterministic image checkpoint store, loaded
// once per process and saved back after any cold build refreshed it.
struct WarmStart {
  bool enabled = false;
  std::string path = "BENCH_scale.ckpt";
  KvStore store;
};

// Restores (or on a miss builds + checkpoints) one distribution image per
// requested copy. Each copy decodes to a distinct object: shards must not
// share an image (the Merkle-verification memo is per object and two
// shards verifying concurrently must not race on it). Returns the wall
// milliseconds spent, which is the "checkpoint_restore_ms" column.
double AcquireWarmImages(WarmStart& warm, int copies,
                         std::vector<std::shared_ptr<BaseImage>>& out) {
  // nymlint:allow(determinism-wallclock): restore cost is the measurement; it never feeds virtual time
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < copies; ++i) {
    auto image = AcquireDistributionImage(warm.store, kFleetImageName, kFleetImageSeed,
                                          kFleetImageSizeBytes);
    NYMIX_CHECK_MSG(image.ok(), image.status().ToString().c_str());
    out.push_back(std::move(*image));
  }
  // nymlint:allow(determinism-wallclock): restore cost is the measurement; it never feeds virtual time
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// Crossed topology only: a serial calibration run (threads=1, no
// observability) whose per-host activity weights feed BalancedPlacement.
// The resulting placement is part of the experiment definition and is
// shared by every thread count of the same n — weights from a fixed serial
// run are a pure function of (seed, shards, n), so the placement is too.
ShardPlacement CalibratePlacement(int n, int shards, uint64_t seed) {
  FleetOptions options;
  options.nym_count = n;
  options.topology = FleetTopology::kCrossed;
  ShardedSimulation sharded(seed, ShardPlan{shards, 1});
  ShardedFleet fleet(sharded, options, seed);
  fleet.Run();
  return BalancedPlacement(fleet.HostWeights(), shards, seed);
}

// One fleet run through the sharded executor. Serial points run at
// ShardPlan{1, 1} with options.full_recompute selecting the mode and
// observe only when --stats-out/--trace-out ask for it (tracing changes the
// per-event work, so headline throughput is measured without it).
// Threaded points always observe (wall clock off): the per-point digests
// ARE the byte-identity check, and both thread counts pay the same cost,
// which is what the speedup ratio needs.
PointResult RunPoint(BenchStats& stats, FleetOptions options, ShardPlan plan, uint64_t seed,
                     WarmStart* warm, bool observe) {
  double restore_ms = 0;
  if (warm != nullptr && warm->enabled) {
    restore_ms = AcquireWarmImages(*warm, plan.shards, options.images);
  }
  // nymlint:allow(determinism-wallclock): wall-clock throughput is the measurement; it never feeds virtual time
  auto wall_start = std::chrono::steady_clock::now();
  ShardedSimulation sharded(seed, plan);
  if (observe) {
    sharded.EnableObservability(/*record_wall_time=*/false);
  }
  ShardedFleet fleet(sharded, options, seed);
  fleet.Run();
  // nymlint:allow(determinism-wallclock): wall-clock throughput is the measurement; it never feeds virtual time
  auto wall_end = std::chrono::steady_clock::now();

  PointResult result;
  result.n = options.nym_count;
  result.shards = plan.shards;
  result.threads = sharded.thread_count();
  result.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  result.events = fleet.events_executed();
  result.events_per_sec =
      result.wall_seconds > 0 ? static_cast<double>(result.events) / result.wall_seconds : 0;
  SimTime end = 0;
  for (int s = 0; s < sharded.shard_count(); ++s) {
    end = std::max(end, sharded.shard(s).now());
  }
  result.sim_seconds = static_cast<double>(end) / 1e6;
  result.visits = fleet.visits();
  result.churns = fleet.churns();
  result.waterfills_full = fleet.waterfills_full();
  result.waterfills_component = fleet.waterfills_component();
  result.waterfill_skips = fleet.waterfill_skips();
  result.ksm_memories_merged = fleet.ksm_memories_merged();
  result.ksm_memories_skipped = fleet.ksm_memories_skipped();
  result.ksm_pages_sharing = fleet.ksm_pages_sharing();
  result.checkpoint_restore_ms = restore_ms;
  result.epochs = sharded.epochs();
  result.cross_deliveries = sharded.cross_deliveries();
  result.cloud_fetches = fleet.cloud_fetches();
  result.barrier_wait_ms = sharded.barrier_wait_ms_mean();
  result.shard_skew_events = sharded.shard_skew_events_mean();
  result.outbox_depth = sharded.outbox_depth_max();
  FleetKsmStats fleet_ksm = fleet.ReconcileKsm();
  result.fleet_pages_sharing = fleet_ksm.pages_sharing;
  result.cross_host_extra_sharing = fleet_ksm.cross_host_extra_sharing();
  if (!observe) {
    return result;
  }

  sharded.MergeObservability();
  // nymlint:allow(determinism-wallclock): serialization cost is the trace_encode_ms measurement
  auto encode_start = std::chrono::steady_clock::now();
  result.trace_sha256 = HexEncode(Sha256::Hash(sharded.merged().trace.ToChromeJson()));
  // nymlint:allow(determinism-wallclock): serialization cost is the trace_encode_ms measurement
  auto encode_end = std::chrono::steady_clock::now();
  result.trace_encode_ms =
      std::chrono::duration<double, std::milli>(encode_end - encode_start).count();
  std::ostringstream metrics_json;
  sharded.merged().metrics.WriteJson(metrics_json);
  result.stats_sha256 = HexEncode(Sha256::Hash(metrics_json.str()));

  // Fold the run into the --trace-out / --stats-out artifacts: the merged
  // stream depends only on (seed, shards, workload), so traces written at
  // different --threads diff byte-identical.
  if (stats.trace_requested()) {
    stats.obs().trace.set_enabled(true);
    stats.obs().trace.set_record_wall_time(false);
    std::vector<const TraceRecorder*> parts;
    for (int s = 0; s < sharded.shard_count(); ++s) {
      parts.push_back(&sharded.shard_obs(s).trace);
    }
    stats.obs().trace.MergeShardTraces(parts);
    stats.obs().trace.NextTimeline();
  }
  if (stats.stats_requested()) {
    stats.obs().metrics.MergeFrom(sharded.merged().metrics);
  }
  return result;
}

// The fleet KSM reconcile reads value snapshots of guest memory, so its
// totals must not move with the thread count or the scan mode. Prints the
// mismatch and returns false if they do.
bool SameFleetKsm(const PointResult& base, const PointResult& other, const std::string& axis) {
  if (base.fleet_pages_sharing == other.fleet_pages_sharing &&
      base.cross_host_extra_sharing == other.cross_host_extra_sharing) {
    return true;
  }
  std::fprintf(stderr,
               "scale_fleet: KSM RECONCILE MISMATCH at n=%d, %s: fleet_pages_sharing %llu vs "
               "%llu, cross_host_extra_sharing %llu vs %llu\n",
               base.n, axis.c_str(), static_cast<unsigned long long>(base.fleet_pages_sharing),
               static_cast<unsigned long long>(other.fleet_pages_sharing),
               static_cast<unsigned long long>(base.cross_host_extra_sharing),
               static_cast<unsigned long long>(other.cross_host_extra_sharing));
  return false;
}

void WriteJson(const std::string& path, const std::string& mode, const std::string& topology,
               uint64_t seed, bool warm_start, const std::vector<PointResult>& incremental,
               const std::vector<PointResult>& full, const std::vector<PointResult>& threaded) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "scale_fleet: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  // The JsonWriter owns every separator, so the file is canonical JSON in
  // every mode combination (a stray hand-written comma here once broke
  // every downstream json.load of the bench artifact).
  JsonWriter w(out);
  w.BeginObject();
  w.Key("bench");
  w.String("scale_fleet");
  w.Key("mode");
  w.String(mode);
  w.Key("topology");
  w.String(topology);
  w.Key("seed");
  w.Number(seed);
  w.Key("warm_start");
  w.Bool(warm_start);

  auto emit_points = [&](const char* key, const std::vector<PointResult>& points) {
    w.Key(key);
    w.BeginArray();
    for (const PointResult& p : points) {
      w.BeginObject(JsonWriter::kCompact);
      w.Key("n");
      w.Number(p.n);
      w.Key("wall_seconds");
      w.Number(p.wall_seconds, 4);
      w.Key("events");
      w.Number(p.events);
      w.Key("events_per_sec");
      w.Number(p.events_per_sec, 1);
      w.Key("sim_seconds");
      w.Number(p.sim_seconds, 2);
      w.Key("visits");
      w.Number(p.visits);
      w.Key("churns");
      w.Number(p.churns);
      w.Key("waterfills_full");
      w.Number(p.waterfills_full);
      w.Key("waterfills_component");
      w.Number(p.waterfills_component);
      w.Key("waterfill_skips");
      w.Number(p.waterfill_skips);
      w.Key("ksm_memories_merged");
      w.Number(p.ksm_memories_merged);
      w.Key("ksm_memories_skipped");
      w.Number(p.ksm_memories_skipped);
      w.Key("ksm_pages_sharing");
      w.Number(p.ksm_pages_sharing);
      w.Key("checkpoint_restore_ms");
      w.Number(p.checkpoint_restore_ms, 3);
      w.EndObject();
    }
    w.EndArray();
  };

  if (!incremental.empty()) {
    emit_points("incremental", incremental);
  }
  if (!full.empty()) {
    emit_points("full_recompute", full);
    w.Key("speedup");
    w.BeginArray();
    for (size_t i = 0; i < full.size(); ++i) {
      double speedup = 0;
      if (i < incremental.size() && incremental[i].wall_seconds > 0) {
        speedup = full[i].wall_seconds / incremental[i].wall_seconds;
      }
      w.BeginObject(JsonWriter::kCompact);
      w.Key("n");
      w.Number(full[i].n);
      w.Key("wall_clock");
      w.Number(speedup, 2);
      w.EndObject();
    }
    w.EndArray();
  }
  if (!threaded.empty()) {
    // hardware_threads lets bench_diff.py gate the parallel speedup on
    // machines that can actually exhibit one (CI containers are often
    // single-core; byte-identity is still checked there).
    w.Key("shards");
    w.Number(threaded.front().shards);
    w.Key("hardware_threads");
    w.Number(ThreadPool::HardwareThreads());
    w.Key("threaded");
    w.BeginArray();
    for (const PointResult& p : threaded) {
      w.BeginObject(JsonWriter::kCompact);
      w.Key("n");
      w.Number(p.n);
      w.Key("threads");
      w.Number(p.threads);
      w.Key("topology");
      w.String(topology);
      w.Key("wall_seconds");
      w.Number(p.wall_seconds, 4);
      w.Key("events");
      w.Number(p.events);
      w.Key("events_per_sec");
      w.Number(p.events_per_sec, 1);
      w.Key("epochs");
      w.Number(p.epochs);
      w.Key("cross_deliveries");
      w.Number(p.cross_deliveries);
      w.Key("cloud_fetches");
      w.Number(p.cloud_fetches);
      w.Key("visits");
      w.Number(p.visits);
      w.Key("churns");
      w.Number(p.churns);
      w.Key("ksm_pages_sharing");
      w.Number(p.ksm_pages_sharing);
      w.Key("fleet_pages_sharing");
      w.Number(p.fleet_pages_sharing);
      w.Key("cross_host_extra_sharing");
      w.Number(p.cross_host_extra_sharing);
      w.Key("barrier_wait_ms");
      w.Number(p.barrier_wait_ms, 3);
      w.Key("shard_skew_events");
      w.Number(p.shard_skew_events, 1);
      w.Key("outbox_depth");
      w.Number(p.outbox_depth, 0);
      w.Key("trace_encode_ms");
      w.Number(p.trace_encode_ms, 3);
      w.Key("checkpoint_restore_ms");
      w.Number(p.checkpoint_restore_ms, 3);
      w.Key("trace_sha256");
      w.String(p.trace_sha256);
      w.Key("stats_sha256");
      w.String(p.stats_sha256);
      w.EndObject();
    }
    w.EndArray();
    w.Key("threads_speedup");
    w.BeginArray();
    // Speedup and identity of each point vs the threads=1 run of the same n
    // (the serial reference execution of the same sharded structure).
    for (const PointResult& p : threaded) {
      const PointResult* base = nullptr;
      for (const PointResult& candidate : threaded) {
        if (candidate.n == p.n && candidate.threads == 1) {
          base = &candidate;
          break;
        }
      }
      if (base == nullptr || p.threads == 1) {
        continue;
      }
      double speedup = p.wall_seconds > 0 ? base->wall_seconds / p.wall_seconds : 0;
      bool identical =
          p.trace_sha256 == base->trace_sha256 && p.stats_sha256 == base->stats_sha256;
      w.BeginObject(JsonWriter::kCompact);
      w.Key("n");
      w.Number(p.n);
      w.Key("threads");
      w.Number(p.threads);
      w.Key("topology");
      w.String(topology);
      w.Key("wall_clock");
      w.Number(speedup, 2);
      w.Key("trace_identical");
      w.Bool(identical);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  out << "\n";
  NYMIX_CHECK_MSG(w.balanced(), "scale_fleet: unbalanced JSON emitter");
}

struct Args {
  std::vector<int> ns = {8, 64, 256, 1024};
  std::vector<int> threads_list;
  int shards = 8;
  std::string mode = "both";
  std::string topology = "isolated";
  std::string out_path = "BENCH_scale.json";
  uint64_t seed = 13;
  WarmStart warm;
};

}  // namespace

int main(int argc, char** argv) {
  // Strict flags: a typo'd sweep script never runs a default multi-minute
  // sweep.
  Args args;
  BenchStats stats(
      "scale_fleet", argc, argv,
      {{"--n", "--n=N[,N...]", SetPositiveList(args.ns)},
       {"--mode", "--mode=both|incremental|full",
        SetOneOf(args.mode, {"both", "incremental", "full"}), Flag::kChoice},
       {"--out", "--out=PATH", SetText(args.out_path)},
       {"--seed", "--seed=SEED", SetUint64(args.seed)},
       {"--threads", "--threads=T[,T...]", SetPositiveList(args.threads_list)},
       {"--shards", "--shards=K", SetPositive(args.shards)},
       {"--topology", "--topology=isolated|crossed",
        SetOneOf(args.topology, {"isolated", "crossed"}), Flag::kChoice},
       {"--warm-start", "--warm-start[=CKPT]",
        [&args](std::string_view value) {
          args.warm.enabled = true;
          if (!value.empty()) {
            args.warm.path = std::string(value);
          }
          return true;
        },
        Flag::kOptional}});
  WarmStart& warm = args.warm;
  if (warm.enabled) {
    // Tolerant load: a missing file means a first (all-cold) run, and a
    // torn tail costs only the damaged records — the cold-build fallback
    // regenerates whatever is missing and the save below repairs the file.
    Result<Bytes> existing = ReadFileBytes(warm.path);
    if (existing.ok()) {
      auto recovered = KvStore::Recover(*existing);
      NYMIX_CHECK_MSG(recovered.ok(), recovered.status().ToString().c_str());
      if (!recovered->clean) {
        std::fprintf(stderr, "scale_fleet: checkpoint %s recovered with %zu bytes lost\n",
                     warm.path.c_str(), recovered->lost_bytes);
      }
      warm.store = std::move(recovered->store);
    }
    std::printf("# warm start: checkpoint %s (%zu entries)\n", warm.path.c_str(),
                warm.store.size());
  }
  const std::string& mode = args.mode;
  const bool crossed = args.topology == "crossed";
  const bool attach_obs = stats.stats_requested() || stats.trace_requested();

  std::printf("# scale_fleet: %d-nym-per-host clusters, live KSM, Tor fetch + churn\n",
              FleetOptions{}.nyms_per_host);
  std::printf("%-6s %-12s %12s %12s %14s\n", "n", "mode", "wall (s)", "events", "events/s");

  std::vector<PointResult> incremental;
  std::vector<PointResult> full;
  bool identity_ok = true;
  for (int n : args.ns) {
    for (bool full_recompute : {false, true}) {
      if (mode == (full_recompute ? "incremental" : "full")) {
        continue;
      }
      FleetOptions options;
      options.nym_count = n;
      options.full_recompute = full_recompute;
      PointResult p = RunPoint(stats, options, ShardPlan{1, 1}, args.seed, &warm, attach_obs);
      std::printf("%-6d %-12s %12.3f %12llu %14.0f\n", n, full_recompute ? "full" : "incremental",
                  p.wall_seconds, static_cast<unsigned long long>(p.events), p.events_per_sec);
      (full_recompute ? full : incremental).push_back(p);
    }
    if (mode == "both") {
      std::printf("%-6d %-12s %12.2fx\n", n, "speedup",
                  full.back().wall_seconds / incremental.back().wall_seconds);
      identity_ok &= SameFleetKsm(incremental.back(), full.back(), "incremental vs full");
    }
  }

  std::vector<PointResult> threaded;
  if (!args.threads_list.empty()) {
    std::printf("# sharded executor: %d shards, topology: %s, hardware threads: %d\n",
                args.shards, args.topology.c_str(), ThreadPool::HardwareThreads());
    for (int n : args.ns) {
      FleetOptions options;
      options.nym_count = n;
      if (crossed) {
        // Calibrate once per n; every thread count then runs the exact
        // same (seed, shards, placement) experiment, so the identity
        // cross-check below still compares like with like.
        options.topology = FleetTopology::kCrossed;
        options.placement = CalibratePlacement(n, args.shards, args.seed);
        std::printf("%-6d %-12s placement=%s\n", n, "calibrate",
                    options.placement.Label().c_str());
      }
      PointResult base;  // first thread count of this n (by value:
                         // threaded reallocates as points append)
      for (int threads : args.threads_list) {
        PointResult p = RunPoint(stats, options, ShardPlan{args.shards, threads}, args.seed,
                                 &warm, /*observe=*/true);
        std::printf("%-6d %-12s %12.3f %12llu %14.0f  trace=%.12s\n", n,
                    ("threads=" + std::to_string(threads)).c_str(), p.wall_seconds,
                    static_cast<unsigned long long>(p.events), p.events_per_sec,
                    p.trace_sha256.c_str());
        if (base.trace_sha256.empty()) {
          base = p;
        } else if (p.trace_sha256 != base.trace_sha256 ||
                   p.stats_sha256 != base.stats_sha256) {
          // The contract this whole subsystem exists for: thread count is
          // execution mechanics and must not move a single output byte.
          std::fprintf(stderr,
                       "scale_fleet: DETERMINISM VIOLATION at n=%d: threads=%d "
                       "disagrees with threads=%d (trace %s vs %s)\n",
                       n, p.threads, base.threads, p.trace_sha256.c_str(),
                       base.trace_sha256.c_str());
          identity_ok = false;
        }
        identity_ok &= SameFleetKsm(base, p, "threads=" + std::to_string(base.threads) +
                                                 " vs threads=" + std::to_string(p.threads));
        threaded.push_back(std::move(p));
      }
    }
  }

  WriteJson(args.out_path, mode, args.topology, args.seed, warm.enabled, incremental, full,
            threaded);
  std::printf("# wrote %s\n", args.out_path.c_str());

  if (warm.enabled) {
    Status saved = warm.store.Save(warm.path);
    NYMIX_CHECK_MSG(saved.ok(), saved.ToString().c_str());
    std::printf("# warm start: saved checkpoint %s (%zu entries, %zu bytes)\n", warm.path.c_str(),
                warm.store.size(), warm.store.log().size());
  }

  for (size_t i = 0; i < incremental.size(); ++i) {
    std::string prefix = "n" + std::to_string(incremental[i].n);
    stats.Set(prefix + ".events_per_sec", incremental[i].events_per_sec);
    stats.Set(prefix + ".wall_seconds", incremental[i].wall_seconds);
  }
  for (const PointResult& p : threaded) {
    std::string prefix = "n" + std::to_string(p.n) + ".t" + std::to_string(p.threads);
    stats.Set(prefix + ".events_per_sec", p.events_per_sec);
    stats.Set(prefix + ".wall_seconds", p.wall_seconds);
  }
  int rc = stats.Finish();
  return identity_ok ? rc : 1;
}
