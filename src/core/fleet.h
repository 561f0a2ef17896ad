// ShardedFleet: a fleet of Nymix host clusters driven through the parallel
// executor — the "core accepts a shard plan" integration point, and the
// simulator's one implementation of the nymbox lifecycle (paper §3).
//
// N nyms over ceil(N / nyms_per_host) hosts, each host a cluster with its
// own test Tor deployment and destination sites. Every slot runs the same
// loop: spawn a nym from the base image, visit the cluster's sites with
// think time, churn (terminate + replace) once per generation. Hosts are
// assigned to shards round-robin by creation index (ShardForIndex) unless
// a placement says otherwise, so the partition — and therefore every
// per-shard seed stream — depends only on (seed, plan), never on the
// thread count. Serial runs use the same driver at ShardPlan{1, 1}.
//
// What a particular experiment does differently goes through FleetHooks,
// passed to the constructor: which sites a cluster serves, what gets
// attached to a cluster once it is built (src/adversary's taps), per-
// cluster create options (leak plants), a step when a nym is ready and one
// before it is churned, and the nym names and think stream. The default
// hooks are the plain workload: one site "site-<c>" per cluster.
//
// Thread confinement: all per-slot callbacks run on the owning shard's
// event loop, so every mutable field they touch (slot state, think Prng,
// visit/churn counters) is per-shard. Hooks called during Run() inherit
// that rule: they may touch only state of their own slot or cluster. The
// only cross-shard operations are the executor's epoch barrier and the
// post-run aggregations below.
//
// KSM: each host's daemon scans every ksm_interval while its shard has
// active slots; when a shard's last slot finishes, a shard-local event
// stops that shard's daemons (a periodic daemon would otherwise keep its
// loop from ever going idle). ReconcileKsm() then runs the deterministic
// cross-host reconcile (src/hv/ksm_fleet.h) over all hosts in creation
// order. ksm_interval == 0 turns KSM off: no daemon starts and no
// snapshot is taken.
#ifndef SRC_CORE_FLEET_H_
#define SRC_CORE_FLEET_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/nym_manager.h"
#include "src/hv/ksm_fleet.h"
#include "src/parallel/sharded_sim.h"
#include "src/workload/website.h"

namespace nymix {

// The distribution image every fleet host boots from — a copy of the same
// release stick. Exposed so warm-start paths (bench/scale_fleet) can
// acquire checkpointed images with the identical identity.
inline constexpr const char* kFleetImageName = "nymix";
inline constexpr uint64_t kFleetImageSeed = 42;
inline constexpr uint64_t kFleetImageSizeBytes = 64 * kMiB;

// How the fleet's clusters relate across shards.
//
// kIsolated is the historical workload: every cluster is self-contained,
// shards never exchange a packet, and the executor runs one run-to-idle
// epoch per shard. kCrossed adds the inter-host traffic the paper's
// deployment actually has — after every page visit the nym performs a
// cloud fetch (directory/consensus-style round) whose service lives on the
// NEXT shard, reached over a CrossShardChannel ring. Fetches depart only
// on promised send windows (SendSchedule; one request window and one reply
// window per cloud_window period), which is what lets the executor's
// adaptive horizon run each shard a full half-window of dense local work
// per epoch instead of trickling along at channel latency. Crossed fleets
// are also heterogeneous: each host draws a seeded visit multiplier in
// [1, cloud_weight_max], so shard load skews unless a BalancedPlacement
// (shard_plan.h) repacks hosts by observed weight.
//
// A crossed fleet on a 1-shard plan degrades to kIsolated (there is no
// second shard to host the cloud), so small plans remain runnable.
enum class FleetTopology {
  kIsolated,
  kCrossed,
};

struct FleetOptions {
  int nym_count = 8;
  int nyms_per_host = 8;  // §5.2: a 16 GB desktop comfortably fits 8 nymboxes
  FleetTopology topology = FleetTopology::kIsolated;
  // Crossed-topology shape: the window period shared by the request and
  // reply send schedules, the ring channel's wire parameters, and the
  // upper bound of the per-host visit multiplier.
  SimDuration cloud_window = Seconds(5);
  SimDuration cloud_latency = Millis(200);
  uint64_t cloud_bandwidth_bps = 50'000'000;
  int cloud_weight_max = 3;
  // Host -> shard assignment. Empty = round-robin by creation index (the
  // historical partition). A non-empty placement must have exactly one
  // entry per host; it becomes part of the experiment definition and its
  // label is stamped into the merged trace (sharded_sim.h).
  ShardPlacement placement;
  int visits_per_generation = 2;
  int generations = 2;  // one churn (terminate + replace) per slot
  // Reference-mode toggles (flow waterfill / KSM rescan), for wall-clock
  // comparison benches. Virtual-time results are identical either way.
  bool full_recompute = false;
  // KSM scan period; 0 runs the fleet without KSM.
  SimDuration ksm_interval = Seconds(2);
  // Virtual time at which each host copies its KSM-tracked memories for the
  // cross-host reconcile (a shard-local event: exact, thread-invariant).
  // Mid-run by default: reconciling at the end would see only wiped
  // memory, since every nym terminates.
  SimDuration ksm_snapshot_time = Seconds(30);
  // Per-cluster test Tor deployment; small so flow competition stays
  // host-local (the real contention is each host's uplink anyway).
  TorNetwork::Config tor = MakeClusterTorConfig();

  // Warm start: pre-built per-shard base images (restored from a
  // src/store/image_checkpoint). Used when the count matches the shard
  // plan; otherwise the fleet cold-builds one image per shard. Image
  // content is a pure function of (name, seed, size) either way, so the
  // run's event stream — and trace bytes — do not depend on which path
  // supplied the images.
  std::vector<std::shared_ptr<BaseImage>> images;

  static TorNetwork::Config MakeClusterTorConfig() {
    TorNetwork::Config config;
    config.relay_count = 6;
    config.guard_count = 2;
    config.exit_count = 2;
    return config;
  }
};

// The narrow interface through which an experiment customizes the fleet.
// Passed to the ShardedFleet constructor, which builds the clusters (so
// virtual methods on a ShardedFleet subclass would not dispatch there);
// the object must outlive the fleet. The base class is the default fleet.
class FleetHooks {
 public:
  FleetHooks() = default;
  FleetHooks(const FleetHooks&) = delete;
  FleetHooks& operator=(const FleetHooks&) = delete;
  virtual ~FleetHooks() = default;

  // --- Cluster construction, in cluster order, after the cluster's host,
  // Tor deployment and manager. Slots visit sites[visits_done % size()].
  virtual std::vector<std::unique_ptr<Website>> MakeSites(Simulation& sim, int cluster);
  virtual void AttachCluster(int cluster, HostMachine& host,
                             const std::vector<std::unique_ptr<Website>>& sites);
  // Options every nym of the cluster is created with.
  virtual NymManager::CreateOptions CreateOptionsFor(int cluster);

  // --- Slot lifecycle, on the owning shard's loop. OnNymReady runs when a
  // spawned nym has booted, before its first visit; BeforeChurn runs before
  // the nym is terminated, with the generation it served.
  virtual void OnNymReady(int slot, int cluster, Nym& nym, SimTime now);
  virtual void BeforeChurn(int slot, int cluster, int generation, Nym& nym, SimTime now);

  // --- Naming: nyms are "<prefix><cluster>-s<i>-g<generation>"; the think
  // stream is forked from the seed under this label.
  virtual const char* nym_prefix() const;
  virtual const char* think_label() const;
};

class ShardedFleet {
 public:
  // Builds every cluster up front (constructors only schedule shard-local
  // events). `sharded` must outlive the fleet; its plan fixes the host
  // partition. `hooks` (nullptr = the default FleetHooks) must too.
  ShardedFleet(ShardedSimulation& sharded, const FleetOptions& options, uint64_t seed,
               FleetHooks* hooks = nullptr);
  ~ShardedFleet();

  // Spawns every slot's first nym and drives the executor to quiescence.
  void Run();

  // --- Scenario hooks (src/fuzz) ---------------------------------------
  // Schedules a VM crash + recovery on `host` at virtual time `at`: the
  // first slot on that host with a live nym is crashed where it stands and
  // rebooted through NymManager::RecoverNym. Shard-local (the event runs on
  // the owning shard's loop), so thread count still cannot change a byte.
  // Call before Run().
  void ScheduleVmCrash(int host, SimTime at);

  // Per-host internals for scenario fault schedules (uplink flaps, relay
  // crashes). Only shard-local events may touch them while running.
  HostMachine& host_machine(int host) { return *clusters_[static_cast<size_t>(host)]->host; }
  TorNetwork& tor(int host) { return *clusters_[static_cast<size_t>(host)]->tor; }

  // Post-run aggregates, summed over shards in shard-id order.
  uint64_t visits() const;
  uint64_t churns() const;
  // Crossed topology: completed cloud fetch rounds (one request + one reply
  // crossing shards each).
  uint64_t cloud_fetches() const;
  // Observed per-host activity (visits + cloud fetches + churns) — the
  // weight vector BalancedPlacement bin-packs on. Meaningful after Run();
  // hosts that did nothing report weight 1 so the pack stays total.
  std::vector<double> HostWeights() const;
  // Fault-path aggregates: failed visits that were retried, failed creates
  // that were retried, slots abandoned after the create-retry budget, and
  // VM crash/recovery cycles executed by ScheduleVmCrash.
  uint64_t visit_failures() const;
  uint64_t create_failures() const;
  uint64_t slots_abandoned() const;
  uint64_t vm_recoveries() const;
  uint64_t events_executed() const;
  uint64_t waterfills_full() const;
  uint64_t waterfills_component() const;
  uint64_t waterfill_skips() const;
  uint64_t ksm_memories_merged() const;
  uint64_t ksm_memories_skipped() const;
  uint64_t ksm_pages_sharing() const;

  // Deterministic cross-host KSM reconcile over the per-host memories
  // snapshotted at ksm_snapshot_time, in host creation order.
  FleetKsmStats ReconcileKsm() const;

  int host_count() const { return static_cast<int>(clusters_.size()); }

  // Per-host access for checkpoint/restore (src/core/fleet_checkpoint).
  NymManager& manager(int host) { return *clusters_[static_cast<size_t>(host)]->manager; }
  int shard_of_host(int host) const { return clusters_[static_cast<size_t>(host)]->shard; }

 private:
  struct Cluster {
    int shard = 0;
    // Crossed topology: seeded per-host workload heterogeneity (visits per
    // generation scale by this), and the observed activity count feeding
    // HostWeights(). Both shard-local.
    int visit_multiplier = 1;
    uint64_t weight_events = 0;
    std::unique_ptr<HostMachine> host;
    std::unique_ptr<TorNetwork> tor;
    std::unique_ptr<NymManager> manager;
    std::vector<std::unique_ptr<Website>> sites;
    NymManager::CreateOptions create_options;
  };

  // One cross-shard cloud edge: shard s's nyms fetch from the gateway
  // hosted on shard (s+1) % K over `channel`. Sinks are owned here; the
  // channel belongs to the executor.
  struct CloudEdge {
    CrossShardChannel* channel = nullptr;
    std::unique_ptr<PacketSink> gateway;  // lives in the server shard
    std::unique_ptr<PacketSink> client;   // lives in the client shard
  };

  struct Slot {
    int cluster = 0;
    Nym* nym = nullptr;
    int visits_done = 0;
    int generation = 0;
    // Consecutive failed visits / waits for a recovering VM; resets on the
    // next successful visit. Exceeding the budget abandons the slot so a
    // pathological fault schedule still quiesces.
    int visit_retries = 0;
    int create_retries = 0;
    // Set by FinishSlot/AbandonSlot; late callbacks (a retry timer, a VM
    // recovery) check it and stand down instead of reviving the slot.
    bool finished = false;
    // Drive-chain generation. A VM crash severs the slot's in-flight visit
    // chain (the nym's deferred work evaporates at its lifetime guards, so
    // no failure callback ever comes back); the crash bumps the epoch and
    // the recovery callback starts the one replacement chain. Continuations
    // carry the epoch they belong to and stand down when stale, so a timer
    // surviving from the severed chain can never double-drive the slot.
    int epoch = 0;
  };

  // Everything a worker thread mutates while running one shard's epoch.
  struct ShardState {
    Prng think_prng;
    int total_slots = 0;
    int finished_slots = 0;
    uint64_t visits = 0;
    uint64_t churns = 0;
    uint64_t cloud_fetches = 0;
    uint64_t visit_failures = 0;
    uint64_t create_failures = 0;
    uint64_t slots_abandoned = 0;
    uint64_t vm_recoveries = 0;

    explicit ShardState(uint64_t seed) : think_prng(seed) {}
  };

  Cluster& ClusterOf(int slot) { return *clusters_[static_cast<size_t>(slots_[static_cast<size_t>(slot)].cluster)]; }
  ShardState& ShardOf(int slot) { return *shard_states_[static_cast<size_t>(ClusterOf(slot).shard)]; }

  void SpawnNym(int slot);
  void VisitNext(int slot, int epoch);
  // Post-visit step: crossed fleets interleave a windowed cloud fetch
  // before Advance; isolated fleets go straight to Advance.
  void NextAction(int slot, int epoch);
  void StartCloudFetch(int slot, int epoch);
  void SendCloudFetch(int slot, int epoch);
  void HandleCloudReply(const std::string& annotation);
  void Advance(int slot, int epoch);
  int VisitTarget(int slot);
  void FinishSlot(int slot);
  // Writes the slot off (retry budget spent, or recovery failed): tears
  // down any live nym best-effort and retires the slot so Run() quiesces.
  void AbandonSlot(int slot);
  SimDuration ThinkTime(ShardState& shard);

  ShardedSimulation& sharded_;
  FleetOptions options_;
  FleetHooks& hooks_;
  bool crossed_ = false;  // kCrossed effective (needs >= 2 shards)
  std::vector<std::unique_ptr<Cluster>> clusters_;
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<ShardState>> shard_states_;
  std::vector<CloudEdge> cloud_edges_;  // index = client shard
  // Per host: value copies of its KSM-tracked memories, taken at
  // ksm_snapshot_time by a shard-local event (so churn may destroy the VMs).
  std::vector<std::vector<GuestMemory>> ksm_snapshots_;
};

}  // namespace nymix

#endif  // SRC_CORE_FLEET_H_
