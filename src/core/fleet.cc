#include "src/core/fleet.h"

#include <ranges>

namespace nymix {
namespace {

// Retry budgets for the fault-tolerant slot paths. Generous relative to
// recovery times (a crashed VM is back in tens of virtual seconds, a visit
// retry waits 0.5–2 s), so only a genuinely unrecoverable schedule — e.g. a
// host whose uplink never comes back — burns through them.
constexpr int kMaxVisitRetries = 64;
constexpr int kMaxCreateRetries = 8;

// Cloud fetch wire sizes: a small consensus-style request, a directory-ish
// reply. Serialization on the 50 Mbit default channel stays well under the
// window period, so replies always make their promised window.
constexpr size_t kCloudRequestBytes = 512;
constexpr size_t kCloudReplyBytes = 4096;

// Adapter so the cloud gateway/client sinks can be plain lambdas owned by
// the fleet (PacketSink is the only wire-facing interface).
class FnPacketSink : public PacketSink {
 public:
  explicit FnPacketSink(std::function<void(const Packet&)> fn) : fn_(std::move(fn)) {}
  void OnPacket(const Packet& packet, Link&, bool) override { fn_(packet); }

 private:
  std::function<void(const Packet&)> fn_;
};

// The post-run getters: each sums one count over the shard states, the
// shard simulations or the clusters.
template <typename Items, typename Part>
uint64_t SumOver(const Items& items, Part part) {
  uint64_t total = 0;
  for (const auto& item : items) {
    total += part(item);
  }
  return total;
}

FleetHooks& DefaultHooks() {
  static FleetHooks hooks;
  return hooks;
}

}  // namespace

std::vector<std::unique_ptr<Website>> FleetHooks::MakeSites(Simulation& sim, int cluster) {
  WebsiteProfile profile;
  profile.name = "site-" + std::to_string(cluster);
  profile.domain = "site" + std::to_string(cluster) + ".example.com";
  std::vector<std::unique_ptr<Website>> sites;
  sites.push_back(std::make_unique<Website>(sim, profile));
  return sites;
}

void FleetHooks::AttachCluster(int, HostMachine&, const std::vector<std::unique_ptr<Website>>&) {}

NymManager::CreateOptions FleetHooks::CreateOptionsFor(int) { return NymManager::CreateOptions{}; }

void FleetHooks::OnNymReady(int, int, Nym&, SimTime) {}

void FleetHooks::BeforeChurn(int, int, int, Nym&, SimTime) {}

const char* FleetHooks::nym_prefix() const { return "c"; }

const char* FleetHooks::think_label() const { return "fleet.think"; }

ShardedFleet::ShardedFleet(ShardedSimulation& sharded, const FleetOptions& options,
                           uint64_t seed, FleetHooks* hooks)
    : sharded_(sharded), options_(options), hooks_(hooks != nullptr ? *hooks : DefaultHooks()) {
  NYMIX_CHECK(options_.nym_count >= 1);
  NYMIX_CHECK(options_.nyms_per_host >= 1);
  NYMIX_CHECK(options_.ksm_interval >= 0);
  int shards = sharded_.shard_count();
  // A crossed fleet needs a second shard to host the cloud; on a 1-shard
  // plan it degrades to the isolated workload (fleet.h documents this).
  crossed_ = options_.topology == FleetTopology::kCrossed && shards >= 2;
  if (crossed_) {
    NYMIX_CHECK(options_.cloud_weight_max >= 1);
    NYMIX_CHECK(options_.cloud_window > 0);
    NYMIX_CHECK(options_.cloud_latency > 0);
  }
  for (int s = 0; s < shards; ++s) {
    // Think-time randomness is per shard and derived from (seed, shard id):
    // a slot's think stream must not depend on how other shards interleave.
    shard_states_.push_back(std::make_unique<ShardState>(
        Mix64(seed ^ Fnv1a64(hooks_.think_label()) ^ static_cast<uint64_t>(s))));
  }

  int hosts = (options_.nym_count + options_.nyms_per_host - 1) / options_.nyms_per_host;
  ksm_snapshots_.resize(static_cast<size_t>(hosts));
  if (!options_.placement.empty()) {
    // A placement is part of the experiment definition; a partial or
    // out-of-range table would silently fall back to round-robin for the
    // missing hosts, so reject it loudly instead.
    NYMIX_CHECK_MSG(static_cast<int>(options_.placement.shard_of_host.size()) == hosts,
                    "ShardPlacement must assign exactly one shard per host");
    for (int assigned : options_.placement.shard_of_host) {
      NYMIX_CHECK(assigned >= 0 && assigned < shards);
    }
    sharded_.set_placement_label(options_.placement.Label());
  }
  // One distribution image per shard, like every host booting from a copy
  // of the same release stick. Per shard, not fleet-global: the image
  // memoizes its whole-image Merkle verification, and two shards verifying
  // concurrently must not race on (or order-depend on) that cache. Content
  // is a pure function of (name, seed, size), so every copy is identical.
  std::vector<std::shared_ptr<BaseImage>> images = options_.images;
  if (static_cast<int>(images.size()) != shards) {
    NYMIX_CHECK_MSG(images.empty(), "FleetOptions.images must match the shard plan");
    for (int s = 0; s < shards; ++s) {
      images.push_back(
          BaseImage::CreateDistribution(kFleetImageName, kFleetImageSeed, kFleetImageSizeBytes));
    }
  }

  for (int c = 0; c < hosts; ++c) {
    int shard = options_.placement.shard_for(static_cast<size_t>(c), shards);
    Simulation& sim = sharded_.shard(shard);
    auto cluster = std::make_unique<Cluster>();
    cluster->shard = shard;
    if (crossed_) {
      // Seeded per-host heterogeneity: this is the load skew BalancedPlacement
      // exists to repack. Derived from (seed, host index) only, so the
      // multiplier survives any placement change.
      cluster->visit_multiplier =
          1 + static_cast<int>(Mix64(seed ^ Fnv1a64("fleet.hostweight") ^ static_cast<uint64_t>(c)) %
                               static_cast<uint64_t>(options_.cloud_weight_max));
    }
    cluster->host = std::make_unique<HostMachine>(sim, HostConfig{});
    cluster->host->ksm().set_full_rescan(options_.full_recompute);
    sim.flows().set_full_recompute(options_.full_recompute);
    cluster->tor = std::make_unique<TorNetwork>(sim, options_.tor);
    cluster->manager = std::make_unique<NymManager>(*cluster->host, images[static_cast<size_t>(shard)],
                                                    cluster->tor.get(), nullptr);
    cluster->sites = hooks_.MakeSites(sim, c);
    NYMIX_CHECK(!cluster->sites.empty());
    hooks_.AttachCluster(c, *cluster->host, cluster->sites);
    cluster->create_options = hooks_.CreateOptionsFor(c);
    clusters_.push_back(std::move(cluster));
    if (options_.ksm_interval == 0) {
      continue;
    }
    Cluster* raw = clusters_.back().get();
    raw->host->ksm().Start(options_.ksm_interval);
    // Snapshot this host's memories mid-run for the cross-host reconcile.
    // A plain scheduled event on the host's own loop: shard-local, so exact
    // virtual-time capture with no cross-thread read.
    sim.loop().ScheduleAt(options_.ksm_snapshot_time, [raw, this, c] {
      for (const GuestMemory* memory : raw->host->ksm().memories()) {
        ksm_snapshots_[static_cast<size_t>(c)].push_back(*memory);
      }
    });
  }

  if (crossed_) {
    // The cloud ring: shard s's nyms fetch from a gateway hosted on shard
    // (s+1) % K. Both directions promise windowed departures (requests on
    // the hour, replies half a window later), which is the application
    // lookahead the executor's adaptive horizon feeds on.
    SendSchedule request_windows{options_.cloud_window, 0};
    SendSchedule reply_windows{options_.cloud_window, options_.cloud_window / 2};
    cloud_edges_.resize(static_cast<size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      int server = (s + 1) % shards;
      CloudEdge& edge = cloud_edges_[static_cast<size_t>(s)];
      edge.channel =
          sharded_.CreateChannel("cloud-s" + std::to_string(s), s, server,
                                 options_.cloud_latency, options_.cloud_bandwidth_bps);
      edge.channel->PromiseSendWindows(request_windows, reply_windows);
      // Worst case every slot on the shard has a request and a reply
      // buffered in the same epoch.
      edge.channel->ReserveOutboxes(static_cast<size_t>(options_.nym_count) + 1);
      CrossShardChannel* channel = edge.channel;
      EventLoop* server_loop = &sharded_.shard(server).loop();
      edge.gateway = std::make_unique<FnPacketSink>([channel, server_loop](const Packet& request) {
        // Serve the fetch: the reply departs at the next promised reply
        // window, echoing the request's correlation annotation.
        std::string annotation = request.annotation;
        SimTime window = NextSendWindow(channel->schedule_b_to_a(), server_loop->now());
        server_loop->ScheduleAt(window, [channel, annotation = std::move(annotation)] {
          Packet reply;
          reply.payload = Bytes(kCloudReplyBytes, 0);
          reply.annotation = annotation;
          channel->b_end()->SendFromA(std::move(reply));
        });
      });
      edge.channel->b_end()->AttachA(edge.gateway.get());
      edge.client = std::make_unique<FnPacketSink>(
          [this](const Packet& reply) { HandleCloudReply(reply.annotation); });
      edge.channel->a_end()->AttachA(edge.client.get());
    }
  }

  slots_.resize(static_cast<size_t>(options_.nym_count));
  for (int i = 0; i < options_.nym_count; ++i) {
    slots_[static_cast<size_t>(i)].cluster = i / options_.nyms_per_host;
    ++ShardOf(i).total_slots;
  }
  // Shards that got hosts but no remaining live slots never occur (every
  // host owns at least one slot), but a plan with more shards than hosts
  // leaves some shards empty — they simply idle through every epoch.
}

ShardedFleet::~ShardedFleet() = default;

void ShardedFleet::Run() {
  for (int i = 0; i < options_.nym_count; ++i) {
    SpawnNym(i);
  }
  sharded_.RunUntilIdle();
  for (int s = 0; s < sharded_.shard_count(); ++s) {
    const ShardState& state = *shard_states_[static_cast<size_t>(s)];
    NYMIX_CHECK(state.finished_slots == state.total_slots);
  }
}

SimDuration ShardedFleet::ThinkTime(ShardState& shard) {
  return Millis(500 + static_cast<SimDuration>(shard.think_prng.NextBelow(1500)));
}

void ShardedFleet::SpawnNym(int slot) {
  Slot& state = slots_[static_cast<size_t>(slot)];
  const int epoch = state.epoch;
  std::string name = hooks_.nym_prefix() + std::to_string(state.cluster) + "-s" +
                     std::to_string(slot % options_.nyms_per_host) + "-g" +
                     std::to_string(state.generation);
  Cluster& cluster = ClusterOf(slot);
  cluster.manager->CreateNym(
      name, cluster.create_options, [this, slot, epoch](Result<Nym*> nym, NymStartupReport) {
        Slot& state = slots_[static_cast<size_t>(slot)];
        if (state.finished || state.epoch != epoch) {
          // Abandoned or superseded while booting; tear the straggler down
          // if it made it.
          if (nym.ok()) {
            Status ignored = ClusterOf(slot).manager->TerminateNym(*nym);
            (void)ignored;
          }
          return;
        }
        ShardState& shard = ShardOf(slot);
        if (!nym.ok()) {
          // A create can fail under fault schedules (anonymizer bootstrap
          // exhausted its retry budget, say). Back off and try again; the
          // boot is from pristine base state, so a retry is safe.
          ++shard.create_failures;
          if (++state.create_retries > kMaxCreateRetries) {
            AbandonSlot(slot);
            return;
          }
          sharded_.shard(ClusterOf(slot).shard)
              .loop()
              .ScheduleAfter(ThinkTime(shard), [this, slot] { SpawnNym(slot); });
          return;
        }
        state.create_retries = 0;
        state.nym = *nym;
        state.visits_done = 0;
        hooks_.OnNymReady(slot, state.cluster, *state.nym,
                          sharded_.shard(ClusterOf(slot).shard).now());
        VisitNext(slot, epoch);
      });
}

void ShardedFleet::VisitNext(int slot, int epoch) {
  Cluster& cluster = ClusterOf(slot);
  Slot& state = slots_[static_cast<size_t>(slot)];
  if (state.finished || state.epoch != epoch) {
    return;
  }
  if (state.nym == nullptr) {
    // The slot's VM crashed and its recovery has not handed back a nym yet
    // (ScheduleVmCrash nulls the pointer at crash time). Wait a think-time
    // and look again, on the same budget as failed visits.
    ShardState& shard = *shard_states_[static_cast<size_t>(cluster.shard)];
    if (++state.visit_retries > kMaxVisitRetries) {
      AbandonSlot(slot);
      return;
    }
    sharded_.shard(cluster.shard)
        .loop()
        .ScheduleAfter(ThinkTime(shard), [this, slot, epoch] { VisitNext(slot, epoch); });
    return;
  }
  Website& site = *cluster.sites[static_cast<size_t>(state.visits_done) % cluster.sites.size()];
  state.nym->browser()->Visit(site, [this, slot, epoch](Result<SimTime> done) {
    Cluster& cluster = ClusterOf(slot);
    ShardState& shard = *shard_states_[static_cast<size_t>(cluster.shard)];
    Slot& state = slots_[static_cast<size_t>(slot)];
    if (state.finished || state.epoch != epoch) {
      return;
    }
    if (!done.ok()) {
      // Failed visit (aborted flow, dead uplink, crashed VM): retry after a
      // think-time. The budget keeps a never-healing fault from looping.
      ++shard.visit_failures;
      if (++state.visit_retries > kMaxVisitRetries) {
        AbandonSlot(slot);
        return;
      }
      sharded_.shard(cluster.shard)
          .loop()
          .ScheduleAfter(ThinkTime(shard), [this, slot, epoch] { VisitNext(slot, epoch); });
      return;
    }
    state.visit_retries = 0;
    ++shard.visits;
    ++state.visits_done;
    ++cluster.weight_events;
    // Think time before the next action; acting from a fresh event also
    // means churn never tears a nym down from inside its own callback.
    sharded_.shard(cluster.shard)
        .loop()
        .ScheduleAfter(ThinkTime(shard), [this, slot, epoch] { NextAction(slot, epoch); });
  });
}

void ShardedFleet::NextAction(int slot, int epoch) {
  if (crossed_) {
    StartCloudFetch(slot, epoch);
    return;
  }
  Advance(slot, epoch);
}

void ShardedFleet::StartCloudFetch(int slot, int epoch) {
  Slot& state = slots_[static_cast<size_t>(slot)];
  if (state.finished || state.epoch != epoch) {
    return;
  }
  int shard = ClusterOf(slot).shard;
  EventLoop& loop = sharded_.shard(shard).loop();
  const CloudEdge& edge = cloud_edges_[static_cast<size_t>(shard)];
  // Hold the request until the promised departure window (the send-time
  // CHECK in Link would fire otherwise, by design).
  SimTime window = NextSendWindow(edge.channel->schedule_a_to_b(), loop.now());
  loop.ScheduleAt(window, [this, slot, epoch] { SendCloudFetch(slot, epoch); });
}

void ShardedFleet::SendCloudFetch(int slot, int epoch) {
  Slot& state = slots_[static_cast<size_t>(slot)];
  if (state.finished || state.epoch != epoch) {
    return;
  }
  int shard = ClusterOf(slot).shard;
  Packet request;
  request.payload = Bytes(kCloudRequestBytes, 0);
  // Correlation tag: the reply carries it back so the cloud round can
  // resume exactly the slot/epoch chain that started it.
  request.annotation = "cf:" + std::to_string(slot) + ":" + std::to_string(epoch);
  cloud_edges_[static_cast<size_t>(shard)].channel->a_end()->SendFromA(std::move(request));
}

void ShardedFleet::HandleCloudReply(const std::string& annotation) {
  // Annotation format: "cf:<slot>:<epoch>" (written by SendCloudFetch).
  size_t first = annotation.find(':');
  size_t second = annotation.find(':', first + 1);
  NYMIX_CHECK_MSG(first != std::string::npos && second != std::string::npos,
                  "malformed cloud fetch annotation");
  int slot = std::stoi(annotation.substr(first + 1, second - first - 1));
  int epoch = std::stoi(annotation.substr(second + 1));
  NYMIX_CHECK(slot >= 0 && slot < options_.nym_count);
  Slot& state = slots_[static_cast<size_t>(slot)];
  if (state.finished || state.epoch != epoch) {
    // The slot crashed, churned, or gave up while the round was in flight;
    // the reply is stale and its chain is already dead.
    return;
  }
  Cluster& cluster = ClusterOf(slot);
  ShardState& shard = *shard_states_[static_cast<size_t>(cluster.shard)];
  ++shard.cloud_fetches;
  ++cluster.weight_events;
  sharded_.shard(cluster.shard)
      .loop()
      .ScheduleAfter(ThinkTime(shard), [this, slot, epoch] { Advance(slot, epoch); });
}

int ShardedFleet::VisitTarget(int slot) {
  return options_.visits_per_generation * ClusterOf(slot).visit_multiplier;
}

void ShardedFleet::Advance(int slot, int epoch) {
  Slot& state = slots_[static_cast<size_t>(slot)];
  if (state.finished || state.epoch != epoch) {
    return;
  }
  if (state.visits_done < VisitTarget(slot)) {
    VisitNext(slot, epoch);
    return;
  }
  if (state.nym == nullptr) {
    // A crash landed between the last visit and this churn; wait for the
    // recovery to hand the slot a nym to terminate (same retry budget).
    ShardState& shard = ShardOf(slot);
    if (++state.visit_retries > kMaxVisitRetries) {
      AbandonSlot(slot);
      return;
    }
    sharded_.shard(ClusterOf(slot).shard)
        .loop()
        .ScheduleAfter(ThinkTime(shard), [this, slot, epoch] { Advance(slot, epoch); });
    return;
  }
  hooks_.BeforeChurn(slot, state.cluster, state.generation, *state.nym,
                     sharded_.shard(ClusterOf(slot).shard).now());
  ++state.generation;
  Status terminated = ClusterOf(slot).manager->TerminateNym(state.nym);
  NYMIX_CHECK_MSG(terminated.ok(), terminated.ToString().c_str());
  state.nym = nullptr;
  if (state.generation >= options_.generations) {
    FinishSlot(slot);
    return;
  }
  ++ShardOf(slot).churns;
  ++ClusterOf(slot).weight_events;
  SpawnNym(slot);
}

void ShardedFleet::AbandonSlot(int slot) {
  Slot& state = slots_[static_cast<size_t>(slot)];
  ShardState& shard = ShardOf(slot);
  ++shard.slots_abandoned;
  state.finished = true;
  if (state.nym != nullptr) {
    // Best-effort teardown; a half-crashed wreck may refuse, and the slot
    // is being written off either way.
    Status ignored = ClusterOf(slot).manager->TerminateNym(state.nym);
    (void)ignored;
    state.nym = nullptr;
  }
  FinishSlot(slot);
}

void ShardedFleet::ScheduleVmCrash(int host, SimTime at) {
  NYMIX_CHECK(host >= 0 && host < host_count());
  Cluster& cluster = *clusters_[static_cast<size_t>(host)];
  sharded_.shard(cluster.shard).loop().ScheduleAt(at, [this, host] {
    // Crash the first slot on this host that currently has a live nym; a
    // host whose slots are all booting, recovering, or finished absorbs the
    // event as a no-op (so shrinking a scenario never creates a crash that
    // aborts the run).
    for (int i = 0; i < options_.nym_count; ++i) {
      Slot& state = slots_[static_cast<size_t>(i)];
      if (state.cluster != host || state.finished || state.nym == nullptr) {
        continue;
      }
      Cluster& cluster = *clusters_[static_cast<size_t>(host)];
      Nym* wreck = state.nym;
      // Null the pointer and bump the epoch first: the wreck's in-flight
      // work evaporates at its lifetime guards (no failure callback comes
      // back), so the old drive chain is dead — and any timer of it that
      // does survive now stands down as stale. The recovery callback below
      // starts the slot's one replacement chain.
      state.nym = nullptr;
      ++state.epoch;
      cluster.manager->InjectCrash(*wreck);
      cluster.manager->RecoverNym(wreck, [this, i, host](Result<Nym*> nym, NymStartupReport) {
        Cluster& cluster = *clusters_[static_cast<size_t>(host)];
        ShardState& shard = *shard_states_[static_cast<size_t>(cluster.shard)];
        Slot& state = slots_[static_cast<size_t>(i)];
        if (state.finished) {
          // The slot gave up while we were rebooting; don't leave a live
          // orphan VM keeping the shard from quiescing.
          if (nym.ok()) {
            Status ignored = cluster.manager->TerminateNym(*nym);
            (void)ignored;
          }
          return;
        }
        if (!nym.ok()) {
          AbandonSlot(i);
          return;
        }
        ++shard.vm_recoveries;
        state.nym = *nym;
        // Resume the drive loop. Advance handles both positions the severed
        // chain could have been in: mid-generation (more visits due) and the
        // churn boundary. Epoch is re-read, not captured from crash time: a
        // later crash landing before this timer fires supersedes it.
        const int epoch = state.epoch;
        sharded_.shard(cluster.shard)
            .loop()
            .ScheduleAfter(ThinkTime(shard), [this, i, epoch] { Advance(i, epoch); });
      });
      return;
    }
  });
}

void ShardedFleet::FinishSlot(int slot) {
  int shard = ClusterOf(slot).shard;
  ShardState& state = *shard_states_[static_cast<size_t>(shard)];
  ++state.finished_slots;
  if (state.finished_slots < state.total_slots) {
    return;
  }
  // Last slot on this shard: stop the shard's periodic KSM daemons so the
  // shard can go idle. Shard-local state only — safe on a worker thread.
  for (auto& cluster : clusters_) {
    if (cluster->shard == shard) {
      cluster->host->ksm().Stop();
    }
  }
}

uint64_t ShardedFleet::visits() const {
  return SumOver(shard_states_, [](const auto& state) { return state->visits; });
}

uint64_t ShardedFleet::churns() const {
  return SumOver(shard_states_, [](const auto& state) { return state->churns; });
}

uint64_t ShardedFleet::cloud_fetches() const {
  return SumOver(shard_states_, [](const auto& state) { return state->cloud_fetches; });
}

std::vector<double> ShardedFleet::HostWeights() const {
  std::vector<double> weights;
  weights.reserve(clusters_.size());
  for (const auto& cluster : clusters_) {
    // Floor at 1 so an idle host still gets packed somewhere deliberate.
    weights.push_back(cluster->weight_events > 0 ? static_cast<double>(cluster->weight_events)
                                                 : 1.0);
  }
  return weights;
}

uint64_t ShardedFleet::visit_failures() const {
  return SumOver(shard_states_, [](const auto& state) { return state->visit_failures; });
}

uint64_t ShardedFleet::create_failures() const {
  return SumOver(shard_states_, [](const auto& state) { return state->create_failures; });
}

uint64_t ShardedFleet::slots_abandoned() const {
  return SumOver(shard_states_, [](const auto& state) { return state->slots_abandoned; });
}

uint64_t ShardedFleet::vm_recoveries() const {
  return SumOver(shard_states_, [](const auto& state) { return state->vm_recoveries; });
}

uint64_t ShardedFleet::events_executed() const {
  return SumOver(std::views::iota(0, sharded_.shard_count()),
                 [this](int s) { return sharded_.shard(s).loop().events_executed(); });
}

uint64_t ShardedFleet::waterfills_full() const {
  return SumOver(std::views::iota(0, sharded_.shard_count()),
                 [this](int s) { return sharded_.shard(s).flows().waterfills_full(); });
}

uint64_t ShardedFleet::waterfills_component() const {
  return SumOver(std::views::iota(0, sharded_.shard_count()),
                 [this](int s) { return sharded_.shard(s).flows().waterfills_component(); });
}

uint64_t ShardedFleet::waterfill_skips() const {
  return SumOver(std::views::iota(0, sharded_.shard_count()),
                 [this](int s) { return sharded_.shard(s).flows().waterfill_skips(); });
}

uint64_t ShardedFleet::ksm_memories_merged() const {
  return SumOver(clusters_, [](const auto& c) { return c->host->ksm().memories_merged(); });
}

uint64_t ShardedFleet::ksm_memories_skipped() const {
  return SumOver(clusters_, [](const auto& c) { return c->host->ksm().memories_skipped(); });
}

uint64_t ShardedFleet::ksm_pages_sharing() const {
  return SumOver(clusters_, [](const auto& c) { return c->host->ksm().stats().pages_sharing; });
}

FleetKsmStats ShardedFleet::ReconcileKsm() const {
  return FleetKsmIndex::Reconcile(ksm_snapshots_);
}

}  // namespace nymix
