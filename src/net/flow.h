// Flow-level bulk transfers with max-min fair bandwidth sharing.
//
// Packet-level simulation of a 77 MB kernel download would be pointless
// detail; instead a Flow claims capacity on every Link along its Route and
// the scheduler waterfills rates across competing flows, recomputing
// whenever a flow starts or finishes. This reproduces Figure 5's behaviour:
// N nyms share the 10 Mbit bottleneck almost exactly N-ways, and the Tor
// cell overhead appears as a per-flow byte inflation factor.
//
// A flow ends in exactly one place, RetireFlow, whatever the outcome:
// completion (Settle), CancelFlow, a loss abort at the end of setup, or a
// stall deadline. Rates are refreshed in exactly one place, the tail of
// Reschedule. A later change to what happens when a flow ends or is
// re-rated belongs in one of those two.
//
// Rescheduling is dirty-driven (docs/performance.md): the scheduler keeps
// per-link membership (which started flows cross each link) and a set of
// links whose membership or capacity changed since the last waterfill. A
// Reschedule with nothing dirty skips the waterfill outright; otherwise it
// re-waterfills either every started flow or only the connected
// component(s) reachable from the dirty links, then runs the same tail.
// Components cannot affect each other's max-min rates, so the restricted
// waterfill assigns the same rates the global one would — the one
// cross-component coupling is flows with empty routes (rated at the global
// first-round min share), so any dirt while one is live forces a full pass.
// set_full_recompute(true) restores the pre-incremental recompute-the-world
// behavior as the reference for equivalence tests and wall-clock
// benchmarks; both modes produce byte-identical traces because the stall
// watches, the completion-event scan and scheduling are shared.
//
// Model notes (documented substitutions): transfers begin after one route
// RTT (connection + request); TCP slow-start and congestion dynamics are
// abstracted away, which is faithful to the paper's rate-limited DeterLab
// setup where flows are long and the bottleneck is a hard shaper.
//
// Failure model: a flow crossing lossy links (LinkFaultProfile) may abort
// with a Status instead of completing — the seeded roll happens at start so
// the event count stays flow-level — and a flow whose route goes down stalls
// at rate 0 and fails after FlowOptions::stall_timeout rather than hanging
// the event loop forever.
//
// Callbacks may re-enter the scheduler: a `done` callback may start or
// cancel any flow, including one whose completion, setup or stall deadline
// falls due at the same instant. A flow that a callback already ended is
// skipped, never ended twice, so every Status-form `done` fires exactly
// once.
#ifndef SRC_NET_FLOW_H_
#define SRC_NET_FLOW_H_

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/net/link.h"
#include "src/util/event_loop.h"
#include "src/util/prng.h"
#include "src/util/status.h"

namespace nymix {

struct Route {
  std::vector<Link*> links;
  // One-way propagation for the whole path; the flow starts after 2x this
  // (connection setup + request).
  SimDuration one_way_latency = 0;

  static Route Through(std::vector<Link*> links);
};

using FlowId = uint64_t;

// Failure-detection knobs for a flow. Defaults preserve the failure-free
// pre-fault behavior: no stall deadline, and loss aborts only fire on
// routes whose links actually carry a fault profile.
struct FlowOptions {
  // Fail with kUnavailable if the flow spends this long at rate 0 while
  // started (all paths down). 0 = never (legacy behavior: hang).
  SimDuration stall_timeout = 0;
  // Whether lossy links may abort this flow.
  bool fail_on_loss = true;
  // A flow is modeled as aborting when loss defeats retransmission; the
  // per-link abort chance is min(1, loss_probability * this multiplier),
  // independent across route links. 4.0 makes transfers robust below ~10%
  // loss and mostly doomed above ~25%, matching TCP-over-Tor intuition.
  double loss_abort_multiplier = 4.0;
};

class FlowScheduler {
 public:
  explicit FlowScheduler(EventLoop& loop) : loop_(loop) {}

  // Seeds the loss-abort stream (FaultInjector::SeedFor("net.flows")).
  // Without a seed, loss aborts are disabled and flows always run to
  // completion as before.
  void SeedFaults(uint64_t seed) { loss_prng_.emplace(seed); }

  // Transfers `bytes * overhead_factor` wire bytes along `route`; calls
  // `done` with the completion time. `overhead_factor` >= 1 models protocol
  // framing (Tor cells ~1.12, Dissent DC-net much higher). Legacy form:
  // failures (loss abort, cancellation) are swallowed — `done` simply never
  // fires — so callers that care about faults must use the Status form.
  FlowId StartFlow(const Route& route, uint64_t bytes, double overhead_factor,
                   std::function<void(SimTime)> done);

  // Status form: `done` fires exactly once — with the completion time on
  // success, or kUnavailable (loss abort, stall) / kCancelled (CancelFlow).
  FlowId StartFlow(const Route& route, uint64_t bytes, double overhead_factor,
                   const FlowOptions& options, std::function<void(Result<SimTime>)> done);

  // Cancels an in-progress flow (nym terminated mid-download). False if the
  // flow already ended. A Status-form flow's callback fires kCancelled.
  bool CancelFlow(FlowId id);

  size_t active_flows() const { return flows_.size(); }

  // Current fair-share rate of a flow in bits/s (0 if unknown/not started).
  uint64_t FlowRateBps(FlowId id) const;

  // Marks `link` dirty (capacity changed: SetDown flap). Rates only move at
  // the next Reschedule, exactly as before the incremental scheduler. Wired
  // from Link::SetDown via Link::set_flow_scheduler.
  void NoteLinkStateChanged(Link* link) { dirty_links_.insert(link); }

  // Reference implementation hook: waterfill every flow over every link on
  // every Reschedule (the pre-incremental behavior). Benches use it for
  // wall-clock comparison; equivalence tests assert identical rates and
  // byte-identical traces against it.
  void set_full_recompute(bool full) { full_recompute_ = full; }
  bool full_recompute() const { return full_recompute_; }

  // Waterfill-effort introspection (always counted, metrics attached or
  // not): how many Reschedules ran the full waterfill, a component-restricted
  // one, or skipped the computation entirely.
  uint64_t waterfills_full() const { return waterfills_full_; }
  uint64_t waterfills_component() const { return waterfills_component_; }
  uint64_t waterfill_skips() const { return waterfill_skips_; }

 private:
  struct Flow {
    std::vector<Link*> links;
    double remaining_bytes = 0;
    double wire_bytes_total = 0;  // initial remaining_bytes, for tap reports
    double rate_bytes_per_us = 0;
    bool started = false;  // becomes true after the setup RTT
    SimTime created_at = 0;
    FlowOptions options;
    // Loss abort decided at start (seeded): the flow dies when setup ends.
    bool doomed = false;
    // The stall-deadline event, set exactly while the flow is stalled: from
    // the refresh that rates a started flow 0 until one that rates it above
    // 0, or until its deadline has re-checked the route.
    std::optional<uint64_t> stall_event;
    std::function<void(Result<SimTime>)> done;
  };

  // Advances all running flows to now, retiring any that finished.
  void Settle();
  // The one way a flow ends. Looks `id` up and returns false if it is
  // already gone. Otherwise, in this order: cancels its stall deadline,
  // drops its link membership, counts the outcome, ends its trace span
  // (plus a `fault` instant for a failure), reports it to the link taps,
  // and fires `done` last, so a callback sees the scheduler consistent.
  // `outcome` is the completion time or the failure Status (kCancelled for
  // CancelFlow); `counter` names the counter a failure or cancellation
  // bumps (nullptr on completion).
  bool RetireFlow(FlowId id, Result<SimTime> outcome, const char* counter);
  // Reports a finished flow (completed or not) to the taps of every unique
  // link on its route (src/net/tap.h). Deduplicated and ordered by link id,
  // so observation order is reproducible.
  void NotifyFlowTaps(FlowId id, const Flow& flow, bool completed);
  // Refreshes rates (full / component / skip as dirtiness requires) and
  // schedules the next completion event.
  void Reschedule();
  // The flows a component-restricted refresh re-rates (ascending): every
  // started flow connected to a dirty link through shared links.
  std::vector<FlowId> DirtyClosure() const;
  // A stalled flow's deadline: resume if the route came back up, else fail.
  void StallDeadline(FlowId id);

  // Membership bookkeeping: called when a flow becomes started / when a
  // started flow is removed. Marks the flow's links dirty.
  void AddFlowMembership(FlowId id, const Flow& flow);
  void RemoveFlowMembership(FlowId id, const Flow& flow);

  // Waterfills `flow_ids` (ascending) over exactly the links they cross.
  // Pass every started flow for the reference full pass; pass one dirty
  // closure for the restricted pass.
  void Waterfill(const std::vector<FlowId>& flow_ids);
  // Stall-deadline arm/disarm for `flow_ids` (ascending). Only flows whose
  // rate was just recomputed can transition, so restricting the scan keeps
  // the scheduled-event sequence identical to a full scan.
  void UpdateStallWatches(const std::vector<FlowId>& flow_ids);
  void RefreshMeters();

  EventLoop& loop_;
  std::map<FlowId, Flow> flows_;
  FlowId next_id_ = 1;
  SimTime last_settle_ = 0;
  // The next completion event, if any flow is running at a positive rate.
  std::optional<uint64_t> pending_event_;
  std::optional<Prng> loss_prng_;

  // --- Incremental fair-share state --------------------------------------
  bool full_recompute_ = false;
  // Which started flows cross each link: ids kept sorted, possibly with
  // duplicates (a route may cross the same link twice — each crossing
  // claims a capacity share, matching the waterfill's multiplicity
  // accounting). A link with no started flow has no entry. Keyed by
  // creation order (LinkIdLess), never address: iteration reaches the
  // waterfill's float rounding and must be reproducible run to run.
  std::map<Link*, std::vector<FlowId>, LinkIdLess> link_flows_;
  std::set<Link*, LinkIdLess> dirty_links_;
  // Set when an empty-route flow starts: its rate is the global first-round
  // min share, the one value a component-restricted pass cannot see.
  bool global_dirty_ = false;
  int started_empty_route_flows_ = 0;

  uint64_t waterfills_full_ = 0;
  uint64_t waterfills_component_ = 0;
  uint64_t waterfill_skips_ = 0;

  // Cached instruments, refreshed when the loop's observability epoch
  // moves (see EventLoop::observability_epoch()). The failure and stall
  // counters are looked up only when they fire: the registry dumps every
  // counter that exists, so creating them here would add zero entries to
  // every stats dump.
  uint64_t meters_epoch_ = 0;
  Counter* recomputes_counter_ = nullptr;
  Counter* skipped_counter_ = nullptr;
  Counter* flows_started_counter_ = nullptr;
  Counter* wire_bytes_counter_ = nullptr;
  Counter* flows_completed_counter_ = nullptr;
  Histogram* flow_duration_histogram_ = nullptr;
};

}  // namespace nymix

#endif  // SRC_NET_FLOW_H_
