#include "src/net/flow.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace nymix {

Route Route::Through(std::vector<Link*> links) {
  Route route;
  route.links = std::move(links);
  for (const Link* link : route.links) {
    route.one_way_latency += link->latency();
  }
  return route;
}

void FlowScheduler::RefreshMeters() {
  if (meters_epoch_ == loop_.observability_epoch()) {
    return;
  }
  meters_epoch_ = loop_.observability_epoch();
  recomputes_counter_ = nullptr;
  skipped_counter_ = nullptr;
  flows_started_counter_ = nullptr;
  wire_bytes_counter_ = nullptr;
  flows_completed_counter_ = nullptr;
  flow_duration_histogram_ = nullptr;
  if (MetricsRegistry* meters = loop_.meters()) {
    recomputes_counter_ = meters->GetCounter("net.fair_share_recomputes");
    skipped_counter_ = meters->GetCounter("net.fair_share_skipped");
    flows_started_counter_ = meters->GetCounter("net.flows_started");
    wire_bytes_counter_ = meters->GetCounter("net.flow_wire_bytes");
    flows_completed_counter_ = meters->GetCounter("net.flows_completed");
    flow_duration_histogram_ = meters->GetHistogram("net.flow_duration_us");
  }
}

FlowId FlowScheduler::StartFlow(const Route& route, uint64_t bytes, double overhead_factor,
                                std::function<void(SimTime)> done) {
  // Legacy callers predate the failure model: deliver completions, swallow
  // failures (their flows cannot fail unless a fault profile is installed
  // on their links anyway).
  return StartFlow(route, bytes, overhead_factor, FlowOptions{},
                   [done = std::move(done)](Result<SimTime> finished) {
                     if (done && finished.ok()) {
                       done(*finished);
                     }
                   });
}

FlowId FlowScheduler::StartFlow(const Route& route, uint64_t bytes, double overhead_factor,
                                const FlowOptions& options,
                                std::function<void(Result<SimTime>)> done) {
  NYMIX_CHECK(overhead_factor >= 1.0);
  Settle();
  RefreshMeters();
  FlowId id = next_id_++;
  Flow flow;
  for (Link* link : route.links) {
    // Flows fair-share inside one shard's scheduler; a cross-shard half-link
    // has no local receiving side, so routing a flow over it would silently
    // model half a wire. Cross-shard traffic goes packet-by-packet through
    // CrossShardChannel (src/parallel) instead.
    NYMIX_CHECK(!link->remote());
  }
  flow.links = route.links;
  flow.remaining_bytes = static_cast<double>(bytes) * overhead_factor;
  flow.wire_bytes_total = flow.remaining_bytes;
  flow.options = options;
  flow.done = std::move(done);
  flow.started = false;
  flow.created_at = loop_.now();

  // Seeded loss-abort roll: a flow crossing lossy links may be doomed from
  // the start (loss defeating retransmission partway through). The Prng is
  // only consumed when the route actually has loss, so fault-free runs draw
  // nothing here.
  if (options.fail_on_loss && loss_prng_.has_value()) {
    double survive = 1.0;
    for (const Link* link : route.links) {
      const double p_abort =
          std::min(1.0, link->loss_probability() * options.loss_abort_multiplier);
      survive *= 1.0 - p_abort;
    }
    const double p_fail = 1.0 - survive;
    if (p_fail > 0.0 && loss_prng_->NextDouble() < p_fail) {
      flow.doomed = true;
    }
  }

  if (flows_started_counter_ != nullptr) {
    flows_started_counter_->Increment();
    wire_bytes_counter_->Increment(static_cast<uint64_t>(flow.remaining_bytes));
  }
  if (TraceRecorder* tracer = loop_.tracer()) {
    tracer->AddAsyncBegin("net", "flow", id, loop_.now());
  }
  flows_.emplace(id, std::move(flow));

  // Connection setup + request takes one round trip; then the flow joins
  // the fair-share competition (or dies, if the loss roll doomed it).
  loop_.ScheduleAfter(2 * route.one_way_latency, [this, id] {
    auto it = flows_.find(id);
    if (it == flows_.end()) {
      return;  // cancelled during setup
    }
    if (it->second.doomed) {
      RetireFlow(id, UnavailableError("flow aborted: packet loss on route"),
                 "net.flows_aborted_loss");
    } else {
      Settle();  // may run a callback that cancels this flow
      if (it = flows_.find(id); it != flows_.end()) {
        it->second.started = true;
        AddFlowMembership(id, it->second);
      }
    }
    Reschedule();
  });
  Reschedule();
  return id;
}

bool FlowScheduler::CancelFlow(FlowId id) {
  Settle();
  if (!RetireFlow(id, CancelledError("flow cancelled"), "net.flows_cancelled")) {
    return false;
  }
  Reschedule();
  return true;
}

uint64_t FlowScheduler::FlowRateBps(FlowId id) const {
  auto it = flows_.find(id);
  if (it == flows_.end()) {
    return 0;
  }
  return static_cast<uint64_t>(it->second.rate_bytes_per_us * 8e6);
}

void FlowScheduler::NotifyFlowTaps(FlowId id, const Flow& flow, bool completed) {
  FlowMetadata meta;
  meta.flow_id = id;
  meta.created_at = flow.created_at;
  meta.ended_at = loop_.now();
  meta.wire_bytes = static_cast<uint64_t>(flow.wire_bytes_total);
  meta.completed = completed;
  // Dedupe in id order: a route crossing the same link twice is one
  // observation, and ordered iteration keeps tap callback order a function
  // of creation order only.
  std::set<Link*, LinkIdLess> unique(flow.links.begin(), flow.links.end());
  for (Link* link : unique) {
    if (LinkTap* tap = link->tap()) {
      tap->OnFlowEnded(*link, meta);
    }
  }
}

bool FlowScheduler::RetireFlow(FlowId id, Result<SimTime> outcome, const char* counter) {
  auto it = flows_.find(id);
  if (it == flows_.end()) {
    return false;
  }
  auto node = flows_.extract(it);
  Flow& flow = node.mapped();
  if (flow.stall_event) {
    loop_.Cancel(*flow.stall_event);
  }
  if (flow.started) {
    RemoveFlowMembership(id, flow);
  }
  const SimTime now = loop_.now();
  const StatusCode code = outcome.status().code();
  const bool failed = code != StatusCode::kOk && code != StatusCode::kCancelled;
  if (outcome.ok()) {
    if (flows_completed_counter_ != nullptr) {
      flows_completed_counter_->Increment();
      flow_duration_histogram_->Record(static_cast<double>(now - flow.created_at));
    }
  } else if (MetricsRegistry* meters = loop_.meters()) {
    if (failed) {
      meters->GetCounter("net.flows_failed")->Increment();
    }
    meters->GetCounter(counter)->Increment();
  }
  if (TraceRecorder* tracer = loop_.tracer()) {
    tracer->AddAsyncEnd("net", "flow", id, now);
    if (failed) {
      tracer->AddInstant("fault", std::string("flow_failed:") + StatusCodeName(code).data(),
                         "faults", now);
    }
  }
  NotifyFlowTaps(id, flow, /*completed=*/outcome.ok());
  if (flow.done) {
    flow.done(std::move(outcome));
  }
  return true;
}

void FlowScheduler::AddFlowMembership(FlowId id, const Flow& flow) {
  if (flow.links.empty()) {
    // Empty-route flows are rated at the global first-round min share — a
    // value no component-restricted pass can see — so force a full pass.
    ++started_empty_route_flows_;
    global_dirty_ = true;
    return;
  }
  for (Link* link : flow.links) {
    std::vector<FlowId>& ids = link_flows_[link];
    ids.insert(std::upper_bound(ids.begin(), ids.end(), id), id);
    dirty_links_.insert(link);
  }
}

void FlowScheduler::RemoveFlowMembership(FlowId id, const Flow& flow) {
  if (flow.links.empty()) {
    // Removal changes nobody else's rate (empty routes consume no capacity),
    // so no recompute is forced.
    --started_empty_route_flows_;
    return;
  }
  for (Link* link : flow.links) {
    auto it = link_flows_.find(link);
    NYMIX_CHECK_MSG(it != link_flows_.end(), "flow removed from untracked link");
    std::vector<FlowId>& ids = it->second;
    auto pos = std::lower_bound(ids.begin(), ids.end(), id);
    NYMIX_CHECK_MSG(pos != ids.end() && *pos == id, "flow missing from link membership");
    ids.erase(pos);
    dirty_links_.insert(link);
    if (ids.empty()) {
      link_flows_.erase(it);
    }
  }
}

void FlowScheduler::Settle() {
  const SimTime now = loop_.now();
  if (now == last_settle_) {
    return;
  }
  RefreshMeters();
  const double elapsed_us = static_cast<double>(now - last_settle_);
  last_settle_ = now;

  std::vector<FlowId> finished;
  for (auto& [id, flow] : flows_) {
    if (!flow.started) {
      continue;
    }
    flow.remaining_bytes -= flow.rate_bytes_per_us * elapsed_us;
    if (flow.remaining_bytes <= 1e-6) {
      flow.remaining_bytes = 0;
      finished.push_back(id);
    }
  }
  // An earlier flow's `done` may cancel a later one; RetireFlow skips it.
  for (FlowId id : finished) {
    RetireFlow(id, now, nullptr);
  }
}

void FlowScheduler::Waterfill(const std::vector<FlowId>& flow_ids) {
  // Max-min fair allocation by progressive filling over exactly the links
  // the given flows cross. Keyed by creation order (LinkIdLess), not
  // pointer: the min-share scan iterates these maps, and address-ordered
  // iteration would make float rounding — and therefore reported
  // bandwidths — vary run to run.
  std::map<Link*, double, LinkIdLess> capacity;    // bytes/us remaining per link
  std::map<Link*, int, LinkIdLess> unfixed_count;  // unfixed flows per link
  std::vector<Flow*> unfixed;
  unfixed.reserve(flow_ids.size());
  for (FlowId id : flow_ids) {
    Flow& flow = flows_.at(id);
    flow.rate_bytes_per_us = 0;
    unfixed.push_back(&flow);
    for (Link* link : flow.links) {
      // A downed link contributes zero capacity: flows crossing it rate at
      // 0 and (with a stall_timeout) eventually fail instead of hanging.
      capacity.emplace(link,
                       link->is_down() ? 0.0 : static_cast<double>(link->bandwidth_bps()) / 8e6);
      ++unfixed_count[link];
    }
  }

  while (!unfixed.empty()) {
    // Find the most contended link's per-flow share.
    double min_share = std::numeric_limits<double>::infinity();
    for (const auto& [link, count] : unfixed_count) {
      if (count > 0) {
        min_share = std::min(min_share, capacity[link] / count);
      }
    }
    if (!std::isfinite(min_share)) {
      // Flows with empty routes (loopback): unconstrained, finish "instantly"
      // at a very high nominal rate.
      for (Flow* flow : unfixed) {
        flow->rate_bytes_per_us = 1e9;
      }
      break;
    }
    // Fix every flow bottlenecked at that share. A bottlenecked flow is
    // fixed at its OWN tightest link's share rather than at min_share:
    // min_share can come from an unrelated connected component whose
    // arithmetic history differs in the last bits, and rounding that noise
    // into the rate would make a component-restricted waterfill disagree
    // with a global one by one ulp. The flow's own share is computed purely
    // from links it crosses, so it is bit-identical either way; it is
    // always >= min_share (min_share minimizes over a superset of links),
    // so the epsilon window and the progress guarantee are unchanged.
    std::vector<Flow*> still_unfixed;
    for (Flow* flow : unfixed) {
      double own_share = std::numeric_limits<double>::infinity();
      for (Link* link : flow->links) {
        own_share = std::min(own_share, capacity[link] / unfixed_count[link]);
      }
      if (flow->links.empty()) {
        // Empty route mixed into a constrained set: matched to the round
        // minimum. Live empty-route flows force a full waterfill in both
        // modes (see Reschedule), so this coupling is mode-invariant.
        flow->rate_bytes_per_us = min_share;
      } else if (own_share <= min_share + 1e-12) {
        flow->rate_bytes_per_us = own_share;
        for (Link* link : flow->links) {
          capacity[link] -= own_share;
          --unfixed_count[link];
        }
      } else {
        still_unfixed.push_back(flow);
      }
    }
    NYMIX_CHECK_MSG(still_unfixed.size() < unfixed.size(), "waterfilling did not progress");
    unfixed = std::move(still_unfixed);
  }
}

void FlowScheduler::UpdateStallWatches(const std::vector<FlowId>& flow_ids) {
  // Stall bookkeeping: a started flow rated 0 with a stall deadline either
  // arms its deadline or, if rates recovered, disarms it. Scanning only the
  // just-recomputed flows (ascending id, like a full scan would visit them)
  // is exact: a flow whose rate was not recomputed cannot transition.
  for (FlowId id : flow_ids) {
    Flow& flow = flows_.at(id);
    if (!flow.started || flow.options.stall_timeout == 0) {
      continue;
    }
    const bool rate_zero = flow.rate_bytes_per_us <= 0 && flow.remaining_bytes > 0;
    if (rate_zero && !flow.stall_event) {
      flow.stall_event =
          loop_.ScheduleAfter(flow.options.stall_timeout, [this, id] { StallDeadline(id); });
      if (MetricsRegistry* meters = loop_.meters()) {
        meters->GetCounter("net.flow_stall_watches")->Increment();
      }
    } else if (!rate_zero && flow.stall_event) {
      loop_.Cancel(*flow.stall_event);
      flow.stall_event.reset();
    }
  }
}

void FlowScheduler::StallDeadline(FlowId id) {
  // Nothing rescheduled since the stall began; if the route flapped back up
  // in the meantime, rejoin the competition instead of dying. The flow stays
  // stalled (its fired event id kept) while Settle runs callbacks, so a
  // refresh they trigger does not arm a second deadline.
  const std::vector<Link*>& links = flows_.at(id).links;
  const bool route_up =
      std::none_of(links.begin(), links.end(), [](const Link* link) { return link->is_down(); });
  Settle();  // may run a callback that cancels this flow
  if (auto it = flows_.find(id); it != flows_.end()) {
    it->second.stall_event.reset();
    if (!route_up) {
      RetireFlow(id, UnavailableError("flow stalled: route down"), "net.flows_stalled");
    }
  }
  Reschedule();
}

std::vector<FlowId> FlowScheduler::DirtyClosure() const {
  // Closure: any flow on a dirty link, any link of such a flow, and so on.
  // Links outside the closure saw no membership or capacity change and
  // share no flow with one that did, so their flows' max-min rates are
  // unchanged by definition of the waterfill.
  std::set<Link*, LinkIdLess> comp_links;
  std::set<FlowId> comp_flows;
  std::vector<Link*> frontier;
  for (Link* link : dirty_links_) {
    // A dirty link with no started flows (flap on an idle link, or the
    // last flow just left) constrains nobody — skip it.
    if (link_flows_.contains(link) && comp_links.insert(link).second) {
      frontier.push_back(link);
    }
  }
  while (!frontier.empty()) {
    Link* link = frontier.back();
    frontier.pop_back();
    for (FlowId id : link_flows_.at(link)) {
      if (!comp_flows.insert(id).second) {
        continue;
      }
      for (Link* next : flows_.at(id).links) {
        if (comp_links.insert(next).second) {
          frontier.push_back(next);
        }
      }
    }
  }
  return {comp_flows.begin(), comp_flows.end()};
}

void FlowScheduler::Reschedule() {
  if (pending_event_) {
    loop_.Cancel(*pending_event_);
    pending_event_.reset();
  }
  RefreshMeters();

  // Dirty-driven dispatch. The modes differ only in which flows they
  // re-rate; the refresh tail and the completion-event scan below are
  // shared, which is what keeps full and incremental runs byte-identical
  // in their traces.
  const bool dirty = global_dirty_ || !dirty_links_.empty();
  const bool full = full_recompute_ || global_dirty_ || (dirty && started_empty_route_flows_ > 0);
  if (!full && !dirty) {
    // Nothing changed since the last waterfill: every rate is still exact.
    ++waterfill_skips_;
    if (skipped_counter_ != nullptr) {
      skipped_counter_->Increment();
    }
  } else {
    std::vector<FlowId> ids;
    if (full) {
      ids.reserve(flows_.size());
      for (const auto& [id, flow] : flows_) {
        if (flow.started) {
          ids.push_back(id);
        }
      }
    } else {
      ids = DirtyClosure();
    }
    Waterfill(ids);
    UpdateStallWatches(ids);
    ++(full ? waterfills_full_ : waterfills_component_);
    if (recomputes_counter_ != nullptr) {
      recomputes_counter_->Increment();
    }
    dirty_links_.clear();
    global_dirty_ = false;
  }
  // Schedule the earliest completion. Runs identically in every mode and on
  // the skip path: the scan is over all flows, and the cancel/reschedule of
  // the pending event above/below keeps the event table in lockstep with a
  // full-recompute run (EventLoop's pending_events trace counter sees the
  // same sizes).
  double min_eta_us = std::numeric_limits<double>::infinity();
  for (const auto& [id, flow] : flows_) {
    (void)id;
    if (flow.started && flow.rate_bytes_per_us > 0) {
      min_eta_us = std::min(min_eta_us, flow.remaining_bytes / flow.rate_bytes_per_us);
    }
  }
  if (std::isfinite(min_eta_us)) {
    SimDuration delay = static_cast<SimDuration>(min_eta_us) + 1;
    pending_event_ = loop_.ScheduleAfter(delay, [this] {
      pending_event_.reset();
      Settle();
      Reschedule();
    });
  }
}

}  // namespace nymix
