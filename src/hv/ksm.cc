#include "src/hv/ksm.h"

#include <utility>

namespace nymix {

KsmStats KsmStats::Of(const std::vector<const GuestMemory*>& memories,
                      uint64_t* positions_walked) {
  KsmStats stats;
  uint64_t walked = ContentTotals(memories, [&](uint64_t, uint64_t pages) {
    if (pages > 1) {
      stats.pages_shared += 1;
      stats.pages_sharing += pages;
    }
  });
  if (positions_walked != nullptr) {
    *positions_walked += walked;
  }
  return stats;
}

KsmDaemon::KsmDaemon(EventLoop& loop, std::function<std::vector<const GuestMemory*>()> memories)
    : loop_(loop), memories_(std::move(memories)) {}

void KsmDaemon::RefreshMeters() {
  if (meters_epoch_ == loop_.observability_epoch()) {
    return;
  }
  meters_epoch_ = loop_.observability_epoch();
  passes_counter_ = nullptr;
  pages_scanned_counter_ = nullptr;
  memories_skipped_counter_ = nullptr;
  pages_shared_gauge_ = nullptr;
  pages_sharing_gauge_ = nullptr;
  if (MetricsRegistry* meters = loop_.meters()) {
    passes_counter_ = meters->GetCounter("hv.ksm.passes");
    pages_scanned_counter_ = meters->GetCounter("hv.ksm.pages_scanned");
    memories_skipped_counter_ = meters->GetCounter("hv.ksm.memories_skipped");
    pages_shared_gauge_ = meters->GetGauge("hv.ksm.pages_shared");
    pages_sharing_gauge_ = meters->GetGauge("hv.ksm.pages_sharing");
  }
}

void KsmDaemon::set_full_rescan(bool full) {
  if (full == full_rescan_) {
    return;
  }
  full_rescan_ = full;
  // Either direction invalidates the merged generations: the full path does
  // not maintain them, so re-entering incremental mode must start afresh.
  last_generation_.clear();
}

KsmStats KsmDaemon::FullRescan(const std::vector<const GuestMemory*>& memories,
                               uint64_t* pages_scanned) {
  std::map<uint64_t, uint64_t> merged;
  for (const GuestMemory* memory : memories) {
    for (const auto& [content, count] : memory->pages_by_content()) {
      merged[content] += count;
      *pages_scanned += count;
    }
  }
  memories_merged_ += memories.size();
  KsmStats stats;
  for (const auto& [content, count] : merged) {
    (void)content;
    if (count > 1) {
      stats.pages_shared += 1;
      stats.pages_sharing += count;
    }
  }
  return stats;
}

KsmStats KsmDaemon::ScanNow() {
  TraceSpan span(loop_.tracer(), loop_.clock(), "hv", "ksm_scan", "ksm");
  RefreshMeters();
  ++passes_;
  uint64_t pages_scanned = 0;
  uint64_t skipped = 0;
  std::vector<const GuestMemory*> memories = memories_();

  if (full_rescan_) {
    stats_ = FullRescan(memories, &pages_scanned);
  } else {
    // Re-merge only if some memory's generation moved since the last pass
    // (all of them, on the first pass) or a memory disappeared (VM stopped
    // or destroyed). The merge is integer-exact, so it is bit-identical to
    // a full re-merge.
    std::map<uint64_t, uint64_t> previous = std::exchange(last_generation_, {});
    for (const GuestMemory* memory : memories) {
      last_generation_[memory->id()] = memory->generation();
      auto last = previous.extract(memory->id());
      if (!last.empty() && last.mapped() == memory->generation()) {
        ++skipped;
        continue;
      }
      ++memories_merged_;
      pages_scanned += memory->zero_pages() + memory->image_pages();
    }
    // `previous` now holds only the memories that disappeared.
    if (skipped < memories.size() || !previous.empty()) {
      stats_ = KsmStats::Of(memories, &positions_walked_);
    }
  }

  memories_skipped_ += skipped;
  if (passes_counter_ != nullptr) {
    passes_counter_->Increment();
    pages_scanned_counter_->Increment(pages_scanned);
    memories_skipped_counter_->Increment(skipped);
    pages_shared_gauge_->Set(static_cast<double>(stats_.pages_shared));
    pages_sharing_gauge_->Set(static_cast<double>(stats_.pages_sharing));
  }
  return stats_;
}

void KsmDaemon::Start(SimDuration interval) {
  NYMIX_CHECK(interval > 0);
  interval_ = interval;
  if (running_) {
    // Already running: adopt the new cadence now. Without this the pending
    // tick would still fire on the old interval (and the first Start's
    // cadence would persist forever, since Tick reschedules from interval_
    // only after the stale event fires).
    loop_.Cancel(pending_event_);
    pending_event_ = loop_.ScheduleAfter(interval_, [this] {
      if (running_) {
        Tick();
      }
    });
    return;
  }
  running_ = true;
  Tick();
}

void KsmDaemon::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  loop_.Cancel(pending_event_);
  pending_event_ = 0;
}

void KsmDaemon::Tick() {
  ScanNow();
  pending_event_ = loop_.ScheduleAfter(interval_, [this] {
    if (running_) {
      Tick();
    }
  });
}

}  // namespace nymix
