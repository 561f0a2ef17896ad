// Kernel samepage merging model (§4.2, Figure 3). The daemon periodically
// scans every VM's shareable pages and merges duplicates: n pages with the
// same content cost one physical page after merging. Because all Nymix VMs
// boot from the same base image, image-backed pages merge across nyms —
// the paper measures "over 5% saving at 8 nyms".
//
// Scans are closed-form: memories fall into a few shapes (image, mapped
// pages) that differ only in their dirtied prefix (src/hv/guest_memory.h),
// and a pass merges each content's total over whole shapes straight off
// the walk (KsmStats::Of over ContentTotals), with no histogram. The
// daemon keeps only each memory's last merged write-generation; a pass in
// which none moved and no memory vanished reuses the last result. The
// invariant (docs/performance.md): stats() is bit-identical to a full
// merge of every live memory's pages_by_content() — the reference path
// behind set_full_rescan(true), enforced by tests/perf_equivalence_test.cc.
#ifndef SRC_HV_KSM_H_
#define SRC_HV_KSM_H_

#include <functional>
#include <map>
#include <vector>

#include "src/hv/guest_memory.h"
#include "src/util/event_loop.h"

namespace nymix {

struct KsmStats {
  // Physical pages holding merged content (kernel's pages_shared).
  uint64_t pages_shared = 0;
  // Guest pages mapped onto those (kernel's pages_sharing); the Figure 3
  // "shared pages" series.
  uint64_t pages_sharing = 0;
  // Host pages freed by merging: pages_sharing - pages_shared.
  uint64_t pages_saved() const { return pages_sharing - pages_shared; }
  uint64_t bytes_saved() const { return pages_saved() * kPageSize; }

  // Merges one content that `pages` guest pages hold: more than one page
  // costs one physical page for all of its mappings.
  void Add(uint64_t pages) {
    if (pages > 1) {
      pages_shared += 1;
      pages_sharing += pages;
    }
  }

  // The merge of ContentTotals(memories), taken straight off the shape
  // walk (Add per content). Adds the positions walked to *positions_walked.
  static KsmStats Of(const std::vector<const GuestMemory*>& memories,
                     uint64_t* positions_walked = nullptr);
};

class KsmDaemon {
 public:
  // `memories` enumerates the live VMs' guest memories at scan time.
  KsmDaemon(EventLoop& loop, std::function<std::vector<const GuestMemory*>()> memories);

  // One scan pass (instantaneous in virtual time). Real ksmd sweeps
  // incrementally; Nymix's measurement points are all post-stabilization,
  // so a full merge summary at each tick is the faithful result — this
  // implementation just reaches it by shape arithmetic instead of by
  // rescanning every page.
  KsmStats ScanNow();

  // Enables periodic scanning. Calling Start while already running adopts
  // the new cadence immediately: the pending tick is rescheduled to fire
  // `interval` from now instead of riding out the old interval.
  void Start(SimDuration interval);
  void Stop();

  const KsmStats& stats() const { return stats_; }
  bool running() const { return running_; }

  // Reference implementation hook: rescan and re-merge everything on every
  // pass (the pre-incremental behavior). Benches use it for wall-clock
  // comparison; the equivalence tests assert bit-identical stats against
  // it. Enabling it drops the per-memory generations, so switching back
  // starts from a clean first-scan baseline.
  void set_full_rescan(bool full);
  bool full_rescan() const { return full_rescan_; }

  // The memories tracked right now. ShardedFleet snapshots them by value
  // for the cross-host reconcile (src/hv/ksm_fleet.h).
  std::vector<const GuestMemory*> memories() const { return memories_(); }

  // Scan-effort introspection (always counted, metrics attached or not).
  uint64_t passes() const { return passes_; }
  uint64_t memories_merged() const { return memories_merged_; }
  uint64_t memories_skipped() const { return memories_skipped_; }
  // Image content positions walked by incremental merges: 0 for a pass in
  // which no generation moved and no memory vanished. Full rescans go
  // through pages_by_content() and are not counted.
  uint64_t positions_walked() const { return positions_walked_; }

 private:
  void Tick();
  KsmStats FullRescan(const std::vector<const GuestMemory*>& memories,
                      uint64_t* pages_scanned);
  void RefreshMeters();

  EventLoop& loop_;
  std::function<std::vector<const GuestMemory*>()> memories_;
  KsmStats stats_;
  SimDuration interval_ = 0;
  bool running_ = false;
  uint64_t pending_event_ = 0;

  bool full_rescan_ = false;
  // GuestMemory::id() → the generation last merged (incremental mode only).
  std::map<uint64_t, uint64_t> last_generation_;

  uint64_t passes_ = 0;
  uint64_t memories_merged_ = 0;
  uint64_t memories_skipped_ = 0;
  uint64_t positions_walked_ = 0;

  // Cached instruments, refreshed when the loop's observability epoch
  // moves (see EventLoop::observability_epoch()).
  uint64_t meters_epoch_ = 0;
  Counter* passes_counter_ = nullptr;
  Counter* pages_scanned_counter_ = nullptr;
  Counter* memories_skipped_counter_ = nullptr;
  Gauge* pages_shared_gauge_ = nullptr;
  Gauge* pages_sharing_gauge_ = nullptr;
};

}  // namespace nymix

#endif  // SRC_HV_KSM_H_
