// GuestMemory: page-granular model of a VM's RAM. Pages carry 64-bit
// content identities instead of 4 KiB buffers — enough for the kernel
// samepage-merging (KSM) model to find duplicates within and across VMs
// (§4.2, Figure 3) without materializing gigabytes.
//
// Page classes:
//   zero        — untouched guest pages (all VMs share one zero page)
//   image       — pages backed by base-image blocks; identical across every
//                 VM booted from the same USB image
//   unique      — dirtied pages (heaps, browser state); never mergeable
//
// Closed form: image pages are the first `mapped` pages of the image's block
// cycle minus the first `dirtied` of those in content-id order, so every
// mutation is O(1) and no histogram is stored.
#ifndef SRC_HV_GUEST_MEMORY_H_
#define SRC_HV_GUEST_MEMORY_H_

#include <cstdint>
#include <functional>
#include <map>

#include "src/unionfs/disk_image.h"

namespace nymix {

inline constexpr uint64_t kPageSize = 4096;

// Content id 0 is reserved for the zero page.
inline constexpr uint64_t kZeroPageContent = 0;

class GuestMemory {
 public:
  // All pages are obtained from the host at initialization ("KVM obtains
  // most of the requested memory for a VM at VM initialization", §5.2) and
  // start as zero pages. The single-argument form draws the id from a
  // process-wide counter (fine for standalone tests); loop-owned callers
  // (VirtualMachine) pass EventLoop::AllocateObjectId() so parallel shards
  // allocate ids without racing or depending on shard interleaving.
  explicit GuestMemory(uint64_t ram_bytes);
  GuestMemory(uint64_t ram_bytes, uint64_t id);

  uint64_t total_pages() const { return total_pages_; }
  uint64_t total_bytes() const { return total_pages_ * kPageSize; }

  // Creation-order sequence number (same contract as Link::id()): the KSM
  // daemon keys its per-memory scan state by this instead of by pointer,
  // so iteration order is reproducible run to run.
  uint64_t id() const { return id_; }

  // Monotonic write-generation, bumped by every mutation (image mapping,
  // page dirtying, wipe). KsmDaemon::ScanNow compares this against the
  // generation it last merged at and skips memories that have not changed —
  // the invariant is: equal generation ⇒ pages_by_content() is unchanged.
  uint64_t generation() const { return generation_; }

  uint64_t zero_pages() const { return zero_pages_; }
  uint64_t image_pages() const { return mapped_ - dirtied_; }
  uint64_t unique_pages() const { return unique_pages_; }

  // Image pages mapped since the last Wipe, and how many were dirtied since.
  uint64_t mapped_image_pages() const { return mapped_; }
  uint64_t dirtied_image_pages() const { return dirtied_; }

  // The image behind the mapped pages (nullptr if none). Aborts if it was
  // tampered with since: the pages would change without a generation bump.
  const BaseImage* image() const;

  // Boot: maps `count` zero pages to base-image block contents (page cache,
  // text segments), cycling through the blocks from where the last call
  // stopped — Map(a); Map(b) ≡ Map(a + b) — so two VMs on the same image
  // produce identical ids. One image per memory until Wipe.
  void MapImagePages(const BaseImage& image, uint64_t count);

  // Dirties pages into count-only unique content: first consumes zero
  // pages, then converts image-backed pages (copy-on-write break) in
  // ascending content order, never un-dirties.
  void DirtyPages(uint64_t count);

  // Shareable-content histogram: content id -> page count, covering zero
  // and image-backed pages, with no zero-count entries. Unique pages never
  // merge, so they are only counted (unique_pages()).
  std::map<uint64_t, uint64_t> pages_by_content() const;

  // Secure erase at nym termination: every page becomes zero again and the
  // unique ids are discarded (§3.4 "securely erases the AnonVM's and
  // CommVM's memory").
  void Wipe();

 private:
  uint64_t id_;
  uint64_t generation_ = 1;
  uint64_t total_pages_;
  uint64_t zero_pages_;
  uint64_t unique_pages_ = 0;
  const BaseImage* image_ = nullptr;
  uint64_t image_mutation_ = 0;  // image's mutation_count() at map time
  uint64_t mapped_ = 0;
  uint64_t dirtied_ = 0;
};

// Calls sink(content id, pages summed over `memories`) for every content
// they hold, ascending, with no zero totals; returns the image content
// positions walked. Memories of one shape — (image, mapped_image_pages()) —
// are walked together, along the mapped part of the image's content order.
uint64_t ContentTotals(const std::vector<const GuestMemory*>& memories,
                       const std::function<void(uint64_t, uint64_t)>& sink);

}  // namespace nymix

#endif  // SRC_HV_GUEST_MEMORY_H_
