// Fleet-wide KSM reconcile: what samepage merging *would* save if the whole
// fleet's memory sat on one machine.
//
// Each host's KsmDaemon only merges within its own machine — that is the
// real kernel's scope, and in the parallel executor it is also the shard
// boundary. The fleet index answers the cross-host question (every Nymix
// box boots the same release image, so image-backed pages duplicate across
// hosts exactly as they do across VMs): it merges every host's memories as
// one pool, by shape (src/hv/guest_memory.h), and re-derives shared/sharing
// totals. No histogram is built.
//
// Determinism: the reconcile is pure — it reads closed-form memories (value
// snapshots, scan-mode independent) and its totals are integer sums, so
// host order cannot change them. ShardedFleet passes hosts in creation
// order anyway, so the result is byte-identical across thread counts and
// identical between a sharded run and an unsharded one with the same
// per-host contents.
#ifndef SRC_HV_KSM_FLEET_H_
#define SRC_HV_KSM_FLEET_H_

#include <vector>

#include "src/hv/ksm.h"

namespace nymix {

struct FleetKsmStats {
  uint64_t hosts = 0;
  // Fleet-wide merge result (KsmStats semantics, §4.2 / Figure 3, but over
  // every host's pages at once).
  uint64_t pages_shared = 0;
  uint64_t pages_sharing = 0;
  // Sum of what per-host merging already achieves on its own.
  uint64_t local_pages_sharing = 0;

  uint64_t pages_saved() const { return pages_sharing - pages_shared; }
  uint64_t bytes_saved() const { return pages_saved() * kPageSize; }
  // Sharing visible only fleet-wide: pages whose content is unique within
  // their host but duplicated on another host.
  uint64_t cross_host_extra_sharing() const { return pages_sharing - local_pages_sharing; }
};

class FleetKsmIndex {
 public:
  // Reconciles per-host memory snapshots, one per host in host creation
  // order. ShardedFleet feeds it value copies taken at a fixed virtual time
  // while the nyms are alive; their images must still be alive, untampered.
  static FleetKsmStats Reconcile(const std::vector<std::vector<GuestMemory>>& hosts);
};

}  // namespace nymix

#endif  // SRC_HV_KSM_FLEET_H_
