#include "src/hv/ksm_fleet.h"

namespace nymix {

FleetKsmStats FleetKsmIndex::Reconcile(const std::vector<std::vector<GuestMemory>>& hosts) {
  FleetKsmStats stats;
  stats.hosts = hosts.size();
  std::vector<const GuestMemory*> fleet;
  for (const std::vector<GuestMemory>& host : hosts) {
    size_t first = fleet.size();
    for (const GuestMemory& memory : host) {
      fleet.push_back(&memory);
    }
    stats.local_pages_sharing += KsmStats::Of({fleet.begin() + first, fleet.end()}).pages_sharing;
  }
  KsmStats merged = KsmStats::Of(fleet);
  stats.pages_shared = merged.pages_shared;
  stats.pages_sharing = merged.pages_sharing;
  return stats;
}

}  // namespace nymix
