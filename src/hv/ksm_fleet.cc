#include "src/hv/ksm_fleet.h"

namespace nymix {

FleetKsmStats FleetKsmIndex::ReconcileHistograms(
    const std::vector<std::map<uint64_t, uint64_t>>& hosts) {
  FleetKsmStats stats;
  stats.hosts = hosts.size();
  std::map<uint64_t, uint64_t> fleet;
  for (const std::map<uint64_t, uint64_t>& host : hosts) {
    stats.local_pages_sharing += KsmStats::Merge(host).pages_sharing;
    for (const auto& [content, pages] : host) {
      fleet[content] += pages;
    }
  }
  KsmStats merged = KsmStats::Merge(fleet);
  stats.pages_shared = merged.pages_shared;
  stats.pages_sharing = merged.pages_sharing;
  return stats;
}

}  // namespace nymix
