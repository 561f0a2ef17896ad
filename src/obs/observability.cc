#include "src/obs/observability.h"

#include <algorithm>
#include <sstream>

namespace nymix {
namespace {

std::string PartDivergence(const char* part, const std::string& base, const std::string& other) {
  if (base == other) {
    return "";
  }
  auto first = std::mismatch(base.begin(), base.end(), other.begin(), other.end()).first;
  return std::string(part) + " bytes differ at offset " + std::to_string(first - base.begin()) +
         " (base " + std::to_string(base.size()) + " bytes, other " +
         std::to_string(other.size()) + " bytes)";
}

}  // namespace

RunSurface RenderSurface(const Observability& obs) {
  std::ostringstream stats;
  obs.metrics.WriteJson(stats);
  return {obs.trace.ToChromeJson(), stats.str()};
}

std::string FirstDivergence(const RunSurface& base, const RunSurface& other, IdentityAxis axis) {
  std::string divergence = PartDivergence("trace", base.trace, other.trace);
  if (divergence.empty() && axis == IdentityAxis::kThreads) {
    divergence = PartDivergence("metrics", base.stats, other.stats);
  }
  return divergence;
}

}  // namespace nymix
