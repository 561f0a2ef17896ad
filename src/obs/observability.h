// Observability: the bundle a simulation carries — one TraceRecorder plus
// one MetricsRegistry. Attach it to an EventLoop
// (EventLoop::set_observability) and every instrumented layer above (flows,
// links, KSM, VM boots, Tor bootstrap, nym lifecycle, page loads) starts
// reporting. Both halves default to disabled; an attached-but-disabled or
// simply unattached Observability keeps the per-event cost at a pointer
// check.
//
// RunSurface / FirstDivergence: the one place the byte-identity contract
// (same seed, same trace and stats bytes at every thread count and mode)
// is rendered and checked, for the fuzz oracles, tests and benches alike.
#ifndef SRC_OBS_OBSERVABILITY_H_
#define SRC_OBS_OBSERVABILITY_H_

#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace nymix {

struct Observability {
  TraceRecorder trace;
  MetricsRegistry metrics;

  void EnableAll() {
    trace.set_enabled(true);
    metrics.set_enabled(true);
  }
};

// One run as the bytes the identity contract covers. Callers may append
// run-level aggregates to `stats`; they are compared with it.
struct RunSurface {
  std::string trace;  // TraceRecorder::ToChromeJson
  std::string stats;  // MetricsRegistry::WriteJson
};

RunSurface RenderSurface(const Observability& obs);

enum class IdentityAxis {
  // Thread count (or a repeat run, or a warm start): trace, then stats.
  kThreads,
  // Incremental vs full-recompute: trace only. The KSM / waterfill work
  // counters (hv.ksm.memories_skipped, hv.ksm.pages_scanned,
  // net.fair_share_*) count the work saved, so they differ by design.
  kFullRecompute,
};

// Empty when the parts the axis covers match; otherwise the first differing
// part and byte offset: "trace bytes differ at offset 1834 (base 90211
// bytes, other 90214 bytes)", or "metrics bytes ..." for the stats.
std::string FirstDivergence(const RunSurface& base, const RunSurface& other, IdentityAxis axis);

}  // namespace nymix

#endif  // SRC_OBS_OBSERVABILITY_H_
