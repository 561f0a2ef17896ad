// Adversary-model suite: the catch/clear matrix for the planted-isolation
// failures, thread-count byte-identity for the adversary.* outputs, the
// metadata-only contract of the link taps, and the N=64 clean-churn
// anonymity floor pinned against tests/baselines/adversary_floor.json.
//
// The matrix thresholds are the repo's leak-quantification acceptance
// criteria: every planted leak must be caught with attacker advantage
// >= 0.9 and a clean fleet must stay <= 0.1, at every seed of a 20-seed
// sweep and at 1, 2 and 4 executor threads.
#include <gtest/gtest.h>

// nymlint:allow-file(store-raw-io): the baseline is checked-in JSON
// reviewed in diffs, not simulator state.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/adversary/attacks.h"
#include "src/adversary/experiment.h"
#include "src/adversary/observer.h"
#include "src/net/simulation.h"
#include "src/obs/observability.h"

namespace nymix {
namespace {

constexpr int kSweepSeeds = 20;
constexpr uint64_t kSeedBase = 1000;
constexpr int kShards = 4;

// `surface.stats` is the merged metrics dump followed by the exported
// adversary.* family.
struct RunOutput {
  AdversaryReport report;
  RunSurface surface;
};

RunOutput RunExperiment(const AdversaryOptions& options, int threads, uint64_t seed) {
  ShardedSimulation sharded(seed, ShardPlan{kShards, threads});
  sharded.EnableObservability(/*record_wall_time=*/false);
  AdversaryExperiment experiment(sharded, options, seed);
  experiment.Run();
  sharded.MergeObservability();

  RunOutput out;
  out.report = experiment.Analyze();
  out.surface = RenderSurface(sharded.merged());
  MetricsRegistry adversary_metrics;
  adversary_metrics.set_enabled(true);
  AdversaryExperiment::ExportMetrics(out.report, adversary_metrics);
  std::ostringstream adversary;
  adversary_metrics.WriteJson(adversary);
  out.surface.stats += adversary.str();
  return out;
}

AdversaryOptions PlantedOptions(LeakPlant plant) {
  AdversaryOptions options;  // defaults: 8 nyms, 2 per host, 2 generations, mixed
  options.plant = plant;
  return options;
}

// --- Catch/clear matrix, 20-seed sweep at 1/2/4 threads ------------------

class AdversarySweep : public ::testing::TestWithParam<int> {};

TEST_P(AdversarySweep, CleanFleetStaysBelowFloor) {
  for (int s = 0; s < kSweepSeeds; ++s) {
    uint64_t seed = kSeedBase + static_cast<uint64_t>(s);
    RunOutput out = RunExperiment(PlantedOptions(LeakPlant::kNone), GetParam(), seed);
    EXPECT_LE(out.report.linkage.advantage, 0.1) << "seed " << seed;
    EXPECT_LE(out.report.linkage.linkage_probability, 0.1) << "seed " << seed;
    EXPECT_GT(out.report.nym_instances, 0u);
    EXPECT_GT(out.report.exit_flows, 0u);
  }
}

TEST_P(AdversarySweep, SharedCookieJarCaught) {
  for (int s = 0; s < kSweepSeeds; ++s) {
    uint64_t seed = kSeedBase + static_cast<uint64_t>(s);
    RunOutput out = RunExperiment(PlantedOptions(LeakPlant::kSharedCookieJar), GetParam(), seed);
    EXPECT_GE(out.report.linkage.advantage, 0.9) << "seed " << seed;
    // The catching probe is the cookie one; the others must stay clear
    // (a plant must not cross-contaminate the matrix).
    EXPECT_GE(out.report.linkage.cookie.advantage(), 0.9) << "seed " << seed;
    EXPECT_LE(out.report.linkage.exit_fingerprint.advantage(), 0.1) << "seed " << seed;
    EXPECT_LE(out.report.linkage.stain.advantage(), 0.1) << "seed " << seed;
  }
}

TEST_P(AdversarySweep, ReusedCircuitCaught) {
  for (int s = 0; s < kSweepSeeds; ++s) {
    uint64_t seed = kSeedBase + static_cast<uint64_t>(s);
    RunOutput out = RunExperiment(PlantedOptions(LeakPlant::kReusedCircuit), GetParam(), seed);
    EXPECT_GE(out.report.linkage.advantage, 0.9) << "seed " << seed;
    EXPECT_GE(out.report.linkage.exit_fingerprint.advantage(), 0.9) << "seed " << seed;
    EXPECT_LE(out.report.linkage.cookie.advantage(), 0.1) << "seed " << seed;
    EXPECT_LE(out.report.linkage.stain.advantage(), 0.1) << "seed " << seed;
  }
}

TEST_P(AdversarySweep, DisabledScrubCaught) {
  for (int s = 0; s < kSweepSeeds; ++s) {
    uint64_t seed = kSeedBase + static_cast<uint64_t>(s);
    RunOutput out = RunExperiment(PlantedOptions(LeakPlant::kDisabledScrub), GetParam(), seed);
    EXPECT_GE(out.report.linkage.advantage, 0.9) << "seed " << seed;
    EXPECT_GE(out.report.linkage.stain.advantage(), 0.9) << "seed " << seed;
    EXPECT_LE(out.report.linkage.cookie.advantage(), 0.1) << "seed " << seed;
    EXPECT_LE(out.report.linkage.exit_fingerprint.advantage(), 0.1) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, AdversarySweep, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "t" + std::to_string(info.param);
                         });

// --- Thread-count byte-identity ------------------------------------------

// The merged trace, the merged metrics dump, and the adversary.* family
// must not move a byte when only the thread count changes — compared byte
// for byte, not as digests, so a failure names the part and the offset.
TEST(AdversaryDeterminism, ThreadCountsProduceIdenticalBytes) {
  for (uint64_t seed : {7u, 21u, 404u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunOutput base = RunExperiment(PlantedOptions(LeakPlant::kNone), 1, seed);
    for (int threads : {2, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      RunOutput other = RunExperiment(PlantedOptions(LeakPlant::kNone), threads, seed);
      EXPECT_EQ(FirstDivergence(base.surface, other.surface, IdentityAxis::kThreads), "");
    }
  }
}

// A planted run must be deterministic too — the oracle thresholds are only
// trustworthy if the leak quantification itself is reproducible.
TEST(AdversaryDeterminism, PlantedRunsAreThreadStable) {
  RunOutput base = RunExperiment(PlantedOptions(LeakPlant::kSharedCookieJar), 1, 77);
  RunOutput other = RunExperiment(PlantedOptions(LeakPlant::kSharedCookieJar), 4, 77);
  EXPECT_EQ(FirstDivergence(base.surface, other.surface, IdentityAxis::kThreads), "");
}

// --- Tap metadata-only contract ------------------------------------------

class RecordingTap : public LinkTap {
 public:
  void OnPacket(const Link& link, const PacketMetadata& meta) override {
    (void)link;
    packets.push_back(meta);
  }
  void OnFlowEnded(const Link& link, const FlowMetadata& meta) override {
    (void)link;
    flows.push_back(meta);
  }
  std::vector<PacketMetadata> packets;
  std::vector<FlowMetadata> flows;
};

// Two packets that differ ONLY in payload content (same size) must produce
// indistinguishable tap observations: the tap sees timing, sizes and
// endpoints — never bytes. This is the negative test behind the §2 threat
// model split between PacketCapture (defender's Wireshark, keeps payloads)
// and LinkTap (adversary vantage, must not).
TEST(AdversaryTap, ObservationsAreContentBlind) {
  auto observe = [](uint8_t fill) {
    Simulation sim(99);
    Link* link = sim.CreateLink("tapped", Millis(1), 1'000'000'000);
    RecordingTap tap;
    link->AttachTap(&tap);
    Packet packet;
    packet.src_port = 4000;
    packet.dst_port = 443;
    packet.protocol = IpProtocol::kTcp;
    packet.payload = Bytes(64, fill);
    packet.annotation = "Secret-" + std::to_string(fill);
    link->SendFromA(packet);
    sim.RunFor(Millis(10));
    return tap.packets;
  };
  std::vector<PacketMetadata> a = observe(0xAA);
  std::vector<PacketMetadata> b = observe(0xBB);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].time, b[0].time);
  EXPECT_EQ(a[0].wire_bytes, b[0].wire_bytes);
  EXPECT_EQ(a[0].src_port, b[0].src_port);
  EXPECT_EQ(a[0].dst_port, b[0].dst_port);
  EXPECT_EQ(a[0].protocol, b[0].protocol);
  EXPECT_EQ(a[0].from_a, b[0].from_a);
}

TEST(AdversaryTap, PassiveObserverCountsWithoutRetaining) {
  Simulation sim(5);
  Link* link = sim.CreateLink("uplink", Millis(1), 1'000'000'000);
  PassiveObserver observer(TapSite::kEntry, 0);
  link->AttachTap(&observer);
  Packet small;
  small.payload = Bytes(10, 1);
  Packet big;
  big.payload = Bytes(100, 2);
  link->SendFromA(small);
  link->SendFromB(big);
  sim.RunFor(Millis(10));
  EXPECT_EQ(observer.packets_seen(), 2u);
  EXPECT_EQ(observer.bytes_seen(), small.WireSize() + big.WireSize());
  // Packets are counted, not stored: only bulk flows become observations.
  EXPECT_TRUE(observer.flows().empty());
}

// The experiment's entry taps must actually sit on a live vantage: every
// host uplink carries traffic, and every recorded flow is size+timing only.
TEST(AdversaryTap, ExperimentVantagesSeeTraffic) {
  AdversaryOptions options;
  ShardedSimulation sharded(11, ShardPlan{kShards, 2});
  AdversaryExperiment experiment(sharded, options, 11);
  experiment.Run();
  for (int host = 0; host < experiment.host_count(); ++host) {
    const PassiveObserver& observer = experiment.entry_observer(host);
    EXPECT_GT(observer.packets_seen(), 0u) << "host " << host;
    EXPECT_FALSE(observer.flows().empty()) << "host " << host;
    for (const FlowObservation& flow : observer.flows()) {
      EXPECT_EQ(flow.site, TapSite::kEntry);
      EXPECT_GT(flow.wire_bytes, 0u);
      EXPECT_GE(flow.ended_at, flow.created_at);
    }
  }
}

// --- N=64 clean-churn anonymity floor -------------------------------------

std::string FormatFloorBaseline(const AdversaryReport& report) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"experiment\": \"adversary_floor\",\n"
                "  \"n\": 64,\n"
                "  \"generations\": 2,\n"
                "  \"workload\": \"mixed\",\n"
                "  \"seed\": 7,\n"
                "  \"nym_instances\": %llu,\n"
                "  \"entry_flows\": %llu,\n"
                "  \"exit_flows\": %llu,\n"
                "  \"advantage\": %.6f,\n"
                "  \"linkage_probability\": %.6f,\n"
                "  \"anonymity_min\": %.6f,\n"
                "  \"anonymity_mean\": %.6f,\n"
                "  \"flowcorr_accuracy\": %.6f\n"
                "}\n",
                static_cast<unsigned long long>(report.nym_instances),
                static_cast<unsigned long long>(report.entry_flows),
                static_cast<unsigned long long>(report.exit_flows),
                report.linkage.advantage, report.linkage.linkage_probability,
                report.anonymity.min_set, report.anonymity.mean_set,
                report.correlation.accuracy);
  return buf;
}

// The fleet-scale floor: a 64-nym clean fleet under churn must keep the
// intersection attacker's mean candidate set at half the fleet or better,
// and the whole report is pinned byte-for-byte in the baseline file —
// set NYMIX_UPDATE_BASELINES=1 and rerun to regenerate after an
// intentional behavior change (tools/regolden.sh does this too).
TEST(AdversaryFloor, CleanChurnAnonymityFloorMatchesBaseline) {
  AdversaryOptions options;
  options.nym_count = 64;
  RunOutput out = RunExperiment(options, 2, 7);

  EXPECT_LE(out.report.linkage.advantage, 0.1);
  EXPECT_GE(out.report.anonymity.mean_set, 32.0);
  EXPECT_EQ(out.report.nym_instances, 128u);  // 64 slots x 2 generations

  std::string rendered = FormatFloorBaseline(out.report);
  std::string path = std::string(NYMIX_BASELINE_DIR) + "/adversary_floor.json";
  // nymlint:allow(determinism-env): regeneration toggle for the checked-in baseline, never feeds simulation state
  if (std::getenv("NYMIX_UPDATE_BASELINES") != nullptr) {
    std::ofstream rewrite(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(rewrite.good()) << "cannot write " << path;
    rewrite << rendered;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing baseline " << path
                         << " — run with NYMIX_UPDATE_BASELINES=1 to generate";
  std::ostringstream pinned;
  pinned << in.rdbuf();
  EXPECT_EQ(pinned.str(), rendered)
      << "adversary floor moved; if intentional, rerun with "
         "NYMIX_UPDATE_BASELINES=1 and review the diff";
}

// --- Analyzer unit checks -------------------------------------------------

TEST(AdversaryAttacks, PairCountsAdvantageClamps) {
  PairCounts counts;
  counts.true_positive = 1;
  counts.false_negative = 9;   // TPR 0.1
  counts.false_positive = 50;  // FPR 0.5
  counts.true_negative = 50;
  EXPECT_DOUBLE_EQ(counts.advantage(), 0.0);  // worse than chance clamps to 0
}

TEST(AdversaryAttacks, ExitFingerprintNeedsCommonSites) {
  NymRecord a;
  a.host = 0;
  a.slot = 0;
  NymRecord b;
  b.host = 1;
  b.slot = 1;
  // Two sites in common, agreeing — below the min_common_sites=3 bar, so
  // the probe must refuse to link (coincidence control).
  a.exits = {{"alpha", 2}, {"beta", 1}};
  b.exits = {{"alpha", 2}, {"beta", 1}};
  LinkageSummary summary = LinkNyms({a, b}, /*min_common_sites=*/3);
  EXPECT_EQ(summary.exit_fingerprint.false_positive, 0u);
  // At bar 2 the same evidence links them.
  summary = LinkNyms({a, b}, /*min_common_sites=*/2);
  EXPECT_EQ(summary.exit_fingerprint.false_positive, 1u);
}

TEST(AdversaryAttacks, StainLinksOnlyNonEmptyMatches) {
  NymRecord a;
  a.host = 0;
  NymRecord b;
  b.host = 1;
  b.slot = 1;
  NymRecord c;
  c.host = 2;
  c.slot = 2;
  a.stain = "serial-x";
  b.stain = "serial-x";
  c.stain = "";  // scrubbed: must never link, even to another empty
  LinkageSummary summary = LinkNyms({a, b, c}, 3);
  EXPECT_EQ(summary.stain.false_positive, 1u);  // a-b, cross host
  EXPECT_EQ(summary.stain.true_positive, 0u);
}

}  // namespace
}  // namespace nymix
