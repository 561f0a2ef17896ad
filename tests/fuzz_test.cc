// Property suite for the scenario fuzzer (src/fuzz, docs/fuzzing.md).
// These are the guarantees the whole lane rests on:
//   - generation is a pure function of (seed, options);
//   - the .nymfuzz text form round-trips exactly and parses totally;
//   - the runner is deterministic (same scenario, same digest) and total
//     (arbitrary step soup executes without crashing the harness);
//   - the planted NAT leak is caught, shrinks to a tiny repro, and that
//     repro replays bit-for-bit — proof the oracle suite is live;
//   - the shrinker is deterministic, monotonic in ScenarioWeight, and
//     terminates within its candidate budget.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fuzz/entropy.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/oracle.h"
#include "src/fuzz/runner.h"
#include "src/fuzz/scenario.h"
#include "src/fuzz/shrink.h"

namespace nymix {
namespace {

// ---------------------------------------------------------------- generator

TEST(FuzzGeneratorTest, SameSeedSameScenario) {
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    EXPECT_EQ(GenerateScenario(seed), GenerateScenario(seed)) << "seed " << seed;
  }
}

TEST(FuzzGeneratorTest, DifferentSeedsDiffer) {
  int distinct = 0;
  for (uint64_t seed = 1; seed < 32; ++seed) {
    if (!(GenerateScenario(seed) == GenerateScenario(seed + 1))) {
      ++distinct;
    }
  }
  EXPECT_GT(distinct, 25);  // near-all neighbours must differ
}

TEST(FuzzGeneratorTest, FamilyPinIsRespected) {
  for (ScenarioFamily family : {ScenarioFamily::kNet, ScenarioFamily::kHost,
                                ScenarioFamily::kFleet, ScenarioFamily::kDecoder,
                                ScenarioFamily::kParallel}) {
    GeneratorOptions options;
    options.family = family;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      Scenario scenario = GenerateScenario(seed, options);
      EXPECT_EQ(scenario.family, family) << "seed " << seed;
      for (const ScenarioStep& step : scenario.steps) {
        EXPECT_EQ(FamilyOfStep(step.kind), family)
            << "seed " << seed << " step " << StepKindName(step.kind);
      }
    }
  }
}

TEST(FuzzGeneratorTest, MaxStepsIsHonoured) {
  GeneratorOptions options;
  options.max_steps = 3;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    EXPECT_LE(GenerateScenario(seed, options).steps.size(), 3u);
  }
}

// A net scenario whose every step is a no-op (a channel on one shard, a
// fault profile with no channel) would make its identity checks compare
// two empty runs. Checked by outcome, not by step kind: each generated net
// scenario must digest differently from the same scenario with no steps.
TEST(FuzzGeneratorTest, NetScenariosRunEvents) {
  GeneratorOptions options;
  options.family = ScenarioFamily::kNet;
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    Scenario scenario = GenerateScenario(seed, options);
    // One base run each: the identity reruns do not change the digest.
    scenario.topology.threads = 1;
    scenario.topology.check_mode_identity = false;
    Scenario idle = scenario;
    idle.steps.clear();
    EXPECT_NE(RunScenario(scenario).digest, RunScenario(idle).digest)
        << "gen-seed " << seed << ":\n"
        << ScenarioToText(scenario);
  }
}

TEST(FuzzEntropyTest, ForkedStreamsAreStableAndLabelled) {
  EntropySource a(42);
  EntropySource b(42);
  EXPECT_EQ(a.Fork("host").prng().NextU64(), b.Fork("host").prng().NextU64());
  EXPECT_NE(a.Fork("host").prng().NextU64(), a.Fork("net").prng().NextU64());
}

// ---------------------------------------------------------------- text form

TEST(FuzzScenarioTextTest, RoundTripsAcrossFamiliesAndSeeds) {
  for (ScenarioFamily family : {ScenarioFamily::kNet, ScenarioFamily::kHost,
                                ScenarioFamily::kFleet, ScenarioFamily::kDecoder,
                                ScenarioFamily::kParallel}) {
    GeneratorOptions options;
    options.family = family;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      Scenario scenario = GenerateScenario(seed, options);
      Result<Scenario> parsed = ScenarioFromText(ScenarioToText(scenario));
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      EXPECT_EQ(*parsed, scenario) << ScenarioFamilyName(family) << " seed " << seed;
    }
  }
}

TEST(FuzzScenarioTextTest, ReproFileRoundTrips) {
  ReproFile repro;
  repro.scenario = GenerateScenario(7);
  repro.oracle = "nat-isolation";
  repro.detail = "3 of 5 AnonVM probes were ANSWERED";
  repro.digest = std::string(64, 'a');
  Result<ReproFile> parsed = ReproFromText(ReproToText(repro));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->scenario, repro.scenario);
  EXPECT_EQ(parsed->oracle, repro.oracle);
  EXPECT_EQ(parsed->detail, repro.detail);
  EXPECT_EQ(parsed->digest, repro.digest);
}

TEST(FuzzScenarioTextTest, ParserIsTotalOnGarbage) {
  // Every input must yield a Status or a Scenario, never a crash. Inputs
  // chosen to hit the distinct failure shapes: empty, wrong magic, torn
  // header, bad numbers, junk after end, embedded NULs.
  const std::vector<std::string> garbage = {
      "",
      "nymfuzz",
      "nymfuzz 2\n",
      "nymfuzz 1\nfamily mars\n",
      "nymfuzz 1\nfamily host\nseed banana\n",
      "nymfuzz 1\nfamily host\nseed 1\nstep warp a=1\nend\n",
      "nymfuzz 1\nfamily host\nseed 1\nstep host_visit a=\nend\n",
      "nymfuzz 1\nfamily host\nseed 1\nstep host_scrub payload=zz\nend\n",
      std::string("nymfuzz 1\nfamily host\x00seed 1\n", 28),
  };
  for (const std::string& text : garbage) {
    Result<Scenario> parsed = ScenarioFromText(text);
    if (parsed.ok()) {
      // Acceptable only if it parsed into something that re-serializes.
      EXPECT_FALSE(ScenarioToText(*parsed).empty());
    }
  }
}

// ------------------------------------------------------------------- runner

// The cheapest-possible scenario per family: empty step list, tiny
// topology. Verifies the runner's boot/teardown spine is clean and that the
// digest is stable run-to-run (the property --replay depends on).
TEST(FuzzRunnerTest, EmptyScenarioIsCleanAndDeterministicPerFamily) {
  for (ScenarioFamily family : {ScenarioFamily::kNet, ScenarioFamily::kHost,
                                ScenarioFamily::kFleet, ScenarioFamily::kDecoder,
                                ScenarioFamily::kParallel}) {
    Scenario scenario;
    scenario.family = family;
    scenario.seed = 5;
    scenario.topology.shards = 1;
    scenario.topology.threads = 1;
    scenario.topology.nym_count = 1;
    scenario.topology.nyms_per_host = 1;
    RunReport first = RunScenario(scenario);
    EXPECT_TRUE(first.ok) << ScenarioFamilyName(family) << ": " << first.oracle << " — "
                          << first.detail;
    RunReport second = RunScenario(scenario);
    EXPECT_EQ(first.digest, second.digest) << ScenarioFamilyName(family);
    EXPECT_FALSE(first.digest.empty());
  }
}

// Regression: a recovered nym re-enters the manager's list at the back, so
// checkpoint order must not follow manager order or a restored host
// re-checkpoints with the same bytes in a different log order. Found by the
// 200-run CI sweep (host family, seed 8945735177216552375), fixed by
// sorting CheckpointHost by nym name.
TEST(FuzzRunnerTest, CheckpointRoundtripSurvivesCrashRecovery) {
  Scenario scenario;
  scenario.family = ScenarioFamily::kHost;
  scenario.seed = 8945735177216552375ull;
  scenario.topology.shards = 1;
  scenario.topology.threads = 2;
  scenario.topology.nym_count = 2;
  scenario.topology.nyms_per_host = 1;
  scenario.topology.checkpoint_roundtrip = true;
  ScenarioStep crash;
  crash.kind = StepKind::kHostCrashRecover;
  scenario.steps.push_back(crash);
  RunReport report = RunScenario(scenario);
  EXPECT_TRUE(report.ok) << report.oracle << " — " << report.detail;
}

// Totality: step soup with hostile arguments must execute without crashing
// the harness — wrong-family steps no-op, out-of-range arguments clamp.
TEST(FuzzRunnerTest, RunnerIsClosedUnderHostileEdits) {
  Scenario scenario = GenerateScenario(11);
  scenario.family = ScenarioFamily::kHost;
  ScenarioStep hostile;
  hostile.kind = StepKind::kNetLinkFlap;  // foreign family
  hostile.a = -9999999;
  scenario.steps.push_back(hostile);
  hostile.kind = StepKind::kHostVisit;
  hostile.a = 1 << 30;  // nym index far out of range (wraps)
  hostile.b = -(1 << 30);
  scenario.steps.push_back(hostile);
  hostile.kind = StepKind::kHostUnionUnlink;
  hostile.b = 987654321;
  scenario.steps.push_back(hostile);
  RunReport report = RunScenario(scenario);
  EXPECT_FALSE(report.digest.empty());  // it ran to completion
}

// --------------------------------------------- planted leak + full pipeline

// End-to-end proof the oracles are live: sabotage the packet policy, watch
// nat-isolation catch it, shrink the repro to something tiny, and verify
// the shrunk scenario still replays to the identical failure. This is the
// in-process twin of CI's --plant=nat-leak self-test.
TEST(FuzzPlantedLeakTest, CaughtShrunkAndReplayable) {
  GeneratorOptions gen;
  gen.family = ScenarioFamily::kHost;
  Scenario scenario = GenerateScenario(7, gen);
  RunnerOptions options;
  options.plant_nat_leak = true;

  RunReport report = RunScenario(scenario, options);
  ASSERT_FALSE(report.ok) << "planted leak was NOT caught — oracle suite is blind";
  EXPECT_EQ(report.oracle, "nat-isolation") << report.detail;

  ShrinkResult shrunk = ShrinkScenario(scenario, report, options);
  EXPECT_EQ(shrunk.report.oracle, "nat-isolation");
  EXPECT_LE(shrunk.scenario.steps.size(), 10u);
  EXPECT_LE(ScenarioWeight(shrunk.scenario), ScenarioWeight(scenario));

  // The shrunk scenario must reproduce the exact same failure, twice.
  RunReport replay_a = RunScenario(shrunk.scenario, options);
  RunReport replay_b = RunScenario(shrunk.scenario, options);
  EXPECT_FALSE(replay_a.ok);
  EXPECT_EQ(replay_a.oracle, "nat-isolation");
  EXPECT_EQ(replay_a.digest, shrunk.report.digest);
  EXPECT_EQ(replay_a.digest, replay_b.digest);

  // And it must survive the text round-trip that --replay exercises.
  Result<Scenario> reparsed = ScenarioFromText(ScenarioToText(shrunk.scenario));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(RunScenario(*reparsed, options).digest, shrunk.report.digest);
}

// ----------------------------------------------------------------- shrinker

TEST(FuzzShrinkTest, WeightOrdersStepsAbovePayloadAboveArguments) {
  Scenario small;
  small.family = ScenarioFamily::kDecoder;
  ScenarioStep step;
  step.kind = StepKind::kDecodeKv;
  step.payload = Bytes(100, 0xab);
  small.steps.push_back(step);

  Scenario more_steps = small;
  more_steps.steps.push_back(step);
  EXPECT_GT(ScenarioWeight(more_steps), ScenarioWeight(small));

  Scenario bigger_payload = small;
  bigger_payload.steps[0].payload = Bytes(5000, 0xab);
  EXPECT_GT(ScenarioWeight(bigger_payload), ScenarioWeight(small));
  // One extra step outweighs any payload growth.
  EXPECT_GT(ScenarioWeight(more_steps), ScenarioWeight(bigger_payload));

  Scenario bigger_args = small;
  bigger_args.steps[0].a = 1 << 20;
  EXPECT_GT(ScenarioWeight(bigger_args), ScenarioWeight(small));
  EXPECT_GT(ScenarioWeight(bigger_payload), ScenarioWeight(bigger_args));
}

TEST(FuzzShrinkTest, DeterministicAndMonotonicAndTerminating) {
  GeneratorOptions gen;
  gen.family = ScenarioFamily::kHost;
  Scenario scenario = GenerateScenario(13, gen);
  RunnerOptions options;
  options.plant_nat_leak = true;
  RunReport report = RunScenario(scenario, options);
  ASSERT_FALSE(report.ok);

  ShrinkResult first = ShrinkScenario(scenario, report, options, /*max_candidates=*/200);
  ShrinkResult second = ShrinkScenario(scenario, report, options, /*max_candidates=*/200);
  // Deterministic: bit-identical minimization both times.
  EXPECT_EQ(first.scenario, second.scenario);
  EXPECT_EQ(first.report.digest, second.report.digest);
  EXPECT_EQ(first.candidates_tried, second.candidates_tried);
  // Monotonic: never worse than the input.
  EXPECT_LE(ScenarioWeight(first.scenario), ScenarioWeight(scenario));
  // Terminating: the budget is respected.
  EXPECT_LE(first.candidates_tried, 200);
  // Still fails the same oracle.
  EXPECT_EQ(first.report.oracle, report.oracle);
}

TEST(FuzzShrinkTest, CleanScenarioHasStableWeightZeroFloor) {
  Scenario empty;
  empty.steps.clear();
  EXPECT_GE(ScenarioWeight(empty), 0u);
  Scenario one = GenerateScenario(3);
  EXPECT_GT(ScenarioWeight(one) + 1, ScenarioWeight(one));  // no overflow at the top
}

// ------------------------------------------------------------------ oracles

TEST(FuzzOracleTest, SuiteRecordsFirstFailureOnly) {
  OracleSuite suite;
  EXPECT_TRUE(suite.ok());
  EXPECT_TRUE(suite.Fail("nat-isolation", "first"));
  EXPECT_FALSE(suite.Fail("ops-terminate", "second"));
  EXPECT_EQ(suite.failed_oracle(), "nat-isolation");
  EXPECT_EQ(suite.detail(), "first");
}

TEST(FuzzOracleTest, DisabledOracleNeverFires) {
  OracleSuite suite({"nat-isolation"});
  EXPECT_FALSE(suite.enabled("nat-isolation"));
  EXPECT_FALSE(suite.Fail("nat-isolation", "masked"));
  EXPECT_TRUE(suite.ok());
  EXPECT_TRUE(suite.Fail("ops-terminate", "real"));
}

TEST(FuzzOracleTest, AllOraclesHaveStableKnownNames) {
  for (const OracleInfo& info : AllOracles()) {
    EXPECT_TRUE(IsKnownOracle(info.name));
    EXPECT_NE(std::string_view(info.property), "");
  }
  EXPECT_FALSE(IsKnownOracle("made-up-oracle"));
}

}  // namespace
}  // namespace nymix
