// Equivalence tests for the incremental hot paths (docs/performance.md):
// the closed-form KSM scanner and the dirty-driven fair-share scheduler must
// produce results bit-identical to their reference full-recompute
// implementations (set_full_rescan / set_full_recompute), under randomized
// seeded stress. The introspection counters double-check that the
// incremental paths were actually taken — an equivalence test that silently
// fell back to full recomputation would prove nothing.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/crypto/merkle.h"
#include "src/hv/ksm.h"
#include "src/hv/ksm_fleet.h"
#include "src/net/simulation.h"
#include "src/util/prng.h"

namespace nymix {
namespace {

// ------------------------------------------------------------------- KSM

// A 64-block image in which blocks repeat one of 7 digests (block i holds
// block i % 7's), built through the checkpoint path with a matching tree.
std::shared_ptr<BaseImage> DuplicateBlockImage() {
  constexpr uint64_t kBlocks = 64;
  auto source = BaseImage::CreateDistribution("dup", 5, kBlocks * kDiskBlockSize);
  std::vector<Sha256Digest> digests;
  for (uint64_t i = 0; i < kBlocks; ++i) {
    digests.push_back(source->ReadBlockDigest(i % 7));
  }
  MerkleTree merkle = MerkleTree::Build(digests);
  auto image = BaseImage::CreateDistributionFromCheckpoint("dup", 5, kBlocks * kDiskBlockSize,
                                                           std::move(digests), std::move(merkle));
  NYMIX_CHECK(image.ok());
  return *image;
}

// The test-side reference: per-memory pages_by_content() summed in a map.
std::map<uint64_t, uint64_t> FoldHistograms(const std::vector<const GuestMemory*>& memories) {
  std::map<uint64_t, uint64_t> summed;
  for (const GuestMemory* memory : memories) {
    for (const auto& [content, pages] : memory->pages_by_content()) {
      summed[content] += pages;
    }
  }
  return summed;
}

// The kernel's merge of a histogram: a content with n > 1 pages is one
// shared page with n mappings.
KsmStats MergeHistogram(const std::map<uint64_t, uint64_t>& histogram) {
  KsmStats stats;
  for (const auto& [content, pages] : histogram) {
    if (pages > 1) {
      stats.pages_shared += 1;
      stats.pages_sharing += pages;
    }
  }
  return stats;
}

class KsmEquivalenceTest : public ::testing::Test {
 protected:
  KsmEquivalenceTest()
      : image_(BaseImage::CreateDistribution("img", 7, 8 * kMiB)),
        incremental_(loop_, [this] { return Enumerate(); }),
        reference_(loop_, [this] { return Enumerate(); }) {
    reference_.set_full_rescan(true);
  }

  std::vector<const GuestMemory*> Enumerate() const {
    std::vector<const GuestMemory*> out;
    for (const auto& memory : memories_) {
      out.push_back(memory.get());
    }
    return out;
  }

  GuestMemory& AddMemory(uint64_t ram = 64 * kMiB) {
    memories_.push_back(std::make_unique<GuestMemory>(ram));
    return *memories_.back();
  }

  void ExpectScansAgree() {
    KsmStats a = incremental_.ScanNow();
    KsmStats b = reference_.ScanNow();
    ASSERT_EQ(a.pages_shared, b.pages_shared);
    ASSERT_EQ(a.pages_sharing, b.pages_sharing);
    // The shape walk over every memory at once (what the fleet reconcile
    // runs) must equal the sum of the per-memory histograms.
    std::map<uint64_t, uint64_t> summed = FoldHistograms(Enumerate());
    std::vector<std::pair<uint64_t, uint64_t>> totals;
    ContentTotals(Enumerate(), [&](uint64_t content, uint64_t pages) {
      totals.emplace_back(content, pages);
    });
    ASSERT_EQ(totals, (std::vector<std::pair<uint64_t, uint64_t>>(summed.begin(), summed.end())));
  }

  EventLoop loop_;
  std::shared_ptr<BaseImage> image_;
  std::vector<std::unique_ptr<GuestMemory>> memories_;
  KsmDaemon incremental_;
  KsmDaemon reference_;
};

TEST_F(KsmEquivalenceTest, RandomizedMutationsStayBitIdentical) {
  Prng prng(0xBEEF);
  // Three images: the fixture's, a different one, and a same-seed copy of
  // the fixture's — distinct objects whose identical contents must merge.
  auto other = BaseImage::CreateDistribution("img", 8, 8 * kMiB);
  auto copy = BaseImage::CreateDistribution("img", 7, 8 * kMiB);
  const std::vector<const BaseImage*> images = {image_.get(), other.get(), copy.get()};
  // VMs of one role map the same page count, so shapes repeat; 2600 pages
  // wrap the 2048-block images. 12 MiB of RAM runs out of zero pages within
  // a few dirtyings, after which image pages are dirtied too.
  const uint64_t kRam = 12 * kMiB;
  const uint64_t kRolePages[] = {1200, 2600};
  for (int i = 0; i < 4; ++i) {
    AddMemory(kRam).MapImagePages(*images[static_cast<size_t>(i) % images.size()],
                                  kRolePages[i % 2]);
  }
  for (int round = 0; round < 150; ++round) {
    switch (prng.NextBelow(6)) {
      case 0:  // a VM boots
        if (memories_.size() < 8) {
          const BaseImage& image = *images[prng.NextBelow(images.size())];
          AddMemory(kRam).MapImagePages(image, kRolePages[prng.NextBelow(2)]);
        }
        break;
      case 1:  // a VM is destroyed (vanishes from enumeration)
        if (memories_.size() > 1) {
          memories_.erase(memories_.begin() +
                          static_cast<long>(prng.NextBelow(memories_.size())));
        }
        break;
      case 2:  // secure erase at nym termination
        memories_[prng.NextBelow(memories_.size())]->Wipe();
        break;
      case 3: {  // browser heap growth
        GuestMemory& memory = *memories_[prng.NextBelow(memories_.size())];
        memory.DirtyPages(prng.NextInRange(1, 800));
        break;
      }
      case 4: {  // page-cache growth, from the image the memory already maps
        GuestMemory& memory = *memories_[prng.NextBelow(memories_.size())];
        const BaseImage* image = memory.image();
        if (image == nullptr) {
          image = images[prng.NextBelow(images.size())];
        }
        memory.MapImagePages(*image, prng.NextInRange(1, 500));
        break;
      }
      default:  // quiet round: nothing changes, deltas must still agree
        break;
    }
    ExpectScansAgree();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // The incremental daemon genuinely took the skip path: quiet rounds
  // skipped clean memories and far fewer merges happened than the
  // reference's everything-every-pass.
  EXPECT_GT(incremental_.memories_skipped(), 0u);
  EXPECT_LT(incremental_.memories_merged(), reference_.memories_merged());
  EXPECT_EQ(reference_.memories_skipped(), 0u);
}

TEST_F(KsmEquivalenceTest, DirtiedPrefixesWithinAShapeMatchTheReference) {
  // Two shapes on one image (the second wraps the 2048 blocks), each with
  // memories at equal and distinct dirtied prefixes. RAM equals the mapped
  // pages, so every dirtied page breaks an image page.
  for (auto [mapped, dirtied] : std::vector<std::pair<uint64_t, std::vector<uint64_t>>>{
           {1500, {0, 0, 300, 300, 301, 1499, 1500}}, {2600, {0, 100, 100, 2047, 2600}}}) {
    for (uint64_t d : dirtied) {
      GuestMemory& memory = AddMemory(mapped * kPageSize);
      memory.MapImagePages(*image_, mapped);
      memory.DirtyPages(d);
    }
  }
  ExpectScansAgree();
  EXPECT_GT(incremental_.stats().pages_sharing, 0u);
}

TEST_F(KsmEquivalenceTest, FirstScanIsAFullPass) {
  AddMemory().MapImagePages(*image_, 1000);
  AddMemory().MapImagePages(*image_, 1000);
  ExpectScansAgree();
  EXPECT_EQ(incremental_.memories_skipped(), 0u);
  EXPECT_EQ(incremental_.memories_merged(), 2u);
  EXPECT_GT(incremental_.stats().pages_sharing, 0u);
}

TEST_F(KsmEquivalenceTest, RetiredMemoryLeavesTheIndex) {
  AddMemory().MapImagePages(*image_, 2000);
  AddMemory().MapImagePages(*image_, 2000);
  ExpectScansAgree();
  uint64_t sharing_with_two = incremental_.stats().pages_sharing;
  memories_.pop_back();
  ExpectScansAgree();
  EXPECT_LT(incremental_.stats().pages_sharing, sharing_with_two);
}

TEST_F(KsmEquivalenceTest, TogglingFullRescanRebuildsFromScratch) {
  AddMemory().MapImagePages(*image_, 1200);
  AddMemory().MapImagePages(*image_, 800);
  ExpectScansAgree();
  // Switch the incremental daemon to full and back: the merged generations
  // are dropped both ways, and the next incremental pass starts clean.
  incremental_.set_full_rescan(true);
  ExpectScansAgree();
  incremental_.set_full_rescan(false);
  ExpectScansAgree();
  memories_[0]->DirtyPages(300);
  ExpectScansAgree();
}

TEST_F(KsmEquivalenceTest, PositionsWalkedCountsExactly) {
  // The fixture's image has 2048 blocks; a shape walks the positions its
  // mapped prefix covers, each once, however many memories share it.
  GuestMemory& a = AddMemory();
  GuestMemory& b = AddMemory();
  a.MapImagePages(*image_, 1000);
  b.MapImagePages(*image_, 1000);
  AddMemory();  // zero pages only: nothing to walk
  ExpectScansAgree();
  EXPECT_EQ(incremental_.positions_walked(), 1000u);
  ExpectScansAgree();  // no generation moved: the pass walks nothing
  EXPECT_EQ(incremental_.positions_walked(), 1000u);
  b.MapImagePages(*image_, 2600);  // 3600 pages wrap all 2048 positions
  ExpectScansAgree();
  EXPECT_EQ(incremental_.positions_walked(), 1000u + 2048u);
  a.DirtyPages(a.total_pages());  // fully dirtied: no shape left for `a`
  ExpectScansAgree();
  EXPECT_EQ(incremental_.positions_walked(), 1000u + 2 * 2048u);
  auto other = BaseImage::CreateDistribution("img", 8, 8 * kMiB);
  AddMemory().MapImagePages(*other, 100);  // a second image adds its prefix
  ExpectScansAgree();
  EXPECT_EQ(incremental_.positions_walked(), 1000u + 3 * 2048u + 100u);
  memories_.pop_back();  // a vanished memory forces a re-merge
  ExpectScansAgree();
  EXPECT_EQ(incremental_.positions_walked(), 1000u + 4 * 2048u + 100u);
  ExpectScansAgree();
  EXPECT_EQ(incremental_.positions_walked(), 1000u + 4 * 2048u + 100u);
  EXPECT_EQ(reference_.positions_walked(), 0u);
}

TEST_F(KsmEquivalenceTest, MultiImageStormsMatchTheFullRescan) {
  // Two distinct objects with identical content, a different image and a
  // duplicate-digest image, under storms of map / dirty / wipe / boot /
  // destroy. Quiet rounds must walk nothing.
  auto copy = BaseImage::CreateDistribution("img", 7, 8 * kMiB);
  auto other = BaseImage::CreateDistribution("img", 8, 2 * kMiB);
  auto dup = DuplicateBlockImage();
  const std::vector<const BaseImage*> images = {image_.get(), copy.get(), other.get(), dup.get()};
  for (uint64_t seed : {1, 2, 3, 4}) {
    Prng prng(0x5700 + seed);
    memories_.clear();
    for (int round = 0; round < 120; ++round) {
      uint64_t walked = incremental_.positions_walked();
      bool quiet = false;
      switch (prng.NextBelow(7)) {
        case 0:  // a VM boots, mapped or zero-only
          if (memories_.size() < 10) {
            GuestMemory& memory = AddMemory(prng.NextInRange(1, 4000) * kPageSize);
            if (prng.NextBelow(4) != 0) {
              memory.MapImagePages(*images[prng.NextBelow(images.size())],
                                   prng.NextInRange(1, 5000));
            }
          }
          break;
        case 1:  // a VM is destroyed
          if (!memories_.empty()) {
            memories_.erase(memories_.begin() +
                            static_cast<long>(prng.NextBelow(memories_.size())));
          }
          break;
        case 2:  // page-cache growth on the memory's image (or a first one)
        case 3:
          if (!memories_.empty()) {
            GuestMemory& memory = *memories_[prng.NextBelow(memories_.size())];
            const BaseImage* image = memory.image();
            memory.MapImagePages(image != nullptr ? *image : *images[prng.NextBelow(images.size())],
                                 prng.NextInRange(1, 3000));
          }
          break;
        case 4:  // heap growth, sometimes dirtying every page
          if (!memories_.empty()) {
            GuestMemory& memory = *memories_[prng.NextBelow(memories_.size())];
            memory.DirtyPages(prng.NextBelow(3) == 0 ? memory.total_pages()
                                                     : prng.NextInRange(1, 2000));
          }
          break;
        case 5:
          if (!memories_.empty()) {
            memories_[prng.NextBelow(memories_.size())]->Wipe();
          }
          break;
        default:
          quiet = true;
          break;
      }
      ExpectScansAgree();
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "storm " << seed << " round " << round;
      }
      if (quiet) {
        EXPECT_EQ(incremental_.positions_walked(), walked) << "storm " << seed;
      }
    }
  }
  EXPECT_GT(incremental_.memories_skipped(), 0u);
  EXPECT_GT(incremental_.positions_walked(), 0u);
}

// The fleet reconcile over value snapshots (what ShardedFleet copies at
// ksm_snapshot_time) against a test-side fold of per-memory histograms.
TEST(FleetKsmReconcileTest, ValueSnapshotsMatchTheHistogramFold) {
  // Up to three images: a distribution image, a distinct object with the
  // same content, and a duplicate-digest image.
  auto image = BaseImage::CreateDistribution("img", 7, 256 * kDiskBlockSize);
  auto copy = BaseImage::CreateDistribution("img", 7, 256 * kDiskBlockSize);
  auto dup = DuplicateBlockImage();
  const std::vector<const BaseImage*> images = {image.get(), copy.get(), dup.get()};
  Prng prng(0xF1EE7);
  uint64_t cross_host_trials = 0;
  for (int trial = 0; trial < 80; ++trial) {
    size_t image_count = 1 + prng.NextBelow(3);
    size_t host_count = 1 + prng.NextBelow(4);
    std::vector<std::vector<GuestMemory>> snapshots(host_count);
    std::map<uint64_t, uint64_t> fleet_fold;
    uint64_t local_sharing = 0;
    for (std::vector<GuestMemory>& snapshot : snapshots) {
      std::vector<std::unique_ptr<GuestMemory>> live;
      std::vector<const GuestMemory*> host;
      for (size_t m = prng.NextBelow(6); m > 0; --m) {
        const BaseImage& from = *images[prng.NextBelow(image_count)];
        // Role sizes make shapes repeat across memories and hosts.
        uint64_t pages = prng.NextBelow(2) == 0 ? 300 : prng.NextInRange(1, 800);
        live.push_back(std::make_unique<GuestMemory>(pages * kPageSize));
        GuestMemory& memory = *live.back();
        switch (prng.NextBelow(4)) {
          case 0:  // zero pages only
            break;
          case 1:  // fully dirtied
            memory.MapImagePages(from, pages);
            memory.DirtyPages(pages);
            break;
          default:
            memory.MapImagePages(from, prng.NextInRange(1, pages));
            memory.DirtyPages(prng.NextBelow(3) == 0 ? 0 : prng.NextInRange(0, pages));
            break;
        }
        host.push_back(&memory);
      }
      std::map<uint64_t, uint64_t> fold = FoldHistograms(host);
      local_sharing += MergeHistogram(fold).pages_sharing;
      for (const auto& [content, pages] : fold) {
        fleet_fold[content] += pages;
      }
      // Copy by value, then tear the originals down as churn does.
      for (const GuestMemory* memory : host) {
        snapshot.push_back(*memory);
      }
      for (auto& memory : live) {
        memory->Wipe();
      }
    }
    FleetKsmStats stats = FleetKsmIndex::Reconcile(snapshots);
    KsmStats fleet = MergeHistogram(fleet_fold);
    ASSERT_EQ(stats.hosts, host_count) << "trial " << trial;
    ASSERT_EQ(stats.pages_shared, fleet.pages_shared) << "trial " << trial;
    ASSERT_EQ(stats.pages_sharing, fleet.pages_sharing) << "trial " << trial;
    ASSERT_EQ(stats.local_pages_sharing, local_sharing) << "trial " << trial;
    cross_host_trials += stats.cross_host_extra_sharing() > 0 ? 1 : 0;
  }
  EXPECT_GT(cross_host_trials, 0u);
}

TEST(GuestMemoryTest, GenerationBumpsOnEveryMutation) {
  auto image = BaseImage::CreateDistribution("img", 7, 8 * kMiB);
  GuestMemory memory(64 * kMiB);
  uint64_t generation = memory.generation();
  memory.MapImagePages(*image, 100);
  EXPECT_GT(memory.generation(), generation);
  generation = memory.generation();
  memory.DirtyPages(10);
  EXPECT_GT(memory.generation(), generation);
  generation = memory.generation();
  memory.Wipe();
  EXPECT_GT(memory.generation(), generation);
}

// ------------------------------------------------- closed-form guest memory

// Page-by-page reference for GuestMemory's closed form: every mapped page
// is materialized as a block content id, mapping continues the block cycle
// across calls, and dirtying breaks image pages in ascending content order.
class BruteForceMemory {
 public:
  explicit BruteForceMemory(uint64_t total_pages) : total_(total_pages), zero_(total_pages) {}

  void MapImagePages(const BaseImage& image, uint64_t count) {
    count = std::min(count, zero_);
    for (uint64_t i = 0; i < count; ++i) {
      ++image_[image.BlockContentId(next_block_++ % image.block_count())];
    }
    zero_ -= count;
  }

  void DirtyPages(uint64_t count) {
    uint64_t image_pages = 0;
    for (const auto& [content, pages] : image_) {
      image_pages += pages;
    }
    count = std::min(count, zero_ + image_pages);
    uint64_t from_zero = std::min(count, zero_);
    zero_ -= from_zero;
    for (uint64_t remaining = count - from_zero; remaining > 0; --remaining) {
      auto lowest = image_.begin();
      if (--lowest->second == 0) {
        image_.erase(lowest);
      }
    }
  }

  void Wipe() {
    zero_ = total_;
    image_.clear();
    next_block_ = 0;
  }

  std::map<uint64_t, uint64_t> Histogram() const {
    std::map<uint64_t, uint64_t> histogram = image_;
    if (zero_ > 0) {
      histogram[kZeroPageContent] += zero_;
    }
    return histogram;
  }

 private:
  uint64_t total_;
  uint64_t zero_;
  uint64_t next_block_ = 0;
  std::map<uint64_t, uint64_t> image_;
};

TEST(ClosedFormMemoryTest, MatchesPageByPageReference) {
  const std::vector<std::shared_ptr<BaseImage>> images = {
      BaseImage::CreateDistribution("img", 7, 256 * kDiskBlockSize), DuplicateBlockImage()};
  ASSERT_EQ(images[1]->BlockContentId(7), images[1]->BlockContentId(0));
  Prng prng(0xC105ED);
  for (int trial = 0; trial < 40; ++trial) {
    const BaseImage& image = *images[static_cast<size_t>(trial) % images.size()];
    // RAM from well under one image up to several, so mappings cycle.
    uint64_t pages = prng.NextInRange(1, 4 * image.block_count());
    GuestMemory memory(pages * kPageSize);
    BruteForceMemory reference(pages);
    for (int step = 0; step < 12; ++step) {
      uint64_t count = prng.NextInRange(0, 2 * image.block_count());
      switch (prng.NextBelow(5)) {
        case 0:
        case 1:
          memory.MapImagePages(image, count);
          reference.MapImagePages(image, count);
          break;
        case 2:
        case 3:
          memory.DirtyPages(count);
          reference.DirtyPages(count);
          break;
        default:
          memory.Wipe();
          reference.Wipe();
          break;
      }
      ASSERT_EQ(memory.pages_by_content(), reference.Histogram())
          << "trial " << trial << " step " << step;
      ASSERT_EQ(memory.zero_pages() + memory.image_pages() + memory.unique_pages(),
                memory.total_pages());
    }
  }
}

TEST(ClosedFormMemoryTest, MappingIsAdditive) {
  for (const auto& image :
       {BaseImage::CreateDistribution("img", 7, 256 * kDiskBlockSize), DuplicateBlockImage()}) {
    uint64_t blocks = image->block_count();
    for (auto [a, b] : {std::pair<uint64_t, uint64_t>{10, 20}, {blocks - 3, 7}, {blocks, blocks},
                        {2 * blocks + 5, blocks / 2}}) {
      GuestMemory split(8 * blocks * kPageSize);
      GuestMemory whole(8 * blocks * kPageSize);
      split.MapImagePages(*image, a);
      split.MapImagePages(*image, b);
      whole.MapImagePages(*image, a + b);
      EXPECT_EQ(split.pages_by_content(), whole.pages_by_content()) << a << "+" << b;
      // Dirtying then peels the same content-ordered prefix off both.
      split.DirtyPages(split.zero_pages() + a / 2);
      whole.DirtyPages(whole.zero_pages() + a / 2);
      EXPECT_EQ(split.pages_by_content(), whole.pages_by_content()) << a << "+" << b;
    }
  }
}

TEST(ClosedFormMemoryTest, TamperBeforeMappingUsesTheNewContent) {
  auto image = BaseImage::CreateDistribution("img", 7, 64 * kDiskBlockSize);
  uint64_t original = image->BlockContentId(0);
  ASSERT_EQ(image->content_order().blocks.size(), 64u);  // ordered before the tamper
  image->TamperBlock(0, 999);
  GuestMemory memory(128 * kPageSize);
  memory.MapImagePages(*image, 1);
  std::map<uint64_t, uint64_t> histogram = memory.pages_by_content();
  EXPECT_EQ(histogram.count(original), 0u);
  EXPECT_EQ(histogram[image->BlockContentId(0)], 1u);
}

TEST(ClosedFormMemoryDeathTest, TamperUnderMappedPagesAborts) {
  auto image = BaseImage::CreateDistribution("img", 7, 64 * kDiskBlockSize);
  GuestMemory memory(128 * kPageSize);
  memory.MapImagePages(*image, 10);
  image->TamperBlock(3, 999);
  // The pages would change content without a generation bump, which the
  // KSM skip relies on — so any read of them refuses.
  EXPECT_DEATH(memory.pages_by_content(), "tampered");
  EventLoop loop;
  KsmDaemon ksm(loop, [&] { return std::vector<const GuestMemory*>{&memory}; });
  EXPECT_DEATH(ksm.ScanNow(), "tampered");
}

TEST(GuestMemoryTest, IdsFollowCreationOrder) {
  GuestMemory first(1 * kMiB);
  GuestMemory second(1 * kMiB);
  EXPECT_LT(first.id(), second.id());
}

// ------------------------------------------------------------------ flows

// Counts the flow ends a link tap is told about, per flow id.
class FlowEndCounter : public LinkTap {
 public:
  void OnPacket(const Link&, const PacketMetadata&) override {}
  void OnFlowEnded(const Link&, const FlowMetadata& meta) override { ++ends[meta.flow_id]; }
  std::map<uint64_t, int> ends;
};

// Drives an identical randomized scenario on one simulation: three disjoint
// link clusters (so components exist to decompose), staggered flows,
// cancellations and link flaps, all from the sim's own seeded Prng. One
// uplink is lossy, so flows crossing it may be loss-aborted (the
// Simulation seeds its scheduler's loss stream with SeedFaults). Returns a
// log of every observable: sampled rates for every flow id ever issued,
// and each flow's status code, end time and tap-reported end count. Every
// flow must end exactly once; `codes`, if given, receives each issued
// flow's status code.
std::vector<uint64_t> DriveFlowScenario(Simulation& sim, int steps,
                                        std::vector<StatusCode>* codes = nullptr) {
  std::vector<std::vector<Link*>> clusters;
  FlowEndCounter tap;
  for (int c = 0; c < 3; ++c) {
    std::vector<Link*> links;
    std::string prefix = "c" + std::to_string(c);
    links.push_back(sim.CreateLink(prefix + "-uplink", Millis(5), 8'000'000));
    links.push_back(sim.CreateLink(prefix + "-relay-a", Millis(12), 4'000'000));
    links.push_back(sim.CreateLink(prefix + "-relay-b", Millis(9), 2'000'000));
    // Every route starts at its cluster's uplink, so the tap hears of
    // every flow end exactly once.
    links[0]->AttachTap(&tap);
    clusters.push_back(links);
  }
  LinkFaultProfile lossy;
  lossy.loss_probability = 0.05;  // x4 abort multiplier: 20% of its flows
  clusters[1][0]->SetFaultProfile(lossy, sim.faults().SeedFor("c1-uplink"));

  std::vector<uint64_t> log;
  std::vector<FlowId> issued;
  // Per issued flow, in issue order: every `done` call's status code and time.
  std::vector<std::vector<std::pair<StatusCode, SimTime>>> endings;
  FlowOptions options;
  options.stall_timeout = Seconds(5);
  for (int i = 0; i < steps; ++i) {
    std::vector<Link*>& links = clusters[sim.prng().NextBelow(clusters.size())];
    switch (sim.prng().NextBelow(8)) {
      case 0:  // flap a link down...
        links[sim.prng().NextBelow(links.size())]->SetDown(true);
        break;
      case 1:  // ...and back up
        links[sim.prng().NextBelow(links.size())]->SetDown(false);
        break;
      case 2:  // cancel some flow (may already be done — also fine)
        if (!issued.empty()) {
          sim.flows().CancelFlow(issued[sim.prng().NextBelow(issued.size())]);
        }
        break;
      default: {  // start a flow on a route within the cluster
        std::vector<Link*> path = {links[0]};
        if (sim.prng().NextBelow(2) == 0) {
          path.push_back(links[1 + sim.prng().NextBelow(2)]);
        }
        const size_t slot = endings.size();
        endings.emplace_back();
        issued.push_back(sim.flows().StartFlow(
            Route::Through(path), sim.prng().NextInRange(20'000, 400'000), 1.0, options,
            [&sim, &endings, slot](Result<SimTime> finished) {
              endings[slot].emplace_back(finished.status().code(), sim.now());
            }));
        break;
      }
    }
    sim.RunFor(Millis(sim.prng().NextBelow(40)));
    // Snapshot every flow's rate — including inactive ids, which must
    // report 0 identically in both modes.
    for (FlowId id : issued) {
      log.push_back(sim.flows().FlowRateBps(id));
    }
    log.push_back(sim.now() < 0 ? 0 : static_cast<uint64_t>(sim.now()));
  }
  // Bring every link back up and drain.
  for (auto& links : clusters) {
    for (Link* link : links) {
      link->SetDown(false);
    }
  }
  sim.RunUntil([&] { return sim.flows().active_flows() == 0; });
  log.push_back(static_cast<uint64_t>(sim.now()));
  for (size_t i = 0; i < issued.size(); ++i) {
    const FlowId id = issued[i];
    const std::vector<std::pair<StatusCode, SimTime>>& calls = endings[i];
    EXPECT_EQ(calls.size(), 1u) << "flow " << id << " did not end exactly once";
    EXPECT_EQ(tap.ends[id], 1) << "flow " << id << " was not reported ended exactly once";
    for (const auto& [code, when] : calls) {
      log.push_back(static_cast<uint64_t>(code));
      log.push_back(static_cast<uint64_t>(when));
      if (codes != nullptr) {
        codes->push_back(code);
      }
    }
    log.push_back(static_cast<uint64_t>(tap.ends[id]));
  }
  for (auto& links : clusters) {
    links[0]->AttachTap(nullptr);
  }
  return log;
}

TEST(FlowEquivalenceTest, IncrementalMatchesFullRecomputeUnderStress) {
  Simulation incremental(0xF10E);
  Simulation full(0xF10E);
  full.flows().set_full_recompute(true);

  std::vector<StatusCode> codes;
  std::vector<uint64_t> log_a = DriveFlowScenario(incremental, 120, &codes);
  std::vector<uint64_t> log_b = DriveFlowScenario(full, 120);
  EXPECT_EQ(log_a, log_b);
  // Every way a flow ends ran: completion, CancelFlow, and the loss abort.
  // kUnavailable can only be the abort here: the steps span under 4.7 s,
  // every link is up again before the drain, so each 5 s stall deadline
  // finds its route up and the flow resumes.
  EXPECT_GT(std::count(codes.begin(), codes.end(), StatusCode::kOk), 0);
  EXPECT_GT(std::count(codes.begin(), codes.end(), StatusCode::kCancelled), 0);
  EXPECT_GT(std::count(codes.begin(), codes.end(), StatusCode::kUnavailable), 0);

  // The incremental scheduler really scheduled incrementally: it skipped
  // clean reschedules, restricted dirty ones to components, and never fell
  // back to a full pass (no empty-route flows in this scenario).
  EXPECT_GT(incremental.flows().waterfill_skips(), 0u);
  EXPECT_GT(incremental.flows().waterfills_component(), 0u);
  EXPECT_EQ(incremental.flows().waterfills_full(), 0u);
  EXPECT_EQ(full.flows().waterfills_component(), 0u);
  EXPECT_EQ(full.flows().waterfill_skips(), 0u);
  // Same number of rate refreshes happened; only their scope differed.
  EXPECT_EQ(full.flows().waterfills_full(),
            incremental.flows().waterfills_component() + incremental.flows().waterfill_skips());
}

TEST(FlowEquivalenceTest, RepeatedSeedsStayIdentical) {
  for (uint64_t seed : {7ull, 21ull, 0xD15Cull}) {
    Simulation incremental(seed);
    Simulation full(seed);
    full.flows().set_full_recompute(true);
    EXPECT_EQ(DriveFlowScenario(incremental, 60), DriveFlowScenario(full, 60)) << seed;
  }
}

TEST(FlowEquivalenceTest, EmptyRouteFlowForcesFullWaterfill) {
  Simulation sim(5);
  Link* link = sim.CreateLink("uplink", Millis(5), 8'000'000);
  bool normal_done = false;
  sim.flows().StartFlow(Route::Through({link}), 100'000, 1.0,
                        [&](SimTime) { normal_done = true; });
  bool empty_done = false;
  sim.flows().StartFlow(Route{}, 50'000, 1.0, [&](SimTime) { empty_done = true; });
  sim.RunUntil([&] { return normal_done && empty_done; });
  // The empty-route flow's rate is the global first-round min share, so its
  // arrival must have forced at least one full pass.
  EXPECT_GT(sim.flows().waterfills_full(), 0u);
}

TEST(FlowEquivalenceTest, CleanRescheduleSkipsTheWaterfill) {
  Simulation sim(5);
  Link* link = sim.CreateLink("uplink", Millis(5), 8'000'000);
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    sim.flows().StartFlow(Route::Through({link}), 200'000, 1.0, [&](SimTime) { ++completed; });
  }
  sim.RunUntil([&] { return completed == 4; });
  // Every StartFlow triggers a Reschedule before the flow has started (it
  // is still in setup); those are clean and must not waterfill.
  EXPECT_GT(sim.flows().waterfill_skips(), 0u);
  EXPECT_GT(sim.flows().waterfills_component(), 0u);
}

// -------------------------------------------------------------- event loop

TEST(EventLoopNodePoolTest, SteadyStateSchedulingReusesNodes) {
  EventLoop loop;
  Observability obs;
  obs.metrics.set_enabled(true);
  loop.set_observability(&obs);
  int ran = 0;
  // Alternate schedule/run so the pool (capacity 256) absorbs every node.
  for (int i = 0; i < 512; ++i) {
    loop.ScheduleAfter(1, [&ran] { ++ran; });
    loop.RunUntilIdle();
  }
  EXPECT_EQ(ran, 512);
  uint64_t reuses = obs.metrics.GetCounter("core.event_loop.callback_node_reuses")->value();
  uint64_t allocs = obs.metrics.GetCounter("core.event_loop.callback_node_allocs")->value();
  EXPECT_GT(reuses, 500u);
  EXPECT_LT(allocs, 12u);
}

TEST(EventLoopNodePoolTest, CancelRecyclesAndStaysCorrect) {
  EventLoop loop;
  int ran = 0;
  for (int i = 0; i < 300; ++i) {
    uint64_t keep = loop.ScheduleAfter(1, [&ran] { ++ran; });
    uint64_t drop = loop.ScheduleAfter(2, [&ran] { ran += 1000; });
    EXPECT_TRUE(loop.Cancel(drop));
    EXPECT_FALSE(loop.Cancel(drop));
    loop.RunUntilIdle();
    EXPECT_FALSE(loop.Cancel(keep));
  }
  EXPECT_EQ(ran, 300);
}

}  // namespace
}  // namespace nymix
