// Micro-benchmarks for the crypto substrate: the archive pipeline's
// throughput justifies the NymManager's archive_processing_bps model
// constant, PBKDF2 cost shows the password-guessing barrier, and the image
// build / Merkle rebuild pair times the base-image hashing every shard pays
// (the 33- and 65-byte BM_Sha256 points are its leaf and interior shapes).
// The context block names the SHA-256 kernel in use.
#include <benchmark/benchmark.h>

#include "src/crypto/aead.h"
#include "src/crypto/hmac.h"
#include "src/crypto/merkle.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha256_kernels.h"
#include "src/unionfs/disk_image.h"
#include "src/util/prng.h"

namespace nymix {
namespace {

Bytes TestData(size_t size) {
  Prng prng(42);
  return prng.NextBytes(size);
}

void BM_Sha256(benchmark::State& state) {
  Bytes data = TestData(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(33)->Arg(65)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_ChaCha20(benchmark::State& state) {
  Bytes data = TestData(static_cast<size_t>(state.range(0)));
  ChaChaKey key = {};
  ChaChaNonce nonce = {};
  for (auto _ : state) {
    Bytes copy = data;
    ChaCha20XorInPlace(key, nonce, 1, copy);
    benchmark::DoNotOptimize(copy);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_AeadSealOpen(benchmark::State& state) {
  Bytes data = TestData(static_cast<size_t>(state.range(0)));
  ChaChaKey key = {};
  ChaChaNonce nonce = {};
  for (auto _ : state) {
    Bytes sealed = AeadSeal(key, nonce, data, {});
    auto opened = AeadOpen(key, nonce, sealed, {});
    benchmark::DoNotOptimize(opened);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0) * 2);
}
BENCHMARK(BM_AeadSealOpen)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_Pbkdf2(benchmark::State& state) {
  Bytes password = BytesFromString("correct horse battery staple");
  Bytes salt = BytesFromString("my-nym");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Pbkdf2Sha256(password, salt, static_cast<uint32_t>(state.range(0)), 32));
  }
}
BENCHMARK(BM_Pbkdf2)->Arg(256)->Arg(2048);

void BM_MerkleBuild(benchmark::State& state) {
  std::vector<Sha256Digest> leaves;
  for (int64_t i = 0; i < state.range(0); ++i) {
    leaves.push_back(Sha256::Hash("block" + std::to_string(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree::Build(leaves));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MerkleBuild)->Arg(1024)->Arg(16384);

void BM_MerkleVerify(benchmark::State& state) {
  std::vector<Sha256Digest> leaves;
  for (int i = 0; i < 16384; ++i) {
    leaves.push_back(Sha256::Hash("block" + std::to_string(i)));
  }
  MerkleTree tree = MerkleTree::Build(leaves);
  auto proof = tree.ProveLeaf(12345);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree::VerifyProof(tree.root(), leaves[12345], *proof));
  }
}
BENCHMARK(BM_MerkleVerify);

constexpr uint64_t kImageBytes = 64 * kMiB;

// A cold 64 MiB distribution image: per-block digests plus the Merkle tree.
void BM_ImageBuild(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(BaseImage::CreateDistribution("nymix", 42, kImageBytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kImageBytes);
}
BENCHMARK(BM_ImageBuild)->Unit(benchmark::kMillisecond);

// The pre-boot check's work: one bottom-up tree rebuild over the image's
// block digests. Timed through MerkleTree::Build because VerifyAllBlocks
// memoizes its verdict.
void BM_ImageMerkleRebuild(benchmark::State& state) {
  auto image = BaseImage::CreateDistribution("nymix", 42, kImageBytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree::Build(image->block_digests()).root());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kImageBytes);
}
BENCHMARK(BM_ImageMerkleRebuild)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nymix

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::AddCustomContext("sha256_kernel",
                              std::string(nymix::sha256_internal::ActiveKernelName()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
