// SHA-256 (FIPS 180-4). Used for key derivation, archive integrity, Merkle
// base-image verification, trace digests and deterministic guard seeding.
//
// Update() hands every whole run of 64-byte blocks to one compression
// kernel call. The kernel is picked once per process: SHA-NI on x86-64 CPUs
// that have it, the portable scalar rounds everywhere else. Both give the
// same digest bit for bit, so image content ids, Merkle roots and trace
// digests do not depend on the machine (docs/performance.md).
#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>

#include "src/util/bytes.h"

namespace nymix {

inline constexpr size_t kSha256DigestSize = 32;
using Sha256Digest = std::array<uint8_t, kSha256DigestSize>;

class Sha256 {
 public:
  Sha256();

  void Update(ByteSpan data);
  Sha256Digest Finish();

  // One-shot convenience.
  static Sha256Digest Hash(ByteSpan data);
  static Sha256Digest Hash(std::string_view text);

 private:
  void ProcessBlocks(const uint8_t* data, size_t blocks);

  uint32_t state_[8];
  uint64_t total_bytes_ = 0;
  uint8_t buffer_[64];
  size_t buffered_ = 0;
};

// Digest helpers used throughout the tree.
Bytes DigestToBytes(const Sha256Digest& digest);
uint64_t DigestPrefix64(const Sha256Digest& digest);

}  // namespace nymix

#endif  // SRC_CRYPTO_SHA256_H_
