// Internal: the SHA-256 compression kernels behind Sha256::Update. Exposed
// only so tests and micro-benchmarks can drive each kernel directly; code
// outside src/crypto hashes through Sha256 and never picks a kernel.
#ifndef SRC_CRYPTO_SHA256_KERNELS_H_
#define SRC_CRYPTO_SHA256_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace nymix::sha256_internal {

// Compresses `blocks` consecutive 64-byte blocks starting at `data` into
// `state`. Every kernel produces the same state, bit for bit.
using BlockKernel = void (*)(uint32_t state[8], const uint8_t* data, size_t blocks);

// FIPS 180-4 scalar rounds: the fallback on every target and the oracle the
// accelerated kernel is tested against.
void ProcessBlocksPortable(uint32_t state[8], const uint8_t* data, size_t blocks);

#if defined(__x86_64__)
// x86 SHA extensions (SHA-NI). Call only when ShaNiSupported().
void ProcessBlocksShaNi(uint32_t state[8], const uint8_t* data, size_t blocks);
bool ShaNiSupported();
#endif

// The kernel Sha256 uses in this process, chosen once on first use.
BlockKernel ActiveKernel();
std::string_view ActiveKernelName();

}  // namespace nymix::sha256_internal

#endif  // SRC_CRYPTO_SHA256_KERNELS_H_
