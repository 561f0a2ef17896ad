#include "src/crypto/sha256.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "src/crypto/sha256_kernels.h"

namespace nymix {

namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
};

constexpr uint32_t kInitialState[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// Whole-word big-endian stores. Byte-at-a-time stores here would make the
// next wide load of the same bytes (the kernel's block load, the caller's
// digest copy) stall on store forwarding, slowing a one-block hash by
// about half.
template <typename Word>
void StoreBigEndian(uint8_t* out, Word value) {
  if constexpr (std::endian::native == std::endian::little) {
    if constexpr (sizeof(Word) == 8) {
      value = __builtin_bswap64(value);
    } else {
      value = __builtin_bswap32(value);
    }
  }
  std::memcpy(out, &value, sizeof(value));
}

}  // namespace

Sha256::Sha256() { std::memcpy(state_, kInitialState, sizeof(state_)); }

namespace sha256_internal {

void ProcessBlocksPortable(uint32_t state[8], const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    const uint8_t* block = data;
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(block[4 * i]) << 24) |
             (static_cast<uint32_t>(block[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(block[4 * i + 2]) << 8) |
             static_cast<uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

bool ShaNiSupported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

// The SHA extensions keep the working variables as two vectors, ABEF and
// CDGH; each _mm_sha256rnds2_epu32 runs two rounds, so one 128-bit group of
// four message words (pre-added to their round constants) feeds two calls.
// msg1/msg2 extend the schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void ProcessBlocksShaNi(uint32_t state[8],
                                                               const uint8_t* data,
                                                               size_t blocks) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i msg[4];
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)), byte_swap);
    }
#pragma GCC unroll 16
    for (int group = 0; group < 16; ++group) {
      __m128i wk = _mm_add_epi32(
          msg[group & 3],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * group])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (group < 12) {
        // W[t..t+3] for t = 4 * group + 16, overwriting W[t-16..t-13].
        __m128i next = _mm_sha256msg1_epu32(msg[group & 3], msg[(group + 1) & 3]);
        next = _mm_add_epi32(next, _mm_alignr_epi8(msg[(group + 3) & 3], msg[(group + 2) & 3], 4));
        msg[group & 3] = _mm_sha256msg2_epu32(next, msg[(group + 3) & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), hgfe);
}

#endif  // defined(__x86_64__)

BlockKernel ActiveKernel() {
  // A function-local static: initialized exactly once, thread-safely, on
  // the first hash in the process.
  static const BlockKernel kernel = []() -> BlockKernel {
#if defined(__x86_64__)
    if (ShaNiSupported()) {
      return &ProcessBlocksShaNi;
    }
#endif
    return &ProcessBlocksPortable;
  }();
  return kernel;
}

std::string_view ActiveKernelName() {
  return ActiveKernel() == &ProcessBlocksPortable ? "portable" : "sha-ni";
}

}  // namespace sha256_internal

void Sha256::ProcessBlocks(const uint8_t* data, size_t blocks) {
  sha256_internal::ActiveKernel()(state_, data, blocks);
}

void Sha256::Update(ByteSpan data) {
  if (data.empty()) {
    return;  // an empty span may carry a null pointer, which memcpy rejects
  }
  total_bytes_ += data.size();
  size_t offset = 0;
  if (buffered_ > 0) {
    size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ < 64) {
      return;
    }
    ProcessBlocks(buffer_, 1);
    buffered_ = 0;
  }
  // Every whole block left in `data` goes to the kernel in one call.
  size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    ProcessBlocks(data.data() + offset, blocks);
    offset += blocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Sha256Digest Sha256::Finish() {
  // Padding: 0x80, zeros up to byte 56 of the last block, then the message
  // length in bits, big-endian.
  buffer_[buffered_] = 0x80;
  std::memset(buffer_ + buffered_ + 1, 0, 63 - buffered_);
  if (buffered_ >= 56) {
    ProcessBlocks(buffer_, 1);
    std::memset(buffer_, 0, 56);
  }
  StoreBigEndian<uint64_t>(buffer_ + 56, total_bytes_ * 8);
  ProcessBlocks(buffer_, 1);
  buffered_ = 0;

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    StoreBigEndian<uint32_t>(digest.data() + 4 * i, state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::Hash(ByteSpan data) {
  Sha256 hasher;
  hasher.Update(data);
  return hasher.Finish();
}

Sha256Digest Sha256::Hash(std::string_view text) {
  return Hash(ByteSpan(reinterpret_cast<const uint8_t*>(text.data()), text.size()));
}

Bytes DigestToBytes(const Sha256Digest& digest) {
  return Bytes(digest.begin(), digest.end());
}

uint64_t DigestPrefix64(const Sha256Digest& digest) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value = (value << 8) | digest[i];
  }
  return value;
}

}  // namespace nymix
