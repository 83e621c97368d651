#include "common/crc32.h"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define XO_CRC32_CLMUL 1
#else
#define XO_CRC32_CLMUL 0
#endif

namespace xorator {

namespace {

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

// One byte per step over the running (pre-inverted) register `crc`. Runs the
// whole input on CPUs without carry-less multiply, and every input's tail.
uint32_t CrcBytewise(uint32_t crc, const unsigned char* bytes, size_t length) {
  static const std::array<uint32_t, 256> kTable = BuildTable();
  for (size_t i = 0; i < length; ++i) {
    crc = kTable[(crc ^ bytes[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if XO_CRC32_CLMUL

// Below this many bytes the bytewise loop is as fast and the fold has
// nothing to run in parallel: the kernel needs four 16-byte lanes.
constexpr size_t kClmulMinBytes = 64;

bool CpuHasClmul() {
  static const bool kHas = __builtin_cpu_supports("pclmul") &&
                           __builtin_cpu_supports("sse4.1");
  return kHas;
}

// Multiplies both 64-bit halves of `acc` by the matching folding constant
// in `k` and adds (XORs) the next 128 bits of input.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i acc,
                                                              __m128i k,
                                                              __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i Load(
    const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Carry-less-multiply CRC over the running register `crc`, for a length
// that is a multiple of 16 and at least kClmulMinBytes. Folds four 128-bit
// lanes in parallel, folds them into one, then reduces 128 -> 64 -> 32 bits
// with a Barrett reduction. Constants are powers of x modulo the
// bit-reflected IEEE polynomial, from Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009).
__attribute__((target("pclmul,sse4.1"))) uint32_t CrcClmul(
    uint32_t crc, const unsigned char* bytes, size_t length) {
  // x^(4*128+32) and x^(4*128-32) mod P: fold a lane across 64 bytes.
  const __m128i k_fold4 = _mm_set_epi64x(0x01c6e41596LL, 0x0154442bd4LL);
  // x^(128+32) and x^(128-32) mod P: fold across 16 bytes.
  const __m128i k_fold1 = _mm_set_epi64x(0x00ccaa009eLL, 0x01751997d0LL);
  // x^64 mod P: fold 96 bits to 64.
  const __m128i k_fold64 = _mm_set_epi64x(0, 0x0163cd6124LL);
  // mu = x^64 / P and P' (the reflected polynomial) for the Barrett step.
  const __m128i k_barrett = _mm_set_epi64x(0x01f7011641LL, 0x01db710641LL);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 = _mm_xor_si128(Load(bytes),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load(bytes + 16);
  __m128i x2 = Load(bytes + 32);
  __m128i x3 = Load(bytes + 48);
  size_t at = 64;
  for (; length - at >= 64; at += 64) {
    x0 = Fold(x0, k_fold4, Load(bytes + at));
    x1 = Fold(x1, k_fold4, Load(bytes + at + 16));
    x2 = Fold(x2, k_fold4, Load(bytes + at + 32));
    x3 = Fold(x3, k_fold4, Load(bytes + at + 48));
  }

  __m128i x = Fold(x0, k_fold1, x1);
  x = Fold(x, k_fold1, x2);
  x = Fold(x, k_fold1, x3);
  for (; at < length; at += 16) x = Fold(x, k_fold1, Load(bytes + at));

  // 128 -> 64 bits.
  x = _mm_xor_si128(_mm_srli_si128(x, 8),
                    _mm_clmulepi64_si128(x, k_fold1, 0x10));
  x = _mm_xor_si128(
      _mm_srli_si128(x, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x, low32), k_fold64, 0x00));

  // Barrett reduction 64 -> 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), k_barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), k_barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

#endif  // XO_CRC32_CLMUL

}  // namespace

uint32_t Crc32(const void* data, size_t length, uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = seed ^ 0xFFFFFFFFu;
#if XO_CRC32_CLMUL
  if (length >= kClmulMinBytes && CpuHasClmul()) {
    const size_t bulk = length & ~size_t{15};
    crc = CrcClmul(crc, bytes, bulk);
    bytes += bulk;
    length -= bulk;
  }
#endif
  return CrcBytewise(crc, bytes, length) ^ 0xFFFFFFFFu;
}

}  // namespace xorator
