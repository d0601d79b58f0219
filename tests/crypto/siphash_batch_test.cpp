// Differential tests for the SIMD-batched SipHash path: every dispatch
// level the CPU offers (and the forced-scalar fallback) must produce
// digests byte-identical to the scalar fixed-length path, for every fixed
// input length in use and for batch counts that exercise each kernel
// width plus its scalar tail.
#include "crypto/siphash.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

namespace fatih::crypto {
namespace {

/// Scoped dispatch-level cap; restores the previous cap on exit so tests
/// never leak a narrowed level into each other.
class ScopedSimdCap {
 public:
  explicit ScopedSimdCap(SimdLevel cap) : old_(set_simd_level_cap(cap)) {}
  ~ScopedSimdCap() { set_simd_level_cap(old_); }
  ScopedSimdCap(const ScopedSimdCap&) = delete;
  ScopedSimdCap& operator=(const ScopedSimdCap&) = delete;

 private:
  SimdLevel old_;
};

constexpr SimdLevel kAllLevels[] = {SimdLevel::kScalar, SimdLevel::kSse2, SimdLevel::kAvx2,
                                    SimdLevel::kAvx512};

/// Batch sizes straddling every kernel width (4/8/16) and leaving scalar
/// tails of every residue class.
constexpr std::size_t kCounts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 15, 16, 17,
                                   23, 31, 32, 33, 63, 64, 100, 255, 256, 257};

/// Deterministic non-trivial message bytes (xorshift-filled).
std::vector<std::uint8_t> make_messages(std::size_t total_bytes, std::uint64_t seed) {
  std::vector<std::uint8_t> buf(total_bytes);
  std::uint64_t x = seed | 1;
  for (auto& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  return buf;
}

template <std::size_t N>
void check_all_levels_for_length() {
  const SipKey key{0x0706050403020100ULL, 0x0F0E0D0C0B0A0908ULL};
  const SipSchedule sched(key);
  for (const std::size_t count : kCounts) {
    const auto buf = make_messages(count * N, 0x9E3779B97F4A7C15ULL + N + count);
    // Scalar reference: the per-message fixed path, which the reference
    // vectors below pin to the general siphash24.
    std::vector<std::uint64_t> want(count);
    for (std::size_t i = 0; i < count; ++i) {
      want[i] = siphash24_fixed<N>(sched, buf.data() + i * N);
    }
    for (const SimdLevel cap : kAllLevels) {
      ScopedSimdCap guard(cap);
      std::vector<std::uint64_t> got(count, 0);
      siphash24_fixed_batch<N>(sched, buf.data(), count, got.data());
      EXPECT_EQ(got, want) << "N=" << N << " count=" << count
                           << " cap=" << static_cast<int>(cap)
                           << " effective=" << static_cast<int>(simd_level());
    }
  }
}

TEST(SipHashBatch, AllLevelsMatchScalarLen8) { check_all_levels_for_length<8>(); }
TEST(SipHashBatch, AllLevelsMatchScalarLen16) { check_all_levels_for_length<16>(); }

// 40 bytes is THE production length: sizeof(validation::PacketInvariant),
// the fingerprint hot path.
TEST(SipHashBatch, AllLevelsMatchScalarLen40) { check_all_levels_for_length<40>(); }

TEST(SipHashBatch, FixedPathMatchesGeneralHash) {
  // The cached-schedule fixed path (which the batch kernels mirror) must
  // agree with the one-shot keyed hash for the lengths in use, under one
  // fixed key and under 64 rotating keys (the shape per-segment roles see:
  // one schedule per key, interleaved).
  std::vector<SipKey> keys{SipKey{0xDEADBEEFCAFEF00DULL, 0x0123456789ABCDEFULL}};
  for (std::uint64_t k = 0; k < 64; ++k) {
    keys.push_back(SipKey{0x0123456789ABCDEFULL ^ (k * 0x9E3779B97F4A7C15ULL),
                          0xFEDCBA9876543210ULL ^ (k * 0xC2B2AE3D27D4EB4FULL)});
  }
  std::vector<SipSchedule> scheds(keys.begin(), keys.end());
  for (std::size_t i = 0; i < 4 * keys.size(); ++i) {
    const std::size_t k = i % keys.size();
    const auto buf = make_messages(40, 42 + i);
    EXPECT_EQ(siphash24_fixed<8>(scheds[k], buf.data()), siphash24(keys[k], buf.data(), 8));
    EXPECT_EQ(siphash24_fixed<16>(scheds[k], buf.data()), siphash24(keys[k], buf.data(), 16));
    EXPECT_EQ(siphash24_fixed<40>(scheds[k], buf.data()), siphash24(keys[k], buf.data(), 40))
        << "key " << k;
  }
}

TEST(SipHashBatch, ForcedScalarFallback) {
  // Capping to kScalar must force the pure-integer path regardless of what
  // the CPU supports — this is the mode the SIMD-off CI build runs in.
  ScopedSimdCap guard(SimdLevel::kScalar);
  EXPECT_EQ(simd_level(), SimdLevel::kScalar);
  EXPECT_EQ(simd_batch_width(), 1u);
}

TEST(SipHashBatch, CapRestores) {
  const SimdLevel detected = simd_level();
  {
    ScopedSimdCap guard(SimdLevel::kScalar);
    EXPECT_EQ(simd_level(), SimdLevel::kScalar);
  }
  EXPECT_EQ(simd_level(), detected);
}

TEST(SipHashBatch, CapCannotExceedDetection) {
  // Raising the cap never widens past what CPUID reported.
  ScopedSimdCap guard(SimdLevel::kAvx512);
  EXPECT_LE(static_cast<int>(simd_level()), static_cast<int>(SimdLevel::kAvx512));
#if !FATIH_SIPHASH_SIMD
  EXPECT_EQ(simd_level(), SimdLevel::kScalar);  // SIMD compiled out entirely
#endif
}

TEST(SipHashBatch, BatchWidthMatchesLevel) {
  switch (simd_level()) {
    case SimdLevel::kScalar:
      EXPECT_EQ(simd_batch_width(), 1u);
      break;
    case SimdLevel::kSse2:
      EXPECT_EQ(simd_batch_width(), 4u);
      break;
    case SimdLevel::kAvx2:
      EXPECT_EQ(simd_batch_width(), 8u);
      break;
    case SimdLevel::kAvx512:
      EXPECT_EQ(simd_batch_width(), 16u);
      break;
  }
}

}  // namespace
}  // namespace fatih::crypto
