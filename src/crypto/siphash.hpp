// SipHash-2-4: keyed 64-bit pseudo-random function (Aumasson & Bernstein),
// implemented from scratch.
//
// The detection protocols fingerprint every forwarded packet with a keyed
// one-way function (dissertation §2.1.5 uses UHASH; any keyed PRF with the
// same interface works). SipHash gives us a compact, fast, well-studied
// keyed hash without external dependencies.
//
// One entry point, `siphash24(key, data)`, for every message: packet
// fingerprints (validation::packet_fingerprint), MACs and digests alike.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace fatih::crypto {

/// A 128-bit SipHash key.
struct SipKey {
  std::uint64_t k0 = 0;
  std::uint64_t k1 = 0;

  constexpr bool operator==(const SipKey&) const = default;
};

/// Computes SipHash-2-4 of `data` under `key`.
[[nodiscard]] std::uint64_t siphash24(SipKey key, std::span<const std::byte> data);

/// Convenience overload for raw buffers.
[[nodiscard]] std::uint64_t siphash24(SipKey key, const void* data, std::size_t len);

// Kept only for perfbench's run header, which names them; hashing is scalar.
enum class SimdLevel : int { kScalar = 0, kSse2 = 1, kAvx2 = 2, kAvx512 = 3 };
[[nodiscard]] constexpr SimdLevel simd_level() { return SimdLevel::kScalar; }

}  // namespace fatih::crypto
