#include "crypto/siphash.hpp"

#include <cstring>

namespace fatih::crypto {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

struct SipState {
  std::uint64_t v0, v1, v2, v3;

  explicit SipState(SipKey key)
      : v0(key.k0 ^ 0x736F6D6570736575ULL),
        v1(key.k1 ^ 0x646F72616E646F6DULL),
        v2(key.k0 ^ 0x6C7967656E657261ULL),
        v3(key.k1 ^ 0x7465646279746573ULL) {}

  void round() {
    v0 += v1;
    v1 = rotl(v1, 13);
    v1 ^= v0;
    v0 = rotl(v0, 32);
    v2 += v3;
    v3 = rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = rotl(v1, 17);
    v1 ^= v2;
    v2 = rotl(v2, 32);
  }

  void absorb(std::uint64_t m) {
    v3 ^= m;
    round();
    round();
    v0 ^= m;
  }

  [[nodiscard]] std::uint64_t finalize() {
    v2 ^= 0xFF;
    round();
    round();
    round();
    round();
    return v0 ^ v1 ^ v2 ^ v3;
  }
};

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  // Simulator targets are little-endian; a big-endian port would byteswap here.
  return v;
}

}  // namespace

std::uint64_t siphash24(SipKey key, std::span<const std::byte> data) {
  SipState s(key);

  const auto* in = reinterpret_cast<const std::uint8_t*>(data.data());
  const std::size_t len = data.size();
  const std::size_t full_blocks = len / 8;

  for (std::size_t i = 0; i < full_blocks; ++i) {
    s.absorb(load_le64(in + i * 8));
  }

  // Final block: remaining bytes plus the length in the top byte.
  std::uint64_t last = static_cast<std::uint64_t>(len & 0xFF) << 56;
  const std::size_t rem = len & 7;
  const std::uint8_t* tail = in + full_blocks * 8;
  for (std::size_t i = 0; i < rem; ++i) {
    last |= static_cast<std::uint64_t>(tail[i]) << (8 * i);
  }
  s.absorb(last);
  return s.finalize();
}

std::uint64_t siphash24(SipKey key, const void* data, std::size_t len) {
  return siphash24(key, std::span<const std::byte>(static_cast<const std::byte*>(data), len));
}

}  // namespace fatih::crypto
