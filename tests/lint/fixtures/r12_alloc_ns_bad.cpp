// Fixture: R12 through namespace-qualified calls. Free functions are
// recorded under their bare names, so `validation::fingerprint(` and
// `crypto::mix(` must still link to them.
#include <cstdint>
#include <vector>

namespace crypto {
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::vector<std::uint64_t> lanes{a, b};  // fires: reached via crypto::mix
  return lanes[0] ^ lanes[1];
}
}  // namespace crypto

namespace validation {
std::uint64_t fingerprint(std::uint64_t key, std::uint64_t uid) {
  return crypto::mix(key, uid);
}
}  // namespace validation

struct FixtureSummaryGenerator {
  std::uint64_t key = 0;
  std::uint64_t acc = 0;
  void record(std::uint64_t uid) { acc ^= validation::fingerprint(key, uid); }
};
