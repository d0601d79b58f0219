// Fixture: R8 negatives — calling the scalar hash is fine, and
// vector-type tokens inside comments and strings are inert: __m512i.
#include <cstdint>

void fixture_use_scalar_hash(const std::uint8_t* views, std::uint8_t* digests) {
  // crypto::siphash24 hashes one message at a time; a comment naming
  // __m256i does not fork a code path.
  const char* note = "__m128i is only a word here";
  (void)views;
  (void)digests;
  (void)note;
}
