// Fixture: R8 simd-containment positives (under any virtual path).
// Never compiled — linted as text.
#include <cstdint>

void fixture_fork_isa() {
  __m128i a;  // fires
  __m256i b;  // fires
  __m512i c;  // fires
  (void)a;
  (void)b;
  (void)c;
}
