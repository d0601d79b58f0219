// Fixture: R8 suppression.

void fixture_vector_probe() {
  // fatih-lint: allow(simd-containment) fixture: throwaway probe for a one-off A/B measurement
  __m128i probe;
  (void)probe;
}
