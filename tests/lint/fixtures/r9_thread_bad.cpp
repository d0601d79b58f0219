// Fixture: R9 thread-containment positives (under a virtual src/ path).
// Never compiled — linted as text.
#include <cstdint>

void fixture_raw_threads() {
  std::mutex m;               // fires
  std::atomic<int> n{0};      // fires
  std::thread t;              // fires
  thread_local int slot = 0;  // fires
  (void)m;
  (void)n;
  (void)t;
  (void)slot;
}
