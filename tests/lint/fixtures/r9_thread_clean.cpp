// Fixture: R9 negatives — the word "thread" unqualified, other-qualified
// lookalikes, and mentions in comments and strings are inert: std::mutex.
#include <cstdint>

namespace pool {
struct mutex {};
}  // namespace pool

void fixture_no_primitives(std::uint32_t thread) {
  pool::mutex local;
  const char* note = "std::thread has no place in the simulator";
  (void)thread;
  (void)local;
  (void)note;
}
