// Fixture: R2 environment reads in library code.
#include <cstdlib>

bool fixture_debug_knob() {
  if (std::getenv("FIXTURE_DEBUG") != nullptr) return true;  // fires: std-qualified
  return getenv("FIXTURE_TRACE") != nullptr;                 // fires: bare C call
}
