// Fixture: R2 negatives — configuration arrives explicitly. A function
// *named* getenv is a declaration, a member or namespaced getenv is
// someone else's deterministic API, and a mention in a comment or a
// string is inert: getenv("X")
using FixtureCstr = const char*;

struct FixtureEnv {
  FixtureCstr getenv(FixtureCstr name) const { return name; }
};

namespace fixture_cfg {
inline FixtureCstr getenv(FixtureCstr name) { return name; }
}  // namespace fixture_cfg

bool fixture_explicit_knob(bool debug, const FixtureEnv& env) {
  FixtureCstr label = "getenv(\"FIXTURE_DEBUG\")";
  return debug && env.getenv(label) != nullptr && fixture_cfg::getenv(label) != nullptr;
}
