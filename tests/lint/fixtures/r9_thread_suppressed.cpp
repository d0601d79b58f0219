// Fixture: R9 suppression.

void fixture_guard_probe() {
  // fatih-lint: allow(thread-containment) fixture: scaffolding pending its removal
  std::mutex probe;
  (void)probe;
}
