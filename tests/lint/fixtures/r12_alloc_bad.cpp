// Fixture: R12 hot-path-allocation positives: allocations in helpers
// reachable from the FixtureNode::forward_packet hot-path root.
#include <memory>
#include <string>
#include <vector>

struct PacketBuf {
  int* raw_new() { return new int[16]; }  // fires: 'new'
  std::unique_ptr<int> smart() { return std::make_unique<int>(7); }  // fires: make_unique
  std::string label() {
    std::string out;  // fires: owning std::string
    return out;
  }
  int sized() {
    std::vector<int> v(4);  // fires: owning std::vector, sized construction
    std::vector<int> make();  // silent: a function declarator
    return v.front();
  }
};

struct FixtureNode {
  PacketBuf buf;
  void forward_packet() {
    delete[] buf.raw_new();
    buf.smart();
    buf.label();
    buf.sized();
  }
};
