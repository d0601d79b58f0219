#include "validation/fingerprint.hpp"

namespace fatih::validation {

Fingerprint packet_fingerprint(crypto::SipKey key, const sim::Packet& p) {
  const PacketInvariant v = PacketInvariant::from_packet(p);
  return crypto::siphash24(key, &v, sizeof(v));
}

}  // namespace fatih::validation
