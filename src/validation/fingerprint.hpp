// Packet fingerprints.
//
// Traffic validation identifies packets by a keyed one-way hash of their
// path-invariant contents (dissertation §2.1.5). Mutable header fields
// (TTL, and in real IP the checksum) are excluded — §7.4.2 — so that a
// correct downstream router computes the same fingerprint as the upstream
// one.
//
// The hashed message is the fixed 40-byte PacketInvariant layout (header
// fields + size + payload tag), fed to the generic SipHash-2-4. Every
// detector fingerprints a packet the same way: it stores the SipKey it
// shares with its peers and calls packet_fingerprint when its tap sees
// the packet.
#pragma once

#include <cstdint>
#include <type_traits>

#include "crypto/siphash.hpp"
#include "sim/packet.hpp"

namespace fatih::validation {

/// 64-bit packet fingerprint.
using Fingerprint = std::uint64_t;

/// Fixed-layout invariant view of a packet: exactly the bytes the
/// fingerprint hashes, TTL deliberately omitted. Both pad fields are
/// zeroed by from_packet so the message is stable (and identical to the
/// seed's); naming them leaves the struct no implicit padding bytes.
struct PacketInvariant {
  std::uint32_t src;
  std::uint32_t dst;
  std::uint32_t flow_id;
  std::uint32_t seq;
  std::uint32_t ack;
  std::uint8_t proto;
  std::uint8_t flags;
  std::uint16_t pad;
  std::uint32_t size_bytes;
  std::uint32_t pad2;
  std::uint64_t payload_tag;

  [[nodiscard]] static PacketInvariant from_packet(const sim::Packet& p) {
    PacketInvariant v{};
    v.src = p.hdr.src;
    v.dst = p.hdr.dst;
    v.flow_id = p.hdr.flow_id;
    v.seq = p.hdr.seq;
    v.ack = p.hdr.ack;
    v.proto = static_cast<std::uint8_t>(p.hdr.proto);
    v.flags = p.hdr.flags;
    v.pad = 0;
    v.size_bytes = p.size_bytes;
    v.pad2 = 0;
    v.payload_tag = p.payload_tag;
    return v;
  }
};
static_assert(sizeof(PacketInvariant) == 40);
static_assert(std::has_unique_object_representations_v<PacketInvariant>);  // no padding

/// Computes the keyed fingerprint of a packet over its invariant fields:
/// src, dst, flow, seq, ack, proto, flags, payload identity, and size —
/// siphash24 of its PacketInvariant bytes.
[[nodiscard]] Fingerprint packet_fingerprint(crypto::SipKey key, const sim::Packet& p);

}  // namespace fatih::validation
