#include "validation/fingerprint.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>

namespace fatih::validation {
namespace {

sim::Packet sample_packet() {
  sim::Packet p;
  p.hdr.src = 1;
  p.hdr.dst = 9;
  p.hdr.flow_id = 3;
  p.hdr.seq = 17;
  p.hdr.proto = sim::Protocol::kTcp;
  p.hdr.ttl = 64;
  p.size_bytes = 1000;
  p.payload_tag = 0xABCDEF;
  return p;
}

constexpr crypto::SipKey kKey{11, 22};

TEST(Fingerprint, TtlInvariant) {
  // §7.4.2: mutable header fields must not affect the fingerprint, or
  // downstream routers could never match upstream records.
  auto p1 = sample_packet();
  auto p2 = sample_packet();
  p2.hdr.ttl = 3;
  EXPECT_EQ(packet_fingerprint(kKey, p1), packet_fingerprint(kKey, p2));
}

TEST(Fingerprint, UidAndTimestampInvariant) {
  auto p1 = sample_packet();
  auto p2 = sample_packet();
  p2.uid = 999;
  p2.created = util::SimTime::from_seconds(5);
  EXPECT_EQ(packet_fingerprint(kKey, p1), packet_fingerprint(kKey, p2));
}

TEST(Fingerprint, PayloadSensitive) {
  auto p1 = sample_packet();
  auto p2 = sample_packet();
  p2.payload_tag ^= 1;  // a modified packet
  EXPECT_NE(packet_fingerprint(kKey, p1), packet_fingerprint(kKey, p2));
}

TEST(Fingerprint, HeaderSensitive) {
  const auto base = packet_fingerprint(kKey, sample_packet());
  auto p = sample_packet();
  p.hdr.src = 2;
  EXPECT_NE(packet_fingerprint(kKey, p), base);
  p = sample_packet();
  p.hdr.dst = 2;
  EXPECT_NE(packet_fingerprint(kKey, p), base);
  p = sample_packet();
  p.hdr.seq = 18;
  EXPECT_NE(packet_fingerprint(kKey, p), base);
  p = sample_packet();
  p.size_bytes = 999;
  EXPECT_NE(packet_fingerprint(kKey, p), base);
  p = sample_packet();
  p.hdr.flags = sim::kFlagSyn;
  EXPECT_NE(packet_fingerprint(kKey, p), base);
}

TEST(Fingerprint, InvariantViewMatchesOneShot) {
  // Known answer: every digest, golden and suspicion string depends on
  // this value, so a change to the 40-byte layout or to the hash fails
  // here first.
  const auto p = sample_packet();
  constexpr Fingerprint kWant = 0xda9af441cea8c6afULL;
  EXPECT_EQ(packet_fingerprint(kKey, p), kWant);

  // The message is PacketInvariant spelled out little-endian: src, dst,
  // flow_id, seq, ack (u32 each), proto, flags (u8), 2 zero pad bytes,
  // size_bytes (u32), 4 zero pad bytes, payload_tag (u64).
  std::array<std::uint8_t, sizeof(PacketInvariant)> msg{};
  std::size_t at = 0;
  const auto put = [&](std::uint64_t v, std::size_t bytes) {
    for (std::size_t i = 0; i < bytes; ++i) msg[at++] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  put(p.hdr.src, 4);
  put(p.hdr.dst, 4);
  put(p.hdr.flow_id, 4);
  put(p.hdr.seq, 4);
  put(p.hdr.ack, 4);
  put(static_cast<std::uint8_t>(p.hdr.proto), 1);
  put(p.hdr.flags, 1);
  put(0, 2);
  put(p.size_bytes, 4);
  put(0, 4);
  put(p.payload_tag, 8);
  ASSERT_EQ(at, msg.size());
  EXPECT_EQ(crypto::siphash24(kKey, msg.data(), msg.size()), kWant);
}

TEST(Fingerprint, KeySeparation) {
  // Fingerprints under different segment keys are unlinkable, so interior
  // routers cannot predict another segment's sampling (§5.2.1).
  const auto p = sample_packet();
  EXPECT_NE(packet_fingerprint(crypto::SipKey{1, 2}, p),
            packet_fingerprint(crypto::SipKey{1, 3}, p));
}

}  // namespace
}  // namespace fatih::validation
