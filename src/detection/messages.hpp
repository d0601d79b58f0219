// Control-plane messages of the detection protocols.
//
// Summaries travel through the simulated network as signed control
// payloads, so protocol-faulty routers can drop or withhold them — the
// behaviours the distributed-detection layer must tolerate (dissertation
// §2.2.1 "protocol faulty").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/mac.hpp"
#include "routing/segments.hpp"
#include "sim/packet.hpp"
#include "util/time.hpp"
#include "validation/summary.hpp"

namespace fatih::detection {

/// Control payload kinds in the 0x20xx range (detection subsystem).
inline constexpr std::uint16_t kKindSegmentSummary = 0x2001;  ///< Pi(k+2) end-to-end exchange
inline constexpr std::uint16_t kKindSummaryFlood = 0x2002;    ///< Pi2 consensus dissemination
inline constexpr std::uint16_t kKindChiReport = 0x2003;       ///< chi neighbor reports
inline constexpr std::uint16_t kKindAccusation = 0x2004;      ///< evidence-layer accusations
inline constexpr std::uint16_t kKindControlAck = 0x20A0;      ///< reliable-transport acks

/// Decoder caps: every length field read off the wire is validated against
/// the bytes actually present before any allocation, so a malformed count
/// can never trigger an unbounded reserve. These are additional absolute
/// ceilings far above anything a legitimate message carries.
inline constexpr std::uint64_t kMaxSummaryElements = 1u << 20;
inline constexpr std::uint64_t kMaxChiRecords = 1u << 20;
inline constexpr std::uint32_t kMaxSegmentNodes = 1u << 10;

/// info(r, pi, tau): everything router r tells others about the traffic it
/// handled on segment `segment` during round `round`.
struct SegmentSummary {
  util::NodeId reporter = util::kInvalidNode;
  routing::PathSegment segment;
  std::int64_t round = 0;
  validation::CounterSummary counters;
  /// Content fingerprints in forwarding order (doubles as the
  /// conservation-of-order summary; sorted on demand for set operations).
  /// Empty when the summary ships in reconciliation form.
  std::vector<validation::Fingerprint> content;
  /// Appendix-A compressed form: characteristic-polynomial evaluations of
  /// the content set at the shared points, shipped instead of `content`
  /// (O(d) field elements instead of O(n) fingerprints).
  std::vector<std::uint64_t> recon_evals;
  /// Bloom-digest form (§2.4.1): the filter's words, shipped instead of
  /// `content`. Cheap but approximate — the symmetric-difference size is
  /// ESTIMATED from the XOR population.
  std::vector<std::uint64_t> bloom_words;
  std::uint32_t bloom_hashes = 0;

  /// Field-wise; for decoded summaries the same as comparing their bytes,
  /// since the codec is strictly canonical.
  bool operator==(const SegmentSummary&) const = default;

  /// Canonical byte serialization (signed and MAC-verified end to end).
  [[nodiscard]] std::vector<std::byte> to_bytes() const;
  /// Wire size estimate for the simulated control packet.
  [[nodiscard]] std::uint32_t wire_bytes() const;
  /// Strict inverse of to_bytes(): nullopt on truncation, trailing bytes,
  /// or any length field inconsistent with the bytes present. Never throws
  /// and never allocates more than the input size admits.
  [[nodiscard]] static std::optional<SegmentSummary> from_bytes(
      std::span<const std::byte> in);
};

enum class ControlVerdict : std::uint8_t;  // detection/byzantine.hpp
class ControlGuard;

/// ControlGuard's verify-once cache on one summary payload object. Every
/// flooded copy of a summary shares that object, so the MAC, the decode and
/// the flood key are computed once per payload rather than once per copy.
/// Only the guard reads or fills it. A copy of a memo is always empty (a
/// move is a copy here): a copied payload, say a tampered clone, is judged
/// afresh. Payloads are never assigned, so neither are memos.
class SummaryMemo {
 public:
  SummaryMemo() = default;
  SummaryMemo(const SummaryMemo& /*other*/) {}
  SummaryMemo& operator=(const SummaryMemo&) = delete;

 private:
  friend class ControlGuard;
  /// The registry the verdict was computed under; null = no verdict yet.
  const crypto::KeyRegistry* registry_ = nullptr;
  ControlVerdict verdict_{};
  std::shared_ptr<const SegmentSummary> summary_;  ///< set iff verdict_ is kOk
  std::optional<std::uint64_t> key_;
};

/// A signed SegmentSummary in flight (both the Pi(k+2) unicast exchange
/// and the Pi2 flood use this payload; `kind_tag` distinguishes them).
/// Build it completely before sharing it: the guard's memo assumes the
/// envelope and summary never change once a copy has been checked.
struct SegmentSummaryPayload final : sim::ControlPayload {
  SegmentSummary summary;
  crypto::SignedEnvelope envelope;
  std::uint16_t kind_tag = kKindSegmentSummary;
  mutable SummaryMemo memo;
  [[nodiscard]] std::uint16_t kind() const override { return kind_tag; }
};

/// One timestamped record of the chi protocol's ingress stream, §6.2.1.
struct ChiRecord {
  validation::Fingerprint fp = 0;
  std::uint32_t size_bytes = 0;
  std::uint32_t flow_id = 0;
  /// Control-plane packets bypass RED/drop-tail admission (see
  /// sim/queue.cpp); the replay must model them the same way.
  bool control = false;
  util::SimTime ts;  ///< predicted queue-entry time
};

/// Tinfo(rs, Qin, <rs, r, rd>, tau): neighbor rs reports what it fed into
/// router r's output queue toward rd during `round`.
struct ChiReport {
  util::NodeId reporter = util::kInvalidNode;
  util::NodeId queue_owner = util::kInvalidNode;  ///< r
  util::NodeId queue_peer = util::kInvalidNode;   ///< rd
  std::int64_t round = 0;
  /// Reports are fragmented into MTU-sized parts (dissertation §7.4.4:
  /// oversized control messages must not become jumbo frames); part is
  /// 0-based, parts is the total count. The validator requires all parts.
  std::uint32_t part = 0;
  std::uint32_t parts = 1;
  std::vector<ChiRecord> records;

  [[nodiscard]] std::vector<std::byte> to_bytes() const;
  [[nodiscard]] std::uint32_t wire_bytes() const;
  /// Strict inverse of to_bytes(); same contract as SegmentSummary's.
  [[nodiscard]] static std::optional<ChiReport> from_bytes(std::span<const std::byte> in);
};

struct ChiReportPayload final : sim::ControlPayload {
  ChiReport report;
  crypto::SignedEnvelope envelope;
  [[nodiscard]] std::uint16_t kind() const override { return kKindChiReport; }
};

/// A signed statement that some router within `accused` misbehaved during
/// `round` — the input of the evidence-based conviction layer. Evidence is
/// either empty (a witness vote, convicting only by quorum) or a pair of
/// conflicting signed envelopes proving equivocation by their signer.
struct Accusation {
  util::NodeId accuser = util::kInvalidNode;
  /// Which detector raised the underlying suspicion (obs::TraceSource
  /// value, carried as a raw byte to keep the wire format layer-free).
  std::uint8_t detector = 0;
  routing::PathSegment accused{};
  std::int64_t round = 0;
  std::string cause{};  ///< suspicion cause tag; capped at kMaxCauseBytes
  std::vector<crypto::SignedEnvelope> evidence{};

  static constexpr std::uint32_t kMaxCauseBytes = 64;
  static constexpr std::uint32_t kMaxEvidence = 4;
  static constexpr std::uint32_t kMaxEvidencePayload = 1u << 16;

  [[nodiscard]] std::vector<std::byte> to_bytes() const;
  [[nodiscard]] std::uint32_t wire_bytes() const;
  /// Strict inverse of to_bytes(); same contract as SegmentSummary's.
  [[nodiscard]] static std::optional<Accusation> from_bytes(std::span<const std::byte> in);
};

struct AccusationPayload final : sim::ControlPayload {
  Accusation accusation;
  crypto::SignedEnvelope envelope;  ///< signed by the accuser over to_bytes()
  [[nodiscard]] std::uint16_t kind() const override { return kKindAccusation; }
};

}  // namespace fatih::detection
