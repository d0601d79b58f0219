// §7.1 "Computing Fingerprints": micro-benchmarks of the per-packet work
// the protocols add to the forwarding path — keyed fingerprinting (the
// UHASH-class cost the dissertation discusses), MAC computation, Bloom
// digest insertion, and characteristic-polynomial evaluation per packet.
#include <benchmark/benchmark.h>

#include "crypto/mac.hpp"
#include "crypto/siphash.hpp"
#include "validation/bloom.hpp"
#include "validation/fingerprint.hpp"
#include "validation/reconcile.hpp"

namespace {

using namespace fatih;

sim::Packet sample_packet(std::uint64_t i) {
  sim::Packet p;
  p.hdr.src = 1;
  p.hdr.dst = 9;
  p.hdr.flow_id = static_cast<std::uint32_t>(i & 0xFF);
  p.hdr.seq = static_cast<std::uint32_t>(i);
  p.hdr.proto = sim::Protocol::kTcp;
  p.size_bytes = 1000;
  p.payload_tag = i * 0x9E3779B97F4A7C15ULL;
  return p;
}

void BM_PacketFingerprint(benchmark::State& state) {
  constexpr crypto::SipKey key{11, 22};
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(validation::packet_fingerprint(key, sample_packet(i++)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketFingerprint);

void BM_SipHashPayload(benchmark::State& state) {
  // Hashing a full payload of the given size (software fallback if header
  // fields alone are not enough).
  constexpr crypto::SipKey key{11, 22};
  std::vector<std::byte> payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::siphash24(key, payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SipHashPayload)->Arg(64)->Arg(256)->Arg(1000)->Arg(1500);

void BM_MacOverSummary(benchmark::State& state) {
  constexpr crypto::SipKey key{31, 32};
  std::vector<std::byte> summary(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::compute_mac(key, summary));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MacOverSummary)->Arg(1024)->Arg(16384);

void BM_BloomInsert(benchmark::State& state) {
  validation::BloomFilter filter(1 << 16, 4);
  std::uint64_t i = 0;
  for (auto _ : state) {
    filter.insert(i++ * 0x9E3779B97F4A7C15ULL);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BloomInsert);

void BM_CharPolyPerPacket(benchmark::State& state) {
  // Incremental characteristic-polynomial maintenance: one field
  // multiplication per evaluation point per packet.
  const auto points = validation::evaluation_points(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint64_t> acc(points.size(), 1);
  std::uint64_t i = 1;
  for (auto _ : state) {
    const std::uint64_t elem = validation::to_field(i++ * 0x9E3779B97F4A7C15ULL);
    for (std::size_t j = 0; j < points.size(); ++j) {
      acc[j] = validation::gf::mul(acc[j], validation::gf::sub(points[j], elem));
    }
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CharPolyPerPacket)->Arg(8)->Arg(32)->Arg(128);

}  // namespace
