// Named metrics registry: counters, gauges, EWMAs and fixed-bucket
// histograms (built on util/stats), snapshot-to-JSON.
//
// Handles are created on first use (`registry.counter("pi2.suspicions")`)
// and have stable addresses for the lifetime of the registry, so hot paths
// resolve a handle once and increment through the pointer afterwards
// (sim's per-packet counters are pre-resolved into PacketCounters by
// Network::attach_observability). Snapshots iterate names in sorted order
// and format deterministically: identical runs produce byte-identical
// JSON, which the determinism suite asserts.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "util/stats.hpp"

/// Calls through a metric handle pointer iff it is resolved:
///   FATIH_METRIC(pc.enqueued, inc());
#define FATIH_METRIC(handle, call)                                       \
  do {                                                                   \
    if (auto* fatih_metric_h_ = (handle); fatih_metric_h_ != nullptr) {  \
      fatih_metric_h_->call;                                             \
    }                                                                    \
  } while (0)
/// Calls through an obs::MetricsRegistry* iff one is attached — the cold-
/// path form (per-call name lookup):
///   FATIH_METRIC_REG(sim.metrics(), counter("routing.spf_runs").inc());
#define FATIH_METRIC_REG(registry, call)                                      \
  do {                                                                        \
    if (auto* fatih_metric_reg_ = (registry); fatih_metric_reg_ != nullptr) { \
      fatih_metric_reg_->call;                                                \
    }                                                                         \
  } while (0)

namespace fatih::obs {

/// Monotonic unsigned counter.
class Counter {
 public:
  void inc(std::uint64_t d = 1) { v_ += d; }
  [[nodiscard]] std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Last-write-wins real value.
class Gauge {
 public:
  void set(double v) { v_ = v; }
  void add(double d) { v_ += d; }
  [[nodiscard]] double value() const { return v_; }

 private:
  double v_ = 0.0;
};

/// The registry. Single-threaded, like everything else in the simulator.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Handle factories: create on first use, return the existing handle
  /// afterwards (histogram/ewma shape parameters are fixed by the first
  /// call). References stay valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  util::Ewma& ewma(std::string_view name, double alpha = 0.2);
  util::Histogram& histogram(std::string_view name, double lo, double hi, std::size_t bins);

  /// Lookups without creation (tests, exporters); null when absent.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const util::Ewma* find_ewma(std::string_view name) const;
  [[nodiscard]] const util::Histogram* find_histogram(std::string_view name) const;

  /// Convenience: the counter's value, or 0 when it was never created.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;

  /// Deterministic snapshot: names sorted, fixed float formatting.
  [[nodiscard]] std::string to_json() const;

 private:
  template <typename T>
  using Store = std::map<std::string, std::unique_ptr<T>, std::less<>>;

  Store<Counter> counters_;
  Store<Gauge> gauges_;
  Store<util::Ewma> ewmas_;
  Store<util::Histogram> histograms_;
};

/// Pre-resolved counter handles for the sim layer's per-packet hot paths
/// (a map lookup per packet would dominate). Lives on the Simulator;
/// populated by Network::attach_observability, all-null when metrics are
/// detached (each use is a pointer test).
struct PacketCounters {
  static constexpr std::size_t kDropKinds = 8;  ///< == #sim::DropReason values
  Counter* drops[kDropKinds] = {};
  Counter* enqueued = nullptr;
  Counter* transmitted = nullptr;
  Counter* forwarded = nullptr;
  util::Ewma* queue_fill = nullptr;
};

}  // namespace fatih::obs
