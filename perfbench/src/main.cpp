// Same-machine detection benchmark: the measuring program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --spec <name> --seed <n>     # print the generated spec text
//
// One process, one thread. The workload seed becomes ScenarioSpec text,
// which is decoded and run through the public scenario::ScenarioRun API
// (constructor, run_to per round, finish) as many times as fit in the
// time budget. Every run is checked (digest equal across repeats, the
// pinned outcome at the default seed, completeness from the oracle). The
// last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; --trace 0 reports the end-to-end metrics and
// --trace 1 the per-layer metrics of the traced rebuild.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "crypto/siphash.hpp"
#include "oracle.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "traced.hpp"
#include "util/hash.hpp"
#include "workloads.hpp"

namespace {

namespace sc = fatih::scenario;
using Clock = std::chrono::steady_clock;
using perfbench::Workload;

/// A process that has run this long abandons its remaining work, so the
/// whole invocation ends well inside three minutes.
constexpr double kHardDeadlineS = 150.0;
/// Set-up is sampled apart from the runs, in a fresh child process before
/// every run. A construction's time depends on the heap it finds (after a
/// run it is several times slower) and on the machine's slow and fast
/// spells, which last seconds (one process's samples read e.g. either ~85
/// or ~135 us for abilene_pik2). So each child starts from the parent's
/// clean heap, and the samples spread over the whole budget like the runs.
constexpr int kSetupSamples = 5;
/// Discarded constructions first (cold caches, heap growth).
constexpr double kSetupWarmupS = 0.02;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::uint64_t suspicion_hash(const std::vector<std::string>& suspicions) {
  std::uint64_t h = fatih::util::kFnvOffsetBasis;
  for (const std::string& s : suspicions) h = fatih::util::fnv1a64(s.data(), s.size(), h);
  return h;
}

bool same_outcome(const sc::ScenarioResult& a, const sc::ScenarioResult& b) {
  return a.final_digest == b.final_digest && a.forwarded == b.forwarded &&
         a.delivered == b.delivered && a.dispatched == b.dispatched &&
         a.suspicions == b.suspicions && a.checkpoints == b.checkpoints;
}

// --------------------------------------------------------------- environment

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

const char* simd_name(fatih::crypto::SimdLevel l) {
  switch (l) {
    case fatih::crypto::SimdLevel::kScalar: return "scalar";
    case fatih::crypto::SimdLevel::kSse2: return "sse2";
    case fatih::crypto::SimdLevel::kAvx2: return "avx2";
    case fatih::crypto::SimdLevel::kAvx512: return "avx512";
  }
  return "unknown";
}

void print_environment() {
  std::printf("# compiler: %s\n", PERFBENCH_CXX_ID);
  std::printf("# build: %s, flags: %s\n", PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
  std::printf("# nproc: %ld, cpu: %s\n", sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str());
  std::printf("# crypto::simd_level: %s\n", simd_name(fatih::crypto::simd_level()));
}

/// Peak resident memory of this program image. VmHWM, not getrusage's
/// ru_maxrss: the latter keeps the high-water mark of the process that
/// exec'd us (e.g. a Python wrapper).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

// ---------------------------------------------------------------- one run

struct Run {
  double run_s = 0;
  sc::ScenarioResult result;
  bool timed_out = false;
};

/// One untraced run through the public API, round by round.
Run run_once(const sc::ScenarioSpec& spec, Clock::time_point process_start) {
  Run r;
  auto run = std::make_unique<sc::ScenarioRun>(spec);
  const auto t1 = Clock::now();
  const std::int64_t tau = spec.detector.tau_ns;
  for (std::int64_t t = spec.detector.epoch_ns + tau; t < run->end_time_ns(); t += tau) {
    run->run_to(t);
    if (since(process_start) > kHardDeadlineS) {
      r.timed_out = true;
      return r;
    }
  }
  r.result = run->finish();
  const auto t2 = Clock::now();
  r.run_s = std::chrono::duration<double>(t2 - t1).count();
  return r;
}

double sample_setup(const sc::ScenarioSpec& spec) {
  const auto t0 = Clock::now();
  const sc::ScenarioRun run(spec);
  return since(t0);
}

/// Appends kSetupSamples set-up times measured in a child process.
void sample_setups(const sc::ScenarioSpec& spec, std::vector<double>& out) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const auto t0 = Clock::now();
      while (since(t0) < kSetupWarmupS) (void)sample_setup(spec);
      double samples[kSetupSamples];
      for (double& x : samples) x = sample_setup(spec);
      if (write(fds[1], samples, sizeof samples) != static_cast<ssize_t>(sizeof samples)) code = 1;
    } catch (...) {
      code = 1;
    }
    _exit(code);
  }
  close(fds[1]);
  double samples[kSetupSamples];
  std::size_t got = 0;
  while (got < sizeof samples) {
    const ssize_t n = read(fds[0], reinterpret_cast<char*>(samples) + got, sizeof samples - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof samples || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up sampling process failed");
  }
  out.insert(out.end(), samples, samples + kSetupSamples);
}

// ------------------------------------------------------------- checking

struct Checker {
  const Workload& workload;
  const sc::ScenarioSpec& spec;
  std::uint64_t seed;
  std::optional<sc::ScenarioResult> first{};
  perfbench::OracleReport oracle{};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures{};

  void fail(std::string why) {
    ++failed;
    failures.push_back(std::move(why));
  }

  /// Counts one run and records why it failed, if it did.
  void check(const Run& run) {
    ++attempted;
    if (run.timed_out) return fail("run timed out");
    const sc::ScenarioResult& r = run.result;
    if (!first) {
      first = r;
      oracle = perfbench::check(spec, r.suspicions);
    } else if (!same_outcome(*first, r)) {
      return fail("outcome differs between repeats of one seed");
    }
    if (!oracle.complete) return fail("completeness: an attacker was never suspected");
    if (seed == perfbench::kDefaultSeed) {
      const perfbench::PinnedOutcome& p = workload.pinned;
      if (r.final_digest != p.final_digest || suspicion_hash(r.suspicions) != p.suspicion_hash ||
          r.forwarded != p.forwarded || r.delivered != p.delivered ||
          r.dispatched != p.dispatched) {
        return fail("outcome differs from the pinned outcome of the default seed");
      }
    }
  }
};

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Checker& c, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %18.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : c.failures) std::printf("FAILED: %s\n", f.c_str());
  std::printf("# fail_rate: %llu/%llu\n", static_cast<unsigned long long>(c.failed),
              static_cast<unsigned long long>(c.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              c.failed == 0 ? "true" : "false", static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// The oracle's findings and the outcome, printed for the reader (they
/// are simulation outputs, identical on every repeat of a seed).
void print_outcome(const Checker& c) {
  if (!c.first) return;
  const sc::ScenarioResult& r = *c.first;
  std::printf("# outcome: final_digest=0x%016llx suspicion_hash=0x%016llx forwarded=%llu "
              "delivered=%llu dispatched=%llu suspicions=%zu\n",
              static_cast<unsigned long long>(r.final_digest),
              static_cast<unsigned long long>(suspicion_hash(r.suspicions)),
              static_cast<unsigned long long>(r.forwarded),
              static_cast<unsigned long long>(r.delivered),
              static_cast<unsigned long long>(r.dispatched), r.suspicions.size());
  std::printf("# oracle: accuracy_violations=%zu of %zu suspicions, complete=%s, "
              "detect_delay_s=%s\n",
              c.oracle.violations.size(), c.oracle.suspicions, c.oracle.complete ? "yes" : "no",
              c.oracle.detect_delay_s ? std::to_string(*c.oracle.detect_delay_s).c_str() : "none");
  for (const std::string& v : c.oracle.violations) {
    std::printf("# accuracy violation: %s\n", v.c_str());
  }
}

// ------------------------------------------------------------------ modes

int measure(const Workload& w, const sc::ScenarioSpec& spec, std::uint64_t seed, double budget,
            Clock::time_point process_start) {
  Checker checker{w, spec, seed};
  std::vector<double> setups;
  std::vector<double> runs;
  const auto t0 = Clock::now();
  double last = 0;
  do {
    const auto r0 = Clock::now();
    sample_setups(spec, setups);
    const Run run = run_once(spec, process_start);
    checker.check(run);
    if (run.timed_out) break;
    runs.push_back(run.run_s);
    last = since(r0);
    std::printf("# run %zu: setup_s=%.9f run_s=%.6f\n", runs.size(),
                median({setups.end() - kSetupSamples, setups.end()}), run.run_s);
  } while (since(t0) + last <= budget);

  print_outcome(checker);
  print_result(checker, {{"setup_s", median(setups), "s"},
                         {"run_s", median(runs), "s"},
                         {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return 0;
}

int measure_traced(const Workload& w, const sc::ScenarioSpec& spec, std::uint64_t seed,
                   double budget, Clock::time_point process_start) {
  Checker checker{w, spec, seed};
  std::vector<double> untraced;
  std::vector<perfbench::TracedRun> traced;
  const auto t0 = Clock::now();
  double last = 0;
  do {
    const auto r0 = Clock::now();
    const Run run = run_once(spec, process_start);
    checker.check(run);
    if (run.timed_out) break;
    untraced.push_back(run.run_s);
    perfbench::TracedRun t = perfbench::run_traced(spec);
    ++checker.attempted;
    if (!same_outcome(run.result, t.result)) {
      checker.fail("traced rebuild does not reproduce ScenarioRun (digest or suspicions)");
    } else if (t.residual_s < 0) {
      checker.fail("layer times exceed the traced run time");
    }
    std::printf("# pair %zu: untraced run_s=%.6f traced run_s=%.6f residual_s=%.6f\n",
                untraced.size(), run.run_s, t.run_s, t.residual_s);
    traced.push_back(std::move(t));
    last = since(r0);
  } while (since(t0) + last <= budget && since(process_start) + last < kHardDeadlineS);

  auto med = [&](auto field) {
    std::vector<double> v;
    for (const perfbench::TracedRun& t : traced) v.push_back(static_cast<double>(field(t)));
    return median(v);
  };
  using T = perfbench::TracedRun;
  const double run_s = med([](const T& t) { return t.run_s; });
  const double events = med([](const T& t) { return t.events; });
  const double sim_self = med([](const T& t) { return t.sim_self_s; });
  const double tap_calls = med([](const T& t) { return t.tap_calls; });
  const double tap_s = med([](const T& t) { return t.tap_s; });
  const double control_msgs = med([](const T& t) { return t.control_msgs; });
  const double control_s = med([](const T& t) { return t.control_s; });
  const double untraced_run_s = median(untraced);
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  print_outcome(checker);
  print_result(
      checker,
      {
          {"topo.generate_s", med([](const T& t) { return t.topo_generate_s; }), "s"},
          {"routing.tables_s", med([](const T& t) { return t.routing_tables_s; }), "s"},
          {"detection.commission_s", med([](const T& t) { return t.commission_s; }), "s"},
          {"sim.events", events, "count"},
          {"sim.self_s", sim_self, "s"},
          {"sim.ns_per_event", per(sim_self * 1e9, events), "ns"},
          {"detection.tap_calls", tap_calls, "count"},
          {"detection.tap_s", tap_s, "s"},
          {"detection.tap_ns_per_call", per(tap_s * 1e9, tap_calls), "ns"},
          {"detection.control_msgs", control_msgs, "count"},
          {"detection.control_bytes", med([](const T& t) { return t.control_bytes; }), "bytes"},
          {"detection.control_s", control_s, "s"},
          {"detection.control_us_per_msg", per(control_s * 1e6, control_msgs), "us"},
          {"detection.eval_s", med([](const T& t) { return t.eval_s; }), "s"},
          {"attacks.filter_calls", med([](const T& t) { return t.filter_calls; }), "count"},
          {"attacks.filter_s", med([](const T& t) { return t.filter_s; }), "s"},
          {"scenario.digest_s", med([](const T& t) { return t.digest_s; }), "s"},
          {"detection.rounds_evaluated", med([](const T& t) { return t.rounds_evaluated; }),
           "count"},
          {"detection.suspicions", med([](const T& t) { return t.suspicions; }), "count"},
          {"detection.exchange_bytes", med([](const T& t) { return t.exchange_bytes; }), "bytes"},
          {"detection.guard_rejects", med([](const T& t) { return t.guard_rejects; }), "count"},
          {"sim.drops", med([](const T& t) { return t.drops; }), "count"},
          {"traffic.tcp_retransmits", med([](const T& t) { return t.tcp_retransmits; }), "count"},
          {"oracle.accuracy_violations", static_cast<double>(checker.oracle.violations.size()),
           "count"},
          {"oracle.detect_delay_s", checker.oracle.detect_delay_s.value_or(-1), "sim_s"},
          {"trace.run_s", run_s, "s"},
          {"trace.residual_s", med([](const T& t) { return t.residual_s; }), "s"},
          {"trace.overhead_pct", per(run_s - untraced_run_s, untraced_run_s) * 100, "%"},
      });
  return 0;
}

int print_spec(const sc::ScenarioSpec& spec) {
  std::fputs(sc::encode(spec).c_str(), stdout);
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n       perfbench --spec <name> --seed <n>\nworkloads:",
               why);
  for (const Workload& w : perfbench::workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  std::string workload;
  std::string spec_only;
  std::uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--spec") {
      spec_only = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  const std::string& name = spec_only.empty() ? workload : spec_only;
  const Workload* w = perfbench::find_workload(name);
  if (w == nullptr) usage(("unknown workload '" + name + "'").c_str());
  if (seconds <= 0 || (trace != 0 && trace != 1)) usage("bad --seconds or --trace");

  // The program's input is the spec text alone: encode, then decode what
  // will run.
  const std::string text = sc::encode(w->make(seed));
  sc::ScenarioSpec spec;
  std::string error;
  if (!sc::decode(text, spec, error)) {
    std::fprintf(stderr, "perfbench: generated spec does not decode: %s\n", error.c_str());
    return 1;
  }
  if (!spec_only.empty()) return print_spec(spec);

  try {
    std::printf("# workload: %s seed=%llu spec_hash=0x%016llx flows=%zu trace=%d\n", w->name,
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(sc::spec_hash(spec)), spec.flows.size(), trace);
    print_environment();
    return trace == 1 ? measure_traced(*w, spec, seed, seconds, process_start)
                      : measure(*w, spec, seed, seconds, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
