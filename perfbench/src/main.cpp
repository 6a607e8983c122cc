// mcsn serving benchmark (see perfbench/README.md).
//
//   perfbench --workload batch_10x8|batch_64x16|poisson_mixed --seed N
//             --seconds S --trace 0|1 [--inject-wrong 1] [--trace-out PATH]
//
// --trace 0 prints the end-to-end metrics of one measured run; --trace 1
// prints the per-layer ledger of a traced run on the same inputs and writes
// its spans to --trace-out. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it carries
// the host fingerprint and run details. Exit 0 only when every response
// matched the reference.

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "common.hpp"
#include "layers.hpp"
#include "loopback.hpp"
#include "mcsn/util/proc_stats.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

/// Untimed lead-in of every measured run: connection, caches and the
/// batcher reach steady state before the window opens.
constexpr double kWarmupS = 0.5;
/// Set-up is repeated (median reported) kMaxSetups times, or fewer when
/// set-ups and teardowns have taken kSetupBudgetS, but never fewer than
/// kMinSetups.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 200;
constexpr double kSetupBudgetS = 2.0;
/// A percentile is reported only with at least this many samples beyond it
/// in every slice it is computed over.
constexpr std::size_t kMinSamplesBeyondP99 = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool inject_wrong = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--inject-wrong 0|1] [--trace-out PATH]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    kv[key.substr(2)] = argv[++i];
  }
  try {
    for (const auto& [k, v] : kv) {
      if (k == "workload") {
        a.workload = v;
      } else if (k == "seed") {
        a.seed = std::stoull(v);
      } else if (k == "seconds") {
        a.seconds = std::stod(v);
      } else if (k == "trace") {
        a.trace = std::stoi(v) != 0;
      } else if (k == "inject-wrong") {
        a.inject_wrong = std::stoi(v) != 0;
      } else if (k == "trace-out") {
        a.trace_out = v;
      } else {
        usage("unknown flag --" + k);
      }
    }
  } catch (const std::exception&) {
    usage("malformed flag value");
  }
  bool known = false;
  for (const std::string& n : workload_names()) known = known || n == a.workload;
  if (!known) usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0 && a.seconds <= 120.0)) usage("--seconds out of range");
  if (a.trace_out.empty()) {
    a.trace_out = ".bench_build/perfbench/trace/" + a.workload + "-seed" +
                  std::to_string(a.seed) + ".json";
  }
  return a;
}

/// Metric name -> (value, unit), printed in insertion order.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::ostringstream out;
    out.precision(10);
    out << "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Item& m = items_[i];
      out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": ";
      if (std::isfinite(m.value)) {
        out << m.value;
      } else {
        out << "null";
      }
      out << ", \"unit\": \"" << m.unit << "\"}";
    }
    out << "}";
    return out.str();
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Sets the stack up kMinSetups..kMaxSetups times (each one torn down
/// before the next), keeps the last, and reports the median set-up time
/// and how many set-ups it is the median of.
std::unique_ptr<Stack> timed_set_up(const Workload& w, double& median_s,
                                    std::size_t& count, std::string& error) {
  std::vector<double> times;
  std::unique_ptr<Stack> stack;
  const auto budget_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(kSetupBudgetS));
  while (static_cast<int>(times.size()) < kMinSetups ||
         (Clock::now() < budget_end && static_cast<int>(times.size()) < kMaxSetups)) {
    stack.reset();
    stack = set_up(w, error);
    if (!stack) return nullptr;
    times.push_back(stack->setup_s);
  }
  count = times.size();
  median_s = median(times);
  return stack;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (const std::string why = refuse_to_report_reason(); !why.empty()) {
    std::cerr << "perfbench: refusing to report from a " << why << "\n";
    return 2;
  }

  Workload w;
  try {
    // The open-loop schedule also covers the short tail run_loopback sends
    // past the window.
    w = make_workload(args.workload, args.seed, kWarmupS + args.seconds + 0.1);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: building workload: " << e.what() << "\n";
    return 2;
  }
  if (args.inject_wrong) {
    // Corrupt one reference answer: every response to frame 0 must now be
    // counted as wrong, proving the check is live.
    mcsn::Trit& t = w.frames[0].expect[0];
    t = t == mcsn::Trit::zero ? mcsn::Trit::one : mcsn::Trit::zero;
  }

  double setup_s = 0.0;
  std::size_t setups = 0;
  std::string error;
  std::unique_ptr<Stack> stack = timed_set_up(w, setup_s, setups, error);
  if (!stack) {
    std::cerr << "perfbench: set-up failed: " << error << "\n";
    return 2;
  }

  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::ostringstream details;
  details.precision(10);
  details << "{\"host\": " << host_fingerprint_json() << ", \"workload\": \""
          << w.name << "\", \"seed\": " << args.seed
          << ", \"seconds\": " << args.seconds << ", \"corpus_digest\": \""
          << std::hex << corpus_digest(w) << std::dec << "\""
          << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"setups\": " << setups;
  std::string first_error;
  bool enough_samples = true;

  if (!args.trace) {
    LoopbackResult res = run_loopback(*stack, w, kWarmupS, args.seconds);
    const mcsn::ProcStats proc = mcsn::read_proc_stats();
    attempted = res.attempted;
    failed = res.failed;
    first_error = res.first_error;
    const std::size_t samples = res.latency_us.size();
    const WindowStats stats = window_stats(res);
    const std::size_t beyond_p99 = samples / stats.slices / 100;
    if (beyond_p99 < kMinSamplesBeyondP99) {
      enough_samples = false;
      std::cerr << "perfbench: only " << beyond_p99
                << " latency samples beyond p99 per slice (" << samples << " in "
                << stats.slices << " slices); at least " << kMinSamplesBeyondP99
                << " are needed: run longer\n";
    }
    metrics.add("rounds_per_s", stats.rounds_per_s, "1/s");
    metrics.add("p50_us", stats.p50_us, "us");
    metrics.add("p99_us", stats.p99_us, "us");
    metrics.add("setup_s", setup_s, "s");
    metrics.add("rss_mib", static_cast<double>(proc.rss_bytes) / (1024.0 * 1024.0),
                "MiB");
    details << ", \"latency_samples\": " << samples
            << ", \"slices\": " << stats.slices
            << ", \"samples_beyond_p99_per_slice\": " << beyond_p99
            << ", \"whole_window\": {\"rounds_per_s\": " << res.rounds_per_s()
            << ", \"p50_us\": " << percentile(res.latency_us, 0.50)
            << ", \"p99_us\": " << percentile(res.latency_us, 0.99) << "}"
            << ", \"loadgen_lag_p99_us\": " << percentile(res.lag_us, 0.99)
            << ", \"error_share\": "
            << (attempted == 0 ? 0.0
                               : static_cast<double>(failed) /
                                     static_cast<double>(attempted));
  } else {
    LayerReport report = run_traced(*stack, w, kWarmupS, args.seconds, args.trace_out);
    attempted = report.attempted;
    failed = report.failed;
    first_error = report.first_error;
    for (const LayerMetric& m : report.metrics) metrics.add(m.name, m.value, m.unit);
    details << ", \"bottleneck\": \"" << report.bottleneck << "\""
            << ", \"trace_file\": \"" << args.trace_out << "\"";
  }
  stack.reset();

  const bool correct = failed == 0 && attempted > 0 && enough_samples;
  if (!first_error.empty()) {
    std::cerr << "perfbench: " << failed << " of " << attempted
              << " requests failed; first: " << first_error << "\n";
  }
  details << "}";
  std::cout << details.str() << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return correct ? 0 : 1;
}
