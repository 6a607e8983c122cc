#pragma once
// Shared pieces of the serving benchmark: clocks, raw-sample percentiles,
// the in-memory span log of the traced run, per-thread CPU clocks, and the
// host fingerprint every result carries.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t to_ns(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

/// Nearest-rank percentile (q in [0, 1]) of raw samples; NaN when empty.
/// Sorts `samples` in place.
[[nodiscard]] double percentile(std::vector<double>& samples, double q);

/// Median of raw samples (sorts in place); NaN when empty.
[[nodiscard]] inline double median(std::vector<double>& samples) {
  return percentile(samples, 0.5);
}

/// One timed call: which layer function, when, under which parent span and
/// for which request (frame sequence number).
struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;  // relative to the log's epoch
  std::int64_t end_ns = 0;
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
};

/// Spans of one thread, kept in memory and written out when the run ends.
/// Not thread-safe: give each thread its own log and merge() afterwards.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch, std::size_t reserve = 1 << 16);

  /// Opens a span and returns its index (the parent of nested spans).
  std::uint32_t begin(std::uint32_t name, std::uint64_t request,
                      std::uint32_t parent = Span::kNoParent) {
    spans_.push_back(Span{name, parent, request, to_ns(Clock::now() - epoch_), 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void end(std::uint32_t index) {
    spans_[index].end_ns = to_ns(Clock::now() - epoch_);
  }

  /// Appends `other`'s spans, re-basing their parent indices.
  void merge(const SpanLog& other);

  /// Summed duration and count of every span called `name`.
  [[nodiscard]] std::int64_t total_ns(std::uint32_t name) const;
  [[nodiscard]] std::size_t count(std::uint32_t name) const;

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// The span names the benchmark records; index = Span::name.
enum SpanName : std::uint32_t {
  kClientEncode,
  kClientSend,
  kClientRecv,
  kClientDecode,
  kWireDecodeRequest,
  kWireDecodeResponse,
  kWireEncodeResponse,
  kWireEncodeRequest,
  kPoolAcquire,
  kBatcherAdd,
  kEngineSort,
  kEngineEval,
  kComposeBuild,
  kReplayFrame,
  kSpanNameCount,
};

[[nodiscard]] const char* span_name(std::uint32_t name);

/// Writes each span name's count, total and self time (duration minus the
/// part covered by child spans) over all spans, then the first `max_spans`
/// spans themselves, as one JSON document.
bool write_trace(const std::string& path, const SpanLog& log,
                 const std::string& header_json, std::size_t max_spans);

/// Kernel thread id of the calling thread.
[[nodiscard]] pid_t current_tid();

/// Restricts thread `tid` to CPU `cpu` (no-op on hosts with fewer than
/// four CPUs, where the benchmark's four busy threads must share).
void pin_thread(pid_t tid, int cpu);

/// Thread ids of this process, ascending.
[[nodiscard]] std::vector<pid_t> process_tids();

/// CPU time consumed so far by thread `tid` of this process, in ns (-1 if
/// the thread is gone).
[[nodiscard]] std::int64_t thread_cpu_ns(pid_t tid);

/// Host and build description: nproc, CPU model, compiler, build type,
/// sanitizer and MCSN_VERIFY state, as a JSON object.
[[nodiscard]] std::string host_fingerprint_json();

/// Non-empty when this build must not report numbers (sanitizers, debug
/// asserts or MCSN_VERIFY make every compile run verify_ir and distort
/// timings): the reason.
[[nodiscard]] std::string refuse_to_report_reason();

}  // namespace perfbench
