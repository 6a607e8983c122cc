#include "common.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

namespace perfbench {

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

SpanLog::SpanLog(Clock::time_point epoch, std::size_t reserve)
    : epoch_(epoch) {
  spans_.reserve(reserve);
}

void SpanLog::merge(const SpanLog& other) {
  const auto base = static_cast<std::uint32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent != Span::kNoParent) s.parent += base;
    spans_.push_back(s);
  }
}

std::int64_t SpanLog::total_ns(std::uint32_t name) const {
  std::int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end_ns - s.start_ns;
  }
  return total;
}

std::size_t SpanLog::count(std::uint32_t name) const {
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(),
      [name](const Span& s) { return s.name == name; }));
}

const char* span_name(std::uint32_t name) {
  static constexpr const char* kNames[kSpanNameCount] = {
      "client.encode",        "client.send",
      "client.recv",          "client.decode",
      "wire.decode_request",  "wire.decode_response",
      "wire.encode_response", "wire.encode_request",
      "pool.acquire",         "batcher.add",
      "engine.sort",          "engine.eval",
      "compose.build",        "replay.frame",
  };
  return name < kSpanNameCount ? kNames[name] : "unknown";
}

bool write_trace(const std::string& path, const SpanLog& log,
                 const std::string& header_json, std::size_t max_spans) {
  const std::vector<Span>& spans = log.spans();
  // Self time: a span's duration minus what its direct children cover
  // (children of one parent never overlap here: each thread's spans nest).
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent != Span::kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<std::int64_t> total(kSpanNameCount, 0);
  std::vector<std::int64_t> self(kSpanNameCount, 0);
  std::vector<std::size_t> count(kSpanNameCount, 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name >= kSpanNameCount) continue;
    total[s.name] += s.end_ns - s.start_ns;
    self[s.name] += s.end_ns - s.start_ns - child_ns[i];
    ++count[s.name];
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"run\": " << header_json << ",\n\"layers\": {";
  bool first = true;
  for (std::uint32_t n = 0; n < kSpanNameCount; ++n) {
    if (count[n] == 0) continue;
    out << (first ? "" : ",") << "\n  \"" << span_name(n)
        << "\": {\"count\": " << count[n] << ", \"total_ns\": " << total[n]
        << ", \"self_ns\": " << self[n] << "}";
    first = false;
  }
  const std::size_t written = std::min(spans.size(), max_spans);
  out << "},\n\"spans_total\": " << spans.size()
      << ",\n\"spans_written\": " << written << ",\n\"spans\": [";
  for (std::size_t i = 0; i < written; ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",") << "\n{\"id\": " << i << ", \"name\": \""
        << span_name(s.name) << "\", \"parent\": ";
    if (s.parent == Span::kNoParent) {
      out << "null";
    } else {
      out << s.parent;
    }
    out << ", \"request\": " << s.request << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

pid_t current_tid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

void pin_thread(pid_t tid, int cpu) {
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (cpus < 4 || tid <= 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu % cpus), &set);
  (void)::sched_setaffinity(tid, sizeof set, &set);
}

std::vector<pid_t> process_tids() {
  std::vector<pid_t> tids;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* entry = ::readdir(dir)) {
      const long tid = std::strtol(entry->d_name, nullptr, 10);
      if (tid > 0) tids.push_back(static_cast<pid_t>(tid));
    }
    ::closedir(dir);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::int64_t thread_cpu_ns(pid_t tid) {
  // The kernel's per-thread CPU clock id (what pthread_getcpuclockid
  // builds): ~tid << 3 | CPUCLOCK_PERTHREAD_MASK (4) | CPUCLOCK_SCHED (2).
  const auto clock = static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6u);
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) return -1;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

bool verify_enabled() {
#if !defined(NDEBUG) || defined(MCSN_VERIFY)
  return true;
#else
  return false;
#endif
}

}  // namespace

std::string host_fingerprint_json() {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"nproc_online\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu_model\": \"" << json_escape(cpu_model()) << "\""
#if defined(__clang__)
      << ", \"compiler\": \"clang " << __clang_major__ << "." << __clang_minor__
      << "." << __clang_patchlevel__ << "\""
#elif defined(__GNUC__)
      << ", \"compiler\": \"gcc " << __GNUC__ << "." << __GNUC_MINOR__ << "."
      << __GNUC_PATCHLEVEL__ << "\""
#else
      << ", \"compiler\": \"unknown\""
#endif
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
      << ", \"cxx_flags\": \"" << json_escape(PERFBENCH_CXX_FLAGS) << "\""
      << ", \"sanitizer\": " << (sanitized() ? "true" : "false")
      << ", \"mcsn_verify\": " << (verify_enabled() ? "true" : "false") << "}";
  return out.str();
}

std::string refuse_to_report_reason() {
  if (sanitized()) return "sanitizer build";
  if (verify_enabled()) {
    return "MCSN_VERIFY or debug-assert build (verify_ir runs after every "
           "compile and inflates setup_s)";
  }
  return {};
}

}  // namespace perfbench
