#include "mcsn/util/proc_stats.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#if defined(__linux__)
#include <dirent.h>
#endif

namespace mcsn {
namespace {

/// VmRSS from /proc/self/status, in bytes; -1 when absent. The kernel
/// reports "VmRSS:   <n> kB" — the unit is fixed, so we parse the number
/// and scale.
std::int64_t read_rss_bytes() {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  if (!status.is_open()) return -1;
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    std::int64_t kib = -1;
    fields >> kib;
    if (!fields || kib < 0) return -1;
    return kib * 1024;
  }
#endif
  return -1;
}

/// Entries in /proc/self/fd minus the directory stream's own descriptor;
/// -1 when the directory cannot be read.
std::int64_t read_open_fds() {
#if defined(__linux__)
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  std::int64_t count = 0;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;  // "." and ".."
    ++count;
  }
  ::closedir(dir);
  // The opendir itself held one fd that is now closed again.
  return count > 0 ? count - 1 : count;
#else
  return -1;
#endif
}

}  // namespace

ProcStats read_proc_stats() {
  ProcStats s;
  s.rss_bytes = read_rss_bytes();
  s.open_fds = read_open_fds();
  return s;
}

ProcStatsGauges::ProcStatsGauges(MetricsRegistry& registry)
    : rss_(&registry.gauge("process_rss_bytes")),
      fds_(&registry.gauge("process_open_fds")) {}

ProcStats ProcStatsGauges::refresh() const {
  ProcStats s = read_proc_stats();
  rss_->set(s.rss_bytes);
  fds_->set(s.open_fds);
  return s;
}

}  // namespace mcsn
