#pragma once
// Process-level resource sampling for leak detection: resident set size
// and open file-descriptor count, read from /proc/self on Linux. The soak
// harness (tools/soak.cpp, docs/SOAK.md) samples these throughout a
// campaign and asserts the RSS slope and fd baseline at the end; the
// gauges below put the same numbers on every STATS scrape so an external
// monitor can watch a live tool_sortd for the same drifts.
//
//   MetricsRegistry reg;
//   ProcStatsGauges gauges(reg);
//   gauges.refresh();          // before every scrape
//   reg.json();                // ... "process_rss_bytes": 12345678 ...
//
// On platforms without /proc (or a hardened /proc), read_proc_stats()
// reports -1 per field instead of failing; the gauges then publish -1 and
// consumers treat the series as unsupported.

#include <cstdint>

#include "mcsn/util/metrics_registry.hpp"

namespace mcsn {

/// One sample of the calling process's resource footprint. -1 per field
/// means "could not be read on this platform".
struct ProcStats {
  /// Resident set size in bytes (VmRSS from /proc/self/status).
  std::int64_t rss_bytes = -1;
  /// Open file descriptors (entries in /proc/self/fd, excluding the
  /// directory handle the count itself holds open).
  std::int64_t open_fds = -1;
};

/// Samples /proc/self once. Async-signal-UNSAFE (opendir/ifstream); call
/// from ordinary threads only. Cheap enough for ~ms-period polling but
/// not for per-request paths.
[[nodiscard]] ProcStats read_proc_stats();

/// Registers `process_rss_bytes` / `process_open_fds` gauges and updates
/// them from read_proc_stats() on refresh(). The service calls refresh()
/// before rendering a stats document, so every scrape carries a fresh
/// sample without any background thread; a render is the only place the
/// gauges are sampled.
class ProcStatsGauges {
 public:
  /// Registers the two gauges (get-or-create: constructing twice against
  /// one registry shares the series) without sampling /proc: they read 0
  /// until the first refresh(). Handles stay valid for the registry's
  /// lifetime; the registry must outlive this object.
  explicit ProcStatsGauges(MetricsRegistry& registry);

  /// Samples and publishes; returns the sample for callers that also
  /// want the raw values.
  ProcStats refresh() const;

 private:
  Gauge* rss_;
  Gauge* fds_;
};

}  // namespace mcsn
