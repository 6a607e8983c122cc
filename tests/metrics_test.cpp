// Tests for the observability subsystem: the registry primitives
// (Counter, Gauge, AtomicHistogram), series identity and exposition
// (JSON + Prometheus text), and the serve-layer slow-request ring.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mcsn/serve/metrics.hpp"
#include "mcsn/serve/service.hpp"
#include "mcsn/util/metrics_registry.hpp"
#include "mcsn/util/proc_stats.hpp"

namespace mcsn {
namespace {

TEST(Counter, StartsAtZeroAndSumsAdds) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentAddsNeverLoseIncrements) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Gauge, SetAddSubRoundTrip) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(10);
  g.add(5);
  g.sub(20);
  EXPECT_EQ(g.value(), -5);
}

TEST(AtomicHistogram, EmptySnapshotIsSafe) {
  const AtomicHistogram h;
  const Histogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), 0u);
  EXPECT_EQ(snap.min(), 0u);
  EXPECT_EQ(snap.max(), 0u);
  EXPECT_EQ(snap.mean(), 0.0);
  EXPECT_EQ(snap.quantile(0.99), 0u);
}

TEST(AtomicHistogram, SnapshotMatchesPlainHistogram) {
  AtomicHistogram atomic;
  Histogram plain;
  const std::vector<std::uint64_t> values{0,  1,    7,      8,      9,
                                          63, 1000, 123456, 7890123};
  for (const std::uint64_t v : values) {
    atomic.record(v);
    plain.record(v);
  }
  const Histogram snap = atomic.snapshot();
  EXPECT_EQ(snap.count(), plain.count());
  EXPECT_EQ(snap.min(), plain.min());
  EXPECT_EQ(snap.max(), plain.max());
  EXPECT_EQ(snap.mean(), plain.mean());
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(snap.quantile(q), plain.quantile(q)) << "q=" << q;
  }
}

TEST(AtomicHistogram, ConcurrentRecordsKeepCountSumAndExtrema) {
  AtomicHistogram h;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(t) * kPerThread + i + 1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const Histogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), kThreads * kPerThread);
  EXPECT_EQ(snap.min(), 1u);
  EXPECT_EQ(snap.max(), kThreads * kPerThread);
  // Mean of 1..N is (N+1)/2; the log buckets do not affect sum/count.
  EXPECT_DOUBLE_EQ(snap.mean(), (kThreads * kPerThread + 1) / 2.0);
}

TEST(MetricsRegistry, GetOrCreateReturnsStableHandles) {
  MetricsRegistry reg;
  Counter& a = reg.counter("hits_total");
  Counter& b = reg.counter("hits_total");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  Gauge& g1 = reg.gauge("depth");
  Gauge& g2 = reg.gauge("depth");
  EXPECT_EQ(&g1, &g2);
  AtomicHistogram& h1 = reg.histogram("lat_ns");
  AtomicHistogram& h2 = reg.histogram("lat_ns");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistry, LabelsDistinguishSeriesAndOrderIsCanonical) {
  MetricsRegistry reg;
  Counter& loop0 = reg.counter("reqs_total", {{"loop", "0"}});
  Counter& loop1 = reg.counter("reqs_total", {{"loop", "1"}});
  EXPECT_NE(&loop0, &loop1);
  // Label order must not create a second series: {a,b} == {b,a}.
  Counter& ab = reg.counter("x_total", {{"a", "1"}, {"b", "2"}});
  Counter& ba = reg.counter("x_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&ab, &ba);
}

TEST(MetricsRegistry, SameNameDifferentKindAreDistinctSlots) {
  // Degenerate but must not alias or crash: the kind participates in
  // series identity.
  MetricsRegistry reg;
  Counter& c = reg.counter("clash");
  Gauge& g = reg.gauge("clash");
  c.add(7);
  g.set(-7);
  EXPECT_EQ(c.value(), 7u);
  EXPECT_EQ(g.value(), -7);
  EXPECT_EQ(reg.snapshot().size(), 2u);
}

TEST(MetricsRegistry, SnapshotIsDeterministicallyOrdered) {
  MetricsRegistry reg;
  (void)reg.counter("zz_total");
  (void)reg.gauge("aa");
  (void)reg.counter("mm_total", {{"loop", "1"}});
  (void)reg.counter("mm_total", {{"loop", "0"}});
  const std::vector<MetricsRegistry::Series> snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].key(), "aa");
  EXPECT_EQ(snap[1].key(), "mm_total{loop=\"0\"}");
  EXPECT_EQ(snap[2].key(), "mm_total{loop=\"1\"}");
  EXPECT_EQ(snap[3].key(), "zz_total");
}

TEST(MetricsRegistry, JsonExposesAllKindsWithExactKeys) {
  MetricsRegistry reg;
  reg.counter("requests_total").add(5);
  reg.gauge("queue_depth").set(-3);
  reg.histogram("stage_ns").record(7);
  const std::string json = reg.json();
  EXPECT_NE(json.find("\"requests_total\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"queue_depth\": -3"), std::string::npos) << json;
  // One sample: every summary stat equals it.
  EXPECT_NE(json.find("\"stage_ns\": {\"count\": 1, \"min\": 7, \"p50\": 7, "
                      "\"p90\": 7, \"p99\": 7, \"max\": 7, \"mean\": 7}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(MetricsRegistry, JsonEscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("odd_total", {{"tag", "a\"b\\c\nd"}}).add(1);
  const std::string json = reg.json();
  EXPECT_NE(json.find("odd_total{tag=\\\"a\\\\\\\"b\\\\\\\\c\\\\nd\\\"}"),
            std::string::npos)
      << json;
}

TEST(MetricsRegistry, PrometheusExpositionHasTypesAndSummaries) {
  MetricsRegistry reg;
  reg.counter("requests_total", {{"loop", "0"}}).add(5);
  reg.gauge("queue_depth").set(2);
  AtomicHistogram& h = reg.histogram("stage_ns");
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  const std::string text = reg.prometheus();
  EXPECT_NE(text.find("# TYPE requests_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("requests_total{loop=\"0\"} 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge\nqueue_depth 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE stage_ns summary\n"), std::string::npos);
  EXPECT_NE(text.find("stage_ns{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("stage_ns{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(text.find("stage_ns_sum 5050\n"), std::string::npos);
  EXPECT_NE(text.find("stage_ns_count 100\n"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

// Values past six significant digits keep every digit in both
// renderings: a counter past a million, a gauge past 2^24, a histogram
// whose _sum passes 2^28.
TEST(MetricsRegistry, LargeValuesRenderAsExactIntegers) {
  MetricsRegistry reg;
  reg.counter("big_total").add(1234567);
  reg.gauge("big_bytes").set(31457281);
  AtomicHistogram& h = reg.histogram("big_ns");
  for (int i = 0; i < 3; ++i) h.record(123456789);

  const std::string text = reg.prometheus();
  EXPECT_NE(text.find("\nbig_total 1234567\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\nbig_bytes 31457281\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\nbig_ns{quantile=\"0.5\"} 123456789\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\nbig_ns_sum 370370367\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\nbig_ns_count 3\n"), std::string::npos) << text;

  const std::string json = reg.json();
  EXPECT_NE(json.find("\"big_total\": 1234567"), std::string::npos) << json;
  EXPECT_NE(json.find("\"big_bytes\": 31457281"), std::string::npos) << json;
  EXPECT_NE(json.find("\"big_ns\": {\"count\": 3, \"min\": 123456789, "
                      "\"p50\": 123456789, \"p90\": 123456789, "
                      "\"p99\": 123456789, \"max\": 123456789, "
                      "\"mean\": 123456789}"),
            std::string::npos)
      << json;
}

TEST(MetricsRegistry, CounterTotalSumsMatchingSeriesWithoutRegistering) {
  MetricsRegistry reg;
  reg.counter("requests_total", {{"loop", "0"}}).add(3);
  reg.counter("requests_total", {{"loop", "1"}}).add(4);
  reg.counter("flush_total", {{"cause", "window"}, {"shard", "a"}}).add(2);
  reg.counter("flush_total", {{"cause", "drain"}, {"shard", "a"}}).add(5);
  reg.gauge("requests_total").set(100);  // same name, other kind: ignored

  EXPECT_EQ(reg.counter_total("requests_total"), 7u);  // over loops
  EXPECT_EQ(reg.counter_total("requests_total", {{"loop", "1"}}), 4u);
  EXPECT_EQ(reg.counter_total("flush_total", {{"shard", "a"}}), 7u);
  EXPECT_EQ(reg.counter_total("flush_total", {{"cause", "drain"}}), 5u);
  EXPECT_EQ(reg.counter_total("flush_total",
                              {{"shard", "a"}, {"cause", "window"}}),
            2u);

  const std::size_t registered = reg.snapshot().size();
  EXPECT_EQ(reg.counter_total("request_total"), std::nullopt);  // misspelt
  EXPECT_EQ(reg.counter_total("requests_total", {{"loop", "9"}}),
            std::nullopt);
  EXPECT_EQ(reg.snapshot().size(), registered);  // nothing was created
}

TEST(SlowRequestRing, KeepsTopKByTotalLatencySortedDescending) {
  SlowRequestRing ring(4);
  for (std::uint64_t t = 1; t <= 20; ++t) {
    SlowRequest r;
    r.channels = static_cast<int>(t);
    r.total_ns = t * 100;
    ring.offer(r);
  }
  const std::vector<SlowRequest> snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].total_ns, 2000u);
  EXPECT_EQ(snap[1].total_ns, 1900u);
  EXPECT_EQ(snap[2].total_ns, 1800u);
  EXPECT_EQ(snap[3].total_ns, 1700u);
  // A request at/below the floor must not evict anything.
  SlowRequest fast;
  fast.total_ns = 1;
  ring.offer(fast);
  EXPECT_EQ(ring.snapshot().back().total_ns, 1700u);
}

TEST(SlowRequestRing, JsonListsEntriesWithStageBreakdown) {
  SlowRequestRing ring(2);
  SlowRequest r;
  r.channels = 10;
  r.bits = 8;
  r.rounds = 3;
  r.total_ns = 5000;
  r.queue_ns = 1500;
  r.execute_ns = 3000;
  r.code = StatusCode::kDeadlineExceeded;
  ring.offer(r);
  const std::string json = ring.json();
  EXPECT_NE(json.find("\"channels\": 10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bits\": 8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rounds\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_ns\": 5000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"queue_ns\": 1500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"execute_ns\": 3000"), std::string::npos) << json;
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_EQ(SlowRequestRing(4).json(), "[]");
}

TEST(ServiceMetrics, RecordsIntoTheRegistrySeries) {
  MetricsRegistry reg;
  ServiceMetrics m(reg);
  m.on_submitted();
  m.on_submitted();
  m.on_rejected();
  m.record_latency(1000);
  // Two requests spanning eight rounds, one of them expired.
  m.on_batch(/*requests=*/2, /*lanes=*/8, FlushCause::window, /*failed=*/0,
             /*expired=*/1);
  EXPECT_EQ(reg.counter_total("serve_submitted_total"), 2u);
  EXPECT_EQ(reg.counter_total("serve_rejected_total"), 1u);
  EXPECT_EQ(reg.counter_total("serve_batches_total"), 1u);
  EXPECT_EQ(reg.counter_total("serve_flush_total", {{"cause", "window"}}), 1u);
  EXPECT_EQ(reg.counter_total("serve_flush_total", {{"cause", "drain"}}), 0u);
  EXPECT_EQ(reg.counter_total("serve_expired_total"), 1u);
  EXPECT_EQ(reg.counter_total("serve_failed_total"), 0u);
  EXPECT_EQ(reg.counter_total("serve_completed_total"), 1u);
  std::uint64_t latency_count = 0;
  std::uint64_t lane_sum = 0;
  for (const MetricsRegistry::Series& s : reg.snapshot()) {
    if (s.name == "serve_latency_ns") latency_count = s.histogram.count();
    if (s.name == "serve_batch_lanes") lane_sum = s.histogram.sum();
  }
  EXPECT_EQ(latency_count, 1u);
  EXPECT_EQ(lane_sum, 8u);  // occupancy stays in rounds
}

#if defined(__linux__)
TEST(ProcStats, ReadsPositiveRssAndFds) {
  const ProcStats s = read_proc_stats();
  // Any live test process has resident pages and at least stdio open.
  EXPECT_GT(s.rss_bytes, 0);
  EXPECT_GT(s.open_fds, 0);
}

TEST(ProcStats, FdCountTracksAnOpenedDescriptor) {
  const std::int64_t before = read_proc_stats().open_fds;
  ASSERT_GT(before, 0);
  FILE* f = std::fopen("/proc/self/status", "r");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(read_proc_stats().open_fds, before + 1);
  std::fclose(f);
  EXPECT_EQ(read_proc_stats().open_fds, before);
}
#endif

// Set-up does not sample /proc: a fresh ProcStatsGauges registers both
// series at 0, and a stats render is what samples them.
TEST(ProcStats, ConstructionRegistersAndARenderSamples) {
  MetricsRegistry reg;
  const ProcStatsGauges gauges(reg);
  const std::string json = reg.json();
  EXPECT_NE(json.find("\"process_rss_bytes\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"process_open_fds\": 0"), std::string::npos) << json;

#if defined(__linux__)
  SortService service;
  const std::string doc = service.stats_json();
  const std::string key = "\"process_rss_bytes\": ";
  const std::size_t at = doc.find(key);
  ASSERT_NE(at, std::string::npos) << doc;
  EXPECT_GT(std::stoll(doc.substr(at + key.size())), 0) << doc;
#endif
}

TEST(ProcStats, GaugesPublishIntoRegistry) {
  MetricsRegistry reg;
  ProcStatsGauges gauges(reg);
  const ProcStats s = gauges.refresh();
  EXPECT_EQ(reg.gauge("process_rss_bytes").value(), s.rss_bytes);
  EXPECT_EQ(reg.gauge("process_open_fds").value(), s.open_fds);
  const std::string json = reg.json();
  EXPECT_NE(json.find("\"process_rss_bytes\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"process_open_fds\""), std::string::npos) << json;
  const std::string prom = reg.prometheus();
  EXPECT_NE(prom.find("# TYPE process_rss_bytes gauge"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("process_open_fds "), std::string::npos) << prom;
}

}  // namespace
}  // namespace mcsn
