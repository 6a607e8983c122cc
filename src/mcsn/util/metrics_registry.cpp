#include "mcsn/util/metrics_registry.hpp"

#include <algorithm>
#include <locale>
#include <sstream>
#include <tuple>

namespace mcsn {

namespace {

/// Stable, process-unique slot per thread; counters fold it onto their
/// shard array. Threads beyond kShards share shards round-robin, which
/// costs contention, never correctness.
std::size_t thread_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// Label values (and JSON keys embedding them) may carry quotes or
/// backslashes; both JSON strings and the Prometheus text format escape
/// them the same way ( \" , \\ , \n ).
std::string escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string render_labels(const MetricsRegistry::Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    out += escape(v);
    out += "\"";
  }
  out += "}";
  return out;
}

/// Starts a Prometheus sample line with the base labels plus an optional
/// extra label (the quantile), e.g. `name{channels="6",quantile="0.5"} `;
/// the caller streams the integer value and the newline.
std::ostream& sample_line(std::ostream& os, const std::string& name,
                          const std::string& suffix,
                          const MetricsRegistry::Labels& labels,
                          const char* extra_key = nullptr,
                          const char* extra_value = "") {
  os << name << suffix;
  if (!labels.empty() || extra_key != nullptr) {
    os << "{";
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) os << ",";
      first = false;
      os << k << "=\"" << escape(v) << "\"";
    }
    if (extra_key != nullptr) {
      if (!first) os << ",";
      os << extra_key << "=\"" << extra_value << "\"";
    }
    os << "}";
  }
  return os << " ";
}

const char* kind_prefix(MetricsRegistry::Kind kind) {
  switch (kind) {
    case MetricsRegistry::Kind::counter: return "c:";
    case MetricsRegistry::Kind::gauge: return "g:";
    case MetricsRegistry::Kind::histogram: return "h:";
  }
  return "?:";
}

const char* prometheus_type(MetricsRegistry::Kind kind) {
  switch (kind) {
    case MetricsRegistry::Kind::counter: return "counter";
    case MetricsRegistry::Kind::gauge: return "gauge";
    case MetricsRegistry::Kind::histogram: return "summary";
  }
  return "untyped";
}

}  // namespace

std::atomic<std::uint64_t>& Counter::shard() noexcept {
  return shards_[thread_slot() % kShards].v;
}

void AtomicHistogram::record(std::uint64_t value) noexcept {
  buckets_[Histogram::bucket_of(value)].fetch_add(1,
                                                  std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

Histogram AtomicHistogram::snapshot() const noexcept {
  Histogram h;
  std::uint64_t count = 0;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    const std::uint64_t n = buckets_[b].load(std::memory_order_relaxed);
    h.buckets_[b] = n;
    count += n;
  }
  // Count is derived from the same bucket sweep the quantile walk uses, so
  // ranks always resolve inside the copied buckets even mid-record.
  h.count_ = count;
  h.sum_ = sum_.load(std::memory_order_relaxed);
  const std::uint64_t min = min_.load(std::memory_order_relaxed);
  h.min_ = (count == 0 || min == ~std::uint64_t{0}) ? 0 : min;
  h.max_ = max_.load(std::memory_order_relaxed);
  return h;
}

std::string MetricsRegistry::Series::key() const {
  return name + render_labels(labels);
}

MetricsRegistry::Slot& MetricsRegistry::slot(Kind kind, const std::string& name,
                                             Labels labels) {
  std::sort(labels.begin(), labels.end());
  // The kind prefix keeps a kind-mismatched re-registration (same name,
  // different kind — a caller bug) from returning the wrong object type.
  const std::string key = kind_prefix(kind) + name + render_labels(labels);
  std::lock_guard lock(mu_);
  const auto it = series_.find(key);
  if (it != series_.end()) return it->second;
  Slot& slot = series_[key];
  slot.name = name;
  slot.labels = std::move(labels);
  slot.kind = kind;
  switch (kind) {
    case Kind::counter: slot.counter = std::make_unique<Counter>(); break;
    case Kind::gauge: slot.gauge = std::make_unique<Gauge>(); break;
    case Kind::histogram:
      slot.histogram = std::make_unique<AtomicHistogram>();
      break;
  }
  return slot;
}

Counter& MetricsRegistry::counter(const std::string& name, Labels labels) {
  return *slot(Kind::counter, name, std::move(labels)).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, Labels labels) {
  return *slot(Kind::gauge, name, std::move(labels)).gauge;
}

AtomicHistogram& MetricsRegistry::histogram(const std::string& name,
                                            Labels labels) {
  return *slot(Kind::histogram, name, std::move(labels)).histogram;
}

std::vector<MetricsRegistry::Series> MetricsRegistry::snapshot() const {
  std::vector<Series> out;
  std::lock_guard lock(mu_);
  out.reserve(series_.size());
  for (const auto& [key, slot] : series_) {
    Series s;
    s.name = slot.name;
    s.labels = slot.labels;
    s.kind = slot.kind;
    switch (slot.kind) {
      case Kind::counter: s.counter_value = slot.counter->value(); break;
      case Kind::gauge: s.gauge_value = slot.gauge->value(); break;
      case Kind::histogram: s.histogram = slot.histogram->snapshot(); break;
    }
    out.push_back(std::move(s));
  }
  // The map iterates in kind-prefixed order; re-sort by the exposition
  // identity so output groups by name regardless of kind.
  std::sort(out.begin(), out.end(), [](const Series& a, const Series& b) {
    return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
  });
  return out;
}

std::optional<std::uint64_t> MetricsRegistry::counter_total(
    const std::string& name, const Labels& match) const {
  std::optional<std::uint64_t> total;
  std::lock_guard lock(mu_);
  for (const auto& [key, slot] : series_) {
    if (slot.kind != Kind::counter || slot.name != name) continue;
    const bool matches = std::all_of(
        match.begin(), match.end(), [&slot](const auto& label) {
          return std::find(slot.labels.begin(), slot.labels.end(), label) !=
                 slot.labels.end();
        });
    if (matches) total = total.value_or(0) + slot.counter->value();
  }
  return total;
}

std::string MetricsRegistry::json() const {
  std::ostringstream os;
  // Scraped by CI tooling: a grouping/decimal-comma global locale must
  // not leak into the document.
  os.imbue(std::locale::classic());
  os << "{";
  bool first = true;
  for (const Series& s : snapshot()) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << escape(s.key()) << "\": ";
    switch (s.kind) {
      case Kind::counter: os << s.counter_value; break;
      case Kind::gauge: os << s.gauge_value; break;
      case Kind::histogram: os << s.histogram.json(); break;
    }
  }
  os << "}";
  return os.str();
}

std::string MetricsRegistry::prometheus() const {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  std::string typed;  // last name a # TYPE line was emitted for
  for (const Series& s : snapshot()) {
    if (s.name != typed) {
      os << "# TYPE " << s.name << " " << prometheus_type(s.kind) << "\n";
      typed = s.name;
    }
    switch (s.kind) {
      case Kind::counter:
        sample_line(os, s.name, "", s.labels) << s.counter_value << "\n";
        break;
      case Kind::gauge:
        sample_line(os, s.name, "", s.labels) << s.gauge_value << "\n";
        break;
      case Kind::histogram:
        for (const auto& [q, label] :
             {std::pair{0.5, "0.5"}, {0.9, "0.9"}, {0.99, "0.99"}}) {
          sample_line(os, s.name, "", s.labels, "quantile", label)
              << s.histogram.quantile(q) << "\n";
        }
        sample_line(os, s.name, "_sum", s.labels)
            << s.histogram.sum() << "\n";
        sample_line(os, s.name, "_count", s.labels)
            << s.histogram.count() << "\n";
        break;
    }
  }
  return os.str();
}

}  // namespace mcsn
