#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <map>

namespace dstore::obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram() : buckets_(kNumBuckets) {}

// Values below 2^b are exact; above, each octave [2^e, 2^(e+1)) splits into
// 2^b sub-buckets (<= 2^-b relative error per bucket).
int Histogram::bucket_for(uint64_t v) {
  constexpr int b = kSubBucketBits;
  if (v < (1ull << b)) return (int)v;
  int e = 63 - std::countl_zero(v);
  int idx = ((e - b + 1) << b) + (int)((v >> (e - b)) - (1ull << b));
  if (idx >= kNumBuckets) idx = kNumBuckets - 1;
  return idx;
}

uint64_t Histogram::bucket_upper_bound(int bucket) {
  constexpr int b = kSubBucketBits;
  if (bucket < (1 << b)) return (uint64_t)bucket;
  int shift = (bucket >> b) - 1;
  uint64_t sub = bucket & ((1u << b) - 1);
  return (((1ull << b) + sub + 1) << shift) - 1;
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (const Slot& s : slots_) total += s.count.load(std::memory_order_relaxed);
  return total;
}

uint64_t Histogram::sum() const {
  uint64_t total = 0;
  for (const Slot& s : slots_) total += s.sum.load(std::memory_order_relaxed);
  return total;
}

uint64_t Histogram::max() const {
  uint64_t m = 0;
  for (const Slot& s : slots_) m = std::max(m, s.max.load(std::memory_order_relaxed));
  return m;
}

MetricSnapshot Histogram::snapshot() const {
  MetricSnapshot s;
  s.type = MetricType::kHistogram;
  s.count = count();
  s.sum = sum();
  s.max = max();
  for (int i = 0; i < kNumBuckets; i++) {
    uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c != 0) s.buckets.push_back({bucket_upper_bound(i), c});
  }
  return s;
}

void Histogram::reset() {
  for (Slot& s : slots_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricSnapshot
// ---------------------------------------------------------------------------

uint64_t MetricSnapshot::value_at_quantile(double q) const {
  if (count == 0 || buckets.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t target = (uint64_t)(q * (double)count);
  if (target >= count) target = count - 1;
  uint64_t seen = 0;
  for (const HistogramBucket& b : buckets) {
    seen += b.count;
    if (seen > target) return max != 0 ? std::min(b.upper, max) : b.upper;
  }
  return max;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry::Entry* MetricsRegistry::find_entry(std::string_view name) const {
  for (const auto& e : entries_) {
    if (e->name == name) return e.get();
  }
  return nullptr;
}

Counter* MetricsRegistry::counter(std::string_view name, std::string_view help) {
  MutexGuard g(mu_);
  if (Entry* e = find_entry(name)) return e->counter.get();
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->type = MetricType::kCounter;
  e->counter = std::make_unique<Counter>();
  Counter* out = e->counter.get();
  entries_.push_back(std::move(e));
  return out;
}

Gauge* MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  MutexGuard g(mu_);
  if (Entry* e = find_entry(name)) return e->gauge.get();
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->type = MetricType::kGauge;
  e->gauge = std::make_unique<Gauge>();
  Gauge* out = e->gauge.get();
  entries_.push_back(std::move(e));
  return out;
}

Histogram* MetricsRegistry::histogram(std::string_view name, std::string_view help) {
  MutexGuard g(mu_);
  if (Entry* e = find_entry(name)) return e->histogram.get();
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->type = MetricType::kHistogram;
  e->histogram = std::make_unique<Histogram>();
  Histogram* out = e->histogram.get();
  entries_.push_back(std::move(e));
  return out;
}

void MetricsRegistry::counter_fn(std::string_view name, std::string_view help,
                                 std::function<uint64_t()> fn) {
  MutexGuard g(mu_);
  if (find_entry(name) != nullptr) return;
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->type = MetricType::kCounter;
  e->counter_fn = std::move(fn);
  entries_.push_back(std::move(e));
}

void MetricsRegistry::gauge_fn(std::string_view name, std::string_view help,
                               std::function<double()> fn) {
  MutexGuard g(mu_);
  if (find_entry(name) != nullptr) return;
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->type = MetricType::kGauge;
  e->gauge_fn = std::move(fn);
  entries_.push_back(std::move(e));
}

Counter* MetricsRegistry::find_counter(std::string_view name) const {
  MutexGuard g(mu_);
  Entry* e = find_entry(name);
  return e != nullptr ? e->counter.get() : nullptr;
}

Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  MutexGuard g(mu_);
  Entry* e = find_entry(name);
  return e != nullptr ? e->gauge.get() : nullptr;
}

Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  MutexGuard g(mu_);
  Entry* e = find_entry(name);
  return e != nullptr ? e->histogram.get() : nullptr;
}

double MetricsRegistry::value(std::string_view name) const {
  MutexGuard g(mu_);
  Entry* e = find_entry(name);
  if (e == nullptr) return 0;
  if (e->counter) return (double)e->counter->value();
  if (e->gauge) return (double)e->gauge->value();
  if (e->counter_fn) return (double)e->counter_fn();
  if (e->gauge_fn) return e->gauge_fn();
  return 0;
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot() const {
  MutexGuard g(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricSnapshot s = e->histogram ? e->histogram->snapshot() : MetricSnapshot{};
    s.name = e->name;
    s.help = e->help;
    s.type = e->type;
    if (e->counter) {
      s.value = (double)e->counter->value();
    } else if (e->gauge) {
      s.value = (double)e->gauge->value();
    } else if (e->counter_fn) {
      s.value = (double)e->counter_fn();
    } else if (e->gauge_fn) {
      s.value = e->gauge_fn();
    }
    out.push_back(std::move(s));
  }
  return out;
}

void MetricsRegistry::reset() {
  MutexGuard g(mu_);
  for (const auto& e : entries_) {
    if (e->counter) e->counter->reset();
    if (e->gauge) e->gauge->reset();
    if (e->histogram) e->histogram->reset();
  }
}

// ---------------------------------------------------------------------------
// Snapshot utilities
// ---------------------------------------------------------------------------

std::vector<MetricSnapshot> MetricsRegistry::merge(
    const std::vector<std::vector<MetricSnapshot>>& scrapes) {
  std::vector<MetricSnapshot> out;
  std::map<std::string, size_t> index;
  for (const auto& scrape : scrapes) {
    for (const MetricSnapshot& s : scrape) {
      auto it = index.find(s.name);
      if (it == index.end()) {
        index.emplace(s.name, out.size());
        out.push_back(s);
        continue;
      }
      MetricSnapshot& m = out[it->second];
      if (s.type == MetricType::kHistogram) {
        m.count += s.count;
        m.sum += s.sum;
        m.max = std::max(m.max, s.max);
        // Bucket lists are sparse and sorted by bound; merge-join them.
        std::vector<HistogramBucket> merged;
        merged.reserve(m.buckets.size() + s.buckets.size());
        size_t i = 0;
        size_t j = 0;
        while (i < m.buckets.size() || j < s.buckets.size()) {
          if (j >= s.buckets.size() ||
              (i < m.buckets.size() && m.buckets[i].upper < s.buckets[j].upper)) {
            merged.push_back(m.buckets[i++]);
          } else if (i >= m.buckets.size() || s.buckets[j].upper < m.buckets[i].upper) {
            merged.push_back(s.buckets[j++]);
          } else {
            merged.push_back({m.buckets[i].upper, m.buckets[i].count + s.buckets[j].count});
            i++;
            j++;
          }
        }
        m.buckets = std::move(merged);
      } else {
        m.value += s.value;  // counters and gauges both sum across shards
      }
    }
  }
  return out;
}

namespace {

void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

void append_number(std::string& out, double v) {
  char buf[64];
  // Counters and integer gauges render without a fraction.
  if (v == (double)(int64_t)v) {
    snprintf(buf, sizeof(buf), "%" PRId64, (int64_t)v);
  } else {
    snprintf(buf, sizeof(buf), "%.6g", v);
  }
  out += buf;
}

}  // namespace

std::string MetricsRegistry::to_json(const std::vector<MetricSnapshot>& snaps) {
  std::string out = "{\n  \"version\": 1,\n  \"metrics\": [\n";
  for (size_t n = 0; n < snaps.size(); n++) {
    const MetricSnapshot& s = snaps[n];
    out += "    {\"name\": \"";
    append_json_escaped(out, s.name);
    out += "\", \"type\": \"";
    out += s.type == MetricType::kCounter    ? "counter"
           : s.type == MetricType::kGauge    ? "gauge"
                                             : "histogram";
    out += "\", \"help\": \"";
    append_json_escaped(out, s.help);
    out += "\", ";
    if (s.type == MetricType::kHistogram) {
      char buf[256];
      snprintf(buf, sizeof(buf),
               "\"count\": %llu, \"sum\": %llu, \"max\": %llu, \"mean\": %.1f, "
               "\"p50\": %llu, \"p99\": %llu, \"p999\": %llu",
               (unsigned long long)s.count, (unsigned long long)s.sum,
               (unsigned long long)s.max, s.mean(),
               (unsigned long long)s.value_at_quantile(0.50),
               (unsigned long long)s.value_at_quantile(0.99),
               (unsigned long long)s.value_at_quantile(0.999));
      out += buf;
    } else {
      out += "\"value\": ";
      append_number(out, s.value);
    }
    out += n + 1 < snaps.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string MetricsRegistry::to_prometheus(const std::vector<MetricSnapshot>& snaps) {
  std::string out;
  char buf[128];
  for (const MetricSnapshot& s : snaps) {
    if (!s.help.empty()) {
      out += "# HELP " + s.name + " " + s.help + "\n";
    }
    out += "# TYPE " + s.name + " ";
    out += s.type == MetricType::kCounter    ? "counter"
           : s.type == MetricType::kGauge    ? "gauge"
                                             : "histogram";
    out += "\n";
    if (s.type == MetricType::kHistogram) {
      uint64_t cum = 0;
      for (const HistogramBucket& b : s.buckets) {
        cum += b.count;
        snprintf(buf, sizeof(buf), "%s_bucket{le=\"%llu\"} %llu\n", s.name.c_str(),
                 (unsigned long long)b.upper, (unsigned long long)cum);
        out += buf;
      }
      snprintf(buf, sizeof(buf), "%s_bucket{le=\"+Inf\"} %llu\n", s.name.c_str(),
               (unsigned long long)s.count);
      out += buf;
      snprintf(buf, sizeof(buf), "%s_sum %llu\n", s.name.c_str(), (unsigned long long)s.sum);
      out += buf;
      snprintf(buf, sizeof(buf), "%s_count %llu\n", s.name.c_str(),
               (unsigned long long)s.count);
      out += buf;
    } else {
      out += s.name + " ";
      std::string num;
      append_number(num, s.value);
      out += num + "\n";
    }
  }
  return out;
}

}  // namespace dstore::obs
