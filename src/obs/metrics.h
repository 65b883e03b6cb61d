// Observability core: a lock-cheap metrics registry.
//
// The paper's headline claims are distributional (tailless p99, a flat
// throughput window across checkpoints), so introspection must not perturb
// the distributions it measures. Three primitives, all mutation paths
// wait-free and write-sharded:
//
//   * Counter   — monotone; per-thread cache-line-padded slots, summed on
//                 scrape. The first kStripes threads own exclusive single-
//                 writer slots (plain relaxed load+store, no locked RMW);
//                 later threads stripe fetch_adds over a shared bank;
//   * Gauge     — signed up/down (same slot scheme) with a rare set();
//   * Histogram — HdrHistogram-style log-bucketed latency distribution
//                 (32 sub-buckets per octave, <1.6% relative error), with
//                 count/sum/max striped per thread and the sparse bucket
//                 array shared; the repo's one histogram type (the bench
//                 and workload latencies record into it too).
//
// A registry also accepts *callback* metrics (counter_fn/gauge_fn): scrape-
// time reads of atomics that already exist elsewhere (pmem::IoStats,
// ssd::DeviceStats, dipper::EngineStats), which cost the hot path nothing.
//
// Scrape model: snapshot() produces a stable vector of MetricSnapshot;
// scrape_json()/scrape_prometheus() render it. Snapshots from several
// registries merge (ShardedStore's per-shard rollup) with merge().
// reset() zeroes the registry-OWNED metrics only — callback metrics keep
// reading their upstream sources (scrape-vs-reset semantics).
//
// Compile-time kill switch: configuring with -DDSTORE_METRICS=OFF defines
// DSTORE_METRICS_DISABLED, which turns every counter/gauge mutation
// (add/set) into an empty inline function and compiles OpTrace — the
// store's only Histogram::record caller — to nothing. Registration, lookup
// and scrape still work, so every consumer compiles and scrapes read as
// zeros; Histogram::record itself stays live for bench latencies.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/lockdep.h"

namespace dstore::obs {

// Write-side stripes. The first kStripes threads to touch a metric each own
// an *exclusive* slot: single-writer, so add() is a plain relaxed load+store
// (~2ns) instead of a locked fetch_add (~10-15ns) — the difference matters
// because every op pays a handful of counter adds, against a <2% latency
// budget. Threads past the first kStripes (thread churn in long-lived
// processes) fall back to a second bank of shared slots updated with
// fetch_add, striped so they rarely contend. Every slot is cache-line
// padded so no two ever share a line.
inline constexpr size_t kStripes = 16;
inline constexpr size_t kSlotCount = 2 * kStripes;  // exclusive bank + shared bank

// Stable per-thread slot index. Returns < kStripes for the first kStripes
// threads (exclusive, single-writer) and kStripes + (n % kStripes) for
// later ones (shared, fetch_add only).
inline size_t stripe_index() {
  static std::atomic<size_t> next{0};
  thread_local const size_t idx = [] {
    size_t n = next.fetch_add(1, std::memory_order_relaxed);
    return n < kStripes ? n : kStripes + (n % kStripes);
  }();
  return idx;
}

// Single-writer increment for exclusive slots; locked RMW for shared ones.
// The branch is perfectly predicted (a thread's bank never changes).
template <typename T>
inline void slot_add(std::atomic<T>& a, size_t idx, T v) {
  if (idx < kStripes) {
    a.store(a.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
  } else {
    a.fetch_add(v, std::memory_order_relaxed);
  }
}

class Counter {
 public:
  void add(uint64_t v = 1) {
#if !defined(DSTORE_METRICS_DISABLED)
    size_t i = stripe_index();
    slot_add(slots_[i].v, i, v);
#else
    (void)v;
#endif
  }
  // Hot-path variant for callers that batch several adds behind one
  // stripe_index() lookup; `idx` must be this thread's stripe_index().
  void add_at(size_t idx, uint64_t v) {
#if !defined(DSTORE_METRICS_DISABLED)
    slot_add(slots_[idx].v, idx, v);
#else
    (void)idx;
    (void)v;
#endif
  }
  void inc() { add(1); }

  uint64_t value() const {
    uint64_t total = 0;
    for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  std::array<Slot, kSlotCount> slots_;
};

class Gauge {
 public:
  void add(int64_t d) {
#if !defined(DSTORE_METRICS_DISABLED)
    size_t i = stripe_index();
    slot_add(slots_[i].v, i, d);
#else
    (void)d;
#endif
  }
  void sub(int64_t d) { add(-d); }
  // Absolute store; NOT for the hot path (it zeroes every stripe, racing
  // concurrent add()s). Use for low-rate level gauges set by one thread.
  void set(int64_t v) {
#if !defined(DSTORE_METRICS_DISABLED)
    for (size_t i = 1; i < slots_.size(); i++) slots_[i].v.store(0, std::memory_order_relaxed);
    slots_[0].v.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }

  int64_t value() const {
    int64_t total = 0;
    for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<int64_t> v{0};
  };
  std::array<Slot, kSlotCount> slots_;
};

struct HistogramBucket {
  uint64_t upper = 0;  // inclusive upper bound of the bucket's value range
  uint64_t count = 0;
};

enum class MetricType { kCounter, kGauge, kHistogram };

// One scraped metric, decoupled from its live source so snapshots can be
// merged across registries (per-shard rollup) and rendered offline. A
// histogram's quantiles and mean are read from its snapshot.
struct MetricSnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  double value = 0;  // counter / gauge reading
  // Histogram fields:
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::vector<HistogramBucket> buckets;  // non-empty buckets, ascending by bound

  double mean() const { return count != 0 ? (double)sum / (double)count : 0.0; }
  // Upper bucket bound at quantile q in [0,1], capped at max.
  uint64_t value_at_quantile(double q) const;
};

// The one latency histogram type: the store's sampled per-op metrics and
// every bench/workload latency record into it. record() is live in every
// build; the metrics kill switch removes its store callers (OpTrace)
// instead, so a metrics-off build still measures bench latencies.
class Histogram {
 public:
  Histogram();

  void record(uint64_t v) {
    // The bucket array is shared by all threads, so it always pays the
    // locked RMW; count/sum/max are per-slot and take the single-writer
    // fast path for exclusive slots.
    buckets_[bucket_for(v)].fetch_add(1, std::memory_order_relaxed);
    size_t i = stripe_index();
    Slot& s = slots_[i];
    slot_add(s.count, i, (uint64_t)1);
    slot_add(s.sum, i, v);
    if (i < kStripes) {
      if (s.max.load(std::memory_order_relaxed) < v) s.max.store(v, std::memory_order_relaxed);
    } else {
      uint64_t prev = s.max.load(std::memory_order_relaxed);
      while (prev < v && !s.max.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
      }
    }
  }

  uint64_t count() const;
  uint64_t sum() const;
  uint64_t max() const;
  // count/sum/max and the non-empty buckets, type kHistogram, unnamed.
  MetricSnapshot snapshot() const;
  void reset();

 private:
  static constexpr int kSubBucketBits = 5;  // 32 sub-buckets per octave
  static constexpr int kOctaves = 40;       // up to ~2^40 (~18 min in ns)
  static constexpr int kNumBuckets = kOctaves << kSubBucketBits;

  static int bucket_for(uint64_t v);
  static uint64_t bucket_upper_bound(int bucket);

  struct alignas(64) Slot {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  std::array<Slot, kSlotCount> slots_;
  std::vector<std::atomic<uint64_t>> buckets_;
};

// Name -> metric registry. Registration (counter()/gauge()/histogram()/
// *_fn()) takes a mutex and is meant for setup time; the returned handles
// are stable for the registry's lifetime and are what the hot path uses.
// Registering a name twice returns the existing metric of that name.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(std::string_view name, std::string_view help);
  Gauge* gauge(std::string_view name, std::string_view help);
  Histogram* histogram(std::string_view name, std::string_view help);

  // Scrape-time sampled metrics: the callback runs on snapshot(), never on
  // the hot path. For exporting pre-existing atomics (engine/pool/device
  // stats) at zero added cost.
  void counter_fn(std::string_view name, std::string_view help,
                  std::function<uint64_t()> fn);
  void gauge_fn(std::string_view name, std::string_view help, std::function<double()> fn);

  // Lookup by name; nullptr if absent or of a different kind.
  Counter* find_counter(std::string_view name) const;
  Gauge* find_gauge(std::string_view name) const;
  Histogram* find_histogram(std::string_view name) const;
  // Scraped value of any counter/gauge (owned or callback); 0 if absent.
  double value(std::string_view name) const;
  uint64_t counter_value(std::string_view name) const { return (uint64_t)value(name); }

  std::vector<MetricSnapshot> snapshot() const;
  std::string scrape_json() const { return to_json(snapshot()); }
  std::string scrape_prometheus() const { return to_prometheus(snapshot()); }

  // Zero every OWNED counter/gauge/histogram. Callback metrics are
  // untouched — they re-read their sources on the next scrape.
  void reset();

  // ---- snapshot utilities (rollups, rendering) ----------------------------
  // Merge several scrapes into one: counters/gauges sum, histograms merge
  // bucket-wise. First-seen order is preserved.
  static std::vector<MetricSnapshot> merge(
      const std::vector<std::vector<MetricSnapshot>>& scrapes);
  static std::string to_json(const std::vector<MetricSnapshot>& snaps);
  static std::string to_prometheus(const std::vector<MetricSnapshot>& snaps);

 private:
  struct Entry {
    std::string name;
    std::string help;
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<uint64_t()> counter_fn;
    std::function<double()> gauge_fn;
  };
  Entry* find_entry(std::string_view name) const;

  mutable Mutex mu_{"obs.registry"};
  std::vector<std::unique_ptr<Entry>> entries_;  // registration order
};

}  // namespace dstore::obs
