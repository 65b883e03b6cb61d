// Log-bucketed latency histogram (HdrHistogram-style) with lock-free
// concurrent recording.
//
// Used by the workload runner to compute the paper's latency percentiles
// (p50 / p99 / p999 / p9999, Figures 1, 8, 9; Table 5) without per-sample
// allocation. Buckets are <mantissa bits> sub-buckets per power of two,
// giving <1.6% relative error, plenty for tail-latency *shape* comparisons.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace dstore {

class LatencyHistogram {
 public:
  LatencyHistogram();
  // Copy/move transfer a snapshot of the counters; not safe concurrently
  // with record() on the source (used to return results from runners).
  LatencyHistogram(const LatencyHistogram& other);
  LatencyHistogram& operator=(const LatencyHistogram& other);

  // Record a latency sample in nanoseconds. Thread-safe.
  void record(uint64_t ns);

  // Value at quantile q in [0,1]; returns an upper bucket bound in ns.
  uint64_t value_at_quantile(double q) const;

  uint64_t p50() const { return value_at_quantile(0.50); }
  uint64_t p99() const { return value_at_quantile(0.99); }
  uint64_t p999() const { return value_at_quantile(0.999); }
  uint64_t p9999() const { return value_at_quantile(0.9999); }
  uint64_t max() const;
  uint64_t count() const;
  double mean_ns() const;

  // Merge another histogram into this one (not concurrent with record()).
  void merge(const LatencyHistogram& other);

  void reset();

  // "p50=... p99=..." summary in microseconds, for bench output.
  std::string summary_us() const;

 private:
  static constexpr int kSubBucketBits = 5;  // 32 sub-buckets per octave
  static constexpr int kOctaves = 40;       // covers up to ~2^40 ns (~18 min)
  static constexpr int kNumBuckets = kOctaves << kSubBucketBits;

  static int bucket_for(uint64_t ns);
  static uint64_t bucket_upper_bound(int bucket);

  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

}  // namespace dstore
