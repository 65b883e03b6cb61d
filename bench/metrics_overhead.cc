// Microbench for the observability acceptance gate: oput latency with the
// metrics/tracing instrumentation as compiled into this binary. Build once
// with -DDSTORE_METRICS=ON and once with OFF, run both, and compare p50 —
// the ON build must be within 2% (instrumentation is striped counters plus
// two clock reads per op; stage spans are sampled 1-in-kSampleEvery).
//
// No device latency injection: raw pipeline cost is the worst case for
// relative overhead (injected microsecond-scale device latencies would
// mask it). Small values keep the SSD portion minimal for the same reason.
//
// Emits BENCH_metrics_overhead.json with system=DStore-metrics-{on,off}.
#include <algorithm>
#include <vector>

#include "baselines/dstore_adapter.h"
#include "bench_common.h"
#include "common/clock.h"
#include "dstore/dstore.h"

using namespace dstore;
using namespace dstore::bench;

int main() {
#if defined(DSTORE_METRICS_DISABLED)
  const char* variant = "DStore-metrics-off";
#else
  const char* variant = "DStore-metrics-on";
#endif
  printf("# metrics_overhead: instrumentation %s\n", variant);
  const int kWarmup = 2000;
  const int kOps = (int)env_u64("DSTORE_BENCH_OPS", 200000);
  const size_t kValue = env_u64("DSTORE_BENCH_VALUE", 256);

  auto cfg = baselines::DStoreAdapter::dipper_variant();
  cfg.store.max_objects = 1 << 14;
  cfg.store.num_blocks = 1 << 16;
  auto adapter = baselines::DStoreAdapter::make(cfg, LatencyModel::none());
  if (!adapter.is_ok()) {
    fprintf(stderr, "make failed: %s\n", adapter.status().to_string().c_str());
    return 1;
  }
  DStore& store = adapter.value()->store();
  ds_ctx_t* ctx = store.ds_init();
  std::string value(kValue, 'o');

  // Steady-state updates over a fixed keyset: the measured loop re-puts
  // existing keys so allocation churn is identical between builds.
  const int kKeys = 4096;
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; i++) keys.push_back("mo" + std::to_string(i));
  for (int i = 0; i < kWarmup; i++) {
    const std::string& k = keys[(size_t)i % kKeys];
    if (!store.oput(ctx, k, value.data(), value.size()).is_ok()) return 1;
  }

  // Exact per-op latencies: the acceptance gate is a <2% p50 delta, finer
  // than obs::Histogram's log-bucket resolution (~2.6% at ~1.2us), so
  // keep raw samples and take exact order statistics.
  std::vector<uint64_t> samples((size_t)kOps);
  uint64_t t_start = now_ns();
  for (int i = 0; i < kOps; i++) {
    const std::string& k = keys[(size_t)i % kKeys];
    uint64_t t0 = now_ns();
    Status s = store.oput(ctx, k, value.data(), value.size());
    uint64_t dt = now_ns() - t0;
    if (!s.is_ok()) {
      fprintf(stderr, "put failed: %s\n", s.to_string().c_str());
      return 1;
    }
    samples[(size_t)i] = dt;
  }
  double elapsed_s = (double)(now_ns() - t_start) / 1e9;
  double iops = (double)kOps / elapsed_s;

  auto exact = [&](double q) {
    size_t idx = (size_t)((double)(samples.size() - 1) * q);
    std::nth_element(samples.begin(), samples.begin() + (long)idx, samples.end());
    return samples[idx];
  };
  uint64_t p50 = exact(0.50), p99 = exact(0.99), p999 = exact(0.999);
  printf("%s: %d x %zuB oput  p50=%lluns p99=%lluns p999=%lluns  %.0f ops/s\n", variant, kOps,
         kValue, (unsigned long long)p50, (unsigned long long)p99, (unsigned long long)p999,
         iops);

  store.ds_finalize(ctx);
  Report report("metrics_overhead", /*latency_scale=*/0);
  report.row().str("op", "put").str("system", variant).num("qd", cfg.store.ssd_qd)
      .num("threads", 1).num("value_size", (double)kValue).num("p50_us", (double)p50 / 1e3)
      .num("p99_us", (double)p99 / 1e3).num("p999_us", (double)p999 / 1e3)
      .num("throughput_iops", iops);
  return report.write() ? 0 : 1;
}
