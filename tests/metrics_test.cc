// Tests for the observability layer (obs::MetricsRegistry + OpTrace):
// striped primitives under concurrency, scrape/reset/merge semantics,
// export formats, the DStore end-to-end counters, and the crash+recovery
// reconciliation invariant (ops replayed == log records applied; no span
// leaks across a crash).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dstore/dstore.h"
#include "dstore/store_rig.h"
#include "obs/metrics.h"
#include "obs/op_trace.h"

namespace dstore {
namespace {

using obs::MetricsRegistry;
using obs::MetricSnapshot;
using obs::MetricType;

// obs::Histogram is the one histogram type. Histogram::record is live in
// every build (the kill switch removes its store callers, not the type), so
// these run with metrics compiled out too.

uint64_t quantile(const obs::Histogram& h, double q) { return h.snapshot().value_at_quantile(q); }

TEST(Histogram, EmptyIsZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(quantile(h, 0.50), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, SingleValue) {
  obs::Histogram h;
  h.record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  // Log-bucketing gives bounded relative error.
  EXPECT_NEAR((double)quantile(h, 0.50), 1000.0, 1000.0 * 0.05);
}

TEST(Histogram, PercentilesOrdered) {
  obs::Histogram h;
  Rng r(5);
  for (int i = 0; i < 100000; i++) h.record(100 + r.next_below(1000000));
  MetricSnapshot s = h.snapshot();
  EXPECT_LE(s.value_at_quantile(0.50), s.value_at_quantile(0.99));
  EXPECT_LE(s.value_at_quantile(0.99), s.value_at_quantile(0.999));
  EXPECT_LE(s.value_at_quantile(0.999), s.value_at_quantile(0.9999));
  EXPECT_LE(s.value_at_quantile(0.9999), s.max);
}

TEST(Histogram, UniformMedianNearMidpoint) {
  obs::Histogram h;
  Rng r(6);
  for (int i = 0; i < 200000; i++) h.record(r.next_below(10000));
  EXPECT_NEAR((double)quantile(h, 0.50), 5000.0, 600.0);
}

TEST(Histogram, MergeAccumulates) {
  obs::Histogram a, b;
  a.record(100);
  b.record(10000);
  // The registry merge is the one rollup (per-thread workload histograms,
  // per-shard scrapes); unnamed snapshots merge into one.
  auto merged = MetricsRegistry::merge({{a.snapshot()}, {b.snapshot()}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].count, 2u);
  EXPECT_EQ(merged[0].max, 10000u);
}

TEST(Histogram, ConcurrentRecording) {
  obs::Histogram h;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; t++) {
    ts.emplace_back([&h, t] {
      Rng r(t);
      for (int i = 0; i < 10000; i++) h.record(r.next_below(100000));
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.count(), 40000u);
}

TEST(Histogram, ResetClears) {
  obs::Histogram h;
  h.record(5000);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

// Pinned values for a fixed sample set: the figures every bench report's
// percentiles have been computed with, so a change to the bucketing or the
// quantile walk shows up here first.
TEST(Histogram, PinnedQuantiles) {
  obs::Histogram h;
  for (uint64_t i = 0; i < 100000; i++) h.record(1 + (i * 2654435761ull) % 2000000);
  MetricSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100000u);
  EXPECT_EQ(s.value_at_quantile(0.50), 1015807u);
  EXPECT_EQ(s.value_at_quantile(0.99), 1998847u);
  EXPECT_EQ(s.value_at_quantile(0.999), 1998847u);
  EXPECT_EQ(s.value_at_quantile(0.9999), 1999984u);
  EXPECT_EQ(s.max, 1999984u);
  EXPECT_DOUBLE_EQ(s.mean(), 1000000.5);
}

// The unit tests below exercise the instrumented write paths, so they only
// make sense when the instrumentation is compiled in.
#if !defined(DSTORE_METRICS_DISABLED)

TEST(Metrics, CounterAggregatesAcrossThreads) {
  MetricsRegistry reg;
  obs::Counter* c = reg.counter("test_total", "a counter");
  constexpr int kThreads = 8, kPer = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&] {
      for (int i = 0; i < kPer; i++) c->add(1);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c->value(), (uint64_t)kThreads * kPer);
  EXPECT_EQ(reg.counter_value("test_total"), (uint64_t)kThreads * kPer);
}

TEST(Metrics, GaugeBalancesAcrossThreads) {
  MetricsRegistry reg;
  obs::Gauge* g = reg.gauge("test_level", "a gauge");
  // Unbalanced add/sub from different threads must still sum exactly:
  // each thread nets +7 over 1000 round trips.
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; t++) {
    ts.emplace_back([&] {
      for (int i = 0; i < 1000; i++) {
        g->add(10);
        g->sub(3);
        g->sub(7);
      }
      g->add(7);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(g->value(), 4 * 7);
  g->set(-5);
  EXPECT_EQ(g->value(), -5);
}

TEST(Metrics, HistogramAggregatesAcrossThreads) {
  MetricsRegistry reg;
  obs::Histogram* h = reg.histogram("test_ns", "a histogram");
  constexpr int kThreads = 4, kPer = 5000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kPer; i++) h->record((uint64_t)(t + 1) * 100);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(h->count(), (uint64_t)kThreads * kPer);
  EXPECT_EQ(h->sum(), (uint64_t)kPer * (100 + 200 + 300 + 400));
  EXPECT_GE(h->max(), 400u);
  // p50 falls in the bucket holding 200; quantiles report the (log-spaced)
  // bucket's upper bound, so allow the bucket's width of slack.
  uint64_t p50 = quantile(*h, 0.5);
  EXPECT_GE(p50, 200u);
  EXPECT_LT(p50, 400u);
}

TEST(Metrics, CallbackMetricsReadSourceAtScrape) {
  MetricsRegistry reg;
  uint64_t source = 3;
  double level = 0.25;
  reg.counter_fn("cb_total", "callback counter", [&] { return source; });
  reg.gauge_fn("cb_level", "callback gauge", [&] { return level; });
  EXPECT_EQ(reg.counter_value("cb_total"), 3u);
  source = 42;
  level = 0.75;
  auto snaps = reg.snapshot();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].value, 42.0);
  EXPECT_EQ(snaps[1].value, 0.75);
  // reset() leaves callback metrics alone: they mirror their source.
  reg.reset();
  EXPECT_EQ(reg.counter_value("cb_total"), 42u);
}

TEST(Metrics, ResetZeroesOwnedMetricsOnly) {
  MetricsRegistry reg;
  obs::Counter* c = reg.counter("owned_total", "owned");
  obs::Histogram* h = reg.histogram("owned_ns", "owned");
  uint64_t ext = 9;
  reg.counter_fn("external_total", "mirrored", [&] { return ext; });
  c->add(5);
  h->record(123);
  reg.reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->sum(), 0u);
  EXPECT_EQ(reg.counter_value("external_total"), 9u);
}

TEST(Metrics, RegistrationIsIdempotent) {
  MetricsRegistry reg;
  obs::Counter* a = reg.counter("same_total", "first");
  obs::Counter* b = reg.counter("same_total", "second registration ignored");
  EXPECT_EQ(a, b);
  a->add(2);
  EXPECT_EQ(reg.counter_value("same_total"), 2u);
  EXPECT_EQ(reg.find_counter("same_total"), a);
  EXPECT_EQ(reg.find_gauge("same_total"), nullptr);  // wrong kind
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
}

TEST(Metrics, MergeSumsCountersAndMergesHistograms) {
  MetricsRegistry a, b;
  a.counter("ops_total", "ops")->add(10);
  b.counter("ops_total", "ops")->add(32);
  a.gauge("level", "level")->add(4);
  b.gauge("level", "level")->add(-1);
  a.histogram("lat_ns", "latency")->record(100);
  b.histogram("lat_ns", "latency")->record(300);
  b.histogram("lat_ns", "latency")->record(100);
  b.counter("only_b_total", "unique to b")->add(7);

  auto merged = MetricsRegistry::merge({a.snapshot(), b.snapshot()});
  ASSERT_EQ(merged.size(), 4u);
  for (const MetricSnapshot& s : merged) {
    if (s.name == "ops_total") {
      EXPECT_EQ(s.value, 42.0);
    }
    if (s.name == "level") {
      EXPECT_EQ(s.value, 3.0);
    }
    if (s.name == "only_b_total") {
      EXPECT_EQ(s.value, 7.0);
    }
    if (s.name == "lat_ns") {
      EXPECT_EQ(s.count, 3u);
      EXPECT_EQ(s.sum, 500u);
      EXPECT_EQ(s.max, 300u);
      uint64_t total = 0;
      for (const auto& bkt : s.buckets) total += bkt.count;
      EXPECT_EQ(total, 3u);
    }
  }
}

TEST(Metrics, JsonAndPrometheusExports) {
  MetricsRegistry reg;
  reg.counter("exp_total", "an exported counter")->add(5);
  reg.gauge("exp_level", "an exported gauge")->add(2);
  reg.histogram("exp_ns", "an exported histogram")->record(1000);

  std::string json = reg.scrape_json();
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"exp_total\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);

  std::string prom = reg.scrape_prometheus();
  EXPECT_NE(prom.find("# HELP exp_total an exported counter"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE exp_total counter"), std::string::npos);
  EXPECT_NE(prom.find("exp_total 5"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE exp_level gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE exp_ns histogram"), std::string::npos);
  EXPECT_NE(prom.find("exp_ns_count 1"), std::string::npos);
}

TEST(OpTraceUnit, FailureIsDefaultSuccessIsExplicit) {
  MetricsRegistry reg;
  obs::OpMetrics m;
  m.ops = reg.counter("u_ops_total", "ops");
  m.failures = reg.counter("u_failures_total", "failures");
  m.active = reg.gauge("u_active", "in flight");
  m.latency = reg.histogram("u_latency_ns", "latency");
  // kSampleEvery consecutive traces: exactly one is sampled regardless of
  // the thread-local tick's phase; only sampled traces time themselves and
  // touch the active gauge.
  uint32_t sampled = 0;
  for (uint32_t i = 0; i < obs::OpTrace::kSampleEvery; i++) {
    obs::OpTrace t(m, nullptr);
    if (t.sampled()) {
      sampled++;
      EXPECT_EQ(m.active->value(), 1);
    }
    t.succeed();
  }
  EXPECT_EQ(sampled, 1u);
  {
    obs::OpTrace t(m, nullptr);  // dropped without succeed() = failure
    if (t.sampled()) sampled++;
  }
  EXPECT_EQ(m.ops->value(), obs::OpTrace::kSampleEvery + 1);
  EXPECT_EQ(m.failures->value(), 1u);
  EXPECT_EQ(m.latency->count(), sampled);
  EXPECT_EQ(m.active->value(), 0);
}

#endif  // !DSTORE_METRICS_DISABLED

// ---------------------------------------------------------------------------
// DStore end-to-end
// ---------------------------------------------------------------------------

DStoreConfig metrics_cfg() {
  DStoreConfig cfg;
  cfg.max_objects = 128;
  cfg.num_blocks = 1024;
  cfg.engine.log_slots = 512;
  cfg.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(cfg.max_objects);
  cfg.engine.background_checkpointing = false;
  return cfg;
}

TEST(MetricsE2E, OperationCountersTrackVerbs) {
  StoreRig rig(metrics_cfg(), pmem::Pool::Mode::kDirect);
  std::string v(4096, 'm');
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(rig.store->oput(rig.ctx, "k" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  std::string out(4096, 0);
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(rig.store->oget(rig.ctx, "k" + std::to_string(i), out.data(), out.size()).is_ok());
  }
  ASSERT_TRUE(rig.store->odelete(rig.ctx, "k0").is_ok());
  // A failed get is still counted as an attempt, plus one failure.
  EXPECT_FALSE(rig.store->oget(rig.ctx, "k0", out.data(), out.size()).is_ok());

  auto& m = rig.store->metrics();
  // With DSTORE_METRICS=OFF the counters compile out and every one reads 0.
#if defined(DSTORE_METRICS_DISABLED)
  constexpr uint64_t kOn = 0;
#else
  constexpr uint64_t kOn = 1;
#endif
  EXPECT_EQ(m.counter_value("dstore_puts_total"), 20u * kOn);
  EXPECT_EQ(m.counter_value("dstore_gets_total"), 11u * kOn);
  EXPECT_EQ(m.counter_value("dstore_get_failures_total"), 1u * kOn);
  EXPECT_EQ(m.counter_value("dstore_deletes_total"), 1u * kOn);
  EXPECT_EQ(m.counter_value("dstore_put_failures_total"), 0u);
#if !defined(DSTORE_METRICS_DISABLED)
  // Substrate callbacks mirror pool/device/engine activity.
  EXPECT_GT(m.counter_value("pmem_flushes_total"), 0u);
  EXPECT_GT(m.counter_value("pmem_fences_total"), 0u);
  EXPECT_GT(m.counter_value("ssd_bytes_written_total"), 0u);
  EXPECT_EQ(m.counter_value("dipper_records_committed_total"), 21u);  // 20 puts + 1 delete
  EXPECT_EQ(m.value("dstore_active_ops"), 0);
#endif
}

#if !defined(DSTORE_METRICS_DISABLED)

TEST(MetricsE2E, CrashRecoveryReconciles) {
  StoreRig rig(metrics_cfg(), pmem::Pool::Mode::kDirect);
  std::string v(2048, 'r');
  constexpr int kOps = 30;
  for (int i = 0; i < kOps; i++) {
    ASSERT_TRUE(rig.store->oput(rig.ctx, "c" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  auto& pre = rig.store->metrics();
  uint64_t appended = pre.counter_value("dipper_records_appended_total");
  uint64_t committed = pre.counter_value("dipper_records_committed_total");
  EXPECT_EQ(appended, (uint64_t)kOps);
  EXPECT_EQ(committed, (uint64_t)kOps);
  // All traces closed before the "crash": the in-flight gauge must be 0,
  // or a span leaked.
  EXPECT_EQ(pre.value("dstore_active_ops"), 0);

  // SIGKILL-equivalent: drop all DRAM state, keep PMEM + SSD, recover.
  ASSERT_TRUE(rig.crash_and_recover().is_ok()) << rig.status().to_string();

  // Reconciliation: with no checkpoint taken, recovery replays exactly the
  // records that committed before the crash.
  auto& post = rig.store->metrics();
  EXPECT_EQ(post.counter_value("dipper_records_replayed_total"), committed);
  EXPECT_EQ(post.value("dstore_active_ops"), 0);
  // The recovered registry is fresh: op counters restart from zero.
  EXPECT_EQ(post.counter_value("dstore_puts_total"), 0u);

  // And the data is all there.
  std::string out(2048, 0);
  for (int i = 0; i < kOps; i++) {
    auto g = rig.store->oget(rig.ctx, "c" + std::to_string(i), out.data(), out.size());
    ASSERT_TRUE(g.is_ok()) << i;
    EXPECT_EQ(out, v);
  }
}

TEST(MetricsE2E, ScrapeVersusResetSemantics) {
  StoreRig rig(metrics_cfg(), pmem::Pool::Mode::kDirect);
  std::string v(1024, 's');
  ASSERT_TRUE(rig.store->oput(rig.ctx, "a", v.data(), v.size()).is_ok());
  auto& m = rig.store->metrics();
  EXPECT_EQ(m.counter_value("dstore_puts_total"), 1u);
  uint64_t flushes = m.counter_value("pmem_flushes_total");
  EXPECT_GT(flushes, 0u);
  m.reset();
  // Owned op counters zeroed; substrate callbacks still mirror the pool.
  EXPECT_EQ(m.counter_value("dstore_puts_total"), 0u);
  EXPECT_GE(m.counter_value("pmem_flushes_total"), flushes);
  ASSERT_TRUE(rig.store->oput(rig.ctx, "b", v.data(), v.size()).is_ok());
  EXPECT_EQ(m.counter_value("dstore_puts_total"), 1u);
}

#endif  // !DSTORE_METRICS_DISABLED

}  // namespace
}  // namespace dstore
