// Tests for trace recording/replay: round trip, corruption detection,
// tracing decorator, per-key order preservation, replay against DStore.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>

#include "baselines/dstore_adapter.h"
#include "workload/trace.h"
#include "workload/ycsb.h"

namespace dstore::workload {
namespace {

std::string temp_trace(const char* tag) {
  return (std::filesystem::temp_directory_path() / (std::string("dstore_trace_") + tag)).string();
}

TEST(Trace, WriteReadRoundTrip) {
  std::string path = temp_trace("roundtrip");
  {
    auto w = TraceWriter::create(path);
    ASSERT_TRUE(w.is_ok());
    ASSERT_TRUE(w.value()->append(TraceOp::kPut, "alpha", 4096).is_ok());
    ASSERT_TRUE(w.value()->append(TraceOp::kGet, "alpha", 0).is_ok());
    ASSERT_TRUE(w.value()->append(TraceOp::kDelete, "alpha", 0).is_ok());
    EXPECT_EQ(w.value()->count(), 3u);
    ASSERT_TRUE(w.value()->finish().is_ok());
  }
  auto r = read_trace(path);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ASSERT_EQ(r.value().size(), 3u);
  EXPECT_EQ(r.value()[0].op, TraceOp::kPut);
  EXPECT_EQ(r.value()[0].key, "alpha");
  EXPECT_EQ(r.value()[0].value_size, 4096u);
  EXPECT_EQ(r.value()[1].op, TraceOp::kGet);
  EXPECT_EQ(r.value()[2].op, TraceOp::kDelete);
  std::filesystem::remove(path);
}

TEST(Trace, RejectsGarbageFile) {
  std::string path = temp_trace("garbage");
  {
    FILE* f = fopen(path.c_str(), "wb");
    fwrite("not a trace at all", 1, 18, f);
    fclose(f);
  }
  auto r = read_trace(path);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Code::kCorruption);
  std::filesystem::remove(path);
}

TEST(Trace, MissingFileFails) {
  auto r = read_trace("/nonexistent/trace.bin");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Code::kIoError);
}

TEST(Trace, TracingStoreRecordsWorkload) {
  std::string path = temp_trace("decorator");
  auto cfg = baselines::DStoreAdapter::dipper_variant();
  cfg.store.max_objects = 1024;
  cfg.store.num_blocks = 4096;
  cfg.store.engine.log_slots = 2048;
  auto inner = baselines::DStoreAdapter::make(cfg, LatencyModel::none());
  ASSERT_TRUE(inner.is_ok());
  {
    auto w = TraceWriter::create(path);
    ASSERT_TRUE(w.is_ok());
    TracingStore traced(inner.value().get(), w.value().get());
    WorkloadSpec spec = WorkloadSpec::ycsb_a();
    spec.num_objects = 100;
    spec.value_size = 512;
    spec.threads = 2;
    spec.ops_per_thread = 500;
    ASSERT_TRUE(load_objects(traced, spec).is_ok());
    auto run = run_workload(traced, spec);
    EXPECT_EQ(run.failed_ops, 0u);
    ASSERT_TRUE(w.value()->finish().is_ok());
    EXPECT_EQ(w.value()->count(), 100u + 1000u);  // load + run ops
  }
  auto trace = read_trace(path);
  ASSERT_TRUE(trace.is_ok());
  EXPECT_EQ(trace.value().size(), 1100u);
  std::filesystem::remove(path);
}

TEST(Trace, ReplayReproducesFinalState) {
  // Record a churn workload against store A; replay the trace against a
  // fresh store B; both must hold the same object set and sizes.
  std::string path = temp_trace("replay");
  auto cfg = baselines::DStoreAdapter::dipper_variant();
  cfg.store.max_objects = 512;
  cfg.store.num_blocks = 4096;
  cfg.store.engine.log_slots = 4096;
  auto a = baselines::DStoreAdapter::make(cfg, LatencyModel::none());
  auto b = baselines::DStoreAdapter::make(cfg, LatencyModel::none());
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  {
    auto w = TraceWriter::create(path);
    ASSERT_TRUE(w.is_ok());
    TracingStore traced(a.value().get(), w.value().get());
    void* ctx = traced.open_ctx();
    Rng rng(3);
    std::string v(2048, 'r');
    for (int i = 0; i < 600; i++) {
      std::string key = "rp" + std::to_string(rng.next_below(80));
      if (rng.next_bool(0.7)) {
        size_t size = 1 + rng.next_below(2048);
        ASSERT_TRUE(traced.put(ctx, key, v.data(), size).is_ok());
      } else {
        Status s = traced.del(ctx, key);
        ASSERT_TRUE(s.is_ok() || s.code() == Code::kNotFound);
      }
    }
    traced.close_ctx(ctx);
    ASSERT_TRUE(w.value()->finish().is_ok());
  }
  auto trace = read_trace(path);
  ASSERT_TRUE(trace.is_ok());
  auto replay = replay_trace(*b.value(), trace.value(), 3);
  ASSERT_TRUE(replay.is_ok());
  EXPECT_EQ(replay.value().failures, 0u);
  EXPECT_EQ(replay.value().ops, trace.value().size());
  // Final object sets must match exactly (sizes included).
  std::map<std::string, uint64_t> set_a, set_b;
  a.value()->store().list([&](std::string_view n, uint64_t s) {
    set_a[std::string(n)] = s;
    return true;
  });
  b.value()->store().list([&](std::string_view n, uint64_t s) {
    set_b[std::string(n)] = s;
    return true;
  });
  EXPECT_EQ(set_a, set_b);
  std::filesystem::remove(path);
}

TEST(Trace, ReplayThreadValidation) {
  std::vector<TraceRecord> empty;
  auto cfg = baselines::DStoreAdapter::dipper_variant();
  cfg.store.max_objects = 64;
  cfg.store.num_blocks = 256;
  auto s = baselines::DStoreAdapter::make(cfg, LatencyModel::none());
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(replay_trace(*s.value(), empty, 0).status().code(), Code::kInvalidArgument);
  auto ok = replay_trace(*s.value(), empty, 2);
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value().ops, 0u);
}

}  // namespace
}  // namespace dstore::workload
