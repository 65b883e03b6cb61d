// Integration tests: the YCSB harness driving real DStore through the
// adapter, concurrent writers followed by crashes, lock semantics across
// crashes, and end-to-end space accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "baselines/dstore_adapter.h"
#include "common/rng.h"
#include "workload/ycsb.h"

namespace dstore {
namespace {

using baselines::DStoreAdapter;
using baselines::DStoreVariantConfig;

std::unique_ptr<DStoreAdapter> small_adapter(bool background = true) {
  DStoreVariantConfig cfg = DStoreAdapter::dipper_variant();
  cfg.store.max_objects = 2048;
  cfg.store.num_blocks = 8192;
  cfg.store.engine.log_slots = 512;
  cfg.store.engine.background_checkpointing = background;
  auto r = DStoreAdapter::make(cfg, LatencyModel::none());
  EXPECT_TRUE(r.is_ok());
  return std::move(r).value();
}

TEST(Integration, YcsbOverDStoreNoFailures) {
  auto store = small_adapter();
  workload::WorkloadSpec spec = workload::WorkloadSpec::ycsb_a();
  spec.num_objects = 500;
  spec.value_size = 4096;
  spec.threads = 3;
  spec.ops_per_thread = 1000;
  ASSERT_TRUE(workload::load_objects(*store, spec).is_ok());
  auto r = workload::run_workload(*store, spec);
  EXPECT_EQ(r.failed_ops, 0u);
  EXPECT_EQ(r.total_ops, 3000u);
  store->store().engine().stop_background();
  EXPECT_TRUE(store->store().validate().is_ok());
}

TEST(Integration, YcsbThenCrashPreservesKeyspace) {
  auto store = small_adapter();
  workload::WorkloadSpec spec = workload::WorkloadSpec::ycsb_b();
  spec.num_objects = 400;
  spec.value_size = 2048;
  spec.threads = 2;
  spec.ops_per_thread = 800;
  ASSERT_TRUE(workload::load_objects(*store, spec).is_ok());
  (void)workload::run_workload(*store, spec);
  auto t = store->crash_and_recover();
  ASSERT_TRUE(t.is_ok()) << t.status().to_string();
  // Every preloaded key must still exist (the workload only overwrites).
  void* ctx = store->open_ctx();
  std::string buf(2048, 0);
  for (uint64_t i = 0; i < spec.num_objects; i++) {
    auto r = store->get(ctx, workload::ycsb_key(i), buf.data(), buf.size());
    ASSERT_TRUE(r.is_ok()) << i;
    EXPECT_EQ(r.value(), 2048u);
  }
  store->close_ctx(ctx);
  EXPECT_TRUE(store->store().validate().is_ok());
}

TEST(Integration, ConcurrentWritersAcksSurviveCrash) {
  // 4 writers over disjoint keyspaces record exactly what they were acked;
  // after quiesce + power failure, every acked write must be intact.
  auto store = small_adapter();
  constexpr int kThreads = 4;
  constexpr int kOps = 250;
  std::mutex acked_mu;
  std::map<std::string, uint32_t> acked;  // name -> last acked version
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; w++) {
    threads.emplace_back([&, w] {
      ds_ctx_t* ctx = store->store().ds_init();
      Rng rng(w + 100);
      char value[4096];
      for (int i = 0; i < kOps; i++) {
        std::string name = "w" + std::to_string(w) + "-" + std::to_string(rng.next_below(40));
        uint32_t version = (uint32_t)i;
        std::memcpy(value, &version, sizeof(version));
        std::memset(value + 4, 'a' + w, sizeof(value) - 4);
        if (store->store().oput(ctx, name, value, sizeof(value)).is_ok()) {
          std::lock_guard<std::mutex> g(acked_mu);
          acked[name] = version;
        }
      }
      store->store().ds_finalize(ctx);
    });
  }
  for (auto& t : threads) t.join();
  auto t = store->crash_and_recover();
  ASSERT_TRUE(t.is_ok());
  void* ctx = store->open_ctx();
  std::string buf(4096, 0);
  for (const auto& [name, version] : acked) {
    auto r = store->get(ctx, name, buf.data(), buf.size());
    ASSERT_TRUE(r.is_ok()) << name;
    uint32_t got;
    std::memcpy(&got, buf.data(), sizeof(got));
    // The recovered version must be the acked one (writers are serialized
    // per object, and each object belongs to exactly one writer here, so
    // versions are monotone — the last ack wins).
    EXPECT_EQ(got, version) << name;
  }
  store->close_ctx(ctx);
  EXPECT_TRUE(store->store().validate().is_ok());
}

TEST(Integration, LocksDoNotLeakAcrossCrash) {
  auto store = small_adapter(/*background=*/false);
  void* vctx = store->open_ctx();
  auto* ctx = static_cast<ds_ctx_t*>(vctx);
  ASSERT_TRUE(store->store().olock(ctx, "locked-object").is_ok());
  char v[128] = {};
  ASSERT_TRUE(store->store().oput(ctx, "locked-object", v, sizeof(v)).is_ok());
  store->close_ctx(vctx);
  auto t = store->crash_and_recover();
  ASSERT_TRUE(t.is_ok());
  // The lock died with the process: a new context can lock and write.
  void* vctx2 = store->open_ctx();
  auto* ctx2 = static_cast<ds_ctx_t*>(vctx2);
  EXPECT_TRUE(store->store().olock(ctx2, "locked-object").is_ok());
  EXPECT_TRUE(store->store().oput(ctx2, "locked-object", v, sizeof(v)).is_ok());
  EXPECT_TRUE(store->store().ounlock(ctx2, "locked-object").is_ok());
  store->close_ctx(vctx2);
}

TEST(Integration, SpaceAccountingConsistentAfterChurnAndRecovery) {
  auto store = small_adapter();
  void* ctx = store->open_ctx();
  Rng rng(55);
  std::string v(4096, 'x');
  std::set<std::string> live;
  for (int i = 0; i < 1500; i++) {
    std::string name = "churn" + std::to_string(rng.next_below(200));
    if (rng.next_bool(0.7)) {
      ASSERT_TRUE(store->put(ctx, name, v.data(), v.size()).is_ok());
      live.insert(name);
    } else if (live.count(name)) {
      ASSERT_TRUE(store->del(ctx, name).is_ok());
      live.erase(name);
    }
  }
  store->close_ctx(ctx);
  auto t = store->crash_and_recover();
  ASSERT_TRUE(t.is_ok());
  EXPECT_EQ(store->store().object_count(), live.size());
  auto u = store->space_usage();
  EXPECT_EQ(u.ssd_bytes, live.size() * 4096);
  EXPECT_TRUE(store->store().validate().is_ok());
}

}  // namespace
}  // namespace dstore
