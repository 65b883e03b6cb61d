// DStore configuration-mode tests: observational equivalence off (Fig 9
// ablation), physical logging, log backpressure, long (two-cache-line)
// object names under crashes, and the stage-stats instrumentation.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/rng.h"
#include "dstore/dstore.h"

namespace dstore {
namespace {

struct ModeRig {
  DStoreConfig cfg;
  std::unique_ptr<pmem::Pool> pool;
  std::unique_ptr<ssd::RamBlockDevice> device;
  std::unique_ptr<DStore> store;
  ds_ctx_t* ctx = nullptr;

  explicit ModeRig(bool oe = true, bool physical = false, uint32_t log_slots = 256,
                   bool background = false) {
    cfg.max_objects = 512;
    cfg.num_blocks = 4096;
    cfg.observational_equivalence = oe;
    cfg.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(cfg.max_objects);
    cfg.engine.log_slots = log_slots;
    cfg.engine.background_checkpointing = background;
    cfg.engine.physical_logging = physical;
    pool = std::make_unique<pmem::Pool>(dipper::Engine::required_pool_bytes(cfg.engine),
                                        pmem::Pool::Mode::kCrashSim);
    ssd::DeviceConfig dc;
    dc.num_blocks = cfg.num_blocks;
    device = std::make_unique<ssd::RamBlockDevice>(dc);
    auto r = DStore::create(pool.get(), device.get(), cfg);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    store = std::move(r).value();
    ctx = store->ds_init();
  }

  ~ModeRig() {
    if (ctx != nullptr && store) store->ds_finalize(ctx);
  }

  void crash_and_recover() {
    if (ctx != nullptr) store->ds_finalize(ctx);
    ctx = nullptr;
    store->engine().stop_background();
    store.reset();
    pool->crash();
    device->crash();
    auto r = DStore::recover(pool.get(), device.get(), cfg);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    store = std::move(r).value();
    ctx = store->ds_init();
  }
};

TEST(DStoreModes, OeOffIsFunctionallyIdentical) {
  ModeRig rig(/*oe=*/false);
  std::string v(4096, 'n');
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(rig.store->oput(rig.ctx, "noe" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  ASSERT_TRUE(rig.store->checkpoint_now().is_ok());
  ASSERT_TRUE(rig.store->validate().is_ok());
  rig.crash_and_recover();
  std::string out(4096, 0);
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(
        rig.store->oget(rig.ctx, "noe" + std::to_string(i), out.data(), out.size()).is_ok());
    EXPECT_EQ(out, v);
  }
}

TEST(DStoreModes, OeOffConcurrentWritersStillCorrect) {
  ModeRig rig(/*oe=*/false, false, 1024, /*background=*/true);
  std::vector<std::thread> threads;
  for (int w = 0; w < 3; w++) {
    threads.emplace_back([&, w] {
      ds_ctx_t* ctx = rig.store->ds_init();
      std::string v(2048, (char)('a' + w));
      for (int i = 0; i < 100; i++) {
        ASSERT_TRUE(
            rig.store->oput(ctx, "w" + std::to_string(w) + "-" + std::to_string(i), v.data(),
                            v.size())
                .is_ok());
      }
      rig.store->ds_finalize(ctx);
    });
  }
  for (auto& t : threads) t.join();
  rig.store->engine().stop_background();
  ASSERT_TRUE(rig.store->validate().is_ok());
  EXPECT_EQ(rig.store->object_count(), 300u);
}

TEST(DStoreModes, PhysicalLoggingStillCrashConsistent) {
  ModeRig rig(true, /*physical=*/true);
  std::string v(4096, 'p');
  for (int i = 0; i < 80; i++) {
    ASSERT_TRUE(rig.store->oput(rig.ctx, "phys" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  ASSERT_TRUE(rig.store->checkpoint_now().is_ok());
  for (int i = 80; i < 120; i++) {
    ASSERT_TRUE(rig.store->oput(rig.ctx, "phys" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  rig.crash_and_recover();
  std::string out(4096, 0);
  for (int i = 0; i < 120; i++) {
    ASSERT_TRUE(
        rig.store->oget(rig.ctx, "phys" + std::to_string(i), out.data(), out.size()).is_ok())
        << i;
    EXPECT_EQ(out, v);
  }
}

TEST(DStoreModes, PhysicalLoggingWritesPayloadToPmem) {
  ModeRig logical(true, false);
  ModeRig physical(true, true);
  std::string v(4096, 'q');
  uint64_t l0 = logical.pool->stats().bytes_flushed.load();
  uint64_t p0 = physical.pool->stats().bytes_flushed.load();
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(logical.store->oput(logical.ctx, "k" + std::to_string(i), v.data(), v.size())
                    .is_ok());
    ASSERT_TRUE(physical.store->oput(physical.ctx, "k" + std::to_string(i), v.data(), v.size())
                    .is_ok());
  }
  uint64_t logical_flushed = logical.pool->stats().bytes_flushed.load() - l0;
  uint64_t physical_flushed = physical.pool->stats().bytes_flushed.load() - p0;
  // Physical logging flushes the 4KB payload per op on top of the record.
  EXPECT_GT(physical_flushed, logical_flushed + 20 * 4000);
}

TEST(DStoreModes, BackpressureWhenLogFullManualMode) {
  ModeRig rig(true, false, /*log_slots=*/32, /*background=*/false);
  std::string v(128, 'b');
  // Fill the log completely.
  int wrote = 0;
  for (int i = 0; i < 32; i++) {
    Status s = rig.store->oput(rig.ctx, "bp" + std::to_string(i), v.data(), v.size());
    if (!s.is_ok()) {
      EXPECT_EQ(s.code(), Code::kBusy);
      break;
    }
    wrote++;
  }
  EXPECT_EQ(wrote, 32);
  // 33rd write must report busy (no background checkpointer).
  EXPECT_EQ(rig.store->oput(rig.ctx, "bp-full", v.data(), v.size()).code(), Code::kBusy);
  // A manual checkpoint clears the backlog.
  ASSERT_TRUE(rig.store->checkpoint_now().is_ok());
  EXPECT_TRUE(rig.store->oput(rig.ctx, "bp-full", v.data(), v.size()).is_ok());
  ASSERT_TRUE(rig.store->validate().is_ok());
}

TEST(DStoreModes, BackpressureResolvesWithBackgroundCheckpointer) {
  ModeRig rig(true, false, /*log_slots=*/64, /*background=*/true);
  std::string v(512, 'g');
  // Write far more records than the log holds: appends must transparently
  // wait for background checkpoints instead of failing.
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(rig.store->oput(rig.ctx, "load" + std::to_string(i % 50), v.data(), v.size())
                    .is_ok())
        << i;
  }
  rig.store->engine().stop_background();
  EXPECT_GT(rig.store->engine().stats().checkpoints.load(), 3u);
  ASSERT_TRUE(rig.store->validate().is_ok());
}

TEST(DStoreModes, LongNamesTwoLineRecordsSurviveCrashes) {
  ModeRig rig(true, false, 128);
  Rng rng(99);
  std::map<std::string, char> model;
  // Names at the 63-byte cap force two-cache-line log records, exercising
  // the multi-line reverse-order flush protocol end to end.
  for (int round = 0; round < 6; round++) {
    for (int i = 0; i < 20; i++) {
      std::string name(kMaxNameLen - 4, 'L');
      name += std::to_string(1000 + (int)rng.next_below(40));
      char seed = (char)('a' + rng.next_below(26));
      std::string v(2048, seed);
      ASSERT_TRUE(rig.store->oput(rig.ctx, name, v.data(), v.size()).is_ok());
      model[name] = seed;
      if (rng.next_bool(0.2)) rig.pool->evict_random_lines(rng, 16);
    }
    if (rig.store->engine().log_fill() > 0.7) {
      ASSERT_TRUE(rig.store->checkpoint_now().is_ok());
    }
    rig.crash_and_recover();
    std::string out(2048, 0);
    for (const auto& [name, seed] : model) {
      auto r = rig.store->oget(rig.ctx, name, out.data(), out.size());
      ASSERT_TRUE(r.is_ok()) << name;
      EXPECT_EQ(out[0], seed);
      EXPECT_EQ(out[2047], seed);
    }
  }
}

TEST(DStoreModes, ReplayUnderCrashChurn) {
  // Heavy churn of every mutation type — put, delete, oopen(kCreate), and
  // extending and pure-overwrite owrite — with frequent crashes. Every op
  // goes through the write pipeline; checkpoints replay them in batches of
  // hundreds of records and recovery replays the rest, and the end-to-end
  // crash-consistency property must hold exactly.
  ModeRig rig(true, false, /*log_slots=*/512);
  Rng rng(777);
  std::map<std::string, std::string> model;
  constexpr size_t kMaxSize = 8000;
  int checkpoints = 0;
  for (int round = 0; round < 6; round++) {
    for (int i = 0; i < 150; i++) {
      std::string name = "pc" + std::to_string(rng.next_below(80));
      auto it = model.find(name);
      const char seed = (char)('a' + rng.next_below(26));
      const uint64_t pick = rng.next_below(100);
      if (it == model.end() && pick < 20) {
        auto o = rig.store->oopen(rig.ctx, name, 0, kWrite | kCreate);
        ASSERT_TRUE(o.is_ok()) << o.status().to_string();
        rig.store->oclose(o.value());
        model[name].clear();
      } else if (it == model.end() || pick < 45) {
        std::string v(1 + rng.next_below(6000), seed);
        ASSERT_TRUE(rig.store->oput(rig.ctx, name, v.data(), v.size()).is_ok());
        model[name] = v;
      } else if (pick < 60) {
        ASSERT_TRUE(rig.store->odelete(rig.ctx, name).is_ok());
        model.erase(it);
      } else {
        // Extending (offset + len past the end) or, when the object has
        // bytes to overwrite, pure-overwrite (inside them) owrite.
        std::string& cur = it->second;
        const bool extend = cur.empty() || pick < 80;
        size_t off, len;
        if (extend) {
          off = rng.next_below(cur.size() + 1);
          len = cur.size() - off + 1 + rng.next_below(2000);
          if (off + len > kMaxSize) len = kMaxSize - off;
        } else {
          off = rng.next_below(cur.size());
          len = 1 + rng.next_below(cur.size() - off);
        }
        std::string v(len, seed);
        auto o = rig.store->oopen(rig.ctx, name, 0, kWrite);
        ASSERT_TRUE(o.is_ok()) << o.status().to_string();
        auto w = rig.store->owrite(o.value(), v.data(), v.size(), off);
        rig.store->oclose(o.value());
        ASSERT_TRUE(w.is_ok()) << w.status().to_string();
        if (off + len > cur.size()) cur.resize(off + len);
        cur.replace(off, len, v);
      }
      if (rig.store->engine().log_fill() > 0.75) {
        ASSERT_TRUE(rig.store->checkpoint_now().is_ok());
        checkpoints++;
      }
    }
    rig.crash_and_recover();
    ASSERT_TRUE(rig.store->validate().is_ok());
    ASSERT_EQ(rig.store->object_count(), model.size()) << "round " << round;
    std::string out(kMaxSize, 0);
    for (const auto& [name, want] : model) {
      auto r = rig.store->oget(rig.ctx, name, out.data(), out.size());
      ASSERT_TRUE(r.is_ok()) << name << " round " << round;
      ASSERT_EQ(r.value(), want.size()) << name;
      EXPECT_EQ(out.compare(0, want.size(), want), 0) << name << " round " << round;
    }
  }
  // 512-slot log, checkpointed at 75% fill: each replays ~384 records.
  EXPECT_GT(checkpoints, 0);
}

TEST(DStoreModes, StageMetricsAccumulateSanely) {
  ModeRig rig;
  std::string v(4096, 's');
  // Stage spans are sampled 1-in-OpTrace::kSampleEvery per thread, so run
  // enough puts that several full traces land in the histograms.
  const int kOps = 8 * (int)obs::OpTrace::kSampleEvery;
  for (int i = 0; i < kOps; i++) {
    ASSERT_TRUE(rig.store->oput(rig.ctx, "st" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  auto& m = rig.store->metrics();
  EXPECT_EQ(m.counter_value("dstore_puts_total"), (uint64_t)kOps);
  EXPECT_EQ(m.counter_value("dstore_put_failures_total"), 0u);
#if !defined(DSTORE_METRICS_DISABLED)
  obs::Histogram* lat = m.find_histogram("dstore_put_latency_ns");
  ASSERT_NE(lat, nullptr);
  // Latency is recorded on sampled traces only: exactly 1-in-kSampleEvery
  // of this thread's consecutive puts.
  EXPECT_EQ(lat->count(), (uint64_t)kOps / obs::OpTrace::kSampleEvery);
  uint64_t stage_sum = 0, sampled = 0;
  for (const char* name :
       {"dstore_stage_log_append_ns", "dstore_stage_pool_alloc_ns", "dstore_stage_meta_zone_ns",
        "dstore_stage_btree_ns", "dstore_stage_ssd_batch_ns", "dstore_stage_commit_flush_ns"}) {
    obs::Histogram* h = m.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count(), 0u) << name;
    sampled = h->count();  // every stage sees the same sampled traces
    stage_sum += h->sum();
  }
  // Sampled stage spans are sub-portions of the sampled ops' total time.
  EXPECT_LE(stage_sum, lat->sum() + sampled * 2000 /* timer slack */);
  // No trace left open.
  EXPECT_EQ(m.value("dstore_active_ops"), 0);
#endif
}

TEST(DStoreModes, CheckpointThresholdHonored) {
  DStoreConfig cfg;
  cfg.max_objects = 256;
  cfg.num_blocks = 1024;
  cfg.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(cfg.max_objects);
  cfg.engine.log_slots = 100;
  cfg.engine.checkpoint_threshold = 0.3;
  cfg.engine.background_checkpointing = true;
  pmem::Pool pool(dipper::Engine::required_pool_bytes(cfg.engine), pmem::Pool::Mode::kDirect);
  ssd::DeviceConfig dc;
  dc.num_blocks = cfg.num_blocks;
  ssd::RamBlockDevice device(dc);
  auto r = DStore::create(&pool, &device, cfg);
  ASSERT_TRUE(r.is_ok());
  auto store = std::move(r).value();
  ds_ctx_t* ctx = store->ds_init();
  std::string v(128, 't');
  for (int i = 0; i < 60; i++) {
    ASSERT_TRUE(store->oput(ctx, "th" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  // With a 0.3 threshold on a 100-slot log, 60 appends must trigger at
  // least one checkpoint; give the background thread time to run it.
  for (int spin = 0; spin < 200 && store->engine().stats().checkpoints.load() == 0; spin++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  store->engine().stop_background();
  EXPECT_GE(store->engine().stats().checkpoints.load(), 1u);
  store->ds_finalize(ctx);
}

}  // namespace
}  // namespace dstore
