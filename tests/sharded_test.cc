// Tests for ShardedStore: placement, cross-shard independence, concurrent
// clients, full-fleet crash recovery, and capacity isolation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dstore/sharded.h"
#include "dstore/store_rig.h"

namespace dstore {
namespace {

ShardedConfig small_cfg(int shards = 4, bool crashsim = true) {
  ShardedConfig cfg;
  cfg.num_shards = shards;
  cfg.shard.max_objects = 256;
  cfg.shard.num_blocks = 2048;
  cfg.shard.engine.log_slots = 256;
  cfg.shard.engine.background_checkpointing = false;
  cfg.pool_mode = crashsim ? pmem::Pool::Mode::kCrashSim : pmem::Pool::Mode::kDirect;
  return cfg;
}

TEST(Sharded, BasicRoundTrip) {
  auto s = ShardedStore::create(small_cfg());
  ASSERT_TRUE(s.is_ok());
  std::string v(4096, 's');
  ASSERT_TRUE(s.value()->put("obj", v.data(), v.size()).is_ok());
  std::string out(4096, 0);
  auto r = s.value()->get("obj", out.data(), out.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(out, v);
  ASSERT_TRUE(s.value()->del("obj").is_ok());
  EXPECT_EQ(s.value()->get("obj", out.data(), out.size()).status().code(), Code::kNotFound);
}

TEST(Sharded, RejectsBadShardCount) {
  ShardedConfig cfg = small_cfg(0);
  EXPECT_EQ(ShardedStore::create(cfg).status().code(), Code::kInvalidArgument);
  cfg = small_cfg(-3);
  EXPECT_EQ(ShardedStore::create(cfg).status().code(), Code::kInvalidArgument);
}

TEST(Sharded, RejectsOverflowingShardTemplate) {
  // A template whose derived pool size can't possibly be allocated must be
  // rejected up front with invalid_argument, not die inside an allocator.
  ShardedConfig cfg = small_cfg(2);
  cfg.shard.max_objects = 1ull << 52;  // auto-sized arena alone > 4 TiB
  auto r = ShardedStore::create(cfg);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Code::kInvalidArgument);

  ShardedConfig explicit_arena = small_cfg(2);
  explicit_arena.shard.engine.arena_bytes = 1ull << 48;  // 3 arenas > 4 TiB
  EXPECT_EQ(ShardedStore::create(explicit_arena).status().code(), Code::kInvalidArgument);

  ShardedConfig logs = small_cfg(2);
  logs.shard.engine.log_slots = 1u << 31;  // 2 logs x slots x slot size
  EXPECT_EQ(ShardedStore::create(logs).status().code(), Code::kInvalidArgument);
}

TEST(Sharded, RejectsNegativeCkptWorkers) {
  ShardedConfig cfg = small_cfg(2);
  cfg.ckpt_workers = -1;
  EXPECT_EQ(ShardedStore::create(cfg).status().code(), Code::kInvalidArgument);
}

TEST(Sharded, KeyDistributionIsBalanced) {
  // 1M synthetic names over 8 shards: the splitmix-finalized placement must
  // stay within 1.15x of the per-shard mean (the binomial 6-sigma band is
  // ~0.8% here, so 15% headroom only fails on systematic bias), and the
  // chi-square statistic must not explode.
  auto s = ShardedStore::create(small_cfg(8, /*crashsim=*/false));
  ASSERT_TRUE(s.is_ok());
  constexpr int kNames = 1000000;
  std::vector<uint64_t> counts(8, 0);
  char name[32];
  for (int i = 0; i < kNames; i++) {
    int n = snprintf(name, sizeof(name), "user%08x/object-%d", i * 2654435761u, i);
    counts[(size_t)s.value()->shard_of(std::string_view(name, n))]++;
  }
  const double mean = (double)kNames / 8.0;
  double chi2 = 0;
  for (int sh = 0; sh < 8; sh++) {
    EXPECT_LE((double)counts[sh], 1.15 * mean) << "shard " << sh << " over-loaded";
    EXPECT_GE((double)counts[sh], 0.85 * mean) << "shard " << sh << " starved";
    double d = (double)counts[sh] - mean;
    chi2 += d * d / mean;
  }
  // chi-square, 7 dof: p=0.001 critical value is 24.3; a uniform hash sits
  // far below, a biased reduction (e.g. modulo over a non-power) far above.
  EXPECT_LT(chi2, 24.3);
}

TEST(Sharded, PlacementIsStableAndSpread) {
  auto s = ShardedStore::create(small_cfg(8));
  ASSERT_TRUE(s.is_ok());
  std::map<int, int> counts;
  for (int i = 0; i < 400; i++) {
    std::string name = "key" + std::to_string(i);
    int sh = s.value()->shard_of(name);
    EXPECT_EQ(sh, s.value()->shard_of(name));  // deterministic
    counts[sh]++;
  }
  EXPECT_EQ(counts.size(), 8u);  // every shard gets traffic
  for (const auto& [sh, n] : counts) EXPECT_GT(n, 10) << "shard " << sh;
}

TEST(Sharded, ObjectsLandOnTheirShardOnly) {
  auto s = ShardedStore::create(small_cfg(4));
  ASSERT_TRUE(s.is_ok());
  char v[256] = {};
  for (int i = 0; i < 100; i++) {
    std::string name = "placed" + std::to_string(i);
    ASSERT_TRUE(s.value()->put(name, v, sizeof(v)).is_ok());
    int owner = s.value()->shard_of(name);
    for (int sh = 0; sh < 4; sh++) {
      auto size = s.value()->shard(sh).object_size(name);
      EXPECT_EQ(size.is_ok(), sh == owner) << name;
    }
  }
  EXPECT_EQ(s.value()->object_count(), 100u);
}

TEST(Sharded, FleetCrashRecoveryPreservesEverything) {
  auto sr = ShardedStore::create(small_cfg(4));
  ASSERT_TRUE(sr.is_ok());
  auto& s = *sr.value();
  Rng rng(12);
  std::map<std::string, std::pair<char, size_t>> model;
  for (int i = 0; i < 300; i++) {
    std::string name = "fleet" + std::to_string(rng.next_below(150));
    if (rng.next_bool(0.7) || model.count(name) == 0) {
      char seed = (char)('a' + rng.next_below(26));
      size_t size = 1 + rng.next_below(6000);
      std::string v(size, seed);
      ASSERT_TRUE(s.put(name, v.data(), v.size()).is_ok());
      model[name] = {seed, size};
    } else {
      ASSERT_TRUE(s.del(name).is_ok());
      model.erase(name);
    }
    // Keep per-shard logs from filling (manual checkpoint mode).
    if (i % 60 == 59) {
      ASSERT_TRUE(s.checkpoint_all().is_ok());
    }
  }
  ASSERT_TRUE(s.crash_and_recover_all().is_ok());
  ASSERT_TRUE(s.validate_all().is_ok());
  EXPECT_EQ(s.object_count(), model.size());
  std::string out(6000, 0);
  for (const auto& [name, sv] : model) {
    auto r = s.get(name, out.data(), out.size());
    ASSERT_TRUE(r.is_ok()) << name;
    ASSERT_EQ(r.value(), sv.second);
    EXPECT_EQ(out[sv.second - 1], sv.first) << name;
  }
}

TEST(Sharded, ConcurrentClientsAcrossShards) {
  ShardedConfig cfg = small_cfg(4, /*crashsim=*/false);
  cfg.shard.engine.background_checkpointing = true;
  cfg.shard.engine.log_slots = 1024;
  auto sr = ShardedStore::create(cfg);
  ASSERT_TRUE(sr.is_ok());
  auto& s = *sr.value();
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int w = 0; w < 4; w++) {
    threads.emplace_back([&, w] {
      Rng rng(w);
      char v[2048];
      std::memset(v, 'a' + w, sizeof(v));
      for (int i = 0; i < 200; i++) {
        std::string name = "c" + std::to_string(rng.next_below(100));
        if (rng.next_bool(0.6)) {
          if (!s.put(name, v, sizeof(v)).is_ok()) failures++;
        } else {
          char buf[2048];
          auto r = s.get(name, buf, sizeof(buf));
          if (!r.is_ok() && r.status().code() != Code::kNotFound) failures++;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(s.validate_all().is_ok());
}

TEST(Sharded, SpaceUsageAggregates) {
  auto s = ShardedStore::create(small_cfg(2));
  ASSERT_TRUE(s.is_ok());
  std::string v(4096, 'u');
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(s.value()->put("sp" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  auto u = s.value()->space_usage();
  EXPECT_EQ(u.ssd_bytes, 50u * 4096);
  EXPECT_GT(u.dram_bytes, 0u);
  EXPECT_GT(u.pmem_bytes, 0u);
}

TEST(Sharded, CrashSimRequiredForCrashRecovery) {
  auto s = ShardedStore::create(small_cfg(2, /*crashsim=*/false));
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(s.value()->crash_and_recover_all().code(), Code::kUnsupported);
}

TEST(Sharded, SerialRecoveryPreservesEverything) {
  // Same shape as the parallel fleet-recovery test, over the serial path
  // (the bench baseline): both recovery modes must land in identical state.
  ShardedConfig cfg = small_cfg(4);
  cfg.parallel_recovery = false;
  auto sr = ShardedStore::create(cfg);
  ASSERT_TRUE(sr.is_ok());
  auto& s = *sr.value();
  std::string v(2048, 'q');
  for (int i = 0; i < 120; i++) {
    ASSERT_TRUE(s.put("ser" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  ASSERT_TRUE(s.checkpoint_all().is_ok());
  for (int i = 0; i < 40; i++) {  // log tail on top of the checkpoint
    ASSERT_TRUE(s.put("tail" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  ASSERT_TRUE(s.crash_and_recover_all().is_ok());
  ASSERT_TRUE(s.validate_all().is_ok());
  EXPECT_EQ(s.object_count(), 160u);
  EXPECT_GT(s.last_recovery().wall_ns, 0u);
  ASSERT_EQ(s.last_recovery().shard_ns.size(), 4u);
  for (uint64_t ns : s.last_recovery().shard_ns) EXPECT_GT(ns, 0u);
}

TEST(Sharded, AffinitySessionsRouteAndPin) {
  ShardedConfig cfg = small_cfg(4, /*crashsim=*/false);
  cfg.affinity = true;
  auto sr = ShardedStore::create(cfg);
  ASSERT_TRUE(sr.is_ok());
  auto& s = *sr.value();

  ShardedStore::Session* pinned = s.open_session(2);
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->pinned(), 2);
  // A pinned session may only carry keys its shard owns.
  std::string v(512, 'p');
  int stored = 0;
  for (int i = 0; i < 200 && stored < 10; i++) {
    std::string name = "aff" + std::to_string(i);
    if (s.shard_of(name) != 2) continue;
    ASSERT_TRUE(s.put(pinned, name, v.data(), v.size()).is_ok());
    EXPECT_TRUE(s.shard(2).object_size(name).is_ok()) << name;
    std::string out(512, 0);
    auto r = s.get(pinned, name, out.data(), out.size());
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(out, v);
    stored++;
  }
  EXPECT_EQ(stored, 10);
  s.close_session(pinned);

  // Out-of-range pins degrade to hash routing.
  ShardedStore::Session* wild = s.open_session(99);
  EXPECT_EQ(wild->pinned(), -1);
  s.close_session(wild);
}

TEST(Sharded, PinIgnoredWithoutAffinity) {
  auto sr = ShardedStore::create(small_cfg(4, /*crashsim=*/false));
  ASSERT_TRUE(sr.is_ok());
  ShardedStore::Session* sess = sr.value()->open_session(1);
  EXPECT_EQ(sess->pinned(), -1);  // cfg.affinity is off
  // Hash routing still works: any key is storable through the session.
  std::string v(256, 'h');
  ASSERT_TRUE(sr.value()->put(sess, "nopin", v.data(), v.size()).is_ok());
  std::string out(256, 0);
  EXPECT_TRUE(sr.value()->get(sess, "nopin", out.data(), out.size()).is_ok());
  sr.value()->close_session(sess);
}

TEST(Sharded, PoolRunChunksCoversAllIndicesExactlyOnce) {
  ShardedConfig cfg = small_cfg(4, /*crashsim=*/false);
  cfg.ckpt_workers = 3;
  auto sr = ShardedStore::create(cfg);
  ASSERT_TRUE(sr.is_ok());
  constexpr size_t kChunks = 257;
  std::vector<std::atomic<int>> hits(kChunks);
  for (auto& h : hits) h.store(0);
  sr.value()->pool().run_chunks(kChunks, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kChunks; i++) {
    EXPECT_EQ(hits[i].load(), 1) << "chunk " << i;
  }
}

TEST(Sharded, WatermarkDrivenPoolCheckpointing) {
  // Background mode with a low watermark: the frontend's notify must reach
  // the pool and a worker must run the checkpoint — without any per-shard
  // checkpoint thread existing.
  ShardedConfig cfg = small_cfg(2, /*crashsim=*/false);
  cfg.shard.engine.background_checkpointing = true;
  cfg.shard.engine.checkpoint_threshold = 0.05;
  cfg.shard.engine.log_slots = 512;
  cfg.ckpt_workers = 2;
  auto sr = ShardedStore::create(cfg);
  ASSERT_TRUE(sr.is_ok());
  auto& s = *sr.value();
  std::string v(1024, 'w');
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(s.put("wm" + std::to_string(i % 64), v.data(), v.size()).is_ok());
  }
  // The notifies are asynchronous; give the workers a moment to drain.
  for (int spins = 0; spins < 2000 && s.pool().stats().runs.load() == 0; spins++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(s.pool().stats().notifies.load(), 0u);
  EXPECT_GT(s.pool().stats().runs.load(), 0u);
  for (int i = 0; i < s.num_shards(); i++) {
    EXPECT_EQ(s.shard(i).engine().stats().ckpt_failures.load(), 0u) << "shard " << i;
  }
  ASSERT_TRUE(s.validate_all().is_ok());
}

TEST(Sharded, PauseStopsWatermarkServiceUntilResume) {
  ShardedConfig cfg = small_cfg(2, /*crashsim=*/false);
  cfg.shard.engine.background_checkpointing = true;
  cfg.shard.engine.checkpoint_threshold = 0.05;
  cfg.shard.engine.log_slots = 512;
  cfg.ckpt_workers = 2;
  auto sr = ShardedStore::create(cfg);
  ASSERT_TRUE(sr.is_ok());
  auto& s = *sr.value();
  s.pool().pause();
  std::string v(1024, 'z');
  for (int i = 0; i < 120; i++) {
    ASSERT_TRUE(s.put("pz" + std::to_string(i % 32), v.data(), v.size()).is_ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(s.pool().stats().runs.load(), 0u);  // requests parked, not run
  s.pool().resume();
  for (int spins = 0; spins < 2000 && s.pool().stats().runs.load() == 0; spins++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(s.pool().stats().runs.load(), 0u);
  ASSERT_TRUE(s.validate_all().is_ok());
}

TEST(Sharded, CheckpointAllAttemptsEveryShardOnFailure) {
  // One shard's checkpoint fails (cooperative abandon at ckpt:after_swap);
  // checkpoint_all must still attempt — and complete — every other shard,
  // and only then surface the error.
  auto sr = ShardedStore::create(small_cfg(4, /*crashsim=*/false));
  ASSERT_TRUE(sr.is_ok());
  auto& s = *sr.value();
  std::string v(512, 'e');
  for (int i = 0; i < 64; i++) {  // every shard gets work to checkpoint
    ASSERT_TRUE(s.put("err" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  const int failing = 2;
  s.shard(failing).engine().abort_checkpoints_at("ckpt:after_swap");
  Status st = s.checkpoint_all();
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Code::kInternal) << st.to_string();
  // Exactly the armed shard failed.
  EXPECT_EQ(s.shard(failing).engine().stats().checkpoints.load(), 0u);
  int completed = 0;
  for (int sh = 0; sh < 4; sh++) {
    completed += s.shard(sh).engine().stats().checkpoints.load() > 0 ? 1 : 0;
  }
  EXPECT_EQ(completed, 3);  // the three healthy shards were still checkpointed
  // The fleet stays serviceable and a retry heals the failed shard.
  s.shard(failing).engine().abort_checkpoints_at(nullptr);
  ASSERT_TRUE(s.checkpoint_all().is_ok());
  ASSERT_TRUE(s.validate_all().is_ok());
}

// The full-log rule, for both checkpoint drivers — an unshared engine on
// its private pool and a shard on the fleet's pool: with no checkpoint
// allowed to run, an append to a full log fails busy (rather than
// checkpointing anyway or retrying forever).
class FullLogRule : public ::testing::TestWithParam<bool> {  // true: pooled shard
 protected:
  void SetUp() override {
    ShardedConfig fleet_cfg = small_cfg(1, /*crashsim=*/false);
    fleet_cfg.shard.engine.background_checkpointing = true;
    fleet_cfg.shard.engine.log_slots = 64;
    DStoreConfig cfg = fleet_cfg.shard;
    cfg.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(cfg.max_objects);
    if (GetParam()) {
      auto r = ShardedStore::create(fleet_cfg);
      ASSERT_TRUE(r.is_ok()) << r.status().to_string();
      fleet_ = std::move(r).value();
      store_ = &fleet_->shard(0);
    } else {
      single_ = std::make_unique<StoreRig>(cfg, pmem::Pool::Mode::kDirect);
      ASSERT_TRUE(single_->status().is_ok()) << single_->status().to_string();
      store_ = single_->store.get();
    }
    ctx_ = store_->ds_init();
  }
  void TearDown() override {
    if (store_ != nullptr) store_->ds_finalize(ctx_);
  }

  Status put(int i) { return store_->oput(ctx_, "f" + std::to_string(i), v_.data(), v_.size()); }
  // Puts until one fails; returns the index of the failed put.
  int fill(Status* s) {
    int i = 0;
    for (*s = Status::ok(); i < 4 * 64 && s->is_ok(); i++) *s = put(i);
    return i;
  }

  std::unique_ptr<ShardedStore> fleet_;
  std::unique_ptr<StoreRig> single_;
  DStore* store_ = nullptr;
  ds_ctx_t* ctx_ = nullptr;
  std::string v_ = std::string(64, 'f');
};

// Checkpointing disabled: busy, and re-enabling lets the next put through.
TEST_P(FullLogRule, DisabledCheckpointingFailsBusyThenRecovers) {
  dipper::Engine& engine = store_->engine();
  engine.set_checkpointing_enabled(false);
  Status s;
  int i = fill(&s);
  EXPECT_TRUE(s.is_busy()) << s.to_string();
  EXPECT_DOUBLE_EQ(engine.log_fill(), 1.0);
  EXPECT_EQ(engine.stats().checkpoints.load(), 0u);
  engine.set_checkpointing_enabled(true);
  EXPECT_TRUE(put(i).is_ok());
}

// stop_background() leaves no worker to run a checkpoint, so it disables
// checkpointing too: a full log fails busy instead of requesting a
// checkpoint nothing will run and sleeping forever, and checkpoint_now()
// frees the log.
TEST_P(FullLogRule, StoppedBackgroundFailsBusyThenCheckpointFrees) {
  dipper::Engine& engine = store_->engine();
  engine.stop_background();
  Status s;
  int i = fill(&s);
  EXPECT_TRUE(s.is_busy()) << s.to_string();
  EXPECT_DOUBLE_EQ(engine.log_fill(), 1.0);
  ASSERT_TRUE(engine.checkpoint_now().is_ok());
  EXPECT_LT(engine.log_fill(), 1.0);
  EXPECT_TRUE(put(i).is_ok());
}

INSTANTIATE_TEST_SUITE_P(Drivers, FullLogRule, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "PooledShard" : "UnsharedEngine");
                         });

}  // namespace
}  // namespace dstore
