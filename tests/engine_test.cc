// Tests for the DIPPER engine with a minimal key-value SpaceClient:
// lifecycle, logging, CC primitives, checkpoints (both modes), recovery
// from clean restarts and from crashes at every checkpoint phase, and
// crash-consistency property sweeps with the eviction adversary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/rng.h"
#include "dipper/engine.h"
#include "ds/btree.h"

namespace dstore::dipper {
namespace {

// Minimal client: a btree mapping name -> u64. kPut upserts arg0, kDelete
// erases. Deterministic by construction.
class KvClient : public SpaceClient {
 public:
  Status format(SlabAllocator& space) override {
    auto h = BTree::create(space);
    if (!h.is_ok()) return h.status();
    space.set_user_root(h.value().off);
    return Status::ok();
  }
  Status replay(SlabAllocator& space, std::span<const LogRecordView> records) override {
    BTree tree(space, OffPtr<BTree::Header>(space.user_root()));
    for (const auto& rec : records) {
      if (rec.op == OpType::kPut) {
        DSTORE_RETURN_IF_ERROR(tree.upsert(rec.name, rec.arg0));
      } else if (rec.op == OpType::kDelete) {
        Status s = tree.erase(rec.name);
        if (!s.is_ok() && s.code() != Code::kNotFound) return s;
      }
    }
    return Status::ok();
  }
};

EngineConfig small_cfg() {
  EngineConfig cfg;
  cfg.arena_bytes = 4 << 20;
  cfg.log_slots = 128;
  cfg.background_checkpointing = false;  // deterministic tests
  return cfg;
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override { init(small_cfg()); }

  void init(EngineConfig cfg) {
    cfg_ = cfg;
    pool_ = std::make_unique<pmem::Pool>(Engine::required_pool_bytes(cfg_),
                                         pmem::Pool::Mode::kCrashSim);
    engine_ = std::make_unique<Engine>(pool_.get(), &client_, cfg_);
    ASSERT_TRUE(engine_->init_fresh().is_ok());
  }

  // Apply a put through the full frontend path: append, mutate the
  // volatile space, commit.
  void put(const std::string& name, uint64_t value) {
    Key k = Key::from(name);
    auto h = engine_->append(OpType::kPut, k, value, 0);
    ASSERT_TRUE(h.is_ok()) << h.status().to_string();
    BTree tree(engine_->space(), OffPtr<BTree::Header>(engine_->space().user_root()));
    ASSERT_TRUE(tree.upsert(k, value).is_ok());
    engine_->commit(h.value());
  }

  void del(const std::string& name) {
    Key k = Key::from(name);
    auto h = engine_->append(OpType::kDelete, k, 0, 0);
    ASSERT_TRUE(h.is_ok());
    BTree tree(engine_->space(), OffPtr<BTree::Header>(engine_->space().user_root()));
    (void)tree.erase(k);
    engine_->commit(h.value());
  }

  std::optional<uint64_t> get(const std::string& name) {
    BTree tree(engine_->space(), OffPtr<BTree::Header>(engine_->space().user_root()));
    return tree.find(Key::from(name));
  }

  // Crash + recover into a fresh engine instance.
  void crash_and_recover() {
    engine_->stop_background();
    pool_->crash();
    engine_ = std::make_unique<Engine>(pool_.get(), &client_, cfg_);
    ASSERT_TRUE(engine_->recover().is_ok());
  }

  // Clean restart (no crash: everything committed is persistent anyway).
  void restart() {
    engine_->stop_background();
    engine_ = std::make_unique<Engine>(pool_.get(), &client_, cfg_);
    ASSERT_TRUE(engine_->recover().is_ok());
  }

  EngineConfig cfg_;
  KvClient client_;
  std::unique_ptr<pmem::Pool> pool_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(EngineTest, FreshEngineEmpty) {
  EXPECT_FALSE(get("nothing").has_value());
  EXPECT_EQ(engine_->stats().records_appended.load(), 0u);
  EXPECT_DOUBLE_EQ(engine_->log_fill(), 0.0);
}

TEST_F(EngineTest, PoolTooSmallRejected) {
  pmem::Pool tiny(1 << 20, pmem::Pool::Mode::kDirect);
  Engine e(&tiny, &client_, small_cfg());
  EXPECT_EQ(e.init_fresh().code(), Code::kInvalidArgument);
}

TEST_F(EngineTest, AppendCommitTracksStats) {
  put("a", 1);
  put("b", 2);
  EXPECT_EQ(engine_->stats().records_appended.load(), 2u);
  EXPECT_EQ(engine_->stats().records_committed.load(), 2u);
  EXPECT_GT(engine_->log_fill(), 0.0);
}

TEST_F(EngineTest, CommittedOpsSurviveCrashWithoutCheckpoint) {
  put("alpha", 10);
  put("beta", 20);
  del("alpha");
  crash_and_recover();
  EXPECT_FALSE(get("alpha").has_value());
  ASSERT_TRUE(get("beta").has_value());
  EXPECT_EQ(*get("beta"), 20u);
}

TEST_F(EngineTest, UncommittedOpLostAfterCrash) {
  put("kept", 1);
  // Append without commit: op was never acknowledged.
  auto h = engine_->append(OpType::kPut, Key::from("lost"), 99, 0);
  ASSERT_TRUE(h.is_ok());
  crash_and_recover();
  EXPECT_TRUE(get("kept").has_value());
  EXPECT_FALSE(get("lost").has_value());
}

TEST_F(EngineTest, CheckpointDrainsLogAndPreservesState) {
  for (int i = 0; i < 50; i++) put("key" + std::to_string(i), i);
  EXPECT_GT(engine_->log_fill(), 0.0);
  ASSERT_TRUE(engine_->checkpoint_now().is_ok());
  EXPECT_EQ(engine_->stats().checkpoints.load(), 1u);
  EXPECT_DOUBLE_EQ(engine_->log_fill(), 0.0);  // swapped to the fresh log
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(get("key" + std::to_string(i)).has_value()) << i;
    EXPECT_EQ(*get("key" + std::to_string(i)), (uint64_t)i);
  }
}

TEST_F(EngineTest, StateSurvivesCrashAfterCheckpoint) {
  for (int i = 0; i < 30; i++) put("pre" + std::to_string(i), i);
  ASSERT_TRUE(engine_->checkpoint_now().is_ok());
  for (int i = 0; i < 20; i++) put("post" + std::to_string(i), 100 + i);
  crash_and_recover();
  for (int i = 0; i < 30; i++) EXPECT_TRUE(get("pre" + std::to_string(i)).has_value()) << i;
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(get("post" + std::to_string(i)).has_value()) << i;
    EXPECT_EQ(*get("post" + std::to_string(i)), 100u + i);
  }
}

TEST_F(EngineTest, MultipleCheckpointCyclesRotateSlots) {
  for (int round = 0; round < 5; round++) {
    for (int i = 0; i < 20; i++) put("r" + std::to_string(round) + "k" + std::to_string(i), i);
    ASSERT_TRUE(engine_->checkpoint_now().is_ok()) << "round " << round;
  }
  EXPECT_EQ(engine_->stats().checkpoints.load(), 5u);
  crash_and_recover();
  for (int round = 0; round < 5; round++) {
    for (int i = 0; i < 20; i++) {
      EXPECT_TRUE(get("r" + std::to_string(round) + "k" + std::to_string(i)).has_value());
    }
  }
}

TEST_F(EngineTest, CleanRestartPreservesEverything) {
  for (int i = 0; i < 40; i++) put("obj" + std::to_string(i), i * 2);
  ASSERT_TRUE(engine_->checkpoint_now().is_ok());
  for (int i = 40; i < 60; i++) put("obj" + std::to_string(i), i * 2);
  restart();
  for (int i = 0; i < 60; i++) {
    ASSERT_TRUE(get("obj" + std::to_string(i)).has_value()) << i;
    EXPECT_EQ(*get("obj" + std::to_string(i)), (uint64_t)i * 2);
  }
}

TEST_F(EngineTest, RecoveryIsIdempotent) {
  for (int i = 0; i < 25; i++) put("x" + std::to_string(i), i);
  crash_and_recover();
  crash_and_recover();  // recover twice: §3.6 idempotency
  crash_and_recover();
  for (int i = 0; i < 25; i++) EXPECT_TRUE(get("x" + std::to_string(i)).has_value()) << i;
}

TEST_F(EngineTest, LogFullWithoutCheckpointerReportsBusy) {
  for (uint32_t i = 0; i < cfg_.log_slots; i++) put("fill" + std::to_string(i), i);
  auto h = engine_->append(OpType::kPut, Key::from("overflow"), 1, 0);
  ASSERT_FALSE(h.is_ok());
  EXPECT_EQ(h.status().code(), Code::kBusy);
  ASSERT_TRUE(engine_->checkpoint_now().is_ok());
  put("overflow", 1);  // space available again
  EXPECT_TRUE(get("overflow").has_value());
}

TEST_F(EngineTest, InflightTrackingAndScanAgree) {
  Key k = Key::from("contested");
  EXPECT_EQ(engine_->inflight_count(k), 0);
  EXPECT_FALSE(engine_->scan_conflicting_write(k));
  auto h = engine_->append(OpType::kPut, k, 1, 0);
  ASSERT_TRUE(h.is_ok());
  EXPECT_GT(engine_->inflight_count(k), 0);
  EXPECT_TRUE(engine_->scan_conflicting_write(k));
  EXPECT_EQ(engine_->inflight_count(k), 1);
  engine_->commit(h.value());
  EXPECT_EQ(engine_->inflight_count(k), 0);
  EXPECT_FALSE(engine_->scan_conflicting_write(k));
}

TEST_F(EngineTest, WaitNoInflightBlocksUntilCommit) {
  Key k = Key::from("waity");
  auto h = engine_->append(OpType::kPut, k, 1, 0);
  ASSERT_TRUE(h.is_ok());
  std::atomic<bool> proceeded{false};
  std::thread waiter([&] {
    engine_->wait_inflight_at_most(k, 0);
    proceeded = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(proceeded.load());
  engine_->commit(h.value());
  waiter.join();
  EXPECT_TRUE(proceeded.load());
}

TEST_F(EngineTest, ObjectLocksConflictAndRelease) {
  Key k = Key::from("locked-obj");
  auto h = engine_->lock_object(k);
  ASSERT_TRUE(h.is_ok());
  EXPECT_GT(engine_->inflight_count(k), 0);
  EXPECT_EQ(engine_->lock_object(k).status().code(), Code::kBusy);  // no recursion
  engine_->unlock_object(h.value(), k);
  EXPECT_EQ(engine_->inflight_count(k), 0);
  auto h2 = engine_->lock_object(k);  // re-lockable
  ASSERT_TRUE(h2.is_ok());
  engine_->unlock_object(h2.value(), k);
}

TEST_F(EngineTest, HeldLockSurvivesLogSwapAndUnlocksAfter) {
  Key k = Key::from("long-held");
  auto h = engine_->lock_object(k);
  ASSERT_TRUE(h.is_ok());
  for (int i = 0; i < 30; i++) put("filler" + std::to_string(i), i);
  ASSERT_TRUE(engine_->checkpoint_now().is_ok());  // swaps logs, moves the NOOP
  EXPECT_GT(engine_->inflight_count(k), 0);  // still held
  engine_->unlock_object(h.value(), k);
  EXPECT_EQ(engine_->inflight_count(k), 0);
}

TEST_F(EngineTest, LocksDoNotSurviveCrash) {
  Key k = Key::from("ephemeral-lock");
  ASSERT_TRUE(engine_->lock_object(k).is_ok());
  crash_and_recover();
  EXPECT_EQ(engine_->inflight_count(k), 0);
  auto h = engine_->lock_object(k);
  EXPECT_TRUE(h.is_ok());
  engine_->unlock_object(h.value(), k);
}

TEST_F(EngineTest, RecoverRejectsMismatchedConfig) {
  put("a", 1);
  engine_->stop_background();
  EngineConfig other = cfg_;
  other.log_slots = cfg_.log_slots * 2;
  Engine mismatched(pool_.get(), &client_, other);
  EXPECT_EQ(mismatched.recover().code(), Code::kInvalidArgument);
}

TEST_F(EngineTest, RecoverRejectsGarbagePool) {
  pmem::Pool garbage(Engine::required_pool_bytes(cfg_), pmem::Pool::Mode::kDirect);
  std::memset(garbage.base(), 0x5a, 4096);
  Engine e(&garbage, &client_, cfg_);
  EXPECT_EQ(e.recover().code(), Code::kCorruption);
}

// ---- crash-at-every-checkpoint-phase sweep ---------------------------------

class CkptCrashPoint : public ::testing::TestWithParam<const char*> {};

TEST_P(CkptCrashPoint, StateConsistentAfterCrashDuringCheckpoint) {
  const char* crash_at = GetParam();
  KvClient client;
  EngineConfig cfg;
  cfg.arena_bytes = 4 << 20;
  cfg.log_slots = 128;
  cfg.background_checkpointing = false;
  pmem::Pool pool(Engine::required_pool_bytes(cfg), pmem::Pool::Mode::kCrashSim);
  auto engine = std::make_unique<Engine>(&pool, &client, cfg);
  ASSERT_TRUE(engine->init_fresh().is_ok());
  if (std::string(crash_at) != "none") engine->abort_checkpoints_at(crash_at);

  auto put = [&](const std::string& name, uint64_t value) {
    Key k = Key::from(name);
    auto h = engine->append(OpType::kPut, k, value, 0);
    ASSERT_TRUE(h.is_ok());
    BTree tree(engine->space(), OffPtr<BTree::Header>(engine->space().user_root()));
    ASSERT_TRUE(tree.upsert(k, value).is_ok());
    engine->commit(h.value());
  };

  for (int i = 0; i < 20; i++) put("warm" + std::to_string(i), i);
  for (int i = 0; i < 40; i++) put("data" + std::to_string(i), i * 3);
  Status s = engine->checkpoint_now();  // aborted at the configured point
  if (std::string(crash_at) != "none" && std::string(crash_at) != "ckpt:after_install") {
    // Pre-install abandons report failure; an after-install abandon only
    // skipped the archived-log recycling, so the checkpoint itself is ok.
    EXPECT_FALSE(s.is_ok());
  }

  // Crash and recover.
  engine->stop_background();
  pool.crash();
  auto recovered = std::make_unique<Engine>(&pool, &client, cfg);
  ASSERT_TRUE(recovered->recover().is_ok());
  BTree tree(recovered->space(), OffPtr<BTree::Header>(recovered->space().user_root()));
  ASSERT_TRUE(tree.validate().is_ok());
  for (int i = 0; i < 20; i++) {
    auto v = tree.find(Key::from("warm" + std::to_string(i)));
    ASSERT_TRUE(v.has_value()) << "warm" << i << " lost (crash at " << crash_at << ")";
    EXPECT_EQ(*v, (uint64_t)i);
  }
  for (int i = 0; i < 40; i++) {
    auto v = tree.find(Key::from("data" + std::to_string(i)));
    ASSERT_TRUE(v.has_value()) << "data" << i << " lost (crash at " << crash_at << ")";
    EXPECT_EQ(*v, (uint64_t)i * 3);
  }
}

INSTANTIATE_TEST_SUITE_P(Phases, CkptCrashPoint,
                         ::testing::Values("ckpt:after_swap", "ckpt:after_drain",
                                           "ckpt:after_replay", "ckpt:after_install", "none"));

// ---- randomized crash-consistency property test ----------------------------

TEST(EngineCrashProperty, RandomOpsCheckpointsCrashesMatchModel) {
  KvClient client;
  EngineConfig cfg;
  cfg.arena_bytes = 8 << 20;
  cfg.log_slots = 64;  // small: forces frequent checkpoints
  cfg.background_checkpointing = false;
  pmem::Pool pool(Engine::required_pool_bytes(cfg), pmem::Pool::Mode::kCrashSim);
  auto engine = std::make_unique<Engine>(&pool, &client, cfg);
  ASSERT_TRUE(engine->init_fresh().is_ok());

  Rng rng(20260705);
  std::map<std::string, uint64_t> model;
  const int kRounds = 30;
  const int kOpsPerRound = 40;

  for (int round = 0; round < kRounds; round++) {
    for (int op = 0; op < kOpsPerRound; op++) {
      std::string name = "k" + std::to_string(rng.next_below(80));
      Key k = Key::from(name);
      if (engine->log_fill() > 0.8) {
        ASSERT_TRUE(engine->checkpoint_now().is_ok());
      }
      BTree tree(engine->space(), OffPtr<BTree::Header>(engine->space().user_root()));
      if (rng.next_bool(0.7) || model.count(name) == 0) {
        uint64_t value = rng.next();
        auto h = engine->append(OpType::kPut, k, value, 0);
        ASSERT_TRUE(h.is_ok());
        ASSERT_TRUE(tree.upsert(k, value).is_ok());
        engine->commit(h.value());
        model[name] = value;
      } else {
        auto h = engine->append(OpType::kDelete, k, 0, 0);
        ASSERT_TRUE(h.is_ok());
        (void)tree.erase(k);
        engine->commit(h.value());
        model.erase(name);
      }
      // Adversary: spurious cache-line evictions at arbitrary times.
      if (rng.next_bool(0.2)) pool.evict_random_lines(rng, 16);
    }
    // Periodically crash (sometimes mid-checkpoint) and recover.
    if (rng.next_bool(0.5)) {
      if (rng.next_bool(0.4)) {
        // Crash in the middle of a checkpoint.
        const char* points[] = {"ckpt:after_swap", "ckpt:after_drain", "ckpt:after_replay",
                                "ckpt:after_install"};
        const char* pt = points[rng.next_below(4)];
        (void)engine->checkpoint_abandon_at(pt);
      }
      engine->stop_background();
      pool.crash();
      engine = std::make_unique<Engine>(&pool, &client, cfg);
      ASSERT_TRUE(engine->recover().is_ok());
      // Verify full model equality (every committed op durable, nothing
      // extra, observational equivalence of the recovered state).
      BTree tree(engine->space(), OffPtr<BTree::Header>(engine->space().user_root()));
      ASSERT_TRUE(tree.validate().is_ok());
      EXPECT_EQ(tree.size(), model.size()) << "round " << round;
      for (const auto& [name, value] : model) {
        auto v = tree.find(Key::from(name));
        ASSERT_TRUE(v.has_value()) << name << " lost in round " << round;
        EXPECT_EQ(*v, value) << name;
      }
    }
  }
}

// ---- background checkpointing ----------------------------------------------

TEST(EngineBackground, CheckpointTriggersAutomatically) {
  KvClient client;
  EngineConfig cfg;
  cfg.arena_bytes = 4 << 20;
  cfg.log_slots = 64;
  cfg.checkpoint_threshold = 0.5;
  cfg.background_checkpointing = true;
  pmem::Pool pool(Engine::required_pool_bytes(cfg), pmem::Pool::Mode::kDirect);
  Engine engine(&pool, &client, cfg);
  ASSERT_TRUE(engine.init_fresh().is_ok());
  // Push enough records to cross the threshold several times; background
  // checkpoints must absorb them without append ever failing.
  for (int i = 0; i < 500; i++) {
    Key k = Key::from("bg" + std::to_string(i));
    auto h = engine.append(OpType::kPut, k, i, 0);
    ASSERT_TRUE(h.is_ok()) << i << ": " << h.status().to_string();
    BTree tree(engine.space(), OffPtr<BTree::Header>(engine.space().user_root()));
    ASSERT_TRUE(tree.upsert(k, i).is_ok());
    engine.commit(h.value());
  }
  engine.stop_background();
  EXPECT_GT(engine.stats().checkpoints.load(), 0u);
}

}  // namespace
}  // namespace dstore::dipper
