// Tests for the DIPPER engine with a minimal key-value SpaceClient:
// lifecycle, logging, CC primitives, checkpoints (both modes), recovery
// from clean restarts and from crashes at every checkpoint phase, and
// crash-consistency property sweeps with the eviction adversary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "common/rng.h"
#include "engine_rig.h"

namespace dstore::dipper {
namespace {

EngineConfig small_cfg() {
  EngineConfig cfg;
  cfg.arena_bytes = 4 << 20;
  cfg.log_slots = 128;
  cfg.background_checkpointing = false;  // deterministic tests
  return cfg;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineRig rig_{small_cfg()};
};

TEST_F(EngineTest, FreshEngineEmpty) {
  EXPECT_FALSE(rig_.get("nothing").has_value());
  EXPECT_EQ(rig_.engine->stats().records_appended.load(), 0u);
  EXPECT_DOUBLE_EQ(rig_.engine->log_fill(), 0.0);
}

TEST_F(EngineTest, PoolTooSmallRejected) {
  pmem::Pool tiny(1 << 20, pmem::Pool::Mode::kDirect);
  Engine e(&tiny, &rig_.client, small_cfg());
  EXPECT_EQ(e.init_fresh().code(), Code::kInvalidArgument);
}

TEST_F(EngineTest, AppendCommitTracksStats) {
  rig_.put("a", 1);
  rig_.put("b", 2);
  EXPECT_EQ(rig_.engine->stats().records_appended.load(), 2u);
  EXPECT_EQ(rig_.engine->stats().records_committed.load(), 2u);
  EXPECT_GT(rig_.engine->log_fill(), 0.0);
}

TEST_F(EngineTest, CommittedOpsSurviveCrashWithoutCheckpoint) {
  rig_.put("alpha", 10);
  rig_.put("beta", 20);
  rig_.del("alpha");
  rig_.crash_and_recover();
  EXPECT_FALSE(rig_.get("alpha").has_value());
  ASSERT_TRUE(rig_.get("beta").has_value());
  EXPECT_EQ(*rig_.get("beta"), 20u);
}

TEST_F(EngineTest, UncommittedOpLostAfterCrash) {
  rig_.put("kept", 1);
  // Append without commit: op was never acknowledged.
  auto h = rig_.engine->append(OpType::kPut, Key::from("lost"), 99, 0);
  ASSERT_TRUE(h.is_ok());
  rig_.crash_and_recover();
  EXPECT_TRUE(rig_.get("kept").has_value());
  EXPECT_FALSE(rig_.get("lost").has_value());
}

TEST_F(EngineTest, CheckpointDrainsLogAndPreservesState) {
  for (int i = 0; i < 50; i++) rig_.put("key" + std::to_string(i), i);
  EXPECT_GT(rig_.engine->log_fill(), 0.0);
  ASSERT_TRUE(rig_.engine->checkpoint_now().is_ok());
  EXPECT_EQ(rig_.engine->stats().checkpoints.load(), 1u);
  EXPECT_DOUBLE_EQ(rig_.engine->log_fill(), 0.0);  // swapped to the fresh log
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(rig_.get("key" + std::to_string(i)).has_value()) << i;
    EXPECT_EQ(*rig_.get("key" + std::to_string(i)), (uint64_t)i);
  }
}

TEST_F(EngineTest, StateSurvivesCrashAfterCheckpoint) {
  for (int i = 0; i < 30; i++) rig_.put("pre" + std::to_string(i), i);
  ASSERT_TRUE(rig_.engine->checkpoint_now().is_ok());
  for (int i = 0; i < 20; i++) rig_.put("post" + std::to_string(i), 100 + i);
  rig_.crash_and_recover();
  for (int i = 0; i < 30; i++) EXPECT_TRUE(rig_.get("pre" + std::to_string(i)).has_value()) << i;
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(rig_.get("post" + std::to_string(i)).has_value()) << i;
    EXPECT_EQ(*rig_.get("post" + std::to_string(i)), 100u + i);
  }
}

TEST_F(EngineTest, MultipleCheckpointCyclesRotateSlots) {
  for (int round = 0; round < 5; round++) {
    for (int i = 0; i < 20; i++) rig_.put("r" + std::to_string(round) + "k" + std::to_string(i), i);
    ASSERT_TRUE(rig_.engine->checkpoint_now().is_ok()) << "round " << round;
  }
  EXPECT_EQ(rig_.engine->stats().checkpoints.load(), 5u);
  rig_.crash_and_recover();
  for (int round = 0; round < 5; round++) {
    for (int i = 0; i < 20; i++) {
      EXPECT_TRUE(rig_.get("r" + std::to_string(round) + "k" + std::to_string(i)).has_value());
    }
  }
}

TEST_F(EngineTest, CleanRestartPreservesEverything) {
  for (int i = 0; i < 40; i++) rig_.put("obj" + std::to_string(i), i * 2);
  ASSERT_TRUE(rig_.engine->checkpoint_now().is_ok());
  for (int i = 40; i < 60; i++) rig_.put("obj" + std::to_string(i), i * 2);
  rig_.restart();
  for (int i = 0; i < 60; i++) {
    ASSERT_TRUE(rig_.get("obj" + std::to_string(i)).has_value()) << i;
    EXPECT_EQ(*rig_.get("obj" + std::to_string(i)), (uint64_t)i * 2);
  }
}

TEST_F(EngineTest, RecoveryIsIdempotent) {
  for (int i = 0; i < 25; i++) rig_.put("x" + std::to_string(i), i);
  rig_.crash_and_recover();
  rig_.crash_and_recover();  // recover twice: §3.6 idempotency
  rig_.crash_and_recover();
  for (int i = 0; i < 25; i++) EXPECT_TRUE(rig_.get("x" + std::to_string(i)).has_value()) << i;
}

TEST_F(EngineTest, LogFullWithoutCheckpointerReportsBusy) {
  for (uint32_t i = 0; i < rig_.cfg.log_slots; i++) rig_.put("fill" + std::to_string(i), i);
  auto h = rig_.engine->append(OpType::kPut, Key::from("overflow"), 1, 0);
  ASSERT_FALSE(h.is_ok());
  EXPECT_EQ(h.status().code(), Code::kBusy);
  ASSERT_TRUE(rig_.engine->checkpoint_now().is_ok());
  rig_.put("overflow", 1);  // space available again
  EXPECT_TRUE(rig_.get("overflow").has_value());
}

TEST_F(EngineTest, InflightTrackingAndScanAgree) {
  Key k = Key::from("contested");
  EXPECT_EQ(rig_.engine->inflight_count(k), 0);
  EXPECT_FALSE(rig_.engine->scan_conflicting_write(k));
  auto h = rig_.engine->append(OpType::kPut, k, 1, 0);
  ASSERT_TRUE(h.is_ok());
  EXPECT_GT(rig_.engine->inflight_count(k), 0);
  EXPECT_TRUE(rig_.engine->scan_conflicting_write(k));
  EXPECT_EQ(rig_.engine->inflight_count(k), 1);
  rig_.engine->commit(h.value());
  EXPECT_EQ(rig_.engine->inflight_count(k), 0);
  EXPECT_FALSE(rig_.engine->scan_conflicting_write(k));
}

TEST_F(EngineTest, WaitNoInflightBlocksUntilCommit) {
  Key k = Key::from("waity");
  auto h = rig_.engine->append(OpType::kPut, k, 1, 0);
  ASSERT_TRUE(h.is_ok());
  std::atomic<bool> proceeded{false};
  std::thread waiter([&] {
    rig_.engine->wait_inflight_at_most(k, 0);
    proceeded = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(proceeded.load());
  rig_.engine->commit(h.value());
  waiter.join();
  EXPECT_TRUE(proceeded.load());
}

TEST_F(EngineTest, ObjectLocksConflictAndRelease) {
  Key k = Key::from("locked-obj");
  auto h = rig_.engine->lock_object(k);
  ASSERT_TRUE(h.is_ok());
  EXPECT_GT(rig_.engine->inflight_count(k), 0);
  EXPECT_EQ(rig_.engine->lock_object(k).status().code(), Code::kBusy);  // no recursion
  rig_.engine->unlock_object(h.value(), k);
  EXPECT_EQ(rig_.engine->inflight_count(k), 0);
  auto h2 = rig_.engine->lock_object(k);  // re-lockable
  ASSERT_TRUE(h2.is_ok());
  rig_.engine->unlock_object(h2.value(), k);
}

TEST_F(EngineTest, HeldLockSurvivesLogSwapAndUnlocksAfter) {
  Key k = Key::from("long-held");
  auto h = rig_.engine->lock_object(k);
  ASSERT_TRUE(h.is_ok());
  for (int i = 0; i < 30; i++) rig_.put("filler" + std::to_string(i), i);
  ASSERT_TRUE(rig_.engine->checkpoint_now().is_ok());  // swaps logs, moves the NOOP
  EXPECT_GT(rig_.engine->inflight_count(k), 0);  // still held
  rig_.engine->unlock_object(h.value(), k);
  EXPECT_EQ(rig_.engine->inflight_count(k), 0);
}

TEST_F(EngineTest, LocksDoNotSurviveCrash) {
  Key k = Key::from("ephemeral-lock");
  ASSERT_TRUE(rig_.engine->lock_object(k).is_ok());
  rig_.crash_and_recover();
  EXPECT_EQ(rig_.engine->inflight_count(k), 0);
  auto h = rig_.engine->lock_object(k);
  EXPECT_TRUE(h.is_ok());
  rig_.engine->unlock_object(h.value(), k);
}

TEST_F(EngineTest, RecoverRejectsMismatchedConfig) {
  rig_.put("a", 1);
  rig_.cfg.log_slots *= 2;
  EXPECT_EQ(rig_.recover().code(), Code::kInvalidArgument);
}

TEST_F(EngineTest, RecoverRejectsGarbagePool) {
  pmem::Pool garbage(Engine::required_pool_bytes(rig_.cfg), pmem::Pool::Mode::kDirect);
  std::memset(garbage.base(), 0x5a, 4096);
  Engine e(&garbage, &rig_.client, rig_.cfg);
  EXPECT_EQ(e.recover().code(), Code::kCorruption);
}

// ---- crash-at-every-checkpoint-phase sweep ---------------------------------

class CkptCrashPoint : public ::testing::TestWithParam<const char*> {};

TEST_P(CkptCrashPoint, StateConsistentAfterCrashDuringCheckpoint) {
  const char* crash_at = GetParam();
  EngineRig rig(small_cfg());
  if (std::string(crash_at) != "none") rig.engine->abort_checkpoints_at(crash_at);

  for (int i = 0; i < 20; i++) rig.put("warm" + std::to_string(i), i);
  for (int i = 0; i < 40; i++) rig.put("data" + std::to_string(i), i * 3);
  Status s = rig.engine->checkpoint_now();  // aborted at the configured point
  if (std::string(crash_at) != "none" && std::string(crash_at) != "ckpt:after_install") {
    // Pre-install abandons report failure; an after-install abandon only
    // skipped the archived-log recycling, so the checkpoint itself is ok.
    EXPECT_FALSE(s.is_ok());
  }

  ASSERT_NO_FATAL_FAILURE(rig.crash_and_recover());
  ASSERT_TRUE(rig.tree().validate().is_ok());
  for (int i = 0; i < 20; i++) {
    auto v = rig.get("warm" + std::to_string(i));
    ASSERT_TRUE(v.has_value()) << "warm" << i << " lost (crash at " << crash_at << ")";
    EXPECT_EQ(*v, (uint64_t)i);
  }
  for (int i = 0; i < 40; i++) {
    auto v = rig.get("data" + std::to_string(i));
    ASSERT_TRUE(v.has_value()) << "data" << i << " lost (crash at " << crash_at << ")";
    EXPECT_EQ(*v, (uint64_t)i * 3);
  }
}

INSTANTIATE_TEST_SUITE_P(Phases, CkptCrashPoint,
                         ::testing::Values("ckpt:after_swap", "ckpt:after_drain",
                                           "ckpt:after_replay", "ckpt:after_install", "none"));

// ---- randomized crash-consistency property test ----------------------------

TEST(EngineCrashProperty, RandomOpsCheckpointsCrashesMatchModel) {
  EngineConfig cfg = small_cfg();
  cfg.arena_bytes = 8 << 20;
  cfg.log_slots = 64;  // small: forces frequent checkpoints
  EngineRig rig(cfg);

  Rng rng(20260705);
  std::map<std::string, uint64_t> model;
  const int kRounds = 30;
  const int kOpsPerRound = 40;

  for (int round = 0; round < kRounds; round++) {
    for (int op = 0; op < kOpsPerRound; op++) {
      std::string name = "k" + std::to_string(rng.next_below(80));
      if (rig.engine->log_fill() > 0.8) {
        ASSERT_TRUE(rig.engine->checkpoint_now().is_ok());
      }
      if (rng.next_bool(0.7) || model.count(name) == 0) {
        uint64_t value = rng.next();
        ASSERT_NO_FATAL_FAILURE(rig.put(name, value));
        model[name] = value;
      } else {
        ASSERT_NO_FATAL_FAILURE(rig.del(name));
        model.erase(name);
      }
      // Adversary: spurious cache-line evictions at arbitrary times.
      if (rng.next_bool(0.2)) rig.pool->evict_random_lines(rng, 16);
    }
    // Periodically crash (sometimes mid-checkpoint) and recover.
    if (rng.next_bool(0.5)) {
      if (rng.next_bool(0.4)) {
        // Crash in the middle of a checkpoint.
        const char* points[] = {"ckpt:after_swap", "ckpt:after_drain", "ckpt:after_replay",
                                "ckpt:after_install"};
        const char* pt = points[rng.next_below(4)];
        (void)rig.engine->checkpoint_abandon_at(pt);
      }
      ASSERT_NO_FATAL_FAILURE(rig.crash_and_recover());
      // Verify full model equality (every committed op durable, nothing
      // extra, observational equivalence of the recovered state).
      BTree tree = rig.tree();
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
  EngineConfig cfg = small_cfg();
  cfg.log_slots = 64;
  cfg.checkpoint_threshold = 0.5;
  cfg.background_checkpointing = true;
  EngineRig rig(cfg, pmem::Pool::Mode::kDirect);
  // Push enough records to cross the threshold several times; background
  // checkpoints must absorb them without append ever failing.
  for (int i = 0; i < 500; i++) {
    ASSERT_NO_FATAL_FAILURE(rig.put("bg" + std::to_string(i), i)) << i;
  }
  rig.engine->stop_background();
  EXPECT_GT(rig.engine->stats().checkpoints.load(), 0u);
}

}  // namespace
}  // namespace dstore::dipper
