// CoW-checkpoint-mode engine tests: mprotect faulting, writer-assisted
// copies, checkpoint correctness under concurrent mutation, and recovery.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "common/rng.h"
#include "dipper/engine.h"
#include "ds/btree.h"

namespace dstore::dipper {
namespace {

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

EngineConfig cow_cfg() {
  EngineConfig cfg;
  cfg.arena_bytes = 4 << 20;
  cfg.log_slots = 256;
  cfg.background_checkpointing = false;
  cfg.ckpt_mode = EngineConfig::CkptMode::kCow;
  return cfg;
}

struct CowRig {
  KvClient client;
  EngineConfig cfg;
  std::unique_ptr<pmem::Pool> pool;
  std::unique_ptr<Engine> engine;

  explicit CowRig(EngineConfig c = cow_cfg()) : cfg(c) {
    pool = std::make_unique<pmem::Pool>(Engine::required_pool_bytes(cfg),
                                        pmem::Pool::Mode::kCrashSim);
    engine = std::make_unique<Engine>(pool.get(), &client, cfg);
    EXPECT_TRUE(engine->init_fresh().is_ok());
  }

  void put(const std::string& name, uint64_t value) {
    Key k = Key::from(name);
    auto h = engine->append(OpType::kPut, k, value, 0);
    ASSERT_TRUE(h.is_ok());
    BTree tree(engine->space(), OffPtr<BTree::Header>(engine->space().user_root()));
    ASSERT_TRUE(tree.upsert(k, value).is_ok());
    engine->commit(h.value());
  }

  std::optional<uint64_t> get(const std::string& name) {
    BTree tree(engine->space(), OffPtr<BTree::Header>(engine->space().user_root()));
    return tree.find(Key::from(name));
  }

  void crash_and_recover() {
    engine->stop_background();
    pool->crash();
    engine = std::make_unique<Engine>(pool.get(), &client, cfg);
    ASSERT_TRUE(engine->recover().is_ok());
  }
};

TEST(EngineCow, CheckpointPreservesState) {
  CowRig rig;
  for (int i = 0; i < 60; i++) rig.put("cow" + std::to_string(i), i);
  ASSERT_TRUE(rig.engine->checkpoint_now().is_ok());
  for (int i = 0; i < 60; i++) {
    ASSERT_TRUE(rig.get("cow" + std::to_string(i)).has_value()) << i;
  }
  // Writes after the checkpoint still work (arena is unprotected again).
  rig.put("after", 99);
  EXPECT_EQ(*rig.get("after"), 99u);
}

TEST(EngineCow, CrashAfterCheckpointRecovers) {
  CowRig rig;
  for (int i = 0; i < 40; i++) rig.put("a" + std::to_string(i), i);
  ASSERT_TRUE(rig.engine->checkpoint_now().is_ok());
  for (int i = 0; i < 30; i++) rig.put("b" + std::to_string(i), 100 + i);
  rig.crash_and_recover();
  for (int i = 0; i < 40; i++) ASSERT_TRUE(rig.get("a" + std::to_string(i)).has_value());
  for (int i = 0; i < 30; i++) {
    auto v = rig.get("b" + std::to_string(i));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 100u + i);
  }
}

TEST(EngineCow, WriterDuringCheckpointTriggersFaultCopies) {
  // Run the checkpoint on a background thread while a writer mutates the
  // arena: the writer must fault, copy pages, and proceed.
  EngineConfig cfg = cow_cfg();
  cfg.log_slots = 4096;
  CowRig rig(cfg);
  for (int i = 0; i < 500; i++) rig.put("warm" + std::to_string(i), i);

  std::atomic<bool> ckpt_done{false};
  std::thread ckpt([&] {
    ASSERT_TRUE(rig.engine->checkpoint_now().is_ok());
    ckpt_done = true;
  });
  // Concurrent writes racing the copier.
  for (int i = 0; i < 500; i++) rig.put("during" + std::to_string(i), i);
  ckpt.join();
  ASSERT_TRUE(ckpt_done.load());
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(rig.get("warm" + std::to_string(i)).has_value()) << i;
    ASSERT_TRUE(rig.get("during" + std::to_string(i)).has_value()) << i;
  }
  // At least some of the concurrent writes should have assisted via faults
  // (not guaranteed for every run, but the counter must be consistent).
  EXPECT_GE(rig.engine->stats().cow_page_faults.load(), 0u);
}

TEST(EngineCow, CrashMidCopyRecoversFromOldCopy) {
  CowRig rig(cow_cfg());
  for (int i = 0; i < 80; i++) rig.put("x" + std::to_string(i), i * 7);
  EXPECT_FALSE(rig.engine->checkpoint_abandon_at("ckpt:cow_mid_copy").is_ok());  // dies mid-copy
  rig.crash_and_recover();
  for (int i = 0; i < 80; i++) {
    auto v = rig.get("x" + std::to_string(i));
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, (uint64_t)i * 7);
  }
  // And the system must be able to checkpoint + operate normally again.
  rig.put("post-recovery", 1);
  ASSERT_TRUE(rig.engine->checkpoint_now().is_ok());
  EXPECT_TRUE(rig.get("post-recovery").has_value());
}

TEST(EngineCow, RepeatedCheckpointCyclesStayConsistent) {
  EngineConfig cfg = cow_cfg();
  CowRig rig(cfg);
  Rng rng(31);
  std::map<std::string, uint64_t> model;
  for (int round = 0; round < 8; round++) {
    for (int i = 0; i < 60; i++) {
      std::string name = "k" + std::to_string(rng.next_below(100));
      uint64_t v = rng.next();
      rig.put(name, v);
      model[name] = v;
    }
    ASSERT_TRUE(rig.engine->checkpoint_now().is_ok()) << round;
  }
  rig.crash_and_recover();
  BTree tree(rig.engine->space(), OffPtr<BTree::Header>(rig.engine->space().user_root()));
  ASSERT_TRUE(tree.validate().is_ok());
  EXPECT_EQ(tree.size(), model.size());
  for (const auto& [name, v] : model) {
    auto got = tree.find(Key::from(name));
    ASSERT_TRUE(got.has_value()) << name;
    EXPECT_EQ(*got, v);
  }
}

}  // namespace
}  // namespace dstore::dipper
