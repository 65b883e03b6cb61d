// EngineRig — the engine-level counterpart of StoreRig (dstore/store_rig.h),
// and the one way the engine tests build, crash and recover a DIPPER
// Engine: a pmem::Pool sized by Engine::required_pool_bytes, a KvClient
// and the Engine on them.
//
//   EngineRig rig(cfg);              — fresh engine on a new pool
//   rig.put("a", 1); rig.get("a");   — the full frontend path
//   rig.crash_and_recover();         — power failure, then a new engine
//   rig.restart();                   — clean restart, no crash
//
// With a PersistChecker, the pool reports to it from before init_fresh
// until the engine is destroyed, so every engine operation is checked.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dipper/engine.h"
#include "ds/btree.h"
#include "pmem/persist_checker.h"
#include "pmem/pool.h"

namespace dstore::dipper {

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
  // Only committed records replay: a KvClient record carries no data to
  // check, and an aborted one left no trace in the frontend's tree.
  Status replay(SlabAllocator& space, std::span<const LogRecordView> records,
                std::vector<bool>* /*landed*/) override {
    BTree tree(space, OffPtr<BTree::Header>(space.user_root()));
    for (const auto& rec : records) {
      if (!rec.committed()) continue;
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

class EngineRig {
 public:
  explicit EngineRig(EngineConfig c, pmem::Pool::Mode mode = pmem::Pool::Mode::kCrashSim,
                     pmem::PersistChecker* checker = nullptr)
      : cfg(c),
        pool(std::make_unique<pmem::Pool>(Engine::required_pool_bytes(cfg), mode)),
        checker_(checker) {
    if (checker_ != nullptr) pool->attach_checker(checker_);
    engine = std::make_unique<Engine>(pool.get(), &client, cfg);
    Status s = engine->init_fresh();
    EXPECT_TRUE(s.is_ok()) << s.to_string();
  }
  ~EngineRig() {
    engine->stop_background();
    engine.reset();
    if (checker_ != nullptr) pool->detach_checker();
  }
  EngineRig(const EngineRig&) = delete;
  EngineRig& operator=(const EngineRig&) = delete;

  BTree tree() { return BTree(engine->space(), OffPtr<BTree::Header>(engine->space().user_root())); }

  // Apply a put through the full frontend path: append, mutate the
  // volatile space, commit.
  void put(const std::string& name, uint64_t value) {
    Key k = Key::from(name);
    auto h = engine->append(OpType::kPut, k, value, 0);
    ASSERT_TRUE(h.is_ok()) << h.status().to_string();
    ASSERT_TRUE(tree().upsert(k, value).is_ok());
    engine->commit(h.value());
  }

  void del(const std::string& name) {
    Key k = Key::from(name);
    auto h = engine->append(OpType::kDelete, k, 0, 0);
    ASSERT_TRUE(h.is_ok()) << h.status().to_string();
    (void)tree().erase(k);
    engine->commit(h.value());
  }

  std::optional<uint64_t> get(const std::string& name) { return tree().find(Key::from(name)); }

  // Drop the engine and recover a new one over the same pool under `cfg`.
  Status recover() {
    engine->stop_background();
    engine = std::make_unique<Engine>(pool.get(), &client, cfg);
    return engine->recover();
  }

  // Power failure: a kCrashSim pool reverts to its durable image.
  void crash_and_recover() {
    engine->stop_background();
    pool->crash();
    ASSERT_TRUE(recover().is_ok());
  }

  // Clean restart (no crash: everything committed is persistent anyway).
  void restart() { ASSERT_TRUE(recover().is_ok()); }

  EngineConfig cfg;
  KvClient client;
  std::unique_ptr<pmem::Pool> pool;
  std::unique_ptr<Engine> engine;

 private:
  pmem::PersistChecker* checker_;
};

}  // namespace dstore::dipper
