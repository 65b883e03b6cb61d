// Seed-parameterized property sweeps: each seed drives an independent
// random interleaving of operations, checkpoints, adversarial cache-line
// evictions, and crashes. Together with the per-phase crash tests these
// explore the protocol state space far beyond any hand-written scenario.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "dstore/dstore.h"

namespace dstore {
namespace {

struct SweepRig {
  DStoreConfig cfg;
  std::unique_ptr<pmem::Pool> pool;
  std::unique_ptr<ssd::RamBlockDevice> device;
  std::unique_ptr<DStore> store;
  ds_ctx_t* ctx = nullptr;

  explicit SweepRig(dipper::EngineConfig::CkptMode mode) {
    cfg.max_objects = 128;
    cfg.num_blocks = 1024;
    cfg.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(cfg.max_objects);
    cfg.engine.log_slots = 48;  // small: checkpoints happen constantly
    cfg.engine.background_checkpointing = false;
    cfg.engine.ckpt_mode = mode;
    pool = std::make_unique<pmem::Pool>(dipper::Engine::required_pool_bytes(cfg.engine),
                                        pmem::Pool::Mode::kCrashSim);
    ssd::DeviceConfig dc;
    dc.num_blocks = cfg.num_blocks;
    device = std::make_unique<ssd::RamBlockDevice>(dc);
    auto r = DStore::create(pool.get(), device.get(), cfg);
    EXPECT_TRUE(r.is_ok());
    store = std::move(r).value();
    ctx = store->ds_init();
  }

  ~SweepRig() {
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

using Model = std::map<std::string, std::pair<char, size_t>>;

void run_sweep(dipper::EngineConfig::CkptMode mode, uint64_t seed) {
  SweepRig rig(mode);
  Rng rng(seed);
  Model model;
  const char* points[] = {"ckpt:after_swap", "ckpt:after_drain", "ckpt:after_replay",
                          "ckpt:after_install", "ckpt:cow_mid_copy"};
  for (int round = 0; round < 10; round++) {
    for (int i = 0; i < 25; i++) {
      if (rig.store->engine().log_fill() > 0.7) {
        ASSERT_TRUE(rig.store->checkpoint_now().is_ok());
      }
      std::string name = "s" + std::to_string(rng.next_below(40));
      double dice = rng.next_double();
      if (dice < 0.55 || model.count(name) == 0) {
        char fill = (char)('a' + rng.next_below(26));
        size_t size = 1 + rng.next_below(9000);
        std::string v(size, fill);
        Status st = rig.store->oput(rig.ctx, name, v.data(), v.size());
        if (st.code() == Code::kOutOfSpace) continue;
        ASSERT_TRUE(st.is_ok()) << st.to_string();
        model[name] = {fill, size};
      } else if (dice < 0.8) {
        ASSERT_TRUE(rig.store->odelete(rig.ctx, name).is_ok());
        model.erase(name);
      } else {
        // Extend via the filesystem API: logged kWrite records interleave
        // with puts/deletes in the same log.
        auto obj = rig.store->oopen(rig.ctx, name, 0, kRead | kWrite);
        if (obj.is_ok()) {
          auto& mv = model[name];
          std::string patch(1 + rng.next_below(2000), mv.first);
          uint64_t off = mv.second;  // append
          auto w = rig.store->owrite(obj.value(), patch.data(), patch.size(), off);
          if (w.is_ok()) mv.second += patch.size();
          rig.store->oclose(obj.value());
        }
      }
      if (rng.next_bool(0.1)) rig.pool->evict_random_lines(rng, 24);
    }
    // Sometimes die inside a checkpoint first.
    if (rng.next_bool(0.4)) {
      const char* pt = points[rng.next_below(5)];
      (void)rig.store->engine().checkpoint_abandon_at(pt);
    }
    rig.crash_and_recover();
    ASSERT_TRUE(rig.store->validate().is_ok()) << "seed " << seed << " round " << round;
    ASSERT_EQ(rig.store->object_count(), model.size()) << "seed " << seed;
    std::string out;
    for (const auto& [name, sv] : model) {
      out.assign(sv.second, 0);
      auto r = rig.store->oget(rig.ctx, name, out.data(), out.size());
      ASSERT_TRUE(r.is_ok()) << name << " seed " << seed;
      ASSERT_EQ(r.value(), sv.second) << name;
      ASSERT_EQ(out[0], sv.first) << name;
      ASSERT_EQ(out[sv.second - 1], sv.first) << name;
    }
  }
}

class CrashSweepDipper : public ::testing::TestWithParam<uint64_t> {};
TEST_P(CrashSweepDipper, AckedStateAlwaysRecovered) {
  run_sweep(dipper::EngineConfig::CkptMode::kDipper, GetParam());
}
INSTANTIATE_TEST_SUITE_P(Seeds, CrashSweepDipper,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

class CrashSweepCow : public ::testing::TestWithParam<uint64_t> {};
TEST_P(CrashSweepCow, AckedStateAlwaysRecovered) {
  run_sweep(dipper::EngineConfig::CkptMode::kCow, GetParam());
}
INSTANTIATE_TEST_SUITE_P(Seeds, CrashSweepCow, ::testing::Values(4, 6, 9, 14, 22, 35));

}  // namespace
}  // namespace dstore
