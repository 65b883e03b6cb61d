// Tests for the baseline systems (cached LSM, cached btree, uncached) and
// the DStore adapter: each must behave as a correct KV store, flush/
// checkpoint when its trigger fires, and recover from crashes with the
// archetype's expected phase profile (Table 4 shapes).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/cached_btree.h"
#include "baselines/cached_lsm.h"
#include "baselines/dstore_adapter.h"
#include "baselines/uncached.h"
#include "common/rng.h"

namespace dstore::baselines {
namespace {

using workload::KVStore;

// Factory wrappers so the conformance suite can sweep every system.
enum class System { kDStore, kDStoreCow, kLsm, kBtree, kUncached };

const char* system_name(System s) {
  switch (s) {
    case System::kDStore: return "DStore";
    case System::kDStoreCow: return "DStore-CoW";
    case System::kLsm: return "CachedLsm";
    case System::kBtree: return "CachedBtree";
    case System::kUncached: return "Uncached";
  }
  return "?";
}

std::unique_ptr<KVStore> make_store(System s) {
  LatencyModel none = LatencyModel::none();
  switch (s) {
    case System::kDStore: {
      auto cfg = DStoreAdapter::dipper_variant();
      cfg.store.max_objects = 4096;
      cfg.store.num_blocks = 16384;
      cfg.store.engine.log_slots = 1024;
      auto r = DStoreAdapter::make(cfg, none);
      EXPECT_TRUE(r.is_ok()) << r.status().to_string();
      return std::move(r).value();
    }
    case System::kDStoreCow: {
      auto cfg = DStoreAdapter::cow_variant();
      cfg.store.max_objects = 4096;
      cfg.store.num_blocks = 16384;
      cfg.store.engine.log_slots = 1024;
      auto r = DStoreAdapter::make(cfg, none);
      EXPECT_TRUE(r.is_ok()) << r.status().to_string();
      return std::move(r).value();
    }
    case System::kLsm: {
      CachedLsmConfig cfg;
      cfg.memtable_limit_bytes = 256 * 1024;  // frequent flushes in tests
      cfg.wal_bytes = 8 << 20;
      auto r = CachedLsmStore::make(cfg, none);
      EXPECT_TRUE(r.is_ok()) << r.status().to_string();
      return std::move(r).value();
    }
    case System::kBtree: {
      CachedBtreeConfig cfg;
      cfg.checkpoint_trigger_bytes = 256 * 1024;
      cfg.journal_bytes = 8 << 20;
      auto r = CachedBtreeStore::make(cfg, none);
      EXPECT_TRUE(r.is_ok()) << r.status().to_string();
      return std::move(r).value();
    }
    case System::kUncached: {
      UncachedConfig cfg;
      cfg.num_slots = 8192;
      auto r = UncachedStore::make(cfg, none);
      EXPECT_TRUE(r.is_ok()) << r.status().to_string();
      return std::move(r).value();
    }
  }
  return nullptr;
}

class StoreConformance : public ::testing::TestWithParam<System> {};

TEST_P(StoreConformance, PutGetDeleteRoundTrip) {
  auto store = make_store(GetParam());
  void* ctx = store->open_ctx();
  std::string v(4096, 'p');
  ASSERT_TRUE(store->put(ctx, "key1", v.data(), v.size()).is_ok());
  std::string out(4096, 0);
  auto r = store->get(ctx, "key1", out.data(), out.size());
  ASSERT_TRUE(r.is_ok()) << system_name(GetParam());
  EXPECT_EQ(r.value(), 4096u);
  EXPECT_EQ(out, v);
  ASSERT_TRUE(store->del(ctx, "key1").is_ok());
  EXPECT_EQ(store->get(ctx, "key1", out.data(), out.size()).status().code(), Code::kNotFound);
  store->close_ctx(ctx);
}

TEST_P(StoreConformance, OverwriteReturnsLatest) {
  auto store = make_store(GetParam());
  void* ctx = store->open_ctx();
  std::string v1(4096, '1'), v2(2048, '2');
  ASSERT_TRUE(store->put(ctx, "k", v1.data(), v1.size()).is_ok());
  ASSERT_TRUE(store->put(ctx, "k", v2.data(), v2.size()).is_ok());
  std::string out(4096, 0);
  auto r = store->get(ctx, "k", out.data(), out.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 2048u);
  EXPECT_EQ(out.substr(0, 2048), v2);
  store->close_ctx(ctx);
}

TEST_P(StoreConformance, ManyKeysWithChurnMatchModel) {
  auto store = make_store(GetParam());
  void* ctx = store->open_ctx();
  Rng rng(5);
  std::map<std::string, char> model;
  std::string out(8192, 0);
  for (int i = 0; i < 1500; i++) {
    std::string key = "obj" + std::to_string(rng.next_below(120));
    if (rng.next_bool(0.7) || model.count(key) == 0) {
      char seed = (char)('a' + rng.next_below(26));
      std::string v(4096, seed);
      ASSERT_TRUE(store->put(ctx, key, v.data(), v.size()).is_ok())
          << system_name(GetParam()) << " op " << i;
      model[key] = seed;
    } else {
      ASSERT_TRUE(store->del(ctx, key).is_ok());
      model.erase(key);
    }
  }
  for (const auto& [key, seed] : model) {
    auto r = store->get(ctx, key, out.data(), out.size());
    ASSERT_TRUE(r.is_ok()) << system_name(GetParam()) << " " << key;
    EXPECT_EQ(out[0], seed) << key;
    EXPECT_EQ(out[4095], seed) << key;
  }
  store->close_ctx(ctx);
}

TEST_P(StoreConformance, StateSurvivesCrashAndRecover) {
  auto store = make_store(GetParam());
  void* ctx = store->open_ctx();
  std::map<std::string, char> model;
  for (int i = 0; i < 400; i++) {
    char seed = (char)('a' + i % 26);
    std::string v(4096, seed);
    std::string key = "persist" + std::to_string(i);
    ASSERT_TRUE(store->put(ctx, key, v.data(), v.size()).is_ok()) << i;
    model[key] = seed;
  }
  store->close_ctx(ctx);
  auto timing = store->crash_and_recover();
  ASSERT_TRUE(timing.is_ok()) << system_name(GetParam()) << ": "
                              << timing.status().to_string();
  ctx = store->open_ctx();
  std::string out(4096, 0);
  for (const auto& [key, seed] : model) {
    auto r = store->get(ctx, key, out.data(), out.size());
    ASSERT_TRUE(r.is_ok()) << system_name(GetParam()) << " lost " << key;
    EXPECT_EQ(out[0], seed);
  }
  store->close_ctx(ctx);
}

TEST_P(StoreConformance, SpaceUsageNonTrivial) {
  auto store = make_store(GetParam());
  void* ctx = store->open_ctx();
  std::string v(4096, 's');
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(store->put(ctx, "sp" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  auto u = store->space_usage();
  EXPECT_GT(u.total(), 100u * 4096) << system_name(GetParam());
  store->close_ctx(ctx);
}

INSTANTIATE_TEST_SUITE_P(Systems, StoreConformance,
                         ::testing::Values(System::kDStore, System::kDStoreCow, System::kLsm,
                                           System::kBtree, System::kUncached),
                         [](const auto& info) {
                           std::string n = system_name(info.param);
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

// ---- archetype-specific behaviours ------------------------------------------

TEST(CachedLsm, FlushTriggersOnMemtableLimit) {
  CachedLsmConfig cfg;
  cfg.memtable_limit_bytes = 64 * 1024;
  auto store = CachedLsmStore::make(cfg, LatencyModel::none());
  ASSERT_TRUE(store.is_ok());
  std::string v(4096, 'f');
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(store.value()->put(nullptr, "k" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  EXPECT_GT(store.value()->flush_count(), 0u);
  // Flushed values still readable (from SSD runs).
  std::string out(4096, 0);
  auto r = store.value()->get(nullptr, "k0", out.data(), out.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(out, v);
}

TEST(CachedLsm, CompactionMergesRuns) {
  CachedLsmConfig cfg;
  cfg.memtable_limit_bytes = 32 * 1024;
  cfg.compaction_trigger_runs = 3;
  auto store = CachedLsmStore::make(cfg, LatencyModel::none());
  ASSERT_TRUE(store.is_ok());
  std::string v(4096, 'c');
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(store.value()
                    ->put(nullptr, "k" + std::to_string(i % 50), v.data(), v.size())
                    .is_ok());
  }
  // Give the background compactor a chance.
  for (int spin = 0; spin < 100 && store.value()->compaction_count() == 0; spin++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(store.value()->compaction_count(), 0u);
  std::string out(4096, 0);
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(store.value()->get(nullptr, "k" + std::to_string(i), out.data(), out.size())
                    .is_ok())
        << i;
  }
}

// Overwrite churn must not exhaust the SSD: compaction frees every block of
// its input runs (shadowed versions included), so with blocks = 6x the live
// set the store keeps accepting puts indefinitely.
TEST(CachedLsm, OverwriteChurnNeverExhaustsBlocks) {
  constexpr int kKeys = 2000;
  constexpr int kPuts = 200000;  // about a dozen WAL-full flushes
  // The default trigger lets background compaction keep up; the second
  // input never reaches it, so only the writers' stalls compact (the case
  // a background thread starved of CPU degrades to).
  for (int trigger_runs : {CachedLsmConfig{}.compaction_trigger_runs, 1000}) {
    SCOPED_TRACE("compaction_trigger_runs=" + std::to_string(trigger_runs));
    CachedLsmConfig cfg;
    cfg.num_blocks = 6 * kKeys;
    cfg.stack_overhead_ns = 0;
    cfg.compaction_trigger_runs = trigger_runs;
    auto store = CachedLsmStore::make(cfg, LatencyModel::none());
    ASSERT_TRUE(store.is_ok());
    CachedLsmStore& lsm = *store.value();
    std::string v(4096, 'o');
    int failed = 0;
    for (int i = 0; i < kPuts; i++) {
      std::memcpy(v.data(), &i, sizeof(i));
      if (!lsm.put(nullptr, "k" + std::to_string(i % kKeys), v.data(), v.size()).is_ok()) failed++;
    }
    EXPECT_EQ(failed, 0);
    EXPECT_GT(lsm.compaction_count(), 0u);

    // Flushed and fully compacted, the store holds exactly one block per key.
    lsm.prepare_run();
    EXPECT_EQ(lsm.space_usage().ssd_bytes, (uint64_t)kKeys * 4096);
    std::string out(4096, 0);
    for (int k = 0; k < kKeys; k += 97) {
      ASSERT_TRUE(lsm.get(nullptr, "k" + std::to_string(k), out.data(), out.size()).is_ok()) << k;
      int last = kPuts - kKeys + k;  // the final put of key k
      EXPECT_EQ(std::memcmp(out.data(), &last, sizeof(last)), 0) << k;
    }
  }
}

// Two writers against a WAL that fills every few puts: one writer's flush
// (memtable to a run, then WAL reset) must never land between the other's
// WAL append and its memtable insert, or that acked put is in neither the
// WAL nor a run and a crash loses it.
TEST(CachedLsm, ConcurrentWalFullFlushesLoseNoAckedPut) {
  constexpr int kRounds = 50;
  constexpr int kPutsPerWriter = 64;
  constexpr size_t kValue = 100;
  CachedLsmConfig cfg;
  cfg.wal_bytes = 4 * 128;  // a WAL record is 128 B here: full every 4 puts
  cfg.num_blocks = 2 * kRounds * kPutsPerWriter + 64;
  cfg.stack_overhead_ns = 0;
  auto store = CachedLsmStore::make(cfg, LatencyModel::none());
  ASSERT_TRUE(store.is_ok());
  CachedLsmStore& lsm = *store.value();
  auto key = [](int round, int writer, int i) {
    return "r" + std::to_string(round) + "w" + std::to_string(writer) + "-" + std::to_string(i);
  };
  int lost = 0;
  for (int round = 0; round < kRounds; round++) {
    std::vector<std::vector<bool>> acked(2, std::vector<bool>(kPutsPerWriter, false));
    std::vector<std::thread> writers;
    for (int w = 0; w < 2; w++) {
      writers.emplace_back([&, w] {
        std::string v(kValue, (char)('a' + w));
        for (int i = 0; i < kPutsPerWriter; i++) {
          acked[w][i] = lsm.put(nullptr, key(round, w, i), v.data(), v.size()).is_ok();
        }
      });
    }
    for (auto& t : writers) t.join();
    ASSERT_TRUE(lsm.crash_and_recover().is_ok());
    std::string out(kValue, 0);
    for (int w = 0; w < 2; w++) {
      for (int i = 0; i < kPutsPerWriter; i++) {
        if (acked[w][i] && !lsm.get(nullptr, key(round, w, i), out.data(), out.size()).is_ok()) {
          lost++;
        }
      }
    }
  }
  EXPECT_EQ(lost, 0);
}

TEST(CachedLsm, DisablingCheckpointsStopsFlushes) {
  CachedLsmConfig cfg;
  cfg.memtable_limit_bytes = 32 * 1024;
  auto store = CachedLsmStore::make(cfg, LatencyModel::none());
  ASSERT_TRUE(store.is_ok());
  store.value()->set_checkpoints_enabled(false);
  std::string v(4096, 'x');
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(store.value()->put(nullptr, "n" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  EXPECT_EQ(store.value()->flush_count(), 0u);
}

TEST(CachedBtree, CheckpointTriggersOnJournalSize) {
  CachedBtreeConfig cfg;
  cfg.checkpoint_trigger_bytes = 64 * 1024;
  auto store = CachedBtreeStore::make(cfg, LatencyModel::none());
  ASSERT_TRUE(store.is_ok());
  std::string v(4096, 'j');
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(store.value()->put(nullptr, "k" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  EXPECT_GT(store.value()->checkpoint_count(), 0u);
}

TEST(CachedBtree, RecoveryUsesCatalogAndJournal) {
  CachedBtreeConfig cfg;
  cfg.checkpoint_trigger_bytes = 64 * 1024;
  auto store = CachedBtreeStore::make(cfg, LatencyModel::none());
  ASSERT_TRUE(store.is_ok());
  std::string v(4096, 'r');
  // Enough to checkpoint at least once, plus journal-only tail writes.
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(store.value()->put(nullptr, "ck" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  auto t = store.value()->crash_and_recover();
  ASSERT_TRUE(t.is_ok());
  std::string out(4096, 0);
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(
        store.value()->get(nullptr, "ck" + std::to_string(i), out.data(), out.size()).is_ok())
        << i;
    EXPECT_EQ(out, v);
  }
}

TEST(Uncached, RecoveryHasNoReplayPhase) {
  UncachedConfig cfg;
  auto store = UncachedStore::make(cfg, LatencyModel::none());
  ASSERT_TRUE(store.is_ok());
  std::string v(4096, 'u');
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(store.value()->put(nullptr, "s" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  auto t = store.value()->crash_and_recover();
  ASSERT_TRUE(t.is_ok());
  EXPECT_EQ(t.value().replay_ms, 0.0);  // inline persistence: nothing to replay
}

TEST(Uncached, OversizeValueRejected) {
  UncachedConfig cfg;
  cfg.slot_bytes = 4096;
  auto store = UncachedStore::make(cfg, LatencyModel::none());
  ASSERT_TRUE(store.is_ok());
  std::string v(8192, 'o');
  EXPECT_EQ(store.value()->put(nullptr, "big", v.data(), v.size()).code(),
            Code::kInvalidArgument);
}

TEST(Uncached, SlotReuseAfterOverwrite) {
  UncachedConfig cfg;
  cfg.num_slots = 4;
  auto store = UncachedStore::make(cfg, LatencyModel::none());
  ASSERT_TRUE(store.is_ok());
  std::string v(1024, 'z');
  // 8 overwrites of the same key need only 2 slots (new + old per op).
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(store.value()->put(nullptr, "same", v.data(), v.size()).is_ok()) << i;
  }
  // Distinct keys exhaust slots eventually.
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(store.value()->put(nullptr, "k" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  EXPECT_EQ(store.value()->put(nullptr, "one-more", v.data(), v.size()).code(),
            Code::kOutOfSpace);
}

TEST(DStoreVariants, AblationFactoriesDiffer) {
  EXPECT_TRUE(DStoreAdapter::dipper_variant().store.observational_equivalence);
  EXPECT_FALSE(DStoreAdapter::no_oe_variant().store.observational_equivalence);
  EXPECT_EQ(DStoreAdapter::cow_variant().store.engine.ckpt_mode,
            dipper::EngineConfig::CkptMode::kCow);
  EXPECT_TRUE(DStoreAdapter::naive_physical_variant().store.engine.physical_logging);
  EXPECT_FALSE(DStoreAdapter::logical_cow_variant().store.engine.physical_logging);
}

}  // namespace
}  // namespace dstore::baselines
