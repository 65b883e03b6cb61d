// Fence/flush budget harness (DESIGN.md §13): pins the EXACT per-operation
// PMEM ordering cost of the hot paths. These are equality assertions on
// purpose — a regression that adds a fence or a flushed line to put/get/
// delete is a performance bug this suite turns into a test failure, the
// same way the CI fence-budget step diffs bench/results/
// BENCH_persist_budget.json.
//
// The budget model (single-fence publication, log.h):
//   put/delete  record publication: 2 slot lines, ONE flush train, 1 fence
//               commit:             1 flags line (clwb RMW),       1 fence
//               => 3 flushed lines / 2 fences per op
//   with nt stores: the 2 publication lines go through flush_nt instead
//               => 1 flushed line + 2 nt lines / 2 fences per op
//   get         reads only — 0 lines / 0 fences
//   checkpoint  2 root-state line persists (swap + install) fence-wise;
//               everything else rides the two persist_bulk passes
//               => 2 flushed lines / 2 fences on the calling thread
//
// Budgets are measured with Pool::thread_io_counts() — monotone per-thread
// counters — so concurrent background work cannot pollute a sample.
// persist_bulk charges the global stats only; the physical-logging test
// covers it through stats().fences.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "dstore/dstore.h"
#include "fault/crash_rig.h"

namespace dstore {
namespace {

using fault::StoreRig;

DStoreConfig budget_cfg(bool nt_stores, bool repair_logging = false) {
  DStoreConfig cfg;
  cfg.max_objects = 256;
  cfg.num_blocks = 1024;
  cfg.repair_logging = repair_logging;
  cfg.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(256);
  cfg.engine.log_slots = 128;
  cfg.engine.background_checkpointing = false;  // budgets on this thread
  cfg.engine.nt_stores = nt_stores;  // explicit: independent of DSTORE_PMEM_NT
  return cfg;
}

struct Delta {
  uint64_t flushes;
  uint64_t fences;
  uint64_t nt_lines;
};

// The calling thread's PMEM flushes, fences and nt lines across fn().
template <typename Fn>
Delta measure(StoreRig& t, Fn&& fn) {
  pmem::Pool::ThreadIoCounts before = t.pool->thread_io_counts();
  fn();
  pmem::Pool::ThreadIoCounts after = t.pool->thread_io_counts();
  return {after.flushes - before.flushes, after.fences - before.fences,
          after.nt_lines - before.nt_lines};
}

std::string value(size_t n, char c) { return std::string(n, c); }

TEST(PersistBudget, PutIsThreeLinesTwoFences) {
  StoreRig t(budget_cfg(/*nt_stores=*/false));
  std::string v = value(4096, 'p');
  // Insert and overwrite pay the identical budget: the log protocol does
  // not distinguish them.
  for (int i = 0; i < 3; i++) {
    auto d = measure(t, [&] {
      ASSERT_TRUE(t.store->oput(t.ctx, "obj", v.data(), v.size()).is_ok());
    });
    EXPECT_EQ(d.flushes, 3u) << "put flushed-line budget (iteration " << i << ")";
    EXPECT_EQ(d.fences, 2u) << "put fence budget (iteration " << i << ")";
    EXPECT_EQ(d.nt_lines, 0u);
  }
}

TEST(PersistBudget, PutWithNtStoresMovesPublicationOffTheCache) {
  StoreRig t(budget_cfg(/*nt_stores=*/true));
  std::string v = value(4096, 'n');
  for (int i = 0; i < 3; i++) {
    auto d = measure(t, [&] {
      ASSERT_TRUE(t.store->oput(t.ctx, "obj", v.data(), v.size()).is_ok());
    });
    // Publication (2 slot lines) streams non-temporally; the commit flag is
    // a read-modify-write of a live line and must stay on the clwb path.
    EXPECT_EQ(d.nt_lines, 2u) << "nt publication lines (iteration " << i << ")";
    EXPECT_EQ(d.flushes, 1u) << "commit stays clwb (iteration " << i << ")";
    EXPECT_EQ(d.fences, 2u) << "fence budget is unchanged by nt (iteration " << i << ")";
  }
}

TEST(PersistBudget, DeleteMatchesPutBudget) {
  StoreRig t(budget_cfg(/*nt_stores=*/false));
  std::string v = value(512, 'd');
  ASSERT_TRUE(t.store->oput(t.ctx, "obj", v.data(), v.size()).is_ok());
  auto d = measure(t, [&] { ASSERT_TRUE(t.store->odelete(t.ctx, "obj").is_ok()); });
  EXPECT_EQ(d.flushes, 3u);
  EXPECT_EQ(d.fences, 2u);
  EXPECT_EQ(d.nt_lines, 0u);
}

TEST(PersistBudget, GetIsFree) {
  StoreRig t(budget_cfg(/*nt_stores=*/false));
  std::string v = value(8192, 'g');
  ASSERT_TRUE(t.store->oput(t.ctx, "obj", v.data(), v.size()).is_ok());
  std::string out(8192, 0);
  auto d = measure(t, [&] {
    auto r = t.store->oget(t.ctx, "obj", out.data(), out.size());
    ASSERT_TRUE(r.is_ok());
  });
  EXPECT_EQ(d.flushes, 0u);
  EXPECT_EQ(d.fences, 0u);
  EXPECT_EQ(d.nt_lines, 0u);
  // The zero-copy path is read-only on PMEM too.
  auto dz = measure(t, [&] { ASSERT_TRUE(t.store->oget_zc(t.ctx, "obj").is_ok()); });
  EXPECT_EQ(dz.flushes, 0u);
  EXPECT_EQ(dz.fences, 0u);
}

TEST(PersistBudget, CheckpointFencesTwiceOnTopOfBulkPasses) {
  StoreRig t(budget_cfg(/*nt_stores=*/false));
  std::string v = value(4096, 'c');
  for (int i = 0; i < 8; i++) {
    std::string name = "obj" + std::to_string(i);
    ASSERT_TRUE(t.store->oput(t.ctx, name, v.data(), v.size()).is_ok());
  }
  auto d = measure(t, [&] { ASSERT_TRUE(t.store->checkpoint_now().is_ok()); });
  // Two root-state line persists — log swap and install — are the only
  // per-line ordering points; replay durability rides the bulk passes.
  EXPECT_EQ(d.flushes, 2u);
  EXPECT_EQ(d.fences, 2u);
  EXPECT_EQ(d.nt_lines, 0u);
}

TEST(PersistBudget, PhysicalLoggingAddsOneBulkPassPerPut) {
  StoreRig t(budget_cfg(/*nt_stores=*/false, /*repair_logging=*/true));
  std::string v = value(2048, 'b');
  ASSERT_TRUE(t.store->oput(t.ctx, "warm", v.data(), v.size()).is_ok());
  uint64_t fences0 = t.pool->stats().fences.load(std::memory_order_relaxed);
  auto d = measure(t, [&] {
    ASSERT_TRUE(t.store->oput(t.ctx, "obj", v.data(), v.size()).is_ok());
  });
  uint64_t fences1 = t.pool->stats().fences.load(std::memory_order_relaxed);
  // Per-line budget is unchanged; the payload copy is exactly one
  // persist_bulk (global fence accounting: 2 thread fences + 1 bulk).
  EXPECT_EQ(d.flushes, 3u);
  EXPECT_EQ(d.fences, 2u);
  EXPECT_EQ(fences1 - fences0, 3u);
}

// Split puts (oput_begin ... finish) interleaved on one thread: each op's
// sampled per-op histograms must record exactly a put's own budget, not
// its neighbour's log-record persist, whichever of the two finishes first.
// 32 consecutive traces per order, so exactly two of them are sampled.
TEST(PersistBudget, InterleavedSplitPutsEachRecordTheSequentialBudget) {
  StoreRig t(budget_cfg(/*nt_stores=*/false));
  std::string v = value(4096, 's');
#if !defined(DSTORE_METRICS_DISABLED)
  obs::Histogram* flushes = t.store->metrics().find_histogram("dstore_put_flushes_per_op");
  obs::Histogram* fences = t.store->metrics().find_histogram("dstore_put_fences_per_op");
  ASSERT_NE(flushes, nullptr);
  ASSERT_NE(fences, nullptr);
#endif
  for (bool a_first : {true, false}) {
#if !defined(DSTORE_METRICS_DISABLED)
    const uint64_t n0 = flushes->count(), flush0 = flushes->sum(), fence0 = fences->sum();
#endif
    for (uint32_t round = 0; round < obs::OpTrace::kSampleEvery; round++) {
      auto d = measure(t, [&] {
        auto a = t.store->oput_begin(t.ctx, "a", v.data(), v.size(), /*wait=*/false);
        auto b = t.store->oput_begin(t.ctx, "b", v.data(), v.size(), /*wait=*/false);
        ASSERT_TRUE(a.is_ok()) << a.status().to_string();
        ASSERT_TRUE(b.is_ok()) << b.status().to_string();
        EXPECT_TRUE((a_first ? a : b).value()->finish().is_ok());
        EXPECT_TRUE((a_first ? b : a).value()->finish().is_ok());
      });
      // Together, exactly two sequential puts' worth.
      EXPECT_EQ(d.flushes, 6u) << "round " << round;
      EXPECT_EQ(d.fences, 4u) << "round " << round;
    }
#if !defined(DSTORE_METRICS_DISABLED)
    const uint64_t sampled = flushes->count() - n0;
    EXPECT_EQ(sampled, 2u) << (a_first ? "a finished first" : "b finished first");
    EXPECT_EQ(flushes->sum() - flush0, 3 * sampled) << "a sampled put charged another's flushes";
    EXPECT_EQ(fences->sum() - fence0, 2 * sampled) << "a sampled put charged another's fences";
#endif
  }
}

}  // namespace
}  // namespace dstore
