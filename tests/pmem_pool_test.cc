// Tests for the emulated PMEM pool: flush/fence semantics, crash
// simulation, spurious evictions, bulk persistence, stats.
#include <gtest/gtest.h>

#include <cstring>

#include <filesystem>

#include "common/rng.h"
#include "pmem/pool.h"

namespace dstore::pmem {
namespace {

TEST(PmemPool, DirectModeBasics) {
  Pool p(1 << 20, Pool::Mode::kDirect);
  ASSERT_NE(p.base(), nullptr);
  EXPECT_GE(p.size(), (size_t)1 << 20);
  std::memset(p.base(), 0xab, 128);
  p.persist(p.base(), 128);
  EXPECT_TRUE(p.is_persisted(p.base(), 128));  // trivially true in direct mode
}

TEST(PmemPool, UnflushedDataLostOnCrash) {
  Pool p(1 << 20, Pool::Mode::kCrashSim);
  char* base = p.base();
  std::memset(base, 0x55, 256);
  // No flush: a crash reverts to zeros.
  p.crash();
  for (int i = 0; i < 256; i++) EXPECT_EQ(base[i], 0) << "byte " << i;
}

TEST(PmemPool, FlushWithoutFenceNotDurable) {
  Pool p(1 << 20, Pool::Mode::kCrashSim);
  char* base = p.base();
  std::memset(base, 0x66, 64);
  p.flush(base, 64);
  // clwb issued but no sfence: staged lines must not be in the image yet.
  EXPECT_FALSE(p.is_persisted(base, 64));
  p.crash();
  EXPECT_EQ(base[0], 0);
}

TEST(PmemPool, PersistSurvivesCrash) {
  Pool p(1 << 20, Pool::Mode::kCrashSim);
  char* base = p.base();
  std::memset(base, 0x77, 300);
  p.persist(base, 300);
  std::memset(base + 4096, 0x11, 64);  // unflushed tail
  p.crash();
  for (int i = 0; i < 300; i++) EXPECT_EQ((unsigned char)base[i], 0x77u);
  EXPECT_EQ(base[4096], 0);
}

TEST(PmemPool, PersistIsCacheLineGranular) {
  Pool p(1 << 20, Pool::Mode::kCrashSim);
  char* base = p.base();
  std::memset(base, 0x22, 128);
  // Persisting byte 0 persists its whole line — and only its line.
  p.persist(base, 1);
  p.crash();
  EXPECT_EQ((unsigned char)base[0], 0x22u);
  EXPECT_EQ((unsigned char)base[63], 0x22u);
  EXPECT_EQ(base[64], 0);
}

TEST(PmemPool, PersistBulkSurvivesCrash) {
  Pool p(1 << 20, Pool::Mode::kCrashSim);
  char* base = p.base();
  std::memset(base, 0x33, 64 * 1024);
  p.persist_bulk(base, 64 * 1024);
  p.crash();
  EXPECT_EQ((unsigned char)base[0], 0x33u);
  EXPECT_EQ((unsigned char)base[64 * 1024 - 1], 0x33u);
}

TEST(PmemPool, SpuriousEvictionPersistsWrittenLines) {
  // The adversary: hardware may evict any written line before it is
  // explicitly flushed. Persistence protocols must stay correct anyway.
  Pool p(1 << 16, Pool::Mode::kCrashSim);
  char* base = p.base();
  std::memset(base, 0x44, p.size());
  Rng rng(9);
  p.evict_random_lines(rng, 10000);  // with 1024 lines, all get evicted whp
  p.crash();
  int persisted = 0;
  for (size_t i = 0; i < p.size(); i += 64) persisted += ((unsigned char)base[i] == 0x44u);
  EXPECT_GT(persisted, 900);  // nearly all lines were evicted-persisted
}

TEST(PmemPool, CrashIsRepeatable) {
  Pool p(1 << 20, Pool::Mode::kCrashSim);
  char* base = p.base();
  std::memset(base, 0x12, 64);
  p.persist(base, 64);
  std::memset(base, 0x99, 64);  // overwrite, unflushed
  p.crash();
  EXPECT_EQ((unsigned char)base[0], 0x12u);
  std::memset(base, 0xaa, 64);  // again unflushed
  p.crash();
  EXPECT_EQ((unsigned char)base[0], 0x12u);
}

TEST(PmemPool, StatsAccounting) {
  Pool p(1 << 20, Pool::Mode::kDirect);
  char* base = p.base();
  std::memset(base, 1, 64);
  p.persist(base, 64);
  EXPECT_EQ(p.stats().bytes_flushed.load(), 64u);
  EXPECT_EQ(p.stats().fences.load(), 1u);
  p.persist_bulk(base, 1024);
  EXPECT_EQ(p.stats().bytes_flushed.load(), 64u + 1024u);
  p.charge_read(4096);
  EXPECT_EQ(p.stats().bytes_read.load(), 4096u);
}

TEST(PmemPool, EmptyFenceIsCheap) {
  Pool p(1 << 20, Pool::Mode::kCrashSim);
  p.fence();  // nothing staged — must not crash or account flushes
  EXPECT_EQ(p.stats().bytes_flushed.load(), 0u);
}

TEST(PmemPool, BandwidthSeriesHookCountsFlushes) {
  Pool p(1 << 20, Pool::Mode::kDirect);
  TimeSeries ts(4, 1000000000ull);
  p.set_bandwidth_series(&ts);
  std::memset(p.base(), 1, 4096);
  p.persist_bulk(p.base(), 4096);
  EXPECT_EQ(ts.bin(0), 4096u);
}

TEST(PmemPool, PartialLineOverwriteAfterPersist) {
  Pool p(1 << 20, Pool::Mode::kCrashSim);
  char* base = p.base();
  std::memset(base, 0xaa, 64);
  p.persist(base, 64);
  base[8] = 0x01;  // 8B-atomic store into a persisted line, unflushed
  p.crash();
  EXPECT_EQ((unsigned char)base[8], 0xaau);  // reverted
  EXPECT_EQ((unsigned char)base[0], 0xaau);
}

// A deferred flush (PersistBatch::defer) issues no fence of its own; the
// next fence on the thread retires it together with that fence's own train.
// A put's commit-flag line rides the next put's publication fence this way.
TEST(PmemPool, DeferredFlushRidesTheNextFence) {
  Pool p(1 << 20, Pool::Mode::kCrashSim);
  char* base = p.base();
  std::memset(base, 0x11, 64);
  std::memset(base + 512, 0x22, 128);
  {
    PersistBatch flag(&p);
    flag.defer(base, 64);
  }  // nothing added: the batch commits without a fence
  EXPECT_EQ(p.stats().fences.load(), 0u);
  EXPECT_FALSE(p.is_persisted(base, 64));
  PersistBatch batch(&p);
  batch.add(base + 512, 128);
  batch.commit();
  EXPECT_EQ(p.stats().fences.load(), 1u);
  EXPECT_EQ(p.stats().lines_flushed.load(), 3u);
  p.crash();
  EXPECT_EQ((unsigned char)base[0], 0x11u);
  EXPECT_EQ((unsigned char)base[63], 0x11u);
  EXPECT_EQ((unsigned char)base[512], 0x22u);
  EXPECT_EQ((unsigned char)base[639], 0x22u);
}

TEST(PmemPool, FileBackedPersistsAcrossReopen) {
  auto path = std::filesystem::temp_directory_path() / "dstore_pmem_pool_test.img";
  {
    auto pool = Pool::open_file(path.string(), 1 << 20, dstore::LatencyModel::none(), true);
    ASSERT_TRUE(pool.is_ok()) << pool.status().to_string();
    std::memset(pool.value()->base(), 0x6b, 4096);
    pool.value()->persist(pool.value()->base(), 4096);
  }
  {
    auto pool = Pool::open_file(path.string(), 1 << 20, dstore::LatencyModel::none(), false);
    ASSERT_TRUE(pool.is_ok());
    for (int i = 0; i < 4096; i++) {
      ASSERT_EQ((unsigned char)pool.value()->base()[i], 0x6bu) << i;
    }
  }
  std::filesystem::remove(path);
}

// Multi-cycle round-trip: each reopen writes a fresh seeded region via the
// staged flush+fence path (not just persist()) and re-verifies every region
// written by earlier incarnations, so persistence must compose across an
// arbitrary number of close/open cycles.
TEST(PmemPool, FileBackedReopenRoundTripMultiCycle) {
  constexpr int kCycles = 4;
  constexpr size_t kRegion = 16 << 10;
  auto path = std::filesystem::temp_directory_path() / "dstore_pmem_cycle_test.img";
  std::filesystem::remove(path);
  for (int cycle = 0; cycle < kCycles; cycle++) {
    auto pool = Pool::open_file(path.string(), 1 << 20, dstore::LatencyModel::none(),
                                /*create=*/cycle == 0);
    ASSERT_TRUE(pool.is_ok()) << pool.status().to_string();
    char* base = pool.value()->base();
    for (int prev = 0; prev < cycle; prev++) {
      for (size_t i = 0; i < kRegion; i++) {
        ASSERT_EQ((unsigned char)base[prev * kRegion + i],
                  (unsigned char)(0x10 + prev + (i & 0x3f)))
            << "cycle " << cycle << " region " << prev << " byte " << i;
      }
    }
    char* mine = base + (size_t)cycle * kRegion;
    for (size_t i = 0; i < kRegion; i++) mine[i] = (char)(0x10 + cycle + (i & 0x3f));
    pool.value()->flush(mine, kRegion);
    pool.value()->fence();
  }
  // Untouched tail stays zero across all cycles (create zero-fills once).
  {
    auto pool = Pool::open_file(path.string(), 1 << 20, dstore::LatencyModel::none(), false);
    ASSERT_TRUE(pool.is_ok());
    const char* tail = pool.value()->base() + (size_t)kCycles * kRegion;
    for (size_t i = 0; i < kRegion; i++) ASSERT_EQ(tail[i], 0) << i;
  }
  std::filesystem::remove(path);
}

TEST(PmemPool, FileBackedOpenMissingFails) {
  auto pool = Pool::open_file("/nonexistent-dir/pool.img", 1 << 20,
                              dstore::LatencyModel::none(), false);
  ASSERT_FALSE(pool.is_ok());
  EXPECT_EQ(pool.status().code(), dstore::Code::kIoError);
}

TEST(PmemPool, FileBackedCreateTruncates) {
  auto path = std::filesystem::temp_directory_path() / "dstore_pmem_trunc_test.img";
  {
    auto pool = Pool::open_file(path.string(), 1 << 20, dstore::LatencyModel::none(), true);
    ASSERT_TRUE(pool.is_ok());
    std::memset(pool.value()->base(), 0xff, 64);
    pool.value()->persist(pool.value()->base(), 64);
  }
  {
    // create=true zeroes the previous contents.
    auto pool = Pool::open_file(path.string(), 1 << 20, dstore::LatencyModel::none(), true);
    ASSERT_TRUE(pool.is_ok());
    EXPECT_EQ(pool.value()->base()[0], 0);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace dstore::pmem
