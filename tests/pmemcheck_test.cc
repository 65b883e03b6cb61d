// PmemCheck tests: (a) the full DIPPER engine lifecycle — appends, commits,
// locks, checkpoints in both modes, crashes, recovery — runs violation-free
// under the checker; (b) each of the four defect classes is detected when
// the corresponding protocol rule is deliberately broken.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "ds/metadata_zone.h"
#include "engine_rig.h"
#include "pmem/persist_checker.h"
#include "pmem/pool.h"

namespace dstore::pmem {
namespace {

using dipper::EngineConfig;
using dipper::EngineRig;
using dipper::LogRecordView;
using dipper::OpType;
using dipper::PmemLog;

std::string report_str(const PersistChecker& c) {
  std::ostringstream os;
  c.report().print(os);
  return os.str();
}

// ---------------------------------------------------------------------------
// Pool-level defect-class detection
// ---------------------------------------------------------------------------

class PmemCheckPoolTest : public ::testing::Test {
 protected:
  PmemCheckPoolTest() : pool_(1 << 20, Pool::Mode::kCrashSim) { pool_.attach_checker(&checker_); }
  ~PmemCheckPoolTest() override { pool_.detach_checker(); }

  Pool pool_;
  PersistChecker checker_;
};

TEST_F(PmemCheckPoolTest, CleanProtocolHasNoViolations) {
  char* p = pool_.base();
  std::memset(p, 0x5a, 256);
  pool_.persist(p, 256);
  pool_.check_durable(p, 256, "test:clean");
  EXPECT_EQ(checker_.report().total(), 0u) << report_str(checker_);
}

TEST_F(PmemCheckPoolTest, MissingFlushDetectedAtDurabilityPoint) {
  char* p = pool_.base();
  std::memset(p, 0x11, 64);       // dirty line...
  std::memset(p + 128, 0x22, 64); // ...and another, two lines apart
  pool_.persist(p + 128, 64);     // only the second is persisted
  pool_.check_durable(p, 192, "test:publish");
  EXPECT_EQ(checker_.report().count(CheckKind::kMissingFlush), 1u) << report_str(checker_);
  EXPECT_EQ(checker_.report().violations()[0].offset, 0u);
  EXPECT_EQ(checker_.report().violations()[0].site, "test:publish");
}

TEST_F(PmemCheckPoolTest, StagedButUnfencedDetectedAtDurabilityPoint) {
  char* p = pool_.base();
  std::memset(p, 0x31, 64);
  pool_.flush(p, 64);  // staged, no fence
  pool_.check_durable(p, 64, "test:publish");
  ASSERT_EQ(checker_.report().count(CheckKind::kMissingFlush), 1u) << report_str(checker_);
  EXPECT_NE(checker_.report().violations()[0].detail.find("not yet fenced"), std::string::npos);
  pool_.fence();  // retire cleanly so teardown stays quiet
  EXPECT_EQ(checker_.report().count(CheckKind::kStoreAfterFlush), 0u);
}

TEST_F(PmemCheckPoolTest, RedundantFlushOfCleanLineCounted) {
  char* p = pool_.base();
  std::memset(p, 0x42, 64);
  pool_.persist(p, 64);
  pool_.persist(p, 64);  // line is already persistent: pure latency waste
  EXPECT_EQ(checker_.report().count(CheckKind::kRedundantFlush), 1u) << report_str(checker_);
  // Redundant flushes are soft: they never count as hard violations.
  EXPECT_EQ(checker_.report().hard_count(), 0u);
}

TEST_F(PmemCheckPoolTest, RedundantDoubleFlushBeforeFenceCounted) {
  char* p = pool_.base();
  std::memset(p, 0x43, 64);
  pool_.flush(p, 64);
  pool_.flush(p, 64);  // same contents staged twice before the fence
  pool_.fence();
  EXPECT_EQ(checker_.report().count(CheckKind::kRedundantFlush), 1u) << report_str(checker_);
  EXPECT_EQ(checker_.report().count(CheckKind::kStoreAfterFlush), 0u);
}

TEST_F(PmemCheckPoolTest, StoreAfterFlushBeforeFenceDetected) {
  char* p = pool_.base();
  std::memset(p, 0x01, 64);
  pool_.flush(p, 64);
  p[0] = 0x02;  // store into the staged window — §3.4 ordering broken
  pool_.fence();
  EXPECT_EQ(checker_.report().count(CheckKind::kStoreAfterFlush), 1u) << report_str(checker_);
}

TEST_F(PmemCheckPoolTest, StoreAfterFlushWithReflushIsClean) {
  char* p = pool_.base();
  std::memset(p, 0x01, 64);
  pool_.flush(p, 64);
  p[0] = 0x02;
  pool_.flush(p, 64);  // re-flush picks up the new contents: legitimate
  pool_.fence();
  EXPECT_EQ(checker_.report().count(CheckKind::kStoreAfterFlush), 0u) << report_str(checker_);
  EXPECT_EQ(checker_.report().count(CheckKind::kRedundantFlush), 0u);
}

TEST_F(PmemCheckPoolTest, UnpersistedRecoveryReadDetected) {
  char* p = pool_.base();
  std::memset(p, 0x77, 128);  // written, never flushed
  pool_.check_recovery_read(p, 128, "test:recover");
  ASSERT_EQ(checker_.report().count(CheckKind::kUnpersistedRead), 1u) << report_str(checker_);
  EXPECT_EQ(checker_.report().violations()[0].lines, 2u);
}

TEST_F(PmemCheckPoolTest, RecoveryReadAfterCrashIsClean) {
  char* p = pool_.base();
  std::memset(p, 0x78, 128);
  pool_.crash();  // region reverts to the image: reads now see crash truth
  pool_.check_recovery_read(p, 128, "test:recover");
  EXPECT_EQ(checker_.report().total(), 0u) << report_str(checker_);
}

TEST_F(PmemCheckPoolTest, ObligationCaughtWhenBulkPassMissesIt) {
  char* p = pool_.base();
  std::memset(p, 0x61, 4096);
  pool_.note_obligation(p, 4096, "test:writer");
  pool_.persist_bulk(p, 2048);  // durability pass covers only half
  pool_.check_obligations("test:install");
  ASSERT_EQ(checker_.report().count(CheckKind::kMissingFlush), 1u) << report_str(checker_);
  EXPECT_EQ(checker_.report().violations()[0].site, "test:writer");
}

TEST_F(PmemCheckPoolTest, ObligationSatisfiedByBulkPass) {
  char* p = pool_.base();
  std::memset(p, 0x62, 4096);
  pool_.note_obligation(p, 4096, "test:writer");
  pool_.persist_bulk(p, 4096);
  pool_.check_obligations("test:install");
  EXPECT_EQ(checker_.report().total(), 0u) << report_str(checker_);
}

TEST_F(PmemCheckPoolTest, CrashClearsPendingObligations) {
  char* p = pool_.base();
  std::memset(p, 0x63, 256);
  pool_.note_obligation(p, 256, "test:writer");
  pool_.crash();  // the pending checkpoint died with DRAM; no obligation survives
  pool_.check_obligations("test:install");
  EXPECT_EQ(checker_.report().total(), 0u) << report_str(checker_);
}

TEST(PmemCheckTeardown, StagedNeverFencedReportedAtDetach) {
  Pool pool(1 << 20, Pool::Mode::kCrashSim);
  PersistChecker checker;
  pool.attach_checker(&checker);
  char* p = pool.base();
  std::memset(p, 0x21, 128);
  pool.flush(p, 128);  // two lines staged, never fenced
  pool.detach_checker();
  ASSERT_EQ(checker.report().count(CheckKind::kMissingFlush), 1u) << report_str(checker);
  EXPECT_EQ(checker.report().violations()[0].lines, 2u);
}

TEST(PmemCheckScopeTest, SiteAttributionUsesInnermostScope) {
  Pool pool(1 << 20, Pool::Mode::kCrashSim);
  PersistChecker checker;
  pool.attach_checker(&checker);
  char* p = pool.base();
  std::memset(p, 0x99, 64);
  pool.persist(p, 64);
  {
    PmemCheckScope outer("outer");
    PmemCheckScope inner("inner");
    pool.persist(p, 64);  // redundant, attributed to "inner"
  }
  pool.detach_checker();
  ASSERT_EQ(checker.report().count(CheckKind::kRedundantFlush), 1u) << report_str(checker);
  EXPECT_EQ(checker.report().violations()[0].site, "inner");
}

// ---------------------------------------------------------------------------
// Log-level: deliberately breaking the §3.4 record protocol is detected
// ---------------------------------------------------------------------------

TEST(PmemCheckLog, CleanRecordWritesAreViolationFree) {
  Pool pool(1 << 20, Pool::Mode::kCrashSim);
  PersistChecker checker;
  pool.attach_checker(&checker);
  PmemLog log(&pool, 0, 64);
  log.format();
  for (uint32_t s = 0; s < 32; s++) {
    // Mix of single-line (short name) and two-line (long name) records.
    std::string name = s % 2 == 0 ? "obj" + std::to_string(s)
                                  : std::string(48, 'a') + std::to_string(s);
    log.write_record(s, s + 1, OpType::kPut, Key::from(name), s, 0, false);
    log.commit(s);
  }
  LogRecordView rec;
  for (uint32_t s = 0; s < 32; s++) ASSERT_TRUE(log.read(s, &rec));
  pool.detach_checker();
  EXPECT_EQ(checker.report().total(), 0u) << report_str(checker);
}

TEST(PmemCheckLog, ForgedUnpersistedRecordCaughtOnRead) {
  Pool pool(1 << 20, Pool::Mode::kCrashSim);
  PersistChecker checker;
  pool.attach_checker(&checker);
  PmemLog log(&pool, 0, 64);
  log.format();
  // A buggy writer that skips the persist: stores the record (LSN and all,
  // including a *correct* slot CRC) with plain memory writes and never
  // flushes. The CRC must be valid — the defect under test is the missing
  // persist, and a checksum failure would mask it behind the earlier
  // integrity tier.
  struct RawSlot {
    uint64_t lsn;
    uint32_t length;
    uint16_t op;
    uint16_t flags;
    uint64_t arg0, arg1;
    uint8_t klen;
    char name[kMaxNameLen];
    uint32_t crc;
    uint32_t payload_crc;
  };
  auto* raw = reinterpret_cast<RawSlot*>(pool.base());
  raw->length = 8 + 8 + 1 + 3;
  raw->op = (uint16_t)OpType::kPut;
  raw->flags = PmemLog::kFlagCommitted;
  raw->arg0 = 7;
  raw->klen = 3;
  std::memcpy(raw->name, "key", 3);
  {  // mirror of PmemLog::record_crc for slot 0, lsn 42
    uint32_t c = 0xffffffffu;
    c = crc32c_extend_u64(c, 0);
    c = crc32c_extend_u64(c, 42);
    c = crc32c_extend_u64(c, ((uint64_t)raw->length << 32) | raw->op);
    c = crc32c_extend_u64(c, raw->arg0);
    c = crc32c_extend_u64(c, raw->arg1);
    c = crc32c_extend_u64(c, ((uint64_t)raw->klen << 32) | raw->payload_crc);
    c = crc32c_extend(c, raw->name, raw->klen);
    c ^= 0xffffffffu;
    raw->crc = c == 0 ? 1u : c;
  }
  raw->lsn = 42;  // published without any flush/fence
  LogRecordView rec;
  ASSERT_TRUE(log.read(0, &rec));  // replay would consume this record...
  pool.detach_checker();
  // ...but PmemCheck knows a crash would never have preserved it.
  EXPECT_GE(checker.report().count(CheckKind::kUnpersistedRead), 1u) << report_str(checker);
}

// 256 records of random length across the one-line/two-line boundary,
// every third left uncommitted, then read back as replay would.
TEST(PmemCheckLog, RandomLengthRecordsPartlyUncommittedViolationFree) {
  Pool pool(1 << 20, Pool::Mode::kCrashSim);
  PersistChecker checker;
  pool.attach_checker(&checker);
  PmemLog log(&pool, 0, 256);
  log.format();
  Rng rng(42);
  for (uint32_t s = 0; s < 256; s++) {
    std::string name(1 + rng.next_below(60), (char)('a' + s % 26));
    log.write_record(s, s + 1, OpType::kPut, Key::from(name), s, 0, false);
    if (s % 3 != 0) log.commit(s);
  }
  LogRecordView rec;
  for (uint32_t s = 0; s < 256; s++) (void)log.read(s, &rec);
  pool.detach_checker();
  EXPECT_EQ(checker.report().hard_count(), 0u) << report_str(checker);
}

// ---------------------------------------------------------------------------
// Engine-level: the full DIPPER lifecycle runs violation-free
// ---------------------------------------------------------------------------

class PmemCheckEngineTest : public ::testing::Test {
 protected:
  void init(EngineConfig cfg) {
    rig_ = std::make_unique<EngineRig>(cfg, Pool::Mode::kCrashSim, &checker_);
  }

  PersistChecker checker_;  // outlives the rig, which detaches it
  std::unique_ptr<EngineRig> rig_;
};

EngineConfig checked_cfg() {
  EngineConfig cfg;
  cfg.arena_bytes = 4 << 20;
  cfg.log_slots = 128;
  cfg.background_checkpointing = false;
  return cfg;
}

TEST_F(PmemCheckEngineTest, FullLifecycleViolationFree) {
  init(checked_cfg());
  // Normal operation: appends + commits, long names forcing two-line
  // records, deletes, explicit checkpoints, olock/ounlock cycles.
  for (int round = 0; round < 4; round++) {
    for (int i = 0; i < 40; i++) {
      std::string name = i % 3 == 0 ? std::string(50, 'k') + std::to_string(i)
                                    : "key" + std::to_string(i);
      rig_->put(name, (uint64_t)round * 1000 + i);
    }
    for (int i = 0; i < 10; i += 3) rig_->del("key" + std::to_string(i));
    Key lk = Key::from("locked-object");
    auto lh = rig_->engine->lock_object(lk);
    ASSERT_TRUE(lh.is_ok());
    ASSERT_TRUE(rig_->engine->checkpoint_now().is_ok());  // relocates the held olock
    rig_->engine->unlock_object(lh.value(), lk);
  }
  // Crash + recover, then keep operating.
  ASSERT_NO_FATAL_FAILURE(rig_->crash_and_recover());
  EXPECT_TRUE(rig_->get("key1").has_value());
  for (int i = 0; i < 20; i++) rig_->put("post" + std::to_string(i), i);
  ASSERT_TRUE(rig_->engine->checkpoint_now().is_ok());
  // Clean restart (recovery without a crash).
  ASSERT_NO_FATAL_FAILURE(rig_->restart());
  EXPECT_TRUE(rig_->get("post3").has_value());

  EXPECT_EQ(checker_.report().hard_count(), 0u) << report_str(checker_);
  // The flush discipline is also tight: no redundant flushes anywhere in
  // the log/checkpoint/recovery protocol.
  EXPECT_EQ(checker_.report().count(CheckKind::kRedundantFlush), 0u) << report_str(checker_);
}

TEST_F(PmemCheckEngineTest, AbandonedCheckpointRecoveryViolationFree) {
  init(checked_cfg());
  for (const char* point : {"ckpt:after_swap", "ckpt:after_drain", "ckpt:after_replay"}) {
    for (int i = 0; i < 30; i++) rig_->put("k" + std::to_string(i), i);
    ASSERT_FALSE(rig_->engine->checkpoint_abandon_at(point).is_ok());
    ASSERT_NO_FATAL_FAILURE(rig_->crash_and_recover()) << point;
    EXPECT_TRUE(rig_->get("k5").has_value()) << point;
  }
  EXPECT_EQ(checker_.report().hard_count(), 0u) << report_str(checker_);
}

TEST_F(PmemCheckEngineTest, ConcurrentAppendersViolationFree) {
  EngineConfig cfg = checked_cfg();
  cfg.log_slots = 2048;
  init(cfg);
  constexpr int kThreads = 4, kOps = 120;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOps; i++) {
        Key k = Key::from("t" + std::to_string(t) + "-" + std::to_string(i));
        auto h = rig_->engine->append(OpType::kPut, k, (uint64_t)i, 0);
        ASSERT_TRUE(h.is_ok());
        rig_->engine->commit(h.value());
      }
    });
  }
  for (auto& w : workers) w.join();
  ASSERT_TRUE(rig_->engine->checkpoint_now().is_ok());
  EXPECT_EQ(checker_.report().hard_count(), 0u) << report_str(checker_);
}

TEST_F(PmemCheckEngineTest, CowCheckpointViolationFree) {
  EngineConfig cfg = checked_cfg();
  cfg.ckpt_mode = EngineConfig::CkptMode::kCow;
  init(cfg);
  for (int i = 0; i < 50; i++) rig_->put("cow" + std::to_string(i), i);
  ASSERT_TRUE(rig_->engine->checkpoint_now().is_ok());
  for (int i = 0; i < 20; i++) rig_->put("post" + std::to_string(i), i);
  ASSERT_NO_FATAL_FAILURE(rig_->restart());
  EXPECT_TRUE(rig_->get("cow7").has_value());
  EXPECT_EQ(checker_.report().hard_count(), 0u) << report_str(checker_);
}

// Seeded churn: 48-byte and short names, 10% deletes, a 512-slot log
// checkpointed when full and every 400 ops, then a crash and recovery (the
// paths the unpersisted-read class watches). The rig is destroyed before
// the check, so lines staged but never fenced are reported too.
TEST_F(PmemCheckEngineTest, SeededChurnWithCrashRecoveryViolationFree) {
  EngineConfig cfg = checked_cfg();
  cfg.arena_bytes = 8 << 20;
  cfg.log_slots = 512;
  init(cfg);
  Rng rng(42);
  for (uint64_t i = 0; i < 2000; i++) {
    std::string name =
        (i % 5 == 0 ? std::string(48, 'x') : "obj") + std::to_string(rng.next_below(200));
    bool del = rng.next_below(10) == 0;
    if (rig_->engine->log_fill() >= 1.0) {
      ASSERT_TRUE(rig_->engine->checkpoint_now().is_ok());
    }
    if (del) {
      ASSERT_NO_FATAL_FAILURE(rig_->del(name));
    } else {
      ASSERT_NO_FATAL_FAILURE(rig_->put(name, i));
    }
    if (i % 400 == 399) {
      ASSERT_TRUE(rig_->engine->checkpoint_now().is_ok()) << i;
    }
  }
  ASSERT_NO_FATAL_FAILURE(rig_->crash_and_recover());
  rig_.reset();
  EXPECT_EQ(checker_.report().hard_count(), 0u) << report_str(checker_);
}

// ---------------------------------------------------------------------------
// MetadataZone durability obligations (checkpoint-replay writes into PMEM)
// ---------------------------------------------------------------------------

TEST(PmemCheckMetadata, UnpersistedReplayWriteCaught) {
  Pool pool(8 << 20, Pool::Mode::kCrashSim);
  PersistChecker checker;
  pool.attach_checker(&checker);
  Arena arena(pool.base(), 4 << 20);
  SlabAllocator space = SlabAllocator::format(arena);
  auto zone_h = MetadataZone::create(space, 16);
  ASSERT_TRUE(zone_h.is_ok());
  MetadataZone zone(space, zone_h.value());
  ASSERT_TRUE(zone.init_entry(0, Key::from("object-a")).is_ok());
  ASSERT_TRUE(zone.append_block(0, 1234).is_ok());
  // The checkpoint "forgets" its durability pass: obligations fire.
  pool.check_obligations("test:install");
  uint64_t after_missed_pass = checker.report().count(CheckKind::kMissingFlush);
  EXPECT_GE(after_missed_pass, 1u) << report_str(checker);
  // And with the pass in place they are satisfied: no new violations.
  ASSERT_TRUE(zone.init_entry(1, Key::from("object-b")).is_ok());
  pool.persist_bulk(pool.base(), space.used_bytes());
  pool.check_obligations("test:install");
  EXPECT_EQ(checker.report().count(CheckKind::kMissingFlush), after_missed_pass)
      << report_str(checker);
  uint64_t before = checker.report().total();
  pool.detach_checker();
  EXPECT_EQ(checker.report().total(), before) << report_str(checker);
}

}  // namespace
}  // namespace dstore::pmem
