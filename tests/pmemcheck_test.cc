// PmemCheck tests: (a) the full DIPPER engine lifecycle — appends, commits,
// locks, checkpoints in both modes, crashes, recovery — runs violation-free
// under the checker; (b) each of the four defect classes is detected when
// the corresponding protocol rule is deliberately broken.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <thread>

#include "common/crc32c.h"
#include "common/rng.h"
#include "dipper/engine.h"
#include "ds/btree.h"
#include "ds/metadata_zone.h"
#include "pmem/persist_checker.h"
#include "pmem/pool.h"

namespace dstore::pmem {
namespace {

using dipper::Engine;
using dipper::EngineConfig;
using dipper::LogRecordView;
using dipper::OpType;
using dipper::PmemLog;
using dipper::SpaceClient;

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

// ---------------------------------------------------------------------------
// Engine-level: the full DIPPER lifecycle runs violation-free
// ---------------------------------------------------------------------------

// Minimal client (mirrors engine_test): btree name -> u64.
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

class PmemCheckEngineTest : public ::testing::Test {
 protected:
  void init(EngineConfig cfg) {
    cfg_ = cfg;
    pool_ = std::make_unique<Pool>(Engine::required_pool_bytes(cfg_), Pool::Mode::kCrashSim);
    pool_->attach_checker(&checker_);
    engine_ = std::make_unique<Engine>(pool_.get(), &client_, cfg_);
    ASSERT_TRUE(engine_->init_fresh().is_ok());
  }

  void TearDown() override {
    if (engine_) engine_->stop_background();
    engine_.reset();
    if (pool_) pool_->detach_checker();
  }

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

  EngineConfig cfg_;
  KvClient client_;
  PersistChecker checker_;
  std::unique_ptr<Pool> pool_;
  std::unique_ptr<Engine> engine_;
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
      put(name, (uint64_t)round * 1000 + i);
    }
    for (int i = 0; i < 10; i += 3) del("key" + std::to_string(i));
    Key lk = Key::from("locked-object");
    auto lh = engine_->lock_object(lk);
    ASSERT_TRUE(lh.is_ok());
    ASSERT_TRUE(engine_->checkpoint_now().is_ok());  // relocates the held olock
    engine_->unlock_object(lh.value(), lk);
  }
  // Crash + recover, then keep operating.
  engine_->stop_background();
  pool_->crash();
  engine_ = std::make_unique<Engine>(pool_.get(), &client_, cfg_);
  ASSERT_TRUE(engine_->recover().is_ok());
  EXPECT_TRUE(get("key1").has_value());
  for (int i = 0; i < 20; i++) put("post" + std::to_string(i), i);
  ASSERT_TRUE(engine_->checkpoint_now().is_ok());
  // Clean restart (recovery without a crash).
  engine_->stop_background();
  engine_ = std::make_unique<Engine>(pool_.get(), &client_, cfg_);
  ASSERT_TRUE(engine_->recover().is_ok());
  EXPECT_TRUE(get("post3").has_value());

  EXPECT_EQ(checker_.report().hard_count(), 0u) << report_str(checker_);
  // The flush discipline is also tight: no redundant flushes anywhere in
  // the log/checkpoint/recovery protocol.
  EXPECT_EQ(checker_.report().count(CheckKind::kRedundantFlush), 0u) << report_str(checker_);
}

TEST_F(PmemCheckEngineTest, AbandonedCheckpointRecoveryViolationFree) {
  init(checked_cfg());
  for (const char* point : {"ckpt:after_swap", "ckpt:after_drain", "ckpt:after_replay"}) {
    for (int i = 0; i < 30; i++) put("k" + std::to_string(i), i);
    ASSERT_FALSE(engine_->checkpoint_abandon_at(point).is_ok());
    engine_->stop_background();
    pool_->crash();
    engine_ = std::make_unique<Engine>(pool_.get(), &client_, cfg_);
    ASSERT_TRUE(engine_->recover().is_ok()) << point;
    EXPECT_TRUE(get("k5").has_value()) << point;
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
        auto h = engine_->append(OpType::kPut, k, (uint64_t)i, 0);
        ASSERT_TRUE(h.is_ok());
        engine_->commit(h.value());
      }
    });
  }
  for (auto& w : workers) w.join();
  ASSERT_TRUE(engine_->checkpoint_now().is_ok());
  EXPECT_EQ(checker_.report().hard_count(), 0u) << report_str(checker_);
}

TEST_F(PmemCheckEngineTest, CowCheckpointViolationFree) {
  EngineConfig cfg = checked_cfg();
  cfg.ckpt_mode = EngineConfig::CkptMode::kCow;
  init(cfg);
  for (int i = 0; i < 50; i++) put("cow" + std::to_string(i), i);
  ASSERT_TRUE(engine_->checkpoint_now().is_ok());
  for (int i = 0; i < 20; i++) put("post" + std::to_string(i), i);
  engine_->stop_background();
  engine_ = std::make_unique<Engine>(pool_.get(), &client_, cfg_);
  ASSERT_TRUE(engine_->recover().is_ok());
  EXPECT_TRUE(get("cow7").has_value());
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
