// Tests for the PMEM operation log: record format, the LSN-last atomic
// visibility protocol under crash simulation and spurious evictions, and
// commit-flag durability.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "common/rng.h"
#include "dipper/log.h"

namespace dstore::dipper {
namespace {

class LogTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kSlots = 64;
  void SetUp() override {
    pool_ = std::make_unique<pmem::Pool>(PmemLog::region_bytes(kSlots),
                                         pmem::Pool::Mode::kCrashSim);
    log_ = PmemLog(pool_.get(), 0, kSlots);
    log_.format();
  }
  std::unique_ptr<pmem::Pool> pool_;
  PmemLog log_;
};

TEST_F(LogTest, FreshLogHasNoRecords) {
  LogRecordView rec;
  for (uint32_t s = 0; s < kSlots; s++) EXPECT_FALSE(log_.read(s, &rec)) << s;
}

TEST_F(LogTest, WriteReadRoundTrip) {
  log_.write_record(0, 42, OpType::kPut, Key::from("my-object"), 4096, 7, false);
  LogRecordView rec;
  ASSERT_TRUE(log_.read(0, &rec));
  EXPECT_EQ(rec.lsn, 42u);
  EXPECT_EQ(rec.op, OpType::kPut);
  EXPECT_EQ(rec.name.str(), "my-object");
  EXPECT_EQ(rec.arg0, 4096u);
  EXPECT_EQ(rec.arg1, 7u);
  EXPECT_FALSE(rec.committed());
}

TEST_F(LogTest, CommitPersistsFlag) {
  log_.write_record(0, 1, OpType::kDelete, Key::from("x"), 0, 0, false);
  EXPECT_FALSE(log_.is_committed(0));
  log_.commit(0);
  EXPECT_TRUE(log_.is_committed(0));
  pool_->crash();
  LogRecordView rec;
  ASSERT_TRUE(log_.read(0, &rec));
  EXPECT_TRUE(rec.committed());
}

TEST_F(LogTest, AbortedRecordNotReplayable) {
  log_.write_record(0, 1, OpType::kPut, Key::from("x"), 10, 0, false);
  log_.abort(0);
  LogRecordView rec;
  ASSERT_TRUE(log_.read(0, &rec));
  EXPECT_FALSE(rec.committed());
}

TEST_F(LogTest, RecordSurvivesCrash) {
  log_.write_record(3, 9, OpType::kCreate, Key::from("durable-object"), 0, 0, false);
  pool_->crash();
  LogRecordView rec;
  ASSERT_TRUE(log_.read(3, &rec));
  EXPECT_EQ(rec.lsn, 9u);
  EXPECT_EQ(rec.name.str(), "durable-object");
}

TEST_F(LogTest, LongNameSpansTwoLinesAndSurvives) {
  std::string long_name(kMaxNameLen, 'q');
  log_.write_record(0, 5, OpType::kPut, Key::from(long_name), 123, 0, false);
  pool_->crash();
  LogRecordView rec;
  ASSERT_TRUE(log_.read(0, &rec));
  EXPECT_EQ(rec.name.str(), long_name);
  EXPECT_EQ(rec.arg0, 123u);
}

TEST_F(LogTest, NoopFlagRoundTrips) {
  log_.write_record(0, 2, OpType::kNoop, Key::from("locked"), 0, 0, true);
  LogRecordView rec;
  ASSERT_TRUE(log_.read(0, &rec));
  EXPECT_EQ(rec.op, OpType::kNoop);
}

TEST_F(LogTest, FormatClearsEverything) {
  for (uint32_t s = 0; s < 8; s++)
    log_.write_record(s, s + 1, OpType::kPut, Key::from("a"), 0, 0, false);
  log_.format();
  pool_->crash();  // format is persistent
  LogRecordView rec;
  for (uint32_t s = 0; s < kSlots; s++) EXPECT_FALSE(log_.read(s, &rec));
}

// The core §3.4 property: because the LSN is written and flushed last, a
// torn record (crash mid-write) is never visible — and if the LSN IS
// visible, the whole record is intact. We emulate torn writes by crashing
// between the protocol's phases using a hand-rolled copy of phase 1 only.
TEST_F(LogTest, TornRecordInvisibleAfterCrash) {
  // Phase 1 only: write the payload but never the LSN, then crash.
  // (Simulates a writer killed between payload flush and LSN write.)
  char* slot0 = pool_->base();
  std::memset(slot0 + 8, 0x7f, 120);  // everything but the LSN field
  pool_->persist(slot0 + 8, 120);
  pool_->crash();
  LogRecordView rec;
  EXPECT_FALSE(log_.read(0, &rec));  // LSN==0: invisible
}

TEST_F(LogTest, SpuriousEvictionCannotFakeValidity) {
  // Adversary evicts lines at arbitrary times while a record is being
  // written. Since the LSN store happens only after the payload fence, an
  // evicted LSN line either has lsn==0 (invisible) or the payload is
  // already persistent (complete). Run many interleavings.
  Rng rng(77);
  for (int round = 0; round < 200; round++) {
    log_.format();
    // Phase 1 by hand: payload write.
    char* s = pool_->base();
    std::memset(s + 8, round & 0xff, 56);
    pool_->flush(s + 8, 56);
    pool_->evict_random_lines(rng, 4);  // may persist partial state
    pool_->fence();
    pool_->evict_random_lines(rng, 4);
    // Phase 3: LSN store + persist.
    reinterpret_cast<std::atomic<uint64_t>*>(s)->store(round + 1, std::memory_order_release);
    if (rng.next_bool(0.5)) {
      pool_->persist(s, 8);
    } else {
      pool_->evict_random_lines(rng, 8);  // eviction may or may not persist it
    }
    pool_->crash();
    LogRecordView rec;
    if (log_.read(0, &rec)) {
      // Visible => complete: the payload byte pattern must be intact.
      EXPECT_EQ((unsigned char)pool_->base()[8], (unsigned char)(round & 0xff));
      EXPECT_EQ(rec.lsn, (uint64_t)round + 1);
    }
  }
}

// Adversary sweep over the multi-line append path (§3.4 reverse-order
// flush). Long names push the payload into the slot's second cache line,
// so visibility requires: tail line persisted, fence, LSN line persisted —
// in that order. Hand-roll the phases with evictions injected between
// every step; whatever interleaving the adversary picks, a slot whose LSN
// survives the crash must carry the complete two-line record.
TEST_F(LogTest, MultiLineEvictionSweep) {
  constexpr size_t kNameOff = 33;  // Slot: lsn(8) len(4) op(2) flags(2) arg0(8) arg1(8) klen(1)
  Rng rng(1234);
  for (int round = 0; round < 300; round++) {
    log_.format();
    char* s = pool_->base();
    uint8_t klen = (uint8_t)(40 + rng.next_below(24));  // 40..63: always spans two lines
    char fill = (char)('A' + (round % 26));
    // Phase 1: everything except the LSN.
    *reinterpret_cast<uint32_t*>(s + 8) = 17u + klen;
    *reinterpret_cast<uint16_t*>(s + 12) = (uint16_t)OpType::kPut;
    *reinterpret_cast<uint16_t*>(s + 14) = 0;
    *reinterpret_cast<uint64_t*>(s + 16) = (uint64_t)round;
    *reinterpret_cast<uint64_t*>(s + 24) = 0;
    s[32] = (char)klen;
    std::memset(s + kNameOff, fill, klen);
    size_t payload_end = kNameOff + klen;
    pool_->evict_random_lines(rng, 4);
    // Phase 2: persist the tail line first.
    pool_->flush(s + 64, payload_end - 64);
    pool_->evict_random_lines(rng, 4);
    pool_->fence();
    pool_->evict_random_lines(rng, 4);
    // Phase 3: LSN last; its write-back may be explicit, spurious, or lost.
    reinterpret_cast<std::atomic<uint64_t>*>(s)->store(round + 1, std::memory_order_release);
    switch (rng.next_below(3)) {
      case 0: pool_->persist(s, 64); break;
      case 1: pool_->evict_random_lines(rng, 8); break;
      default: break;  // crash before the LSN line is ever written back
    }
    pool_->crash();
    LogRecordView rec;
    if (log_.read(0, &rec)) {
      ASSERT_EQ(rec.lsn, (uint64_t)round + 1);
      ASSERT_EQ(rec.arg0, (uint64_t)round);
      ASSERT_EQ(rec.name.len, klen);
      for (int i = 0; i < klen; i++) {
        ASSERT_EQ(rec.name.data[i], fill) << "round " << round << " byte " << i;
      }
    }
  }
}

// Same property through the real write_record path: an eviction storm
// between appends/commits must never corrupt a published record.
TEST_F(LogTest, MultiLineWriteRecordSurvivesEvictionStorm) {
  Rng rng(99);
  for (uint32_t s = 0; s < kSlots; s++) {
    std::string name((size_t)40 + s % 24, (char)('a' + s % 26));
    log_.write_record(s, s + 1, OpType::kPut, Key::from(name), s, 7, false);
    pool_->evict_random_lines(rng, 16);
    if (s % 2 == 0) log_.commit(s);
    pool_->evict_random_lines(rng, 16);
  }
  pool_->crash();
  for (uint32_t s = 0; s < kSlots; s++) {
    LogRecordView rec;
    ASSERT_TRUE(log_.read(s, &rec)) << s;
    EXPECT_EQ(rec.lsn, s + 1u);
    EXPECT_EQ(rec.arg0, (uint64_t)s);
    EXPECT_EQ(rec.committed(), s % 2 == 0);
    ASSERT_EQ(rec.name.len, 40 + s % 24);
    for (size_t i = 0; i < rec.name.len; i++) {
      ASSERT_EQ(rec.name.data[i], (char)('a' + s % 26)) << s << ":" << i;
    }
  }
}

TEST_F(LogTest, ManySlotsIndependent) {
  for (uint32_t s = 0; s < kSlots; s++) {
    char name[32];
    snprintf(name, sizeof(name), "obj-%u", s);
    log_.write_record(s, s + 1, OpType::kPut, Key::from(name), s * 10, 0, false);
    if (s % 2 == 0) log_.commit(s);
  }
  pool_->crash();
  for (uint32_t s = 0; s < kSlots; s++) {
    LogRecordView rec;
    ASSERT_TRUE(log_.read(s, &rec)) << s;
    EXPECT_EQ(rec.lsn, s + 1u);
    EXPECT_EQ(rec.committed(), s % 2 == 0);
    EXPECT_EQ(rec.arg0, (uint64_t)s * 10);
  }
}

TEST_F(LogTest, UncommittedSurvivesButStaysUncommitted) {
  log_.write_record(0, 1, OpType::kPut, Key::from("pending"), 64, 0, false);
  // Commit written but NOT persisted before crash: emulate by setting the
  // flag without flushing.
  pool_->crash();
  LogRecordView rec;
  ASSERT_TRUE(log_.read(0, &rec));
  EXPECT_FALSE(rec.committed());
}

}  // namespace
}  // namespace dstore::dipper
