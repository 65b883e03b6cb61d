// End-to-end data-integrity tests (DESIGN.md §11).
//
// Every persistence tier carries checksums — DIPPER log slots (slot/LSN-
// seeded CRC), metadata-zone entries (index-seeded CRC), SSD pages (the
// per-page sidecar), whole objects (content CRC) — and these tests inject
// silent corruption into each tier and hold the store to the containment
// contract: corruption is *detected on read* (never silently returned),
// *repaired* from the PMEM log copy when one exists, *quarantined* with
// Status::corruption when it doesn't, and the dstore_integrity_* counters
// reconcile with what was injected. The sweep test mirrors the exhaustive
// crash sweep: every enumerated ssd.write gets a bit-flip and a misdirected
// write, and no schedule may ever produce a silently wrong read.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "dipper/log.h"
#include "dstore/dstore.h"
#include "fault/crash_rig.h"
#include "fault/fault.h"
#include "pmem/pool.h"
#include "ssd/block_device.h"

namespace dstore::fault {
namespace {

struct Fixture {
  FaultInjector inj;
  DStoreConfig cfg;
  std::unique_ptr<pmem::Pool> pool;
  std::unique_ptr<ssd::RamBlockDevice> device;
  std::unique_ptr<DStore> store;
  ds_ctx_t* ctx = nullptr;

  void build(bool repair_logging, const FaultPlan& plan = FaultPlan()) {
    cfg.max_objects = 16;
    cfg.num_blocks = 128;
    cfg.engine.log_slots = 32;
    cfg.engine.arena_bytes = 1 << 20;
    cfg.engine.background_checkpointing = false;
    cfg.repair_logging = repair_logging;
    pool = std::make_unique<pmem::Pool>(DStoreConfig::required_pool_bytes(cfg),
                                        pmem::Pool::Mode::kCrashSim);
    ssd::DeviceConfig dc;
    dc.num_blocks = cfg.num_blocks;
    device = std::make_unique<ssd::RamBlockDevice>(dc);
    device->set_fault_injector(&inj);
    inj.set_plan(plan);
    inj.disarm();
    auto s = DStore::create(pool.get(), device.get(), cfg);
    ASSERT_TRUE(s.is_ok()) << s.status().to_string();
    store = std::move(s).value();
    ctx = store->ds_init();
  }
  ~Fixture() {
    if (store != nullptr) store->ds_finalize(ctx);
  }

  Status put(const std::string& k, const std::string& v) {
    return store->oput(ctx, k, v.data(), v.size());
  }
  Result<std::string> get(const std::string& k) {
    std::vector<char> buf(8192);
    auto r = store->oget(ctx, k, buf.data(), buf.size());
    if (!r.is_ok()) return r.status();
    return std::string(buf.data(), r.value());
  }

  // Absolute media byte offset of `pattern`'s first occurrence, scanning
  // block by block through the (pre-corruption, checksum-clean) device.
  uint64_t find_on_media(const std::string& pattern) {
    const size_t bs = device->config().block_size();
    std::vector<char> buf(bs);
    for (uint64_t b = 0; b < cfg.num_blocks; b++) {
      if (!device->read(b, 0, buf.data(), bs).is_ok()) continue;
      std::string view(buf.data(), bs);
      size_t pos = view.find(pattern);
      if (pos != std::string::npos) return b * bs + pos;
    }
    ADD_FAILURE() << "pattern not found on media: " << pattern;
    return 0;
  }
};

// A value that is unique, compressib-proof (varied bytes), and block-sized
// enough to exercise the page sidecar.
// Every 7th byte is the tag itself and the rest are digits, so a 64-byte
// window of one tag's value can never match inside another tag's value at
// any shift — pattern-searching the media always lands in the right object.
std::string value_of(char tag, size_t len = 600) {
  std::string v(len, tag);
  for (size_t i = 0; i < len; i++) {
    v[i] = (i % 7 == 0) ? tag : char('0' + (unsigned)(tag + i) % 10);
  }
  return v;
}

// ---------------------------------------------------------------------------
// Detection + quarantine (no log copy to heal from)
// ---------------------------------------------------------------------------

TEST(Integrity, BitFlipDetectedOnReadAndQuarantined) {
  Fixture f;
  f.build(/*repair_logging=*/false);
  const std::string v = value_of('q');
  ASSERT_TRUE(f.put("victim", v).is_ok());
  ASSERT_TRUE(f.put("bystander", value_of('b')).is_ok());

  uint64_t off = f.find_on_media(v.substr(0, 64));
  f.device->flip_media_bit(off + 17, 3);

  // Detected, not silently returned: the sidecar fails, repair finds no
  // usable log payload (logical logging only), the page is quarantined.
  auto r = f.get("victim");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Code::kCorruption) << r.status().to_string();
  auto c = f.store->counters();
  EXPECT_GE(c.checksum_failures, 1u);
  EXPECT_EQ(c.repairs, 0u);
  EXPECT_GE(c.quarantined_pages, 1u);
  EXPECT_GE(f.store->bad_pages().count(), 1u);
  EXPECT_TRUE(f.store->bad_pages().contains(off / f.device->config().page_size));
  EXPECT_GE(f.device->stats().read_crc_failures.load(), 1u);

  // Containment: the rest of the store is unaffected, and the store did
  // not degrade to read-only (the metadata itself is intact).
  auto rb = f.get("bystander");
  ASSERT_TRUE(rb.is_ok());
  EXPECT_EQ(rb.value(), value_of('b'));
  EXPECT_FALSE(f.store->read_only());
  ASSERT_TRUE(f.put("still-writable", value_of('w')).is_ok());
}

TEST(Integrity, QuarantineSurvivesRecovery) {
  Fixture f;
  f.build(/*repair_logging=*/false);
  const std::string v = value_of('p');
  ASSERT_TRUE(f.put("victim", v).is_ok());
  uint64_t off = f.find_on_media(v.substr(0, 64));
  f.device->flip_media_bit(off + 1, 0);
  ASSERT_FALSE(f.get("victim").is_ok());
  uint64_t quarantined = f.store->bad_pages().count();
  ASSERT_GE(quarantined, 1u);

  // Reopen from the durable images: the bad-page table lives in a sealed
  // pmem region past the engine layout and must come back verbatim.
  f.store->ds_finalize(f.ctx);
  f.ctx = nullptr;
  f.store.reset();
  f.pool->crash();
  f.device->crash();
  auto r = DStore::recover(f.pool.get(), f.device.get(), f.cfg);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  f.store = std::move(r).value();
  f.ctx = f.store->ds_init();
  EXPECT_EQ(f.store->bad_pages().count(), quarantined);
  EXPECT_TRUE(f.store->bad_pages().contains(off / f.device->config().page_size));
}

// ---------------------------------------------------------------------------
// Read-repair from the PMEM log copy (repair_logging keeps whole-object
// payloads in the DIPPER physical log)
// ---------------------------------------------------------------------------

TEST(Integrity, BitFlipRepairedFromLogCopy) {
  Fixture f;
  f.build(/*repair_logging=*/true);
  const std::string v = value_of('r');
  ASSERT_TRUE(f.put("victim", v).is_ok());

  uint64_t off = f.find_on_media(v.substr(0, 64));
  f.device->flip_media_bit(off + 100, 5);

  // The read detects the bad page, heals it from the log payload, and
  // returns the *correct* bytes — the repair is invisible to the caller.
  auto r = f.get("victim");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), v);
  auto c = f.store->counters();
  EXPECT_GE(c.checksum_failures, 1u);
  EXPECT_GE(c.repairs, 1u);
  EXPECT_EQ(c.quarantined_pages, 0u);
  EXPECT_EQ(f.store->bad_pages().count(), 0u);

  // The healed pages verify clean from then on.
  DStore::ScrubReport rep;
  EXPECT_TRUE(f.store->scrub_now(&rep).is_ok());
  EXPECT_EQ(rep.checksum_failures, 0u);
  auto again = f.get("victim");
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value(), v);
}

TEST(Integrity, CountersReconcileWithInjectedFaultCount) {
  Fixture f;
  f.build(/*repair_logging=*/true);
  std::map<std::string, std::string> oracle;
  for (char t : {'a', 'b', 'c', 'd'}) {
    std::string key(1, t);
    oracle[key] = value_of(t);
    ASSERT_TRUE(f.put(key, oracle[key]).is_ok());
  }
  // Exactly three independent single-bit flips, in three distinct objects.
  // (Locate all three offsets *before* flipping anything — the locator
  // scans via device reads, which would otherwise trip on earlier flips
  // and inflate the device-level failure counter.)
  const int kInjected = 3;
  uint64_t off_a = f.find_on_media(oracle["a"].substr(0, 64));
  uint64_t off_b = f.find_on_media(oracle["b"].substr(0, 64));
  uint64_t off_c = f.find_on_media(oracle["c"].substr(0, 64));
  f.device->flip_media_bit(off_a + 3, 1);
  f.device->flip_media_bit(off_b + 9, 6);
  f.device->flip_media_bit(off_c + 27, 2);

  for (auto& [k, v] : oracle) {
    auto r = f.get(k);
    ASSERT_TRUE(r.is_ok()) << k << ": " << r.status().to_string();
    EXPECT_EQ(r.value(), v) << k;
  }
  auto c = f.store->counters();
  EXPECT_EQ(c.checksum_failures, (uint64_t)kInjected);
  EXPECT_EQ(c.repairs, (uint64_t)kInjected);
  EXPECT_EQ(c.quarantined_pages, 0u);
  // The same numbers through the metrics registry (the scrape surface).
  EXPECT_EQ(f.store->metrics().counter_value("dstore_integrity_checksum_failures_total"),
            (uint64_t)kInjected);
  EXPECT_EQ(f.store->metrics().counter_value("dstore_integrity_repairs_total"),
            (uint64_t)kInjected);
  EXPECT_EQ(f.store->metrics().counter_value("dstore_integrity_quarantined_pages_total"), 0u);
  EXPECT_EQ(f.device->stats().read_crc_failures.load(), (uint64_t)kInjected);
}

// ---------------------------------------------------------------------------
// The scrubber
// ---------------------------------------------------------------------------

TEST(Integrity, ScrubPassDetectsAndRepairs) {
  Fixture f;
  f.build(/*repair_logging=*/true);
  std::map<std::string, std::string> oracle;
  for (char t : {'w', 'x', 'y', 'z'}) {
    std::string key(1, t);
    oracle[key] = value_of(t);
    ASSERT_TRUE(f.put(key, oracle[key]).is_ok());
  }
  f.device->flip_media_bit(f.find_on_media(oracle["x"].substr(0, 64)) + 5, 7);
  f.device->flip_media_bit(f.find_on_media(oracle["z"].substr(0, 64)) + 40, 0);

  DStore::ScrubReport rep;
  Status s = f.store->scrub_now(&rep);
  EXPECT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_EQ(rep.objects_scanned, 4u);
  EXPECT_GE(rep.pages_verified, 4u);
  EXPECT_EQ(rep.checksum_failures, 2u);
  EXPECT_EQ(rep.repaired, 2u);
  EXPECT_EQ(rep.quarantined_pages, 0u);
  EXPECT_TRUE(rep.corrupt_objects.empty());
  EXPECT_EQ(f.store->counters().scrub_pages_verified, rep.pages_verified);

  for (auto& [k, v] : oracle) {
    auto r = f.get(k);
    ASSERT_TRUE(r.is_ok()) << k;
    EXPECT_EQ(r.value(), v) << k;
  }
}

TEST(Integrity, ScrubQuarantinesUnrepairable) {
  Fixture f;
  f.build(/*repair_logging=*/false);
  const std::string v = value_of('u');
  ASSERT_TRUE(f.put("doomed", v).is_ok());
  ASSERT_TRUE(f.put("fine", value_of('f')).is_ok());
  uint64_t off = f.find_on_media(v.substr(0, 64));
  f.device->flip_media_bit(off + 8, 4);

  DStore::ScrubReport rep;
  Status s = f.store->scrub_now(&rep);
  EXPECT_EQ(s.code(), Code::kCorruption) << s.to_string();
  EXPECT_EQ(rep.objects_scanned, 2u);
  EXPECT_EQ(rep.checksum_failures, 1u);
  EXPECT_EQ(rep.repaired, 0u);
  EXPECT_GE(rep.quarantined_pages, 1u);
  ASSERT_EQ(rep.corrupt_objects.size(), 1u);
  EXPECT_EQ(rep.corrupt_objects[0], "doomed");
  EXPECT_TRUE(f.store->bad_pages().contains(off / f.device->config().page_size));
  // Scrub contains; it does not degrade the whole store.
  EXPECT_FALSE(f.store->read_only());
  EXPECT_TRUE(f.get("fine").is_ok());
}

TEST(Integrity, BackgroundScrubberRunsOnInterval) {
  Fixture f;
  f.cfg.scrub_interval_ms = 5;
  f.build(/*repair_logging=*/true);
  ASSERT_TRUE(f.put("watched", value_of('s')).is_ok());
  // The scrubber thread wakes every 5 ms; wait for evidence of a pass.
  uint64_t verified = 0;
  for (int spin = 0; spin < 400 && verified == 0; spin++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    verified = f.store->counters().scrub_pages_verified;
  }
  EXPECT_GE(verified, 1u);
  EXPECT_GE(f.store->metrics().value("dstore_scrub_last_pass_seconds"), 0.0);
}

// ---------------------------------------------------------------------------
// Misdirected writes (the sidecar is location-seeded; the content CRC
// catches the stale-but-consistent intended location)
// ---------------------------------------------------------------------------

// Every write path publishes crc32c(content) as the object's content CRC,
// hashed while its data IOs were in flight; a partial overwrite clears it.
TEST(Integrity, EveryWritePathPublishesTheContentCrc) {
  Fixture f;
  f.build(/*repair_logging=*/false);
  auto pattern = [](size_t n, char seed) {
    std::string v(n, '\0');
    for (size_t i = 0; i < n; i++) v[i] = (char)(i * 131 + seed);
    return v;
  };
  auto content_crc = [&](const std::string& k) {
    auto c = f.store->content_crc(k);
    EXPECT_TRUE(c.is_ok()) << c.status().to_string();
    return c.is_ok() ? c.value() : 0u;
  };

  // oput (16 KB: multi-block, 3-way kernel).
  std::string v1 = pattern(16384, 1);
  ASSERT_TRUE(f.put("obj", v1).is_ok());
  EXPECT_EQ(content_crc("obj"), crc32c(v1.data(), v1.size()));

  auto opened = f.store->oopen(f.ctx, "obj", 0, kRead | kWrite);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  Object* obj = opened.value();
  // Pure whole-object overwrite (unlogged).
  std::string v2 = pattern(16384, 2);
  ASSERT_TRUE(f.store->owrite(obj, v2.data(), v2.size(), 0).is_ok());
  EXPECT_EQ(content_crc("obj"), crc32c(v2.data(), v2.size()));
  // Partial overwrite.
  std::string patch = pattern(50, 3);
  ASSERT_TRUE(f.store->owrite(obj, patch.data(), patch.size(), 100).is_ok());
  EXPECT_EQ(content_crc("obj"), 0u);
  // Growing whole-object write (logged).
  std::string v3 = pattern(20000, 4);
  ASSERT_TRUE(f.store->owrite(obj, v3.data(), v3.size(), 0).is_ok());
  EXPECT_EQ(content_crc("obj"), crc32c(v3.data(), v3.size()));
  f.store->oclose(obj);
}

TEST(Integrity, MisdirectedWriteNeverReturnsStaleBytes) {
  Fixture f;
  FaultPlan plan;
  plan.add({"ssd.write", 1, FaultType::kMisdirectedWrite, 3, 1});
  f.build(/*repair_logging=*/false, plan);
  const std::string v = value_of('m');
  f.inj.arm();
  Status s = f.put("victim", v);
  f.inj.disarm();
  ASSERT_TRUE(s.is_ok()) << s.to_string();  // the device never noticed

  // The intended pages were never written: whatever a read returns, it
  // must not be OK-with-wrong-bytes.
  auto r = f.get("victim");
  if (r.is_ok()) {
    EXPECT_EQ(r.value(), v);  // repaired or (legitimately) landed intact
  } else {
    EXPECT_EQ(r.status().code(), Code::kCorruption) << r.status().to_string();
    EXPECT_GE(f.store->counters().checksum_failures, 1u);
  }
}

// ---------------------------------------------------------------------------
// Log-record corruption: fail-stop at recovery, never silent replay
// ---------------------------------------------------------------------------

TEST(Integrity, CorruptPublishedLogRecordFailStopsRecovery) {
  Fixture f;
  f.build(/*repair_logging=*/false);
  ASSERT_TRUE(f.put("a", value_of('a')).is_ok());
  ASSERT_TRUE(f.put("b", value_of('b')).is_ok());

  // Locate b's committed record in the active log.
  auto& eng = f.store->engine();
  const dipper::PmemLog& log = eng.log_for_testing(eng.active_log_index());
  uint32_t slot = UINT32_MAX;
  for (uint32_t i = 0; i < log.slot_count(); i++) {
    dipper::LogRecordView rec;
    if (log.read(i, &rec) && rec.name.view() == "b") slot = i;
  }
  ASSERT_NE(slot, UINT32_MAX);
  const uint64_t slot_off = log.slot_offset(slot);

  f.store->ds_finalize(f.ctx);
  f.ctx = nullptr;
  f.store.reset();
  // Flip one bit of the record's name byte (offset 33: lsn 8, length 4,
  // op 2, flags 2, arg0 8, arg1 8, klen 1) in the durable image. The LSN
  // stays valid, so recovery *will* decode this slot — and must refuse it.
  char* addr = f.pool->base() + slot_off + 33;
  *addr = (char)(*addr ^ 0x01);
  f.pool->persist(addr, 1);
  f.pool->crash();
  f.device->crash();

  auto r = DStore::recover(f.pool.get(), f.device.get(), f.cfg);
  ASSERT_FALSE(r.is_ok()) << "recovery silently replayed a corrupt log record";
  EXPECT_EQ(r.status().code(), Code::kCorruption) << r.status().to_string();
}

TEST(Integrity, CorruptSlotReadsAsCorruptNotEmpty) {
  // PmemLog::read's three-way contract: valid record / empty slot / valid
  // LSN with a failing checksum ("corrupt").
  pmem::Pool pool(1 << 20, pmem::Pool::Mode::kDirect);
  dipper::PmemLog log(&pool, 0, 8);
  log.format();
  log.write_record(0, 7, dipper::OpType::kPut, Key::from("k"), 1, 2, false);
  dipper::LogRecordView rec;
  bool corrupt = false;
  ASSERT_TRUE(log.read(0, &rec, &corrupt));
  EXPECT_FALSE(corrupt);
  EXPECT_FALSE(log.read(1, &rec, &corrupt));  // never written
  EXPECT_FALSE(corrupt);
  char* arg0 = pool.base() + log.slot_offset(0) + 16;
  *arg0 = (char)(*arg0 ^ 0x10);
  EXPECT_FALSE(log.read(0, &rec, &corrupt));  // published but untrustworthy
  EXPECT_TRUE(corrupt);
}

// ---------------------------------------------------------------------------
// The corruption sweep (mirrors the exhaustive crash sweep)
// ---------------------------------------------------------------------------

void report_failing_plan(const FaultPlan& plan, const Status& why) {
  if (const char* path = std::getenv("DSTORE_CRASH_ARTIFACT")) {
    std::ofstream f(path, std::ios::app);
    f << plan.to_string() << "\n";
  }
  ADD_FAILURE() << "failing plan: " << plan.to_string() << " — " << why.to_string()
                << "\n(reproduce with DSTORE_CRASH_PLAN=\"" << plan.to_string() << "\")";
}

TEST(CorruptionSweep, NoScheduleEverReturnsSilentlyWrongBytes) {
  RigOptions opt;
  opt.repair_logging = true;
  auto space = CrashRig::enumerate_schedule(opt);
  std::vector<FaultPlan> plans = all_corruption_plans(space);
  ASSERT_GE(plans.size(), 50u) << "sweep space unexpectedly small";
  if (const char* repro = std::getenv("DSTORE_CRASH_PLAN")) {
    auto parsed = FaultPlan::parse(repro);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    plans = {parsed.value()};
  }
  size_t failures = 0;
  uint64_t detected_total = 0;
  for (const FaultPlan& plan : plans) {
    CrashRig rig(opt);
    bool crashed = rig.run(plan);
    EXPECT_FALSE(crashed) << "corruption plan crashed: " << plan.to_string();
    uint64_t detected = 0;
    Status s = rig.verify_integrity(&detected);
    detected_total += detected;
    if (!s.is_ok()) {
      report_failing_plan(plan, s);
      if (++failures >= 5) break;
    }
  }
  // The sweep must have actually exercised detection, not just clean runs:
  // many flips land on pages that are overwritten or deleted before any
  // read (legitimately invisible), but across hundreds of schedules a
  // healthy integrity layer detects plenty.
  EXPECT_GE(detected_total, plans.size() / 20);
}

}  // namespace
}  // namespace dstore::fault
