// Exhaustive crash-schedule tests of the DIPPER checkpoint protocol.
//
// The central test enumerates the complete (fault point, hit number) space
// of one deterministic workload — every pmem flush/fence/bulk persist,
// every SSD write, every named engine protocol step, every replayed record
// — injects a power failure at each one, recovers, and holds the store to
// a shadow std::map oracle. Companion tests cover double crashes during
// recovery, torn log-record headers, torn SSD pages, transient-EIO retry
// and read-only degradation, seed determinism of crash images, and the
// capacitor-less device mode.
//
// Reproduction: every failure prints the FaultPlan string; re-run one
// schedule with DSTORE_CRASH_PLAN="<string>" (sweep tests then run only
// that plan). With DSTORE_CRASH_ARTIFACT=<path>, failing plan strings are
// also appended to <path> for CI artifact upload.
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dipper/log.h"
#include "dstore/dstore.h"
#include "fault/crash_rig.h"
#include "fault/fault.h"
#include "pmem/pool.h"
#include "ssd/block_device.h"

namespace dstore::fault {
namespace {

void report_failing_plan(const FaultPlan& plan, const Status& why) {
  if (const char* path = std::getenv("DSTORE_CRASH_ARTIFACT")) {
    std::ofstream f(path, std::ios::app);
    f << plan.to_string() << "\n";
  }
  ADD_FAILURE() << "failing plan: " << plan.to_string() << " — " << why.to_string()
                << "\n(reproduce with DSTORE_CRASH_PLAN=\"" << plan.to_string() << "\")";
}

// If DSTORE_CRASH_PLAN is set, replace a sweep's plan list with just it.
bool maybe_single_plan(std::vector<FaultPlan>* plans) {
  const char* repro = std::getenv("DSTORE_CRASH_PLAN");
  if (repro == nullptr) return false;
  auto parsed = FaultPlan::parse(repro);
  EXPECT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  if (parsed.is_ok()) *plans = {parsed.value()};
  return parsed.is_ok();
}

// ---------------------------------------------------------------------------
// FaultPlan serialization
// ---------------------------------------------------------------------------

TEST(FaultPlan, StringRoundTrip) {
  for (const char* text : {
           "(empty)",
           "pmem.fence@17",
           "engine.swap.before_root_flip@1",
           "ssd.write@3:error:0:4",
           "pmem.bulk@2:torn:4096",
           "seed=7;pmem.flush@9:evict:8;pmem.flush@12",
           "ssd.read@5:delay:100000",
           "pmem.flush@4:crash:0:-1",
       }) {
    auto plan = FaultPlan::parse(text);
    ASSERT_TRUE(plan.is_ok()) << text;
    EXPECT_EQ(plan.value().to_string(), text);
  }
}

TEST(FaultPlan, ParseRejectsMalformedInput) {
  for (const char* text : {"pmem.fence", "@3", "pmem.fence@zero", "pmem.fence@0",
                           "pmem.fence@1:explode", "pmem.fence@1:crash:0:1:9"}) {
    EXPECT_FALSE(FaultPlan::parse(text).is_ok()) << text;
  }
}

TEST(FaultPlan, InjectorCountsAndFires) {
  FaultInjector inj(FaultPlan::crash_at("x", 3));
  EXPECT_FALSE(inj.on_hit("x").fired());
  EXPECT_FALSE(inj.on_hit("x").fired());
  EXPECT_FALSE(inj.on_hit("y").fired());
  Outcome o = inj.on_hit("x");
  EXPECT_EQ(o.type, FaultType::kCrash);
  EXPECT_TRUE(inj.crashed());
  // Nothing fires after the power failure.
  EXPECT_FALSE(inj.on_hit("x").fired());
  EXPECT_EQ(inj.hit_count("x"), 3u);
  EXPECT_EQ(inj.hit_count("y"), 1u);
}

// ---------------------------------------------------------------------------
// The exhaustive single-crash sweep (the tentpole)
// ---------------------------------------------------------------------------

TEST(CrashSchedule, ScheduleSpaceCoversProtocolAndExceeds200Points) {
  auto space = CrashRig::enumerate_schedule();
  uint64_t total = 0;
  bool saw_flush = false, saw_fence = false, saw_ssd = false, saw_engine = false,
       saw_replay = false;
  for (const auto& [point, count] : space) {
    total += count;
    saw_flush |= point == "pmem.flush";
    saw_fence |= point == "pmem.fence";
    saw_ssd |= point == "ssd.write";
    saw_engine |= point.rfind("engine.", 0) == 0;
    // Every replayed record passes the one replay loop's fault point.
    saw_replay |= point == "dstore.replay.record";
  }
  EXPECT_TRUE(saw_flush && saw_fence && saw_ssd && saw_engine && saw_replay);
  // Acceptance bar: >= 200 distinct crash points across one checkpoint cycle.
  EXPECT_GE(total, 200u);
  // Specific protocol steps the checkpoint cycle must have visited.
  for (const char* must : {"engine.swap.before_root_flip", "engine.drain.done",
                           "engine.clone.after_copy", "engine.replay.done",
                           "engine.flush.before_bulk", "engine.install.before_root_flip",
                           "engine.recycle.done"}) {
    bool found = false;
    for (const auto& [point, count] : space) found |= point == must;
    EXPECT_TRUE(found) << must;
  }
}

TEST(CrashSchedule, ExhaustiveSingleCrashSweep) {
  auto space = CrashRig::enumerate_schedule();
  std::vector<FaultPlan> plans = all_crash_plans(space);
  // Torn-write and eviction adversaries on top of the plain crashes: a torn
  // bulk persist at every bulk point, a torn SSD page at a sample of write
  // points, and a spurious line eviction shortly before a crash.
  for (const auto& [point, count] : space) {
    if (point == "pmem.bulk") {
      for (uint64_t h = 1; h <= count; h++) {
        FaultPlan p;
        p.add({point, h, FaultType::kTorn, 4096, 1});
        plans.push_back(p);
      }
    } else if (point == "ssd.write") {
      for (uint64_t h = 1; h <= count; h += 5) {
        FaultPlan p;
        p.add({point, h, FaultType::kTorn, 1000, 1});
        plans.push_back(p);
      }
    } else if (point == "pmem.flush") {
      for (uint64_t h = 1; h + 3 <= count; h += 9) {
        FaultPlan p;
        p.add({point, h, FaultType::kEvict, 8, 1});
        p.add({point, h + 3, FaultType::kCrash, 0, 1});
        plans.push_back(p);
      }
    } else if (point == "pmem.nt") {
      // Torn nt-store publication: the write-combining buffer drains a
      // line-snapped prefix (here one line: the LSN line without the CRC
      // line) to media, then power fails inside the batched publication
      // window. Recovery must classify the slot as a torn uncommitted
      // publication. Fires only when the rig runs with nt stores enabled
      // (DSTORE_PMEM_NT=1); the space is empty otherwise.
      for (uint64_t h = 1; h <= count; h += 2) {
        FaultPlan p;
        p.add({point, h, FaultType::kTorn, 64, 1});
        plans.push_back(p);
      }
    }
  }
  bool single = maybe_single_plan(&plans);
  size_t crashes = 0, failures = 0;
  for (const FaultPlan& plan : plans) {
    CrashRig rig;
    bool crashed = rig.run(plan);
    EXPECT_TRUE(crashed) << "plan never fired: " << plan.to_string();
    if (!crashed) continue;
    crashes++;
    Status s = rig.crash_and_recover();
    if (s.is_ok()) s = rig.verify();
    if (!s.is_ok()) {
      report_failing_plan(plan, s);
      if (++failures >= 5) break;  // enough to diagnose; don't drown the log
    }
  }
  if (!single) {
    EXPECT_GE(crashes, 200u);
  }
}

// ---------------------------------------------------------------------------
// Satellite: double crash — power failure during recovery's own replay
// ---------------------------------------------------------------------------

TEST(CrashSchedule, DoubleCrashDuringRecoveryIsIdempotent) {
  // First power failure mid-checkpoint, at the start of log replay onto the
  // spare slot: recovery has real redo work to do.
  const FaultPlan first = FaultPlan::crash_at("engine.replay.begin", 1);

  // Counting pass: recover once fault-free with an armed injector to
  // enumerate the recovery-relative schedule space.
  CrashRig counting;
  ASSERT_TRUE(counting.run(first));
  counting.apply_crash();
  FaultPlan empty;
  bool crashed_again = false;
  ASSERT_TRUE(counting.recover(&empty, &crashed_again).is_ok());
  ASSERT_FALSE(crashed_again);
  ASSERT_TRUE(counting.verify().is_ok()) << counting.verify().to_string();
  auto recovery_space = counting.injector().hit_counts();
  std::vector<FaultPlan> rplans = all_crash_plans(recovery_space);
  ASSERT_GE(rplans.size(), 20u);
  bool single = maybe_single_plan(&rplans);
  (void)single;

  size_t failures = 0;
  for (const FaultPlan& rplan : rplans) {
    CrashRig rig;
    ASSERT_TRUE(rig.run(first));
    rig.apply_crash();
    bool second_crash = false;
    Status s = rig.recover(&rplan, &second_crash);
    EXPECT_TRUE(second_crash) << "recovery plan never fired: " << rplan.to_string();
    if (second_crash) {
      // Crash DURING recovery, then recover again: §3.6 idempotency.
      rig.apply_crash();
      s = rig.recover();
    }
    if (s.is_ok()) s = rig.verify();
    if (!s.is_ok()) {
      report_failing_plan(rplan, s);
      if (++failures >= 5) break;
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite: torn log-record header sweep
// ---------------------------------------------------------------------------

namespace torn {

struct Probe {
  DStoreConfig cfg;
  std::unique_ptr<pmem::Pool> pool;
  std::unique_ptr<ssd::RamBlockDevice> device;
  std::unique_ptr<DStore> store;
};

Probe make_probe() {
  Probe t;
  t.cfg.max_objects = 16;
  t.cfg.num_blocks = 64;
  t.cfg.engine.log_slots = 16;
  t.cfg.engine.arena_bytes = 1 << 20;
  t.cfg.engine.background_checkpointing = false;
  size_t bytes = dipper::Engine::required_pool_bytes(t.cfg.engine);
  t.pool = std::make_unique<pmem::Pool>(bytes, pmem::Pool::Mode::kCrashSim);
  ssd::DeviceConfig dc;
  dc.num_blocks = t.cfg.num_blocks;
  t.device = std::make_unique<ssd::RamBlockDevice>(dc);
  auto s = DStore::create(t.pool.get(), t.device.get(), t.cfg);
  EXPECT_TRUE(s.is_ok());
  t.store = std::move(s).value();
  return t;
}

std::string get(DStore* store, const std::string& key) {
  std::vector<char> buf(4096);
  ds_ctx_t* ctx = store->ds_init();
  auto r = store->oget(ctx, key, buf.data(), buf.size());
  store->ds_finalize(ctx);
  if (!r.is_ok()) return "<absent>";
  return std::string(buf.data(), r.value());
}

}  // namespace torn

TEST(TornLogRecord, HeaderByteSweepNeverLosesCommittedRecords) {
  const std::string va(100, 'A'), vb(200, 'B'), vc(300, 'C');
  for (size_t keep = 0; keep <= dipper::PmemLog::kSlotSize; keep++) {
    torn::Probe t = torn::make_probe();
    ds_ctx_t* ctx = t.store->ds_init();
    ASSERT_TRUE(t.store->oput(ctx, "a", va.data(), va.size()).is_ok());
    ASSERT_TRUE(t.store->oput(ctx, "b", vb.data(), vb.size()).is_ok());
    ASSERT_TRUE(t.store->oput(ctx, "c", vc.data(), vc.size()).is_ok());
    t.store->ds_finalize(ctx);

    // Locate the slot holding c's record in the active log.
    auto& eng = t.store->engine();
    const dipper::PmemLog& log = eng.log_for_testing(eng.active_log_index());
    uint32_t slot = UINT32_MAX;
    for (uint32_t i = 0; i < log.slot_count(); i++) {
      dipper::LogRecordView rec;
      if (log.read(i, &rec) && rec.name.view() == "c") slot = i;
    }
    ASSERT_NE(slot, UINT32_MAX);
    const char* addr = t.pool->base() + log.slot_offset(slot);

    t.store.reset();
    // Tear the record's persistent image: only the first `keep` bytes ever
    // persisted. Under the single-fence publication protocol (DESIGN.md
    // §13) the LSN persists in the SAME train as the rest of the record, so
    // a torn publication CAN leave a valid LSN with a stale CRC line — that
    // is the torn-uncommitted case recovery must classify and skip. What a
    // crash can never leave is the committed bit set (commit fences
    // strictly after the publication fence), so emulate that: clear the
    // bit in the region before the tear copies the prefix from it. The one
    // hardware guarantee we keep is 8-byte atomicity of the LSN word.
    if (keep < dipper::PmemLog::kSlotSize) {
      const_cast<char*>(addr)[14] &= ~(char)dipper::PmemLog::kFlagCommitted;
    }
    t.pool->tear_image(addr, keep, dipper::PmemLog::kSlotSize);
    if (keep < 8) t.pool->tear_image(addr, 0, 8);
    t.pool->crash();
    t.device->crash();

    auto r = DStore::recover(t.pool.get(), t.device.get(), t.cfg);
    ASSERT_TRUE(r.is_ok()) << "keep=" << keep << ": " << r.status().to_string();
    t.store = std::move(r).value();
    // Committed records before the torn one are never lost.
    EXPECT_EQ(torn::get(t.store.get(), "a"), va) << "keep=" << keep;
    EXPECT_EQ(torn::get(t.store.get(), "b"), vb) << "keep=" << keep;
    // The torn record itself is ignored — keep<8: no LSN (empty slot);
    // 8<=keep<104: valid LSN, CRC fails (torn uncommitted publication);
    // 104<=keep<128: CRC intact but uncommitted (aborted). Only the
    // untouched keep==128 record survives as committed.
    if (keep == dipper::PmemLog::kSlotSize) {
      EXPECT_EQ(torn::get(t.store.get(), "c"), vc);
    } else {
      EXPECT_EQ(torn::get(t.store.get(), "c"), "<absent>") << "keep=" << keep;
    }
    EXPECT_TRUE(t.store->validate().is_ok()) << "keep=" << keep;
  }
}

// A committed record that fails its CRC is NOT a torn publication — commit
// fences strictly after the publication train persisted the CRC, so no
// crash schedule can produce it. It is silent media corruption, and
// recovery must fail-stop rather than replay around the hole. (The
// uncommitted variant of the same tear is tolerated by the sweep above.)
TEST(TornLogRecord, CommittedRecordWithTornCrcFailStopsRecovery) {
  const std::string vc(300, 'C');
  torn::Probe t = torn::make_probe();
  ds_ctx_t* ctx = t.store->ds_init();
  ASSERT_TRUE(t.store->oput(ctx, "c", vc.data(), vc.size()).is_ok());
  t.store->ds_finalize(ctx);

  auto& eng = t.store->engine();
  const dipper::PmemLog& log = eng.log_for_testing(eng.active_log_index());
  uint32_t slot = UINT32_MAX;
  for (uint32_t i = 0; i < log.slot_count(); i++) {
    dipper::LogRecordView rec;
    if (log.read(i, &rec) && rec.name.view() == "c") slot = i;
  }
  ASSERT_NE(slot, UINT32_MAX);
  const char* addr = t.pool->base() + log.slot_offset(slot);

  t.store.reset();
  // Keep the head line (valid LSN + committed flag) but lose the CRC line.
  t.pool->tear_image(addr, 96, dipper::PmemLog::kSlotSize);
  t.pool->crash();
  t.device->crash();

  auto r = DStore::recover(t.pool.get(), t.device.get(), t.cfg);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Code::kCorruption) << r.status().to_string();
}

// ---------------------------------------------------------------------------
// Satellite: transient SSD errors — retry, surface, degrade (never drop)
// ---------------------------------------------------------------------------

namespace eio {

struct Fixture {
  FaultInjector inj;
  DStoreConfig cfg;
  std::unique_ptr<pmem::Pool> pool;
  std::unique_ptr<ssd::RamBlockDevice> device;
  std::unique_ptr<DStore> store;
  ds_ctx_t* ctx = nullptr;

  void build(const FaultPlan& plan) {
    cfg.max_objects = 16;
    cfg.num_blocks = 64;
    cfg.engine.log_slots = 32;
    cfg.engine.arena_bytes = 1 << 20;
    cfg.engine.background_checkpointing = false;
    cfg.io_retry_backoff_ns = 1000;  // keep test wall-clock tiny
    pool = std::make_unique<pmem::Pool>(dipper::Engine::required_pool_bytes(cfg.engine),
                                        pmem::Pool::Mode::kDirect);
    ssd::DeviceConfig dc;
    dc.num_blocks = cfg.num_blocks;
    device = std::make_unique<ssd::RamBlockDevice>(dc);
    device->set_fault_injector(&inj);
    inj.set_plan(plan);
    inj.disarm();
    auto s = DStore::create(pool.get(), device.get(), cfg);
    ASSERT_TRUE(s.is_ok());
    store = std::move(s).value();
    ctx = store->ds_init();
  }
  ~Fixture() {
    if (store != nullptr) store->ds_finalize(ctx);
  }
};

}  // namespace eio

TEST(SsdTransientError, SingleEioIsRetriedToSuccess) {
  eio::Fixture f;
  FaultPlan plan;
  plan.add({"ssd.write", 1, FaultType::kError, 0, 1});
  f.build(plan);
  const std::string v(100, 'x');
  f.inj.arm();
  Status s = f.store->oput(f.ctx, "k", v.data(), v.size());
  f.inj.disarm();
  EXPECT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_EQ(f.store->metrics().counter_value("ssd_io_retries_total"), 1u);
  EXPECT_EQ(f.store->metrics().counter_value("ssd_io_exhausted_total"), 0u);
  EXPECT_FALSE(f.store->read_only());
  std::vector<char> buf(256);
  auto r = f.store->oget(f.ctx, "k", buf.data(), buf.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(std::string(buf.data(), r.value()), v);
}

TEST(SsdTransientError, BackToBackEiosExhaustLastRetry) {
  // Exactly io_max_retries (3) consecutive failures: the final retry wins.
  eio::Fixture f;
  FaultPlan plan;
  plan.add({"ssd.write", 1, FaultType::kError, 0, 3});
  f.build(plan);
  const std::string v(64, 'y');
  f.inj.arm();
  Status s = f.store->oput(f.ctx, "k", v.data(), v.size());
  f.inj.disarm();
  EXPECT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_EQ(f.store->metrics().counter_value("ssd_io_retries_total"), 3u);
  EXPECT_FALSE(f.store->read_only());
}

TEST(SsdTransientError, ExhaustionSurfacesAtPutBoundaryAndDegradesReadOnly) {
  // Regression for the dropped-return-code bug: a failing SSD write used to
  // leave its reserved log record in-flight forever, wedging every later
  // writer of the same key. Now the record is aborted, the error surfaces
  // at the oput() boundary, and the store degrades to read-only.
  eio::Fixture f;
  FaultPlan plan;
  plan.add({"ssd.write", 2, FaultType::kError, 0, -1});  // hit 2 onward: all fail
  f.build(plan);
  const std::string pre(80, 'p'), v(120, 'q');
  f.inj.arm();
  ASSERT_TRUE(f.store->oput(f.ctx, "pre", pre.data(), pre.size()).is_ok());

  Status s = f.store->oput(f.ctx, "k", v.data(), v.size());
  EXPECT_EQ(s.code(), Code::kReadOnly) << s.to_string();
  EXPECT_EQ(f.store->metrics().counter_value("ssd_io_retries_total"), 3u);
  EXPECT_EQ(f.store->metrics().counter_value("ssd_io_exhausted_total"), 1u);
  EXPECT_TRUE(f.store->read_only());
  // The reserved record was aborted — no wedge, no replayable garbage.
  EXPECT_EQ(f.store->engine().stats().records_aborted.load(), 1u);
  EXPECT_EQ(f.store->engine().inflight_count(Key::from("k")), 0);

  // Reads keep working; mutations are cleanly rejected without touching the
  // (failing) device again.
  std::vector<char> buf(256);
  auto r = f.store->oget(f.ctx, "pre", buf.data(), buf.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(std::string(buf.data(), r.value()), pre);
  EXPECT_EQ(f.store->oput(f.ctx, "x", v.data(), v.size()).code(), Code::kReadOnly);
  EXPECT_EQ(f.store->odelete(f.ctx, "pre").code(), Code::kReadOnly);
  EXPECT_EQ(f.store->metrics().counter_value("ssd_io_retries_total"), 3u);  // no further device attempts
  f.inj.disarm();
  EXPECT_TRUE(f.store->validate().is_ok());
}

TEST(SsdTransientError, LatencySpikeDelaysButCompletes) {
  eio::Fixture f;
  FaultPlan plan;
  plan.add({"ssd.write", 1, FaultType::kDelay, 200000, 1});  // 200 us spike
  f.build(plan);
  const std::string v(40, 'z');
  f.inj.arm();
  EXPECT_TRUE(f.store->oput(f.ctx, "k", v.data(), v.size()).is_ok());
  f.inj.disarm();
  EXPECT_EQ(f.store->metrics().counter_value("ssd_io_retries_total"), 0u);
}

// ---------------------------------------------------------------------------
// Satellite: seed determinism — same plan, byte-identical crash images
// ---------------------------------------------------------------------------

TEST(CrashSchedule, SameSeedYieldsByteIdenticalCrashImages) {
  auto space = CrashRig::enumerate_schedule();
  for (uint64_t seed : {1ull, 42ull, 0xdeadull}) {
    FaultPlan p1 = FaultPlan::random(seed, space);
    FaultPlan p2 = FaultPlan::random(seed, space);
    EXPECT_EQ(p1.to_string(), p2.to_string());

    CrashRig a, b;
    bool ca = a.run(p1);
    bool cb = b.run(p2);
    EXPECT_EQ(ca, cb) << p1.to_string();
    if (!ca || !cb) continue;
    a.apply_crash();
    b.apply_crash();
    EXPECT_EQ(a.pmem_fingerprint(), b.pmem_fingerprint()) << p1.to_string();
    EXPECT_EQ(a.ssd_fingerprint(), b.ssd_fingerprint()) << p1.to_string();
    ASSERT_TRUE(a.recover().is_ok());
    EXPECT_TRUE(a.verify().is_ok()) << p1.to_string();
  }
}

// ---------------------------------------------------------------------------
// Satellite: capacitor-less mode — why commit==durable needs PLP
// ---------------------------------------------------------------------------

TEST(CrashSchedule, CapacitorlessDeviceLosesAckedWritesOnPowerFailure) {
  const FaultPlan plan = FaultPlan::crash_at("ssd.write", 30);

  // Without power-loss protection the device write cache dies with the
  // power: committed log records replay, but their data reverts — the
  // oracle check must catch the divergence.
  RigOptions unsafe;
  unsafe.plp = false;
  CrashRig rig(unsafe);
  ASSERT_TRUE(rig.run(plan));
  ASSERT_TRUE(rig.crash_and_recover().is_ok());
  EXPECT_FALSE(rig.verify().is_ok());

  // Same schedule with capacitors: nothing is lost.
  CrashRig safe;
  ASSERT_TRUE(safe.run(plan));
  ASSERT_TRUE(safe.crash_and_recover().is_ok());
  EXPECT_TRUE(safe.verify().is_ok()) << safe.verify().to_string();
}

}  // namespace
}  // namespace dstore::fault
