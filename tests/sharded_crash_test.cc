// Crash-schedule sweep against one shard of a live ShardedStore.
//
// The single-store sweep (crash_schedule_test.cc) proves the DIPPER
// protocol; what it cannot show is that partitioning preserves it. Here the
// fault injector is wired into ONE shard of a 4-shard fleet (pool + device
// + engine, via ShardedConfig::fault / fault_shard) while the other shards
// run clean. A deterministic single-threaded workload spreads keys across
// the fleet, checkpoints mid-run through the shared pool, and stops at the
// injected power failure; the whole fleet is then power-failed and
// recovered (crash_and_recover_all) and held to a shadow oracle:
//
//   - every acked op on every shard survives, except the single op in
//     flight at the crash, which may be in either its pre- or post-state
//     (atomicity, not loss) — exactly the single-store contract;
//   - faults never leak across the partition: a power failure on the
//     faulted shard leaves the other shards serving (and their later acked
//     writes durable).
//
// Reproduction mirrors crash_schedule_test.cc: failures print the FaultPlan
// string, DSTORE_CRASH_PLAN="<string>" re-runs just that schedule, and
// DSTORE_CRASH_ARTIFACT=<path> appends failing plans for CI upload.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crash_sweep.h"
#include "dstore/sharded.h"
#include "fault/crash_rig.h"
#include "fault/fault.h"
#include "pmem/pool.h"

namespace dstore::fault {
namespace {

// ShardedRig — CrashRig's lifecycle (run / crash / recover / verify) against
// a fleet with exactly one faulted member, held to CrashRig's oracle.
struct ShardedRig {
  static constexpr int kShards = 4;
  static constexpr int kFaultShard = 1;
  static constexpr uint32_t kOps = 48;
  static constexpr uint32_t kKeys = 24;

  FaultInjector inj;  // declared before the store that points at it
  ShardedConfig cfg;
  std::unique_ptr<ShardedStore> store;

  EitherStateOracle oracle;

  static std::string key_for(uint32_t i) {
    char buf[24];
    snprintf(buf, sizeof(buf), "fleet-obj-%03u", (i * 7 + 3) % kKeys);
    return buf;
  }
  // Unique length per op (131 coprime to 487), so "which write survived"
  // is always decidable from the byte count alone.
  static std::string value_for(uint32_t i) {
    return std::string(1 + (131 * i + 17) % 487, (char)('a' + i % 26));
  }

  bool build() {
    cfg.num_shards = kShards;
    cfg.pool_mode = pmem::Pool::Mode::kCrashSim;
    cfg.fault = &inj;
    cfg.fault_shard = kFaultShard;
    cfg.ckpt_workers = 1;  // deterministic: one worker, no stealing races
    cfg.shard.max_objects = 64;
    cfg.shard.num_blocks = 512;
    cfg.shard.engine.log_slots = 64;
    cfg.shard.engine.arena_bytes = 1 << 20;
    cfg.shard.engine.background_checkpointing = false;
    inj.disarm();  // creation noise must not shift hit numbers
    auto r = ShardedStore::create(cfg);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    if (!r.is_ok()) return false;
    store = std::move(r).value();
    return true;
  }

  // Fresh fleet, deterministic workload under `plan` (puts/deletes across
  // all shards + one mid-run checkpoint_all). Returns true if the injected
  // power failure fired.
  bool run(const FaultPlan& plan) {
    if (!build()) return false;
    inj.set_plan(plan);
    inj.arm();
    for (uint32_t i = 0; i < kOps; i++) {
      std::string k = key_for(i);
      EitherStateOracle::Value v;
      if (i % 11 != 10) v = value_for(i);  // every 11th op deletes
      if (v.has_value()) {
        (void)store->put(k, v->data(), v->size());
      } else {
        (void)store->del(k);
      }
      if (inj.crashed()) {  // this op was in flight: either-state at verify
        oracle.interrupt(k, std::move(v));
        return true;
      }
      oracle.ack(k, v);
      if (i == kOps / 2) {
        (void)store->checkpoint_all();
        if (inj.crashed()) return true;  // no user op in flight
      }
    }
    return inj.crashed();
  }

  Status recover_fleet() {
    inj.disarm();
    return store->crash_and_recover_all();
  }

  EitherStateOracle::Value get(const std::string& key) {
    std::vector<char> buf(1024);
    auto r = store->get(key, buf.data(), buf.size());
    if (!r.is_ok()) return std::nullopt;
    return std::string(buf.data(), r.value());
  }

  // validate_all() + every acked key and the in-flight op's held to the
  // oracle.
  Status verify() {
    DSTORE_RETURN_IF_ERROR(store->validate_all());
    for (const auto& [k, v] : oracle.acked()) DSTORE_RETURN_IF_ERROR(oracle.check(k, get(k)));
    for (const auto& [k, v] : oracle.in_flight()) DSTORE_RETURN_IF_ERROR(oracle.check(k, get(k)));
    return Status::ok();
  }

  // Counting pass: full workload fault-free with an armed injector; the
  // (point, hits) space is the faulted shard's complete schedule.
  static std::vector<std::pair<std::string, uint64_t>> enumerate_schedule() {
    ShardedRig rig;
    FaultPlan empty;
    EXPECT_FALSE(rig.run(empty));
    // Snapshot the space BEFORE verifying: verify()'s reads would add
    // ssd.read hits the sweep's (read-free) workload can never reach.
    auto space = rig.inj.hit_counts();
    rig.inj.disarm();
    EXPECT_TRUE(rig.verify().is_ok());
    return space;
  }
};

// ---------------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------------

TEST(ShardedCrash, ScheduleSpaceCoversOneShardOfTheFleet) {
  auto space = ShardedRig::enumerate_schedule();
  uint64_t total = 0;
  bool saw_pmem = false, saw_ssd = false, saw_engine = false;
  for (const auto& [point, count] : space) {
    total += count;
    saw_pmem |= point.rfind("pmem.", 0) == 0;
    saw_ssd |= point.rfind("ssd.", 0) == 0;
    saw_engine |= point.rfind("engine.", 0) == 0;
  }
  // Only the faulted shard is instrumented, so the space reflects roughly a
  // quarter of the fleet's work — but every layer of that shard must appear
  // (puts hit pmem + ssd; the mid-run checkpoint_all hits engine.*).
  EXPECT_TRUE(saw_pmem) << "no pmem points — fault not wired into the shard pool?";
  EXPECT_TRUE(saw_ssd) << "no ssd points — fault not wired into the shard device?";
  EXPECT_TRUE(saw_engine) << "no engine points — fault not wired into the shard engine?";
  EXPECT_GE(total, 50u);
}

TEST(ShardedCrash, SingleCrashSweepOverOneShardKeepsFleetConsistent) {
  auto space = ShardedRig::enumerate_schedule();
  std::vector<FaultPlan> plans = all_crash_plans(space);
  ASSERT_GE(plans.size(), 50u);
  bool single = maybe_single_plan(&plans);
  size_t crashes = 0, failures = 0;
  for (const FaultPlan& plan : plans) {
    ShardedRig rig;
    bool crashed = rig.run(plan);
    EXPECT_TRUE(crashed) << "plan never fired: " << plan.to_string();
    if (!crashed) continue;
    crashes++;
    Status s = rig.recover_fleet();
    if (s.is_ok()) s = rig.verify();
    if (!s.is_ok()) {
      report_failing_plan(plan, s);
      if (++failures >= 5) break;  // enough to diagnose; don't drown the log
    }
  }
  RecordProperty("plans", (int)plans.size());
  RecordProperty("crashes", (int)crashes);
  if (!single) {
    EXPECT_GE(crashes, 50u);
  }
}

// ---------------------------------------------------------------------------
// Isolation: a power failure on one shard leaves the others serving
// ---------------------------------------------------------------------------

TEST(ShardedCrash, CrashOnOneShardDoesNotStopTheOthers) {
  ShardedRig rig;
  ASSERT_TRUE(rig.run(FaultPlan::crash_at("pmem.fence", 1)));

  // The fleet is on borrowed time for shard kFaultShard only: its pool and
  // device froze their durable images when the fault fired. Writes routed
  // to every OTHER shard must still commit — and survive the fleet-wide
  // power failure below, because those shards' images freeze only then.
  std::vector<std::string> late_keys;
  const std::string late_value(96, 'L');
  for (int i = 0; late_keys.size() < 6 && i < 1000; i++) {
    char buf[24];
    snprintf(buf, sizeof(buf), "post-crash-%03d", i);
    if (rig.store->shard_of(buf) == ShardedRig::kFaultShard) continue;
    ASSERT_TRUE(rig.store->put(buf, late_value.data(), late_value.size()).is_ok()) << buf;
    late_keys.push_back(buf);
  }
  ASSERT_EQ(late_keys.size(), 6u);

  ASSERT_TRUE(rig.recover_fleet().is_ok());
  EXPECT_TRUE(rig.verify().is_ok()) << rig.verify().to_string();
  for (const std::string& k : late_keys) {
    EXPECT_EQ(rig.get(k), late_value) << k << " (acked after the remote shard's crash)";
  }
}

TEST(ShardedCrash, FaultShardOutOfRangeIsRejected) {
  FaultInjector inj;
  ShardedConfig cfg;
  cfg.num_shards = 2;
  cfg.pool_mode = pmem::Pool::Mode::kCrashSim;
  cfg.fault = &inj;
  cfg.fault_shard = 2;
  EXPECT_EQ(ShardedStore::create(cfg).status().code(), Code::kInvalidArgument);
}

}  // namespace
}  // namespace dstore::fault
