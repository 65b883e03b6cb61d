// Distributed crash-schedule sweep: a replication fleet under the oracle.
//
// Where crash_schedule_test.cc crashes ONE store at every protocol point,
// this sweep crashes MACHINES: ≥200 DistPlans spread across the four
// distributed failure categories — power-fail the primary at each of its
// enumerated fault points (including the mid-checkpoint window), power-fail
// a follower at each of its points (including mid-replay), partition the
// primary away long enough for the majority to promote, and back-to-back
// double failovers — each run through a full DistRig fleet and held to the
// cluster oracle. The forbidden outcomes are replica divergence and
// silently lost acked writes.
//
// Reproduction: every failure prints the DistPlan string; re-run one plan
// with DSTORE_DIST_PLAN="<string>" (the sweep then runs only that plan).
// With DSTORE_CRASH_ARTIFACT=<path>, failing plan strings are appended to
// <path> for CI artifact upload.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crash_sweep.h"
#include "fault/dist_rig.h"
#include "fault/fault.h"

namespace dstore::fault {

template <>
inline constexpr const char* kReproEnv<DistPlan> = "DSTORE_DIST_PLAN";

namespace {

// ---------------------------------------------------------------------------
// Schedule-space and plan-generator shape
// ---------------------------------------------------------------------------

TEST(DistCrashSweep, ScheduleSpacesCoverCheckpointAndReplay) {
  auto spaces = DistRig::enumerate_schedules();
  ASSERT_EQ(spaces.size(), 3u);
  for (size_t n = 0; n < spaces.size(); n++) {
    uint64_t total = 0;
    bool saw_flush = false, saw_fence = false;
    for (const auto& [point, count] : spaces[n]) {
      total += count;
      saw_flush |= point == "pmem.flush";
      saw_fence |= point == "pmem.fence";
    }
    EXPECT_TRUE(saw_flush) << "node " << n;
    EXPECT_TRUE(saw_fence) << "node " << n;
    EXPECT_GT(total, 50u) << "node " << n;
  }
  // The seed primary runs the engine checkpoint protocol; its space must
  // include the named engine steps so plans land inside that window.
  bool saw_engine = false;
  for (const auto& [point, count] : spaces[0])
    saw_engine |= point.rfind("engine.", 0) == 0;
  EXPECT_TRUE(saw_engine);
}

TEST(DistCrashSweep, GeneratorMeetsTargetAndCoversAllFourCategories) {
  auto plans = dist_crash_plans(DistRigOptions{}, 200);
  EXPECT_GE(plans.size(), 200u);
  size_t primary_crash = 0, follower_crash = 0, partition = 0, double_kill = 0;
  for (const auto& p : plans) {
    for (const auto& f : p.faults) (f.node == 0 ? primary_crash : follower_crash)++;
    partition += p.partitions.size();
    if (p.kills.size() >= 2) double_kill++;
    // Every generated plan must survive a to_string/parse round trip so a
    // failure report is always reproducible.
    auto back = DistPlan::parse(p.to_string());
    ASSERT_TRUE(back.is_ok()) << p.to_string();
    EXPECT_EQ(back.value().to_string(), p.to_string());
  }
  EXPECT_GT(primary_crash, 50u);
  EXPECT_GT(follower_crash, 30u);
  EXPECT_GT(partition, 4u);
  EXPECT_GT(double_kill, 2u);
}

// ---------------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------------

TEST(DistCrashSweep, EveryPlanHoldsEveryNodeToTheClusterOracle) {
  DistRigOptions opt;
  auto plans = dist_crash_plans(opt, 200);
  maybe_single_plan(&plans);
  size_t failures = 0;
  for (const auto& plan : plans) {
    DistRig rig(opt);
    Status st = rig.run(plan);
    if (!st.is_ok()) {
      report_failing_plan(plan, st);
      if (++failures >= 8) {
        ADD_FAILURE() << "aborting sweep after " << failures << " failing plans";
        return;
      }
    }
  }
}

}  // namespace
}  // namespace dstore::fault
