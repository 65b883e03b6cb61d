// One reporter for every crash-schedule sweep, over any plan type with
// parse() and to_string() (fault::FaultPlan, fault::DistPlan).
//
// Reproduction: a failing plan prints its string; setting the sweep's
// repro variable (DSTORE_CRASH_PLAN, or DSTORE_DIST_PLAN for the
// distributed sweep) to that string re-runs just that plan. With
// DSTORE_CRASH_ARTIFACT=<path>, failing plan strings are also appended to
// <path> for CI artifact upload.
#pragma once

#include <cstdlib>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"

namespace dstore::fault {

// The variable that replays one plan of type Plan; dist_crash_test.cc
// specializes it for DistPlan.
template <typename Plan>
inline constexpr const char* kReproEnv = "DSTORE_CRASH_PLAN";

template <typename Plan>
void report_failing_plan(const Plan& plan, const Status& why) {
  if (const char* path = std::getenv("DSTORE_CRASH_ARTIFACT")) {
    std::ofstream f(path, std::ios::app);
    f << plan.to_string() << "\n";
  }
  ADD_FAILURE() << "failing plan: " << plan.to_string() << " — " << why.to_string()
                << "\n(reproduce with " << kReproEnv<Plan> << "=\"" << plan.to_string() << "\")";
}

// If kReproEnv<Plan> is set, replace a sweep's plan list with just its plan.
template <typename Plan>
bool maybe_single_plan(std::vector<Plan>* plans) {
  const char* repro = std::getenv(kReproEnv<Plan>);
  if (repro == nullptr) return false;
  auto parsed = Plan::parse(repro);
  EXPECT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  if (parsed.is_ok()) *plans = {parsed.value()};
  return parsed.is_ok();
}

}  // namespace dstore::fault
