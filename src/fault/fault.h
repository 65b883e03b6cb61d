// FaultPlan — deterministic fault injection across pmem / ssd / engine.
//
// DStore's central claims are crash-consistency claims; testing them on the
// happy path only means the ordering between individual persist points is
// never exercised. This subsystem makes every point where the system can
// fail a *named, countable event* and lets a test (or tools/crashplan)
// schedule a fault at exactly the Nth occurrence of any of them:
//
//   pmem.flush / pmem.fence / pmem.bulk    — power failure before the Nth
//                                            flush / fence / bulk persist,
//                                            spurious eviction, torn bulk;
//   ssd.write / ssd.read / ssd.flush       — transient EIO, torn 4 KB page
//                                            on power loss, latency spikes;
//   engine.* / dstore.*                    — named protocol steps (swap,
//                                            drain, clone, replay, bulk
//                                            flush, root flips, recovery),
//                                            registered with the
//                                            DSTORE_FAULT_POINT macro.
//
// A FaultPlan is a list of FaultSpecs plus a seed; it serializes to a short
// string ("seed=7;pmem.fence@17:crash") so any failing schedule can be
// reproduced from a CI log verbatim. The FaultInjector is the runtime: it
// counts hits per point, fires matching specs, and coordinates the power
// failure — a kCrash fault invokes every registered crash sink (the pmem
// pool freezes its persistent image, the block device drops power), after
// which the workload runs on borrowed time until the harness notices
// crashed() and performs the actual crash()+recover().
//
// Determinism: the same plan against the same single-threaded workload
// produces byte-identical crash images (tests/crash_schedule_test.cc proves
// this), because hit counting is exact and the only randomness (eviction
// faults) comes from the plan's own seeded RNG.
//
// Builds: fault points compile to nothing when DSTORE_FAULT_INJECTION_DISABLED
// is defined (cmake -DDSTORE_FAULT_INJECTION=OFF, for release builds); the
// default build keeps them — a null-injector check is one predictable branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/lockdep.h"
#include "common/rng.h"
#include "common/status.h"

namespace dstore::fault {

enum class FaultType : uint8_t {
  kNone = 0,
  kCrash,  // power failure: freeze every registered persistence sink
  kError,  // the faulting layer returns an injected transient Status
  kTorn,   // persist only the first `arg` bytes of the write, then kCrash
  kDelay,  // latency spike: spin for `arg` ns, then proceed normally
  kEvict,  // pmem only: spuriously persist `arg` random dirty lines
  // Silent-corruption faults: the layer completes the operation normally
  // (no error is returned, no crash) but the persisted or returned bytes
  // are wrong — exactly what media/transport bit rot does. Detection is
  // the integrity layer's job, never the injector's.
  kBitFlipPmemLine,   // pmem flush/bulk: flip bit `arg` (mod range) of the
                      // range being persisted, in DRAM and the image
  kBitFlipSsdPage,    // ssd read/write: flip bit `arg` (mod page) of the
                      // IO's first page on media, after the write lands /
                      // before the read copies
  kMisdirectedWrite,  // ssd write: the data lands `max(arg,1)` blocks away
                      // (mod device); the intended LBA is never written
};

const char* fault_type_name(FaultType t);

struct FaultSpec {
  std::string point;               // exact fault-point name
  uint64_t hit = 1;                // fire on the Nth hit (1-based)
  FaultType type = FaultType::kCrash;
  uint64_t arg = 0;                // torn prefix bytes / delay ns / evict lines
  int32_t repeat = 1;              // consecutive hits to fire for; -1 = forever

  // "point@hit[:type[:arg[:repeat]]]" with default fields omitted.
  std::string to_string() const;
};

// An ordered fault schedule. Copyable, comparable by string form.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(uint64_t seed) : seed_(seed) {}

  FaultPlan& add(FaultSpec spec) {
    specs_.push_back(std::move(spec));
    return *this;
  }
  // The most common plan: power failure at the Nth hit of `point`.
  static FaultPlan crash_at(std::string point, uint64_t hit) {
    FaultPlan p;
    p.add({std::move(point), hit, FaultType::kCrash, 0, 1});
    return p;
  }
  // Seeded random plan over an enumerated schedule space (point -> hit
  // count, as returned by FaultInjector::hit_counts()). Same seed + same
  // space => identical plan; used by the seed-determinism harness check.
  static FaultPlan random(uint64_t seed,
                          const std::vector<std::pair<std::string, uint64_t>>& space);

  uint64_t seed() const { return seed_; }
  const std::vector<FaultSpec>& specs() const { return specs_; }
  bool empty() const { return specs_.empty(); }

  // "seed=N;spec;spec;..." — the reproduction string printed on failures.
  std::string to_string() const;
  static Result<FaultPlan> parse(std::string_view text);

 private:
  uint64_t seed_ = 0;
  std::vector<FaultSpec> specs_;
};

// What the faulting layer must do about a hit. kCrash and kDelay are fully
// handled inside on_hit (sinks invoked / delay spun); they are still
// reported so layers can skip the doomed operation. kError carries the
// Status to return; kTorn and kEvict carry `arg` for the layer to apply.
struct Outcome {
  FaultType type = FaultType::kNone;
  uint64_t arg = 0;
  Status status = Status::ok();

  bool fired() const { return type != FaultType::kNone; }
};

class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultPlan plan) { set_plan(std::move(plan)); }
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Install a plan: counters and the crashed flag reset, the RNG re-seeds
  // from the plan. Crash sinks are kept.
  void set_plan(FaultPlan plan);
  const FaultPlan& plan() const { return plan_; }
  // Clear counters and the crashed flag, keep the plan and sinks.
  void reset();

  // Hits are counted (and faults fired) only while armed. Harnesses arm
  // after store creation so formatting noise never shifts hit numbers.
  void arm() { armed_.store(true, std::memory_order_release); }
  void disarm() { armed_.store(false, std::memory_order_release); }
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  // Power-failure coordination: sinks run (once) when a kCrash/kTorn fault
  // fires. Pool::set_fault_injector / RamBlockDevice::set_fault_injector
  // register their freeze operations here.
  void add_crash_sink(std::function<void()> sink);
  void trigger_crash();  // idempotent
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  // The instrumented layers call this at every fault point.
  Outcome on_hit(std::string_view point);

  uint64_t hit_count(std::string_view point) const;
  // All points hit so far with their counts, name-sorted — the crash-
  // schedule space a sweep enumerates.
  std::vector<std::pair<std::string, uint64_t>> hit_counts() const;

  // Plan-seeded RNG for deterministic adversary choices (eviction faults).
  Rng& rng() { return rng_; }

 private:
  // Quiescence-exempt: on_hit() runs on every thread at every fault point —
  // pure test infrastructure, compiled out of release builds entirely.
  mutable Mutex mu_{"fault.injector", lockdep::kQuiesceExempt};
  FaultPlan plan_;
  Rng rng_{0};
  std::unordered_map<std::string, uint64_t> counts_;
  std::vector<std::function<void()>> sinks_;
  std::atomic<bool> armed_{true};
  std::atomic<bool> crashed_{false};
};

// Hot-path entry: one null check when injection is compiled in, nothing
// otherwise. All layers funnel through this.
#if defined(DSTORE_FAULT_INJECTION_DISABLED)
inline Outcome hit(FaultInjector* /*inj*/, std::string_view /*point*/) { return {}; }
#else
inline Outcome hit(FaultInjector* inj, std::string_view point) {
  if (inj == nullptr) return {};
  return inj->on_hit(point);
}
#endif

// Named protocol step marker for code that only needs crash/delay semantics
// (the engine's swap/drain/clone/replay/root-flip sequence).
#define DSTORE_FAULT_POINT(inj, name) (void)::dstore::fault::hit((inj), (name))

}  // namespace dstore::fault
