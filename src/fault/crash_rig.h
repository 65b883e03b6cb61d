// CrashRig — the deterministic crash-schedule harness behind
// tests/crash_schedule_test.cc, tests/integrity_test.cc and
// tests/sharded_crash_test.cc (its oracle).
//
// A rig owns one StoreRig (dstore/store_rig.h) wired to a single
// FaultInjector, plus a shadow EitherStateOracle tracking what the
// deterministic workload has durably committed. The lifecycle mirrors
// a real power-failure test:
//
//   rig.run(plan)            — fresh store, seeded single-thread workload
//                              (puts/deletes + one mid-run checkpoint)
//                              until the plan's power failure fires;
//   rig.apply_crash()        — revert pool + device to their durable images;
//   rig.recover(...)         — DStore::recover, optionally under a second
//                              plan (the double-crash tests);
//   rig.verify()             — every key must match the oracle exactly,
//                              except the single op in flight at the crash,
//                              which may be in either its pre- or post-
//                              crash state (atomicity, not loss).
//
// The workload is a pure function of RigOptions::workload_seed: op i writes
// a value whose length (1 + (131*i + 17) mod 5003) is unique per op, so no
// two ops ever produce equal values and "which write survived" is always
// decidable. Determinism of the whole rig (same plan => byte-identical
// crash images) is what the seed-determinism test asserts via the
// fingerprint accessors.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dstore/store_rig.h"
#include "fault/fault.h"

namespace dstore::fault {

// The oracle every single-store and fleet crash sweep holds a store to: the
// state its acked ops left, plus the one op in flight when the power
// failed, whose key may read as either its pre- or its post-crash value
// (atomicity, not loss). A nullopt value is an absent key.
class EitherStateOracle {
 public:
  using Value = std::optional<std::string>;

  void clear() {
    acked_.clear();
    in_flight_.reset();
  }
  // An acked put of `value`, or an acked delete when it is nullopt.
  void ack(const std::string& key, const Value& value);
  // The op that was in flight when the power failed.
  void interrupt(const std::string& key, Value value) {
    in_flight_ = InFlight{key, std::move(value)};
  }

  const std::map<std::string, std::string>& acked() const { return acked_; }
  // The in-flight op's key, if the power failed mid-op.
  const std::string* in_flight_key() const {
    return in_flight_.has_value() ? &in_flight_->key : nullptr;
  }
  // Whether `got` is the key's acked state.
  bool holds_acked(const std::string& key, const Value& got) const;
  // Holds one read to the oracle: the key's acked state, or for the
  // in-flight op's key either its pre- or its post-crash state.
  Status check(const std::string& key, const Value& got) const;

 private:
  struct InFlight {
    std::string key;
    Value value;
  };
  std::map<std::string, std::string> acked_;
  std::optional<InFlight> in_flight_;
};

struct RigOptions {
  uint32_t log_slots = 48;      // half-log (24) never fills: no backpressure
  uint64_t max_objects = 64;
  uint64_t num_blocks = 768;
  uint32_t ops = 56;            // workload length; checkpoint after ops/2
  uint32_t keys = 16;           // key space "k0".."k15"
  uint64_t workload_seed = 0x5eed5ULL;
  bool plp = true;              // device capacitors (power-loss protection)
  // Value-length multiplier: scale > 1 makes most values span several SSD
  // blocks, so each op's data lands as a queue-pair batch with IOs in
  // flight at the crash point (the async data-plane sweeps).
  uint32_t value_scale = 1;
  // Corruption sweeps: keep whole-object payloads in the DIPPER physical
  // log so read-repair has a source copy, and give the payload region the
  // headroom those values need.
  bool repair_logging = false;
};

class CrashRig {
 public:
  explicit CrashRig(RigOptions opt = {});

  // Build a fresh store and drive the workload under `plan`. The injector
  // arms only after store creation, so hit numbers are workload-relative.
  // Returns true if an injected power failure fired.
  bool run(const FaultPlan& plan);

  // Power-failure aftermath: tear down the (dead) store and revert the pool
  // and device to their durable images. Must precede recover().
  void apply_crash();

  // Recover the store from the durable images. With `recovery_plan` the
  // injector re-arms for the duration (counters reset, so recovery hit
  // numbers are recovery-relative); `crashed_again` reports whether the
  // recovery itself suffered an injected power failure.
  Status recover(const FaultPlan* recovery_plan = nullptr, bool* crashed_again = nullptr);

  Status crash_and_recover() {
    apply_crash();
    return recover();
  }

  // Oracle check: validate() + every key held to the EitherStateOracle, and
  // object_count() agreeing with the per-key probes.
  Status verify();

  // Oracle check for silent-corruption sweeps. The store is allowed — and
  // expected — to *detect* injected corruption, so Status::corruption on a
  // read counts as success (`detected` tallies them, along with repairs
  // that the read healed transparently). What fails the check is the one
  // thing the integrity layer exists to rule out: a read that returns OK
  // with bytes different from the oracle's, i.e. silent corruption.
  Status verify_integrity(uint64_t* detected = nullptr);

  FaultInjector& injector() { return injector_; }

  // FNV-1a over the durable images; call after apply_crash().
  uint64_t pmem_fingerprint() const;
  uint64_t ssd_fingerprint() const { return rig_->device->media_fingerprint(); }

  // Counting pass: run the full workload fault-free with an armed injector
  // and return every (point, hit count) — the crash-schedule space.
  static std::vector<std::pair<std::string, uint64_t>> enumerate_schedule(RigOptions opt = {});

 private:
  Status build_store();
  void run_workload();
  std::string value_for(uint32_t i) const;

  RigOptions opt_;
  FaultInjector injector_;  // declared before the layers that point at it
  std::unique_ptr<StoreRig> rig_;  // built by the first run()

  EitherStateOracle oracle_;
};

// Every single-crash plan over an enumerated schedule space: one
// crash_at(point, hit) plan per (point, hit<=count) pair.
std::vector<FaultPlan> all_crash_plans(
    const std::vector<std::pair<std::string, uint64_t>>& space);

// Every single-fault silent-corruption plan over an enumerated schedule
// space: for each ssd.write hit, a page bit-flip after the write lands and
// a misdirected write; for each ssd.read hit, a media bit-flip before the
// copy. The flipped bit index is drawn from `seed` per plan, so different
// sweeps cover different bit positions while any one sweep stays exactly
// reproducible from its plan strings.
std::vector<FaultPlan> all_corruption_plans(
    const std::vector<std::pair<std::string, uint64_t>>& space, uint64_t seed = 1);

}  // namespace dstore::fault
