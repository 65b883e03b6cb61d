// StoreRig — one emulated DStore substrate, and the only way a test builds,
// crashes and recovers a store: a pmem::Pool sized by
// DStoreConfig::required_pool_bytes, a RamBlockDevice, the DStore on them
// and one ds_ctx_t:
//
//   fault::StoreRig rig(cfg);    — fresh store on a new pool + device
//   rig.store->oput(rig.ctx, …);
//   rig.crash();                 — power failure: drop the store, revert
//                                  pool + device to their durable images
//   rig.cfg.… = …;               — optional: reopen under another config
//   rig.recover();               — DStore::recover under rig.cfg
//
// CrashRig — the deterministic crash-schedule harness behind
// tests/crash_schedule_test.cc and tools/crashplan.
//
// A rig owns one StoreRig wired to a single FaultInjector, plus a shadow
// oracle (std::map<name, value>) tracking what the deterministic workload
// has durably committed. The lifecycle mirrors a real power-failure test:
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
#include <string>
#include <utility>
#include <vector>

#include "dstore/dstore.h"
#include "fault/fault.h"
#include "pmem/pool.h"
#include "ssd/block_device.h"

namespace dstore::fault {

class StoreRig {
 public:
  // A device of cfg.num_blocks blocks with the default DeviceConfig.
  explicit StoreRig(DStoreConfig cfg, pmem::Pool::Mode mode = pmem::Pool::Mode::kCrashSim);
  // Builds the pool and the device and formats a fresh store on them
  // (status() reports a failure). A non-null cfg.engine.fault is wired into
  // the pool and the device too, so one injector sees every layer.
  StoreRig(DStoreConfig cfg, pmem::Pool::Mode mode, const ssd::DeviceConfig& dc);
  ~StoreRig() { close(); }
  StoreRig(StoreRig&&) = default;  // so test helpers can return one
  StoreRig& operator=(StoreRig&&) = delete;

  // Format a fresh store over the pool and device, dropping any live one.
  Status create();
  // Finalize the context, stop background work and destroy the store; the
  // pool and device keep whatever they hold (a clean process exit).
  void close();
  // Power failure: close(), then revert the pool (kCrashSim) and the
  // device to their durable images. A kDirect pool keeps everything, as
  // after a process kill.
  void crash();
  // DStore::recover under `cfg`, closing a live store first (a restart
  // without a crash). With `plan`, cfg.engine.fault runs it for
  // the duration (counters reset, so hit numbers are recovery-relative)
  // and `crashed_again` reports whether recovery itself lost power.
  Status recover(const FaultPlan* plan = nullptr, bool* crashed_again = nullptr);
  Status crash_and_recover() {
    crash();
    return recover();
  }

  // The result of the last create() or recover().
  const Status& status() const { return status_; }

  DStoreConfig cfg;
  std::unique_ptr<pmem::Pool> pool;
  std::unique_ptr<ssd::RamBlockDevice> device;
  std::unique_ptr<DStore> store;
  ds_ctx_t* ctx = nullptr;  // the live store's context

 private:
  Status adopt(Result<std::unique_ptr<DStore>> r);

  Status status_;
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

  // Oracle check: validate() + every key in either its oracle state or (for
  // the single in-flight op only) its post-op state.
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

  std::map<std::string, std::string> oracle_;  // durably-acked state
  struct Pending {  // the op in flight when the power failed, if any
    bool active = false;
    bool is_delete = false;
    std::string key;
    std::string value;
  };
  Pending pending_;
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
