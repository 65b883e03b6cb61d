// StoreRig — one emulated DStore substrate, and the only way the library,
// its benches and its tests build, crash and recover a store on RAM-backed
// hardware: a pmem::Pool sized by DStoreConfig::required_pool_bytes, a
// RamBlockDevice, the DStore on them and one ds_ctx_t:
//
//   StoreRig rig(cfg);           — fresh store on a new pool + device
//   rig.store->oput(rig.ctx, …);
//   rig.crash();                 — power failure: drop the store, revert
//                                  pool + device to their durable images
//   rig.cfg.… = …;               — optional: reopen under another config
//   rig.recover();               — DStore::recover under rig.cfg
//
// ShardedStore holds one per shard, DStoreAdapter one per evaluated
// variant, fault::CrashRig one per sweep.
#pragma once

#include <memory>

#include "dstore/dstore.h"
#include "fault/fault.h"
#include "pmem/pool.h"
#include "ssd/block_device.h"

namespace dstore {

class StoreRig {
 public:
  // A device of cfg.num_blocks blocks with the default DeviceConfig.
  explicit StoreRig(DStoreConfig cfg, pmem::Pool::Mode mode = pmem::Pool::Mode::kCrashSim);
  // Builds the pool and the device and formats a fresh store on them
  // (status() reports a failure). The pool charges dc.latency too, so both
  // layers run one latency model. A non-null cfg.engine.fault is wired into
  // the pool and the device too, so one injector sees every layer.
  StoreRig(DStoreConfig cfg, pmem::Pool::Mode mode, const ssd::DeviceConfig& dc);
  ~StoreRig() { close(); }
  StoreRig(StoreRig&&) = default;  // so helpers can return one
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
  Status recover(const fault::FaultPlan* plan = nullptr, bool* crashed_again = nullptr);
  Status crash_and_recover() {
    crash();
    return recover();
  }

  // Write every device block once, then flush, so every page carries a
  // sidecar tag (a fresh page has none, and a read vouches for no page
  // CRC there). Overwrites data: call it before the store holds objects.
  Status tag_every_page();

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

}  // namespace dstore
