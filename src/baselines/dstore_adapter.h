// workload::KVStore adapter over DStore, with factories for every DStore
// variant the evaluation sweeps:
//   * DStore          — logical log + DIPPER checkpoints + OE (the system);
//   * DStore (CoW)    — logical log + copy-on-write checkpoints (§4.5, the
//                       NOVA/Pronto checkpoint archetype);
//   * +DIPPER (no OE) — Fig 9 ablation step 3;
//   * logical+CoW     — Fig 9 ablation step 2;
//   * naive           — physical logging + CoW (Fig 9 step 1, the
//                       DudeTM/NV-HTM archetype).
#pragma once

#include <memory>

#include "dstore/dstore.h"
#include "workload/kv_interface.h"

namespace dstore::baselines {

// One evaluated DStore variant: the store configuration it runs with
// (DStoreAdapter::make only derives the arena size from max_objects) and
// the name it reports.
struct DStoreVariantConfig {
  DStoreConfig store;
  const char* display_name = "DStore";
};

class DStoreAdapter final : public workload::KVStore {
 public:
  // Owns its PMEM pool and RAM device, sized from `cfg` and `latency`.
  static Result<std::unique_ptr<DStoreAdapter>> make(DStoreVariantConfig cfg,
                                                     const LatencyModel& latency);

  ~DStoreAdapter() override;

  void* open_ctx() override;
  void close_ctx(void* ctx) override;
  Status put(void* ctx, std::string_view key, const void* value, size_t size) override;
  Result<size_t> get(void* ctx, std::string_view key, void* buf, size_t cap) override;
  Status del(void* ctx, std::string_view key) override;
  const char* name() const override { return cfg_.display_name; }
  workload::SpaceBreakdown space_usage() override;
  // lint: allow-discard pre-run settling; the measured run reports its own errors
  void prepare_run() override { (void)store_->checkpoint_now(); }
  void set_checkpoints_enabled(bool enabled) override {
    store_->engine().set_checkpointing_enabled(enabled);
  }
  void attach_bandwidth_series(TimeSeries* ssd, TimeSeries* pmem) override {
    device_->set_bandwidth_series(ssd);
    pool_->set_bandwidth_series(pmem);
  }
  std::string metrics_json() override { return store_->metrics_json(); }
  std::string metrics_prometheus() override { return store_->metrics_prometheus(); }
  Result<RecoveryTiming> crash_and_recover() override;

  DStore& store() { return *store_; }

  // Canonical variant factories.
  static DStoreVariantConfig dipper_variant();
  static DStoreVariantConfig cow_variant();
  static DStoreVariantConfig no_oe_variant();
  static DStoreVariantConfig logical_cow_variant();
  static DStoreVariantConfig naive_physical_variant();

 private:
  DStoreAdapter() = default;

  DStoreVariantConfig cfg_;
  std::unique_ptr<pmem::Pool> pool_;
  std::unique_ptr<ssd::RamBlockDevice> device_;
  std::unique_ptr<DStore> store_;
};

}  // namespace dstore::baselines
