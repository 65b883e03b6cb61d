#include "dstore/store_rig.h"

namespace dstore {

namespace {
ssd::DeviceConfig device_for(const DStoreConfig& cfg) {
  ssd::DeviceConfig dc;
  dc.num_blocks = cfg.num_blocks;
  return dc;
}
}  // namespace

StoreRig::StoreRig(DStoreConfig c, pmem::Pool::Mode mode)
    : StoreRig(c, mode, device_for(c)) {}

StoreRig::StoreRig(DStoreConfig c, pmem::Pool::Mode mode, const ssd::DeviceConfig& dc)
    : cfg(std::move(c)),
      pool(std::make_unique<pmem::Pool>(DStoreConfig::required_pool_bytes(cfg), mode,
                                        dc.latency)),
      device(std::make_unique<ssd::RamBlockDevice>(dc)) {
  if (cfg.engine.fault != nullptr) {
    pool->set_fault_injector(cfg.engine.fault);
    device->set_fault_injector(cfg.engine.fault);
  }
  // lint: allow-discard a failed create is reported through status()
  (void)create();
}

Status StoreRig::adopt(Result<std::unique_ptr<DStore>> r) {
  status_ = r.status();
  if (r.is_ok()) {
    store = std::move(r).value();
    ctx = store->ds_init();
  }
  return status_;
}

Status StoreRig::create() {
  close();
  return adopt(DStore::create(pool.get(), device.get(), cfg));
}

Status StoreRig::tag_every_page() {
  std::vector<char> fill(device->config().block_size());
  for (uint64_t b = 0; b < device->config().num_blocks; b++) {
    for (size_t i = 0; i < fill.size(); i++) fill[i] = char(b * 131 + i * 7 + 1);
    DSTORE_RETURN_IF_ERROR(device->write(b, 0, fill.data(), fill.size()));
  }
  return device->flush_cache();
}

void StoreRig::close() {
  if (store == nullptr) return;
  store->ds_finalize(ctx);
  ctx = nullptr;
  store->engine().stop_background();
  // After a power failure the store is dead hardware state: its
  // destructor's writes land on the frozen images and change nothing
  // durable.
  store.reset();
}

void StoreRig::crash() {
  close();
  if (pool->mode() == pmem::Pool::Mode::kCrashSim) pool->crash();
  device->crash();
}

Status StoreRig::recover(const fault::FaultPlan* plan, bool* crashed_again) {
  fault::FaultInjector* inj = cfg.engine.fault;
  if (plan != nullptr && inj == nullptr) {
    return Status::invalid_argument("recovery plan without an injector");
  }
  close();
  if (plan != nullptr) {
    inj->set_plan(*plan);
    inj->arm();
  }
  auto r = DStore::recover(pool.get(), device.get(), cfg);
  if (plan != nullptr) {
    if (crashed_again != nullptr) *crashed_again = inj->crashed();
    inj->disarm();
  }
  return adopt(std::move(r));
}

}  // namespace dstore
