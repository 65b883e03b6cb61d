#include "baselines/dstore_adapter.h"

#include "common/clock.h"

namespace dstore::baselines {

Result<std::unique_ptr<DStoreAdapter>> DStoreAdapter::make(DStoreVariantConfig cfg,
                                                           const LatencyModel& latency) {
  auto a = std::unique_ptr<DStoreAdapter>(new DStoreAdapter());
  a->cfg_ = cfg;
  a->cfg_.store.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(cfg.store.max_objects);

  a->pool_ = std::make_unique<pmem::Pool>(DStoreConfig::required_pool_bytes(a->cfg_.store),
                                          pmem::Pool::Mode::kDirect, latency);
  ssd::DeviceConfig dc;
  dc.num_blocks = cfg.store.num_blocks;
  dc.latency = latency;
  a->device_ = std::make_unique<ssd::RamBlockDevice>(dc);
  auto s = DStore::create(a->pool_.get(), a->device_.get(), a->cfg_.store);
  if (!s.is_ok()) return s.status();
  a->store_ = std::move(s).value();
  return a;
}

DStoreAdapter::~DStoreAdapter() = default;

void* DStoreAdapter::open_ctx() { return store_->ds_init(); }
void DStoreAdapter::close_ctx(void* ctx) { store_->ds_finalize(static_cast<ds_ctx_t*>(ctx)); }

Status DStoreAdapter::put(void* ctx, std::string_view key, const void* value, size_t size) {
  return store_->oput(static_cast<ds_ctx_t*>(ctx), key, value, size);
}

Result<size_t> DStoreAdapter::get(void* ctx, std::string_view key, void* buf, size_t cap) {
  return store_->oget(static_cast<ds_ctx_t*>(ctx), key, buf, cap);
}

Status DStoreAdapter::del(void* ctx, std::string_view key) {
  return store_->odelete(static_cast<ds_ctx_t*>(ctx), key);
}

workload::SpaceBreakdown DStoreAdapter::space_usage() {
  auto u = store_->space_usage();
  return {u.dram_bytes, u.pmem_bytes, u.ssd_bytes};
}

Result<workload::KVStore::RecoveryTiming> DStoreAdapter::crash_and_recover() {
  store_->engine().stop_background();
  store_.reset();  // SIGKILL-equivalent for DRAM state
  device_->crash();
  RecoveryTiming t;
  // Table 4 instrumentation: DStore recovery = reconstruct the volatile
  // space from the shadow copies (metadata) + replay the active log
  // (replay). The engine does both inside recover(); we time the whole and
  // attribute by the engine's internal proportions: the dominant metadata
  // cost is the PMEM->DRAM copy, measured separately below.
  auto r = DStore::recover(pool_.get(), device_.get(), cfg_.store);
  if (!r.is_ok()) return r.status();
  store_ = std::move(r).value();
  t.metadata_ms = store_->engine().stats().recovery_metadata_ns.load() / 1e6;
  t.replay_ms = store_->engine().stats().recovery_replay_ns.load() / 1e6;
  return t;
}

namespace {

// The sizing every variant starts from; callers resize for their keyspace.
DStoreVariantConfig variant(const char* display_name) {
  DStoreVariantConfig c;
  c.store.max_objects = 1 << 16;
  c.store.num_blocks = 1 << 17;
  c.store.engine.log_slots = 16384;
  c.display_name = display_name;
  return c;
}

}  // namespace

DStoreVariantConfig DStoreAdapter::dipper_variant() { return variant("DStore"); }
DStoreVariantConfig DStoreAdapter::cow_variant() {
  DStoreVariantConfig c = variant("DStore-CoW");
  c.store.engine.ckpt_mode = dipper::EngineConfig::CkptMode::kCow;
  return c;
}
DStoreVariantConfig DStoreAdapter::no_oe_variant() {
  DStoreVariantConfig c = variant("DStore-noOE");
  c.store.observational_equivalence = false;
  return c;
}
DStoreVariantConfig DStoreAdapter::logical_cow_variant() {
  DStoreVariantConfig c = variant("LogicalLog+CoW");
  c.store.engine.ckpt_mode = dipper::EngineConfig::CkptMode::kCow;
  c.store.observational_equivalence = false;
  return c;
}
DStoreVariantConfig DStoreAdapter::naive_physical_variant() {
  DStoreVariantConfig c = variant("PhysLog+CoW");
  c.store.engine.ckpt_mode = dipper::EngineConfig::CkptMode::kCow;
  c.store.observational_equivalence = false;
  c.store.engine.physical_logging = true;
  return c;
}

}  // namespace dstore::baselines
