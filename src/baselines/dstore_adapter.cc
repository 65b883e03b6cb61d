#include "baselines/dstore_adapter.h"

namespace dstore::baselines {

Result<std::unique_ptr<DStoreAdapter>> DStoreAdapter::make(DStoreVariantConfig cfg,
                                                           const LatencyModel& latency) {
  cfg.store.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(cfg.store.max_objects);
  ssd::DeviceConfig dc;
  dc.num_blocks = cfg.store.num_blocks;
  dc.latency = latency;
  StoreRig rig(cfg.store, pmem::Pool::Mode::kDirect, dc);
  if (!rig.status().is_ok()) return rig.status();
  return std::unique_ptr<DStoreAdapter>(new DStoreAdapter(cfg.display_name, std::move(rig)));
}

DStoreAdapter::~DStoreAdapter() = default;

void* DStoreAdapter::open_ctx() { return rig_.store->ds_init(); }
void DStoreAdapter::close_ctx(void* ctx) { rig_.store->ds_finalize(static_cast<ds_ctx_t*>(ctx)); }

Status DStoreAdapter::put(void* ctx, std::string_view key, const void* value, size_t size) {
  return rig_.store->oput(static_cast<ds_ctx_t*>(ctx), key, value, size);
}

Result<size_t> DStoreAdapter::get(void* ctx, std::string_view key, void* buf, size_t cap) {
  return rig_.store->oget(static_cast<ds_ctx_t*>(ctx), key, buf, cap);
}

Status DStoreAdapter::del(void* ctx, std::string_view key) {
  return rig_.store->odelete(static_cast<ds_ctx_t*>(ctx), key);
}

workload::SpaceBreakdown DStoreAdapter::space_usage() {
  auto u = rig_.store->space_usage();
  return {u.dram_bytes, u.pmem_bytes, u.ssd_bytes};
}

Result<workload::KVStore::RecoveryTiming> DStoreAdapter::crash_and_recover() {
  // A kDirect pool survives the crash whole (a process kill); the device
  // drops its volatile cache. Table 4 instrumentation: DStore recovery =
  // reconstruct the volatile space from the shadow copies (metadata) +
  // replay the active log (replay); the engine times both inside recover().
  DSTORE_RETURN_IF_ERROR(rig_.crash_and_recover());
  const auto& es = rig_.store->engine().stats();
  RecoveryTiming t;
  t.metadata_ms = es.recovery_metadata_ns.load() / 1e6;
  t.replay_ms = es.recovery_replay_ns.load() / 1e6;
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
