#include "baselines/backends.h"

#include <cstdio>
#include <functional>

#include "baselines/cached_btree.h"
#include "baselines/cached_lsm.h"
#include "baselines/dstore_adapter.h"
#include "baselines/remote_adapter.h"
#include "baselines/sharded_adapter.h"
#include "baselines/uncached.h"

namespace dstore::baselines {

namespace {

using Factory =
    std::function<std::unique_ptr<workload::KVStore>(const BackendParams&)>;

// The DStore variants, by backend name (each variant's display name).
struct Variant {
  const char* name;
  DStoreVariantConfig (*make)();
};

const Variant kDStoreVariants[] = {
    {"DStore", &DStoreAdapter::dipper_variant},
    {"DStore-CoW", &DStoreAdapter::cow_variant},
    {"DStore-noOE", &DStoreAdapter::no_oe_variant},
    {"LogicalLog+CoW", &DStoreAdapter::logical_cow_variant},
    {"PhysLog+CoW", &DStoreAdapter::naive_physical_variant},
};

// "Sharded" and "remote" fleet sizing: the single store's headroom split
// across shards (rounded up and doubled so hash skew cannot run a shard out
// of space at small scales).
ShardedConfig sharded_config(const BackendParams& p) {
  ShardedConfig cfg;
  cfg.num_shards = p.num_shards > 0 ? p.num_shards : 4;
  uint64_t shards = (uint64_t)cfg.num_shards;
  cfg.shard.max_objects = (p.objects * 2 + shards - 1) / shards * 2;
  cfg.shard.num_blocks = (p.objects * 6 + shards - 1) / shards * 2;
  cfg.shard.ssd_qd = p.ssd_qd;
  cfg.ckpt_workers = p.ckpt_workers;
  cfg.latency = p.latency;
  return cfg;
}

struct Entry {
  const char* name;
  Factory make;
};

const Entry kBackends[] = {
    {"Sharded",
     [](const BackendParams& p) -> std::unique_ptr<workload::KVStore> {
       ShardedConfig cfg = sharded_config(p);
       cfg.affinity = p.affinity;
       auto r = ShardedAdapter::make(cfg);
       if (!r.is_ok()) {
         fprintf(stderr, "make Sharded failed: %s\n", r.status().to_string().c_str());
         return nullptr;
       }
       return std::move(r).value();
     }},
    {"remote",
     [](const BackendParams& p) -> std::unique_ptr<workload::KVStore> {
       // Same fleet sizing as "Sharded"; the store just sits behind the
       // wire (or behind DSTORE_REMOTE_ADDR, which ignores this config).
       ShardedConfig cfg = sharded_config(p);
       auto r = RemoteAdapter::make(cfg);
       if (!r.is_ok()) {
         fprintf(stderr, "make remote failed: %s\n", r.status().to_string().c_str());
         return nullptr;
       }
       return std::move(r).value();
     }},
    {"PMEM-RocksDB",
     [](const BackendParams& p) -> std::unique_ptr<workload::KVStore> {
       CachedLsmConfig cfg;
       cfg.num_blocks = p.objects * 6;
       cfg.memtable_limit_bytes = 4 << 20;
       // Large enough that a checkpoints-off run (Fig 1) never force-flushes.
       cfg.wal_bytes = 512 << 20;
       auto r = CachedLsmStore::make(cfg, p.latency);
       if (!r.is_ok()) return nullptr;
       return std::move(r).value();
     }},
    {"MongoDB-PM",
     [](const BackendParams& p) -> std::unique_ptr<workload::KVStore> {
       CachedBtreeConfig cfg;
       cfg.num_blocks = p.objects * 6;
       cfg.checkpoint_trigger_bytes = 4 << 20;
       cfg.journal_bytes = 512 << 20;
       auto r = CachedBtreeStore::make(cfg, p.latency);
       if (!r.is_ok()) return nullptr;
       return std::move(r).value();
     }},
    {"MongoDB-PMSE",
     [](const BackendParams& p) -> std::unique_ptr<workload::KVStore> {
       UncachedConfig cfg;
       cfg.num_slots = p.objects * 4;
       cfg.slot_bytes = 4608;  // snug fit for 4KB values (PMSE stores in place)
       auto r = UncachedStore::make(cfg, p.latency);
       if (!r.is_ok()) return nullptr;
       return std::move(r).value();
     }},
};

}  // namespace

std::optional<DStoreVariantConfig> dstore_variant_config(const std::string& name,
                                                         const BackendParams& p) {
  for (const Variant& v : kDStoreVariants) {
    if (name != v.name) continue;
    DStoreVariantConfig cfg = v.make();
    // Capacity: keyspace + 50% churn headroom.
    cfg.store.max_objects = p.objects * 2;
    cfg.store.num_blocks = p.objects * 6;
    cfg.store.ssd_qd = p.ssd_qd;
    return cfg;
  }
  return std::nullopt;
}

std::unique_ptr<workload::KVStore> make_backend(const std::string& name,
                                                const BackendParams& params) {
  if (auto cfg = dstore_variant_config(name, params)) {
    auto r = DStoreAdapter::make(*cfg, params.latency);
    if (!r.is_ok()) {
      fprintf(stderr, "make %s failed: %s\n", cfg->display_name, r.status().to_string().c_str());
      return nullptr;
    }
    return std::move(r).value();
  }
  for (const Entry& e : kBackends) {
    if (name == e.name) return e.make(params);
  }
  fprintf(stderr, "unknown backend %s (known:", name.c_str());
  for (const std::string& n : backend_names()) fprintf(stderr, " %s", n.c_str());
  fprintf(stderr, ")\n");
  return nullptr;
}

const std::vector<std::string>& backend_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Variant& d : kDStoreVariants) v.emplace_back(d.name);
    for (const Entry& e : kBackends) v.emplace_back(e.name);
    return v;
  }();
  return names;
}

}  // namespace dstore::baselines
