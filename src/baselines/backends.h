// One factory for every evaluated backend, keyed by name. The YCSB runner
// and paper_bench construct systems exclusively through here, so
// adding a backend is one table row — not a new `if` chain in each binary.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/dstore_adapter.h"
#include "common/latency_model.h"
#include "workload/kv_interface.h"

namespace dstore::baselines {

// Sizing/latency knobs shared by all backends; each factory derives its own
// capacities from `objects` (keyspace + churn headroom).
struct BackendParams {
  uint64_t objects = 20000;  // preloaded keyspace the run sweeps
  uint32_t ssd_qd = 16;      // NVMe queue-pair depth (DStore variants)
  int num_shards = 4;        // "Sharded" backend only
  // "Sharded" backend: checkpoint pool workers (0 = auto) and per-thread
  // shard-affinity sessions (ShardedConfig knobs of the same names).
  int ckpt_workers = 0;
  bool affinity = false;
  LatencyModel latency = LatencyModel::none();
};

// Construct backend `name`, or nullptr (with a stderr diagnostic) if the
// name is unknown or construction fails. Known names: DStore, DStore-CoW,
// DStore-noOE, LogicalLog+CoW, PhysLog+CoW, Sharded, remote, PMEM-RocksDB,
// MongoDB-PM, MongoDB-PMSE. ("remote" drives a dstore_serverd over the
// wire — DSTORE_REMOTE_ADDR=<host:port>, or a self-hosted in-process
// server when unset.)
std::unique_ptr<workload::KVStore> make_backend(const std::string& name,
                                                const BackendParams& params);

// The configuration make_backend builds DStore variant `name` from, sized
// for `params`; nullopt when `name` is not a DStore variant. A caller that
// needs one engine setting changed edits it and builds the store with
// DStoreAdapter::make (paper_bench sizes a checkpoints-off cell's log this
// way).
std::optional<DStoreVariantConfig> dstore_variant_config(const std::string& name,
                                                         const BackendParams& params);

// Every name make_backend accepts, in display order.
const std::vector<std::string>& backend_names();

}  // namespace dstore::baselines
