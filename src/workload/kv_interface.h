// Uniform key-value interface over every system in the evaluation, so the
// YCSB harness and paper_bench can sweep systems identically
// (DStore, DStore-CoW, the cached-LSM / cached-btree / uncached archetypes,
// and the physical-logging ablation).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace dstore {
class TimeSeries;
}

namespace dstore::workload {

struct SpaceBreakdown {
  uint64_t dram_bytes = 0;
  uint64_t pmem_bytes = 0;
  uint64_t ssd_bytes = 0;
  uint64_t total() const { return dram_bytes + pmem_bytes + ssd_bytes; }
};

class KVStore {
 public:
  virtual ~KVStore() = default;

  // Per-thread contexts (mirrors ds_init/ds_finalize).
  virtual void* open_ctx() { return nullptr; }
  virtual void close_ctx(void* /*ctx*/) {}

  // Partition awareness (sharded backends; defaults describe an
  // unpartitioned store). A loadgen thread that restricts itself to keys
  // of one partition can ask for a context pinned there — the backend may
  // then skip per-op routing entirely. Callers must only use a pinned
  // context with keys whose placement_of() equals that partition.
  virtual int partitions() const { return 1; }
  virtual int placement_of(std::string_view /*key*/) const { return 0; }
  virtual void* open_ctx_pinned(int /*partition*/) { return open_ctx(); }

  virtual Status put(void* ctx, std::string_view key, const void* value, size_t size) = 0;
  virtual Result<size_t> get(void* ctx, std::string_view key, void* buf, size_t cap) = 0;
  virtual Status del(void* ctx, std::string_view key) = 0;

  virtual const char* name() const = 0;
  virtual SpaceBreakdown space_usage() { return {}; }

  // Settle background/maintenance state between the load and run phases
  // (flush memtables, take a checkpoint) so measurements start from a
  // comparable steady state.
  virtual void prepare_run() {}

  // Metrics scrape (obs::MetricsRegistry export; see DESIGN.md §10).
  // Backends without a registry return a valid empty scrape, so harnesses
  // can dump metrics unconditionally. Declared as strings rather than
  // obs types to keep this interface dependency-light.
  virtual std::string metrics_json() { return "{\n  \"version\": 1,\n  \"metrics\": []\n}\n"; }
  virtual std::string metrics_prometheus() { return ""; }

  // Route the backend's SSD and PMEM write bytes into the given series
  // (Fig 7's bandwidth plots). Backends without a device leave it empty.
  virtual void attach_bandwidth_series(TimeSeries* /*ssd*/, TimeSeries* /*pmem*/) {}

  // Checkpoint / maintenance control for the Fig 1 on/off comparison.
  virtual void set_checkpoints_enabled(bool /*enabled*/) {}
  // Crash + recover in place; returns recovery phase timings (Table 4).
  struct RecoveryTiming {
    double metadata_ms = 0;  // rebuilding volatile/index state
    double replay_ms = 0;    // replaying log records
    double total_ms() const { return metadata_ms + replay_ms; }
  };
  virtual Result<RecoveryTiming> crash_and_recover() { return Status::unsupported(name()); }
};

}  // namespace dstore::workload
