// CachedBtreeStore — the MongoDB-PM (WiredTiger) archetype (§2.1, Table 1:
// "Periodic Async Checkpoint", cached).
//
// Design reproduced: a DRAM page cache in front of SSD data, a PMEM
// journal carrying full documents (key+value), and periodic checkpoints.
// The measured weakness: "on checkpoint, the page cache is locked until
// all pages are made durable" — the cache-wide exclusive lock is held
// while EVERY dirty entry is written to the SSD, so requests arriving
// during a checkpoint stall for the whole flush (Fig 1/7/8).
//
// A persistent catalog (key -> blocks) is written at the end of each
// checkpoint so recovery can rebuild the index from SSD, then replay the
// journal (Table 4's metadata + replay phases).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/lockdep.h"
#include "pmem/pool.h"
#include "ssd/block_device.h"
#include "workload/kv_interface.h"

namespace dstore::baselines {

struct CachedBtreeConfig {
  size_t journal_bytes = 48 << 20;        // PMEM journal capacity
  size_t checkpoint_trigger_bytes = 8 << 20;  // checkpoint when journal exceeds
  uint64_t num_blocks = 1 << 17;
  uint64_t catalog_blocks = 256;  // reserved SSD blocks for the catalog
  // Finite page cache: clean values beyond this budget are evicted at
  // checkpoint (WiredTiger cache pressure), so cold reads hit the SSD.
  size_t cache_bytes = 32 << 20;
  // Fixed per-op cost of the full MongoDB/WiredTiger stack (BSON, command
  // dispatch, sessions, cursors) not re-implemented by this archetype;
  // calibrated to published MongoDB operation latencies.
  uint64_t stack_overhead_ns = 22000;
  const char* display_name = "MongoDB-PM";
};

class CachedBtreeStore final : public workload::KVStore {
 public:
  static Result<std::unique_ptr<CachedBtreeStore>> make(CachedBtreeConfig cfg,
                                                        const LatencyModel& latency);

  Status put(void* ctx, std::string_view key, const void* value, size_t size) override;
  Result<size_t> get(void* ctx, std::string_view key, void* buf, size_t cap) override;
  Status del(void* ctx, std::string_view key) override;
  const char* name() const override { return cfg_.display_name; }
  workload::SpaceBreakdown space_usage() override;
  void attach_bandwidth_series(TimeSeries* ssd, TimeSeries* pmem) override {
    device_->set_bandwidth_series(ssd);
    pool_->set_bandwidth_series(pmem);
  }
  void set_checkpoints_enabled(bool enabled) override;
  void prepare_run() override;
  Result<RecoveryTiming> crash_and_recover() override;

  uint64_t checkpoint_count() const { return checkpoints_; }

 private:
  explicit CachedBtreeStore(CachedBtreeConfig cfg) : cfg_(cfg) {}

  struct Entry {
    std::optional<std::string> cached;  // value in the page cache
    bool dirty = false;
    std::vector<uint64_t> blocks;  // durable location (empty if never flushed)
    uint32_t size = 0;
  };

  Status journal_append(std::string_view key, const void* value, size_t size, bool tombstone);
  void journal_reset_locked();
  // Flush every dirty entry + write the catalog. Caller holds cache_mu_
  // exclusive — the archetype's full-cache stall.
  Status checkpoint_locked();
  Status write_catalog_locked();

  std::vector<uint64_t> alloc_blocks(uint64_t n);
  void free_blocks_list(const std::vector<uint64_t>& blocks);

  CachedBtreeConfig cfg_;
  std::unique_ptr<pmem::Pool> pool_;
  std::unique_ptr<ssd::RamBlockDevice> device_;

  SharedSpinLock cache_mu_{"baseline.btree.cache"};
  std::map<std::string, Entry> cache_;

  SpinLock journal_mu_{"baseline.btree.journal"};
  size_t journal_off_ = 0;

  SpinLock blocks_mu_{"baseline.btree.blocks"};
  std::vector<uint64_t> free_blocks_;

  std::atomic<bool> checkpoints_enabled_{true};
  std::atomic<uint64_t> checkpoints_{0};
};

}  // namespace dstore::baselines
