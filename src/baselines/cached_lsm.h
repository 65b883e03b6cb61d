// CachedLsmStore — the PMEM-RocksDB archetype (§2.1, Table 1: "Continuous
// Async Checkpoint", cached).
//
// Design reproduced: an LSM tree whose level 0 (the memtable) lives in
// DRAM, a PMEM-resident write-ahead log carrying full key+value payloads
// (physical logging — this is what makes RocksDB's PMEM log large), sorted
// runs on SSD, and continuous background compaction.
//
// The two behaviours the paper measures:
//   * during a memtable flush "the level 0 files must be locked until they
//     have been compacted and merged into the next level" — here the
//     memtable lock is held for the whole flush, so every writer arriving
//     during a flush stalls (Fig 1/8 tail; Fig 7 troughs);
//   * continuous background compaction consumes device bandwidth and
//     briefly locks the run index, preventing consistent throughput
//     (Fig 7: "for a short duration, it was unable to serve any update
//     requests").
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/lockdep.h"
#include "pmem/pool.h"
#include "ssd/block_device.h"
#include "workload/kv_interface.h"

namespace dstore::baselines {

struct CachedLsmConfig {
  size_t memtable_limit_bytes = 8 << 20;  // flush trigger (L0 size)
  size_t wal_bytes = 64 << 20;            // PMEM WAL capacity
  int compaction_trigger_runs = 4;        // merge when this many runs exist
  uint64_t num_blocks = 1 << 17;
  // Fixed per-op software cost of the full RocksDB stack (version sets,
  // comparators, block cache, skiplist) that this mini archetype does not
  // re-implement; calibrated to published embedded-RocksDB latencies.
  uint64_t stack_overhead_ns = 8000;
  const char* display_name = "PMEM-RocksDB";
};

class CachedLsmStore final : public workload::KVStore {
 public:
  static Result<std::unique_ptr<CachedLsmStore>> make(CachedLsmConfig cfg,
                                                      const LatencyModel& latency);
  ~CachedLsmStore() override;

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

  uint64_t flush_count() const { return flushes_; }
  uint64_t compaction_count() const { return compactions_; }

 private:
  explicit CachedLsmStore(CachedLsmConfig cfg) : cfg_(cfg) {}

  struct ValueLoc {
    std::vector<uint64_t> blocks;
    uint32_t size = 0;
    bool tombstone = false;
  };
  struct Run {
    // Sorted key -> location index (kept in DRAM, as RocksDB keeps SST
    // indexes/filters cached).
    std::vector<std::pair<std::string, ValueLoc>> entries;
    const ValueLoc* find(const std::string& key) const;
  };

  Status wal_append(std::string_view key, const void* value, size_t size, bool tombstone);
  void wal_reset();
  // Flush the memtable to a new L0 run. Caller holds table_mu_ EXCLUSIVE
  // for the duration — the archetype's frontend stall.
  Status flush_memtable_locked();
  void compaction_thread_main();
  Status compact_all_runs();

  std::vector<uint64_t> alloc_blocks(uint64_t n);
  void free_blocks(const std::vector<uint64_t>& blocks);
  void free_run_blocks(const Run& run);
  Status write_value_blocks(const std::vector<uint64_t>& blocks, const void* data, size_t size);
  Status read_value_blocks(const ValueLoc& loc, void* buf, size_t cap, size_t* out) const;

  CachedLsmConfig cfg_;
  std::unique_ptr<pmem::Pool> pool_;
  std::unique_ptr<ssd::RamBlockDevice> device_;

  SharedSpinLock table_mu_{"baseline.lsm.table"};  // memtable + runs (runs swapped under exclusive)
  std::map<std::string, std::optional<std::string>> memtable_;  // nullopt = tombstone
  size_t memtable_bytes_ = 0;
  std::vector<std::shared_ptr<Run>> runs_;  // newest first

  SpinLock wal_mu_{"baseline.lsm.wal"};
  size_t wal_off_ = 0;

  Mutex compact_mu_{"baseline.lsm.compact"};  // one compaction at a time

  SpinLock blocks_mu_{"baseline.lsm.blocks"};
  std::vector<uint64_t> free_blocks_;

  std::thread compaction_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> checkpoints_enabled_{true};
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> compactions_{0};
};

}  // namespace dstore::baselines
