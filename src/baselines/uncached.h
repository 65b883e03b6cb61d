// UncachedStore — the MongoDB-PMSE archetype (§2.1, Table 1: "Inline
// Persistence", uncached).
//
// Design reproduced: all data lives in-place in PMEM; every update is a
// crash-consistent transaction (pmemobj style): the new record is written
// to a fresh slot with a validity-marker-last protocol, the old slot is
// then invalidated, and the transaction machinery adds undo-log writes and
// extra fences per op. A coarse store-wide transaction latch models PMSE's
// measured poor concurrency.
//
// The behaviours the paper measures:
//   * no checkpoints at all => perfectly flat throughput (Fig 7) and no
//     checkpoint-induced tail (Fig 1);
//   * per-op transaction + flush overhead => "the overheads of cache
//     flushes and transactions prevent it from achieving good performance"
//     (Fig 5/7);
//   * near-instant recovery (a slot scan, no log replay) and the smallest
//     footprint (no volatile cache) — Table 4, Fig 10, Table 5.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/lockdep.h"
#include "pmem/pool.h"
#include "workload/kv_interface.h"

namespace dstore::baselines {

struct UncachedConfig {
  size_t slot_bytes = 8192;   // fixed record slot (header + key + value)
  uint64_t num_slots = 1 << 15;
  // Fixed per-op cost of the full MongoDB stack above the PMSE engine
  // (BSON, command dispatch, sessions); calibrated to published MongoDB
  // operation latencies. The engine-level transaction costs are charged
  // separately and for real (see charge_tx_overhead).
  uint64_t stack_overhead_ns = 22000;
  const char* display_name = "MongoDB-PMSE";
};

class UncachedStore final : public workload::KVStore {
 public:
  static Result<std::unique_ptr<UncachedStore>> make(UncachedConfig cfg,
                                                     const LatencyModel& latency);

  Status put(void* ctx, std::string_view key, const void* value, size_t size) override;
  Result<size_t> get(void* ctx, std::string_view key, void* buf, size_t cap) override;
  Status del(void* ctx, std::string_view key) override;
  const char* name() const override { return cfg_.display_name; }
  workload::SpaceBreakdown space_usage() override;
  void attach_bandwidth_series(TimeSeries* /*ssd*/, TimeSeries* pmem) override {
    pool_->set_bandwidth_series(pmem);
  }
  Result<RecoveryTiming> crash_and_recover() override;


 private:
  explicit UncachedStore(UncachedConfig cfg) : cfg_(cfg) {}

  // On-PMEM slot: header + key + value, validity via non-zero seq.
  struct SlotHeader {
    uint64_t seq;  // 0 = free; otherwise global sequence (newest wins)
    uint32_t key_len;
    uint32_t value_len;
  };

  char* slot_at(uint64_t idx) const { return pool_->base() + idx * cfg_.slot_bytes; }
  size_t slot_capacity() const { return cfg_.slot_bytes - sizeof(SlotHeader); }

  // Emulate the pmemobj transaction bookkeeping around a data write:
  // undo-log append + metadata snapshots + the extra fences WHISPER-style
  // analyses attribute to durable transactions.
  void charge_tx_overhead(size_t data_bytes);

  UncachedConfig cfg_;
  std::unique_ptr<pmem::Pool> pool_;

  SpinLock tx_mu_{"baseline.tx"};  // PMSE-style coarse transaction latch
  std::map<std::string, uint64_t> index_;  // key -> slot (rebuilt on recovery)
  std::vector<uint64_t> free_slots_;
  uint64_t next_seq_ = 1;
};

}  // namespace dstore::baselines
