// Shared-channel bandwidth model.
//
// Latency injection alone lets unlimited concurrent transfers proceed in
// parallel, which misses the contention effects the paper measures: a CoW
// checkpoint's page-copy stream makes faulting clients queue behind it on
// PMEM write bandwidth, and LSM compaction steals SSD bandwidth from the
// frontend. Each emulated device therefore serializes the BANDWIDTH
// component of its operations through one shared queue (the fixed latency
// component stays parallel, modelling device-internal parallelism).
//
// reserve() atomically appends `cost_ns` to the channel's busy horizon and
// returns the timestamp at which this transfer completes; the caller waits
// until then.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/clock.h"

namespace dstore {

class BandwidthChannel {
 public:
  // Returns the absolute deadline (ns) when the transfer finishes.
  uint64_t reserve(uint64_t cost_ns) {
    if (cost_ns == 0) return 0;
    return reserve_from(now_ns(), cost_ns);
  }

  // Queue a transfer that becomes eligible at `start_ns` (e.g. after the
  // device's fixed per-IO latency has elapsed): the channel is occupied
  // from max(start_ns, previous busy horizon) for `cost_ns`. Used by the
  // async submission path, which charges the fixed latency in parallel
  // across in-flight IOs but still serializes their bandwidth shares.
  uint64_t reserve_from(uint64_t start_ns, uint64_t cost_ns) {
    if (cost_ns == 0) return start_ns;
    uint64_t prev = busy_until_.load(std::memory_order_relaxed);
    uint64_t start, end;
    do {
      start = prev > start_ns ? prev : start_ns;
      end = start + cost_ns;
    } while (!busy_until_.compare_exchange_weak(prev, end, std::memory_order_acq_rel));
    return end;
  }

  // Reserve and wait out the queue + transfer time.
  void transfer(uint64_t cost_ns) {
    uint64_t deadline = reserve(cost_ns);
    if (deadline != 0) spin_until_ns(deadline);
  }

 private:
  std::atomic<uint64_t> busy_until_{0};
};

}  // namespace dstore
