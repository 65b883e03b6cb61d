// YCSB-style workload generator and runner (§5.1: workloads A and B, 4KB
// operations, zipfian key popularity, full-subscription thread counts).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/timeseries.h"
#include "obs/metrics.h"
#include "workload/kv_interface.h"

namespace dstore::workload {

struct WorkloadSpec {
  uint64_t num_objects = 10000;  // preloaded keyspace
  size_t value_size = 4096;      // §5.1: 4KB to match the SSD block size
  double read_fraction = 0.5;    // YCSB A = 0.5, B = 0.95
  // Fraction of ops that INSERT a brand-new key (YCSB D); the keyspace
  // grows during the run. Carved out of the non-read share.
  double insert_fraction = 0.0;
  // Fraction of ops that are read-modify-write (YCSB F): a get immediately
  // followed by a put of the same key, measured as one operation.
  double rmw_fraction = 0.0;
  // Read-latest key popularity (YCSB D): reads target recently inserted
  // keys instead of the zipfian-over-all distribution.
  bool read_latest = false;
  bool zipfian = true;           // scrambled zipfian, theta 0.99 (YCSB default)
  int threads = 4;
  uint64_t ops_per_thread = 10000;  // ignored if duration_ms > 0
  uint64_t duration_ms = 0;         // timed run (Fig 7 window)
  uint64_t seed = 1;

  // Shard-affinity mode (partitioned backends): when `placement` is set
  // and `partitions` > 1, thread t draws only keys placed on partition
  // t % partitions (candidates are re-drawn until they land home) and runs
  // on a context pinned there via KVStore::open_ctx_pinned(). Inserts are
  // demoted to updates in this mode — the global insert frontier cannot
  // honor a per-thread placement filter. Wire both fields from the
  // backend: placement = placement_of, partitions = partitions().
  std::function<int(std::string_view)> placement;
  int partitions = 0;

  static WorkloadSpec ycsb_a() {  // 50% read / 50% update
    WorkloadSpec s;
    s.read_fraction = 0.5;
    return s;
  }
  static WorkloadSpec ycsb_b() {  // 95% read / 5% update
    WorkloadSpec s;
    s.read_fraction = 0.95;
    return s;
  }
  static WorkloadSpec ycsb_c() {  // 100% read
    WorkloadSpec s;
    s.read_fraction = 1.0;
    return s;
  }
  static WorkloadSpec ycsb_d() {  // 95% read-latest / 5% insert
    WorkloadSpec s;
    s.read_fraction = 0.95;
    s.insert_fraction = 0.05;
    s.read_latest = true;
    return s;
  }
  static WorkloadSpec ycsb_f() {  // 50% read / 50% read-modify-write
    WorkloadSpec s;
    s.read_fraction = 0.5;
    s.rmw_fraction = 0.5;
    return s;
  }
};

struct RunResult {
  // Per-op latency in ns, rolled up over the worker threads.
  obs::MetricSnapshot read_latency;
  obs::MetricSnapshot update_latency;  // updates, inserts, and RMWs
  uint64_t total_ops = 0;
  uint64_t failed_ops = 0;
  uint64_t inserts = 0;  // new keys created during the run (YCSB D)
  double elapsed_s = 0;
  double throughput_iops() const { return elapsed_s > 0 ? (double)total_ops / elapsed_s : 0; }
};

// Key for object i (shared by load and run phases).
std::string ycsb_key(uint64_t i);

// Preload `spec.num_objects` objects of `spec.value_size` bytes.
Status load_objects(KVStore& store, const WorkloadSpec& spec);

// Run the mixed read/update workload. `throughput_ts` (optional) receives
// one count per completed op; `failure burst`-free by design: errors are
// counted, not thrown.
RunResult run_workload(KVStore& store, const WorkloadSpec& spec,
                       TimeSeries* throughput_ts = nullptr);

}  // namespace dstore::workload
