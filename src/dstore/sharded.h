// ShardedStore — the paper's future-work direction ("in the future, we
// plan to extend our designs to build a disaggregated storage system", §7)
// as a first-class partitioned engine: N DStore shards, each with its own
// PMEM checkpoint space, operation log and SSD data plane, sharing one
// background CheckpointPool (DESIGN.md §14). Objects are placed by name
// hash (splitmix-finalized, multiply-based range reduction — no modulo
// bias).
//
// Because every shard is an unmodified DStore, all per-shard guarantees
// (commit=durable, quiescent-free checkpoints, idempotent recovery) carry
// over; cross-shard operations are independent, which matches the paper's
// commutativity argument — operations on distinct objects never conflict.
// What the pool changes is only WHERE background work runs: instead of a
// private pool each, the shards' engines notify the fleet's pool at the
// watermark and K shared workers (with work stealing of bulk-pass chunks)
// service them.
// checkpoint_all() and crash_and_recover_all() fan out across the same
// workers.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "dipper/ckpt_pool.h"
#include "dstore/dstore.h"

namespace dstore {

struct ShardedConfig {
  int num_shards = 4;
  // Per-shard template: every DStoreConfig knob (ssd_qd, retry policy, OE,
  // engine settings, ...) applies to each shard verbatim — no per-field
  // re-declaration here. shard.engine.arena_bytes == 0 means "derive from
  // shard.max_objects via suggested_arena_bytes()".
  DStoreConfig shard = [] {
    DStoreConfig c;
    c.max_objects = 1 << 13;
    c.num_blocks = 1 << 14;
    c.engine.log_slots = 4096;
    c.engine.arena_bytes = 0;  // auto-size
    return c;
  }();
  // kCrashSim pools enable crash_and_recover_all() in tests.
  pmem::Pool::Mode pool_mode = pmem::Pool::Mode::kDirect;
  LatencyModel latency = LatencyModel::none();

  // Shared checkpoint pool worker count (0 = min(num_shards,
  // max(1, hardware_concurrency/2))).
  int ckpt_workers = 0;

  // Allow pinned affinity sessions (open_session(shard)): a loadgen thread
  // pinned to its home shard routes every op there without hashing — the
  // caller guarantees its keys belong to that shard (debug-asserted).
  // Unpinned sessions (always available) only carry private per-shard IO
  // contexts.
  bool affinity = false;

  // Recover shards concurrently on the pool (the default). The serial path
  // is kept as the bench baseline (`paper_bench --exp shard_scaling`) and
  // for apples-to-apples timing comparisons.
  bool parallel_recovery = true;

  // Fault injection for crash-schedule sweeps: wired into shard
  // `fault_shard` only (pool + device + engine), so a sweep crashes one
  // member of a live fleet while the others keep serving. With
  // fault_all_shards the injector covers EVERY shard — the DistRig's
  // node-level power failure, where one injector represents one machine.
  fault::FaultInjector* fault = nullptr;
  int fault_shard = 0;
  bool fault_all_shards = false;

  // Replication (DESIGN.md §16): installed into every shard's DStoreConfig
  // with repl_shard_id = shard index, so stream entries replay onto the
  // same shard on a follower.
  ReplSink* repl_sink = nullptr;
};

class ShardedStore {
 public:
  static Result<std::unique_ptr<ShardedStore>> create(ShardedConfig cfg);
  ~ShardedStore();

  // Per-thread session: private per-shard IO contexts (no shared-ctx
  // contention), plus an optional pinned home shard under cfg.affinity.
  class Session {
   public:
    int pinned() const { return pinned_; }

   private:
    friend class ShardedStore;
    int pinned_ = -1;
    std::vector<ds_ctx_t*> ctx_;  // index = shard
  };

  // pinned_shard = -1 routes by hash; 0..num_shards-1 (requires
  // cfg.affinity) routes every op to that shard unconditionally.
  // Out-of-range pins (or pins without cfg.affinity) are treated as -1.
  Session* open_session(int pinned_shard = -1);
  void close_session(Session* s);

  // Shared-context operations (convenience; sessions avoid the shared
  // per-shard ctx these route through).
  Status put(std::string_view name, const void* value, size_t size);
  Result<size_t> get(std::string_view name, void* buf, size_t cap);
  Status del(std::string_view name);
  // Session operations. A null session falls back to the shared path.
  Status put(Session* s, std::string_view name, const void* value, size_t size);
  Result<size_t> get(Session* s, std::string_view name, void* buf, size_t cap);
  Status del(Session* s, std::string_view name);
  Result<uint64_t> object_size(std::string_view name);

  // Explicit-placement operations (DESIGN.md §15). The network server
  // stores a tenant namespace's objects under prefixed keys on the
  // namespace's HOME shard — shard_of(ns_name), not shard_of(full_key) —
  // so every key of one tenant lands on one shard and the hash-routing
  // paths above would mis-place them. The caller owns the shard choice; a
  // null session routes through the shared per-shard context. `shard` must
  // be in [0, num_shards).
  Status put_on(Session* s, int shard, std::string_view name, const void* value, size_t size);
  Result<size_t> get_on(Session* s, int shard, std::string_view name, void* buf, size_t cap);
  Status del_on(Session* s, int shard, std::string_view name);
  // Zero-copy read on an explicit shard (Status::unsupported on devices
  // without a direct mapping — callers fall back to get_on).
  Result<DStore::ReadView> get_zc_on(Session* s, int shard, std::string_view name);
  Result<uint64_t> object_size_on(int shard, std::string_view name);

  // One integrity pass over every shard, merging the per-shard reports
  // (counter sums; corrupt-object names concatenated). Every shard is
  // attempted; the first error is returned after all attempts.
  Status scrub_all(DStore::ScrubReport* report = nullptr);

  uint64_t object_count();
  DStore::SpaceUsage space_usage();
  // Checkpoint every shard, fanned out across the pool. EVERY shard is
  // attempted; the first error (if any) is returned after all attempts.
  Status checkpoint_all();
  Status validate_all();

  // Power-fail every shard and recover them all (kCrashSim pools only).
  // Shards crash serially (freezing each durable image), then recover
  // concurrently on the pool (cfg.parallel_recovery) or serially.
  Status crash_and_recover_all();

  // Timing of the last crash_and_recover_all(), for the scaling bench and
  // the backend's RecoveryTiming attribution.
  struct RecoveryReport {
    uint64_t wall_ns = 0;                // end-to-end recovery wall clock
    std::vector<uint64_t> shard_ns;      // per-shard recover() duration
    uint64_t max_shard_metadata_ns = 0;  // max over shards (≈ parallel wall)
    uint64_t max_shard_replay_ns = 0;
  };
  const RecoveryReport& last_recovery() const { return last_recovery_; }

  // Per-shard registries plus the pool/routing gauges (sharded_*), merged
  // into one scrape (counters/gauges sum, histograms merge bucket-wise).
  std::vector<obs::MetricSnapshot> metrics_snapshot() const;
  std::string metrics_json() const;
  std::string metrics_prometheus() const;

  int num_shards() const { return cfg_.num_shards; }
  DStore& shard(int i) { return *shards_[i].store; }
  dipper::CheckpointPool& pool() { return *pool_; }
  // Which shard owns `name` (exposed for tests and balance inspection).
  int shard_of(std::string_view name) const;

 private:
  explicit ShardedStore(ShardedConfig cfg) : cfg_(cfg) {}

  struct Shard {
    std::unique_ptr<pmem::Pool> pool;
    std::unique_ptr<ssd::RamBlockDevice> device;
    std::unique_ptr<DStore> store;
    ds_ctx_t* ctx = nullptr;
  };

  DStoreConfig shard_config(int shard_idx) const;
  Status recover_shard(size_t i, const DStoreConfig& scfg);
  double max_log_fill() const;

  ShardedConfig cfg_;
  // The pool outlives the shards (their engines checkpoint through it):
  // declared first, destroyed last.
  std::unique_ptr<dipper::CheckpointPool> pool_;
  std::vector<Shard> shards_;
  obs::MetricsRegistry own_metrics_;  // sharded_* pool/routing metrics
  RecoveryReport last_recovery_;
};

}  // namespace dstore
