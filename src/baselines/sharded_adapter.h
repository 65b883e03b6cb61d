// workload::KVStore adapter over ShardedStore, so the sharded configuration
// is driveable from ycsb_runner and paper_bench exactly like the
// single-store backends.
#pragma once

#include <memory>

#include "dstore/sharded.h"
#include "workload/kv_interface.h"

namespace dstore::baselines {

class ShardedAdapter final : public workload::KVStore {
 public:
  static Result<std::unique_ptr<ShardedAdapter>> make(ShardedConfig cfg);

  // Per-thread sessions: private per-shard IO contexts, plus pinned
  // routing for partition-restricted loadgen threads (cfg.affinity).
  void* open_ctx() override;
  void* open_ctx_pinned(int partition) override;
  void close_ctx(void* ctx) override;
  int partitions() const override { return store_->num_shards(); }
  int placement_of(std::string_view key) const override { return store_->shard_of(key); }

  Status put(void* ctx, std::string_view key, const void* value, size_t size) override;
  Result<size_t> get(void* ctx, std::string_view key, void* buf, size_t cap) override;
  Status del(void* ctx, std::string_view key) override;
  const char* name() const override { return "Sharded"; }
  workload::SpaceBreakdown space_usage() override;
  // lint: allow-discard pre-run settling; the measured run reports its own errors
  void prepare_run() override { (void)store_->checkpoint_all(); }
  std::string metrics_json() override { return store_->metrics_json(); }
  std::string metrics_prometheus() override { return store_->metrics_prometheus(); }
  Result<RecoveryTiming> crash_and_recover() override;

  ShardedStore& store() { return *store_; }

 private:
  ShardedAdapter() = default;

  std::unique_ptr<ShardedStore> store_;
};

}  // namespace dstore::baselines
