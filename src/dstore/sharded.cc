#include "dstore/sharded.h"

#include <cassert>
#include <chrono>
#include <thread>

#include "common/clock.h"
#include "dipper/log.h"
#include "fsmeta/badpage_table.h"

namespace dstore {

DStoreConfig ShardedStore::shard_config(int shard_idx) const {
  DStoreConfig cfg = cfg_.shard;
  if (cfg.engine.arena_bytes == 0) {
    cfg.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(cfg.max_objects);
  }
  // The engine checkpoints through the shared pool, in the shard's slot.
  cfg.engine.ckpt_pool = pool_.get();
  cfg.engine.ckpt_slot = (size_t)shard_idx;
  if (cfg_.fault != nullptr && (cfg_.fault_all_shards || shard_idx == cfg_.fault_shard)) {
    cfg.engine.fault = cfg_.fault;
  }
  cfg.repl_sink = cfg_.repl_sink;
  cfg.repl_shard_id = (uint32_t)shard_idx;
  return cfg;
}

// Overflow-safe reconstruction of the shard template's pool footprint
// (engine layout + bad-page region). required_pool_bytes() itself computes
// in size_t, so a hostile template must be rejected BEFORE calling it.
static Status validate_shard_template(const DStoreConfig& t) {
  __uint128_t arena = t.engine.arena_bytes != 0
                          ? (__uint128_t)t.engine.arena_bytes
                          : (__uint128_t)(4ull << 20) + (__uint128_t)t.max_objects * 1024;
  __uint128_t logs = (__uint128_t)2 * dipper::PmemLog::region_bytes(1) * t.engine.log_slots;
  __uint128_t payload = 0;
  if (t.engine.physical_logging || t.repair_logging) {
    payload = (__uint128_t)t.engine.log_slots * t.engine.physical_payload_bytes;
  }
  __uint128_t total = 4096 /* root region */ + logs + payload + 3 * arena +
                      fsmeta::BadPageTable::kRegionBytes;
  // 64 GiB per shard: far above any emulated-pool config this repo runs
  // (tests and benches size pools in MBs) and low enough that every term —
  // including the log region, whose 32-bit slot count caps it at ~512 GiB —
  // is actually bounded by the check rather than by an allocator failure.
  constexpr __uint128_t kMaxShardPoolBytes = (__uint128_t)1 << 36;
  if (total > kMaxShardPoolBytes) {
    return Status::invalid_argument("shard template required_pool_bytes overflows");
  }
  return Status::ok();
}

Result<std::unique_ptr<ShardedStore>> ShardedStore::create(ShardedConfig cfg) {
  if (cfg.num_shards <= 0) return Status::invalid_argument("num_shards must be positive");
  if (cfg.num_shards > 4096) return Status::invalid_argument("num_shards too large");
  if (cfg.ckpt_workers < 0) return Status::invalid_argument("ckpt_workers must be >= 0");
  if (cfg.fault_shard < 0 || cfg.fault_shard >= cfg.num_shards) {
    if (cfg.fault != nullptr && !cfg.fault_all_shards) {
      return Status::invalid_argument("fault_shard out of range");
    }
  }
  DSTORE_RETURN_IF_ERROR(validate_shard_template(cfg.shard));

  auto s = std::unique_ptr<ShardedStore>(new ShardedStore(cfg));
  s->pool_ = std::make_unique<dipper::CheckpointPool>(
      dipper::CheckpointPool::Config{.workers = cfg.ckpt_workers}, (size_t)cfg.num_shards);
  s->shards_.resize(cfg.num_shards);
  for (int i = 0; i < cfg.num_shards; i++) {
    Shard& sh = s->shards_[i];
    DStoreConfig scfg = s->shard_config(i);
    sh.pool = std::make_unique<pmem::Pool>(DStoreConfig::required_pool_bytes(scfg),
                                           cfg.pool_mode, cfg.latency);
    ssd::DeviceConfig dc;
    dc.num_blocks = scfg.num_blocks;
    dc.latency = cfg.latency;
    sh.device = std::make_unique<ssd::RamBlockDevice>(dc);
    if (cfg.fault != nullptr && (cfg.fault_all_shards || i == cfg.fault_shard)) {
      sh.pool->set_fault_injector(cfg.fault);
      sh.device->set_fault_injector(cfg.fault);
    }
    auto store = DStore::create(sh.pool.get(), sh.device.get(), scfg);
    if (!store.is_ok()) return store.status();
    sh.store = std::move(store).value();
    sh.ctx = sh.store->ds_init();
    s->pool_->set_engine((size_t)i, &sh.store->engine());
  }

  dipper::CheckpointPool* p = s->pool_.get();
  ShardedStore* self = s.get();
  s->own_metrics_.gauge_fn("sharded_ckpt_workers", "checkpoint pool worker threads",
                           [p] { return (double)p->workers(); });
  s->own_metrics_.gauge_fn("sharded_ckpt_queue_depth",
                           "shards queued or mid-checkpoint on the pool",
                           [p] { return (double)p->queue_depth(); });
  s->own_metrics_.counter_fn("sharded_ckpt_runs_total",
                             "watermark checkpoint steps run by the pool",
                             [p] { return p->stats().runs.load(std::memory_order_relaxed); });
  s->own_metrics_.counter_fn(
      "sharded_ckpt_notifies_total", "watermark notifications from shard engines",
      [p] { return p->stats().notifies.load(std::memory_order_relaxed); });
  s->own_metrics_.counter_fn(
      "sharded_ckpt_steal_chunks_total", "bulk-pass chunks run by a stealing worker",
      [p] { return p->stats().steal_chunks.load(std::memory_order_relaxed); });
  s->own_metrics_.gauge_fn("sharded_shard_depth",
                           "max active-log fill fraction across shards",
                           [self] { return self->max_log_fill(); });
  s->own_metrics_.gauge_fn("sharded_recovery_wall_ms",
                           "last crash_and_recover_all() wall clock (ms)",
                           [self] { return (double)self->last_recovery_.wall_ns / 1e6; });
  s->pool_->start();
  return s;
}

ShardedStore::~ShardedStore() {
  pool_->stop();  // workers hold engine pointers; quiesce before teardown
  for (Shard& sh : shards_) {
    if (sh.store && sh.ctx != nullptr) sh.store->ds_finalize(sh.ctx);
  }
}

double ShardedStore::max_log_fill() const {
  double fill = 0.0;
  for (const Shard& sh : shards_) {
    if (sh.store) fill = std::max(fill, sh.store->engine().log_fill());
  }
  return fill;
}

int ShardedStore::shard_of(std::string_view name) const {
  // One FNV-1a pass over the name, a splitmix64 finalizer for avalanche,
  // then a widening-multiply range reduction: uniform across shards with
  // no modulo bias, and no Key construction on the routing path.
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (char c : name) {
    h ^= (uint8_t)c;
    h *= 1099511628211ull;  // FNV prime
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return (int)(uint64_t)(((__uint128_t)h * (uint64_t)cfg_.num_shards) >> 64);
}

ShardedStore::Session* ShardedStore::open_session(int pinned_shard) {
  auto* s = new Session();
  if (cfg_.affinity && pinned_shard >= 0 && pinned_shard < cfg_.num_shards) {
    s->pinned_ = pinned_shard;
  }
  s->ctx_.resize(shards_.size(), nullptr);
  for (size_t i = 0; i < shards_.size(); i++) s->ctx_[i] = shards_[i].store->ds_init();
  return s;
}

void ShardedStore::close_session(Session* s) {
  if (s == nullptr) return;
  for (size_t i = 0; i < s->ctx_.size(); i++) {
    if (s->ctx_[i] != nullptr) shards_[i].store->ds_finalize(s->ctx_[i]);
  }
  delete s;
}

Status ShardedStore::put(std::string_view name, const void* value, size_t size) {
  Shard& sh = shards_[shard_of(name)];
  return sh.store->oput(sh.ctx, name, value, size);
}

Result<size_t> ShardedStore::get(std::string_view name, void* buf, size_t cap) {
  Shard& sh = shards_[shard_of(name)];
  return sh.store->oget(sh.ctx, name, buf, cap);
}

Status ShardedStore::del(std::string_view name) {
  Shard& sh = shards_[shard_of(name)];
  return sh.store->odelete(sh.ctx, name);
}

Status ShardedStore::put(Session* s, std::string_view name, const void* value, size_t size) {
  if (s == nullptr) return put(name, value, size);
  int idx = s->pinned_ >= 0 ? s->pinned_ : shard_of(name);
  assert(s->pinned_ < 0 || shard_of(name) == s->pinned_);  // pinned keys must be home
  return shards_[idx].store->oput(s->ctx_[idx], name, value, size);
}

Result<size_t> ShardedStore::get(Session* s, std::string_view name, void* buf, size_t cap) {
  if (s == nullptr) return get(name, buf, cap);
  int idx = s->pinned_ >= 0 ? s->pinned_ : shard_of(name);
  assert(s->pinned_ < 0 || shard_of(name) == s->pinned_);
  return shards_[idx].store->oget(s->ctx_[idx], name, buf, cap);
}

Status ShardedStore::del(Session* s, std::string_view name) {
  if (s == nullptr) return del(name);
  int idx = s->pinned_ >= 0 ? s->pinned_ : shard_of(name);
  assert(s->pinned_ < 0 || shard_of(name) == s->pinned_);
  return shards_[idx].store->odelete(s->ctx_[idx], name);
}

Result<uint64_t> ShardedStore::object_size(std::string_view name) {
  return shards_[shard_of(name)].store->object_size(name);
}

Status ShardedStore::put_on(Session* s, int shard, std::string_view name, const void* value,
                            size_t size) {
  if (shard < 0 || shard >= cfg_.num_shards) return Status::invalid_argument("shard out of range");
  Shard& sh = shards_[shard];
  return sh.store->oput(s != nullptr ? s->ctx_[shard] : sh.ctx, name, value, size);
}

Result<size_t> ShardedStore::get_on(Session* s, int shard, std::string_view name, void* buf,
                                    size_t cap) {
  if (shard < 0 || shard >= cfg_.num_shards) return Status::invalid_argument("shard out of range");
  Shard& sh = shards_[shard];
  return sh.store->oget(s != nullptr ? s->ctx_[shard] : sh.ctx, name, buf, cap);
}

Status ShardedStore::del_on(Session* s, int shard, std::string_view name) {
  if (shard < 0 || shard >= cfg_.num_shards) return Status::invalid_argument("shard out of range");
  Shard& sh = shards_[shard];
  return sh.store->odelete(s != nullptr ? s->ctx_[shard] : sh.ctx, name);
}

Result<DStore::ReadView> ShardedStore::get_zc_on(Session* s, int shard, std::string_view name) {
  if (shard < 0 || shard >= cfg_.num_shards) return Status::invalid_argument("shard out of range");
  Shard& sh = shards_[shard];
  return sh.store->oget_zc(s != nullptr ? s->ctx_[shard] : sh.ctx, name);
}

Result<uint64_t> ShardedStore::object_size_on(int shard, std::string_view name) {
  if (shard < 0 || shard >= cfg_.num_shards) return Status::invalid_argument("shard out of range");
  return shards_[shard].store->object_size(name);
}

Status ShardedStore::scrub_all(DStore::ScrubReport* report) {
  Status first = Status::ok();
  for (Shard& sh : shards_) {
    DStore::ScrubReport r;
    Status s = sh.store->scrub_now(&r);
    if (!s.is_ok() && first.is_ok()) first = s;
    if (report != nullptr) {
      report->objects_scanned += r.objects_scanned;
      report->pages_verified += r.pages_verified;
      report->checksum_failures += r.checksum_failures;
      report->repaired += r.repaired;
      report->quarantined_pages += r.quarantined_pages;
      for (std::string& n : r.corrupt_objects) report->corrupt_objects.push_back(std::move(n));
    }
  }
  return first;
}

uint64_t ShardedStore::object_count() {
  uint64_t total = 0;
  for (Shard& sh : shards_) total += sh.store->object_count();
  return total;
}

DStore::SpaceUsage ShardedStore::space_usage() {
  DStore::SpaceUsage total{};
  for (Shard& sh : shards_) {
    auto u = sh.store->space_usage();
    total.dram_bytes += u.dram_bytes;
    total.pmem_bytes += u.pmem_bytes;
    total.ssd_bytes += u.ssd_bytes;
  }
  return total;
}

std::vector<obs::MetricSnapshot> ShardedStore::metrics_snapshot() const {
  std::vector<std::vector<obs::MetricSnapshot>> scrapes;
  scrapes.reserve(shards_.size() + 1);
  for (const Shard& sh : shards_) {
    if (sh.store) scrapes.push_back(sh.store->metrics().snapshot());
  }
  scrapes.push_back(own_metrics_.snapshot());
  return obs::MetricsRegistry::merge(scrapes);
}

std::string ShardedStore::metrics_json() const {
  return obs::MetricsRegistry::to_json(metrics_snapshot());
}

std::string ShardedStore::metrics_prometheus() const {
  return obs::MetricsRegistry::to_prometheus(metrics_snapshot());
}

Status ShardedStore::checkpoint_all() {
  // Submit-all-then-wait across the pool. Every shard is ATTEMPTED no
  // matter how many fail — a mid-fleet error must not leave later shards
  // unstable-checkpointed — and the first error is returned afterwards.
  std::vector<Status> statuses = pool_->run_all([this](size_t i) {
    // A watermark-triggered step may already be mid-flight on this shard
    // (or the previous archived log still recycling): busy is transient.
    for (int tries = 0; tries < 20000; tries++) {
      Status s = shards_[i].store->checkpoint_now();
      if (!s.is_busy()) return s;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return Status::busy("shard checkpoint stayed busy");
  });
  Status first = Status::ok();
  for (const Status& s : statuses) {
    if (!s.is_ok() && first.is_ok()) first = s;
  }
  return first;
}

Status ShardedStore::validate_all() {
  for (Shard& sh : shards_) DSTORE_RETURN_IF_ERROR(sh.store->validate());
  return Status::ok();
}

Status ShardedStore::recover_shard(size_t i, const DStoreConfig& scfg) {
  Shard& sh = shards_[i];
  auto store = DStore::recover(sh.pool.get(), sh.device.get(), scfg);
  if (!store.is_ok()) return store.status();
  sh.store = std::move(store).value();
  sh.ctx = sh.store->ds_init();
  pool_->set_engine(i, &sh.store->engine());
  return Status::ok();
}

Status ShardedStore::crash_and_recover_all() {
  if (cfg_.pool_mode != pmem::Pool::Mode::kCrashSim) {
    return Status::unsupported("crash simulation requires kCrashSim pools");
  }
  // No pool worker may be mid-checkpoint on an engine being torn down.
  pool_->pause();
  size_t n = shards_.size();
  for (size_t i = 0; i < n; i++) {
    Shard& sh = shards_[i];
    if (sh.store && sh.ctx != nullptr) sh.store->ds_finalize(sh.ctx);
    sh.ctx = nullptr;
    pool_->set_engine(i, nullptr);
    if (sh.store) {
      sh.store->engine().stop_background();
      sh.store.reset();
    }
    sh.pool->crash();
    sh.device->crash();
  }

  last_recovery_ = RecoveryReport{};
  last_recovery_.shard_ns.assign(n, 0);
  uint64_t t0 = now_ns();
  auto recover_fn = [this](size_t i) {
    uint64_t s0 = now_ns();
    Status s = recover_shard(i, shard_config((int)i));
    last_recovery_.shard_ns[i] = now_ns() - s0;
    return s;
  };
  std::vector<Status> statuses;
  if (cfg_.parallel_recovery) {
    statuses = pool_->run_all(recover_fn);
  } else {
    statuses.reserve(n);
    for (size_t i = 0; i < n; i++) statuses.push_back(recover_fn(i));
  }
  last_recovery_.wall_ns = now_ns() - t0;
  for (size_t i = 0; i < n; i++) {
    if (shards_[i].store) {
      const auto& es = shards_[i].store->engine().stats();
      last_recovery_.max_shard_metadata_ns =
          std::max(last_recovery_.max_shard_metadata_ns,
                   es.recovery_metadata_ns.load(std::memory_order_relaxed));
      last_recovery_.max_shard_replay_ns =
          std::max(last_recovery_.max_shard_replay_ns,
                   es.recovery_replay_ns.load(std::memory_order_relaxed));
    }
  }
  pool_->resume();
  Status first = Status::ok();
  for (const Status& s : statuses) {
    if (!s.is_ok() && first.is_ok()) first = s;
  }
  return first;
}

}  // namespace dstore
