#include "dstore/dstore.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/clock.h"
#include "common/crc32c.h"
#include "fault/fault.h"
#include "ssd/io_retry.h"

namespace dstore {

using dipper::LogRecordView;
using dipper::OpType;

size_t DStoreConfig::suggested_arena_bytes(uint64_t objects) {
  // Empirical worst case per object: one btree key share (~270B at minimum
  // fill), a 128B metadata entry, a small block array, slab rounding.
  return (size_t)(4ull << 20) + objects * 1024;
}

namespace {
dipper::EngineConfig effective_engine_config(const DStoreConfig& cfg) {
  dipper::EngineConfig e = cfg.engine;
  // Read-repair needs the payload of every logged write in PMEM.
  if (cfg.repair_logging) e.physical_logging = true;
  return e;
}
uint64_t badpage_region_off(const dipper::EngineConfig& engine) {
  size_t need = dipper::Engine::required_pool_bytes(engine);
  return (need + 4095) & ~(uint64_t)4095;
}
}  // namespace

size_t DStoreConfig::required_pool_bytes(const DStoreConfig& cfg) {
  return badpage_region_off(effective_engine_config(cfg)) +
         fsmeta::BadPageTable::kRegionBytes;
}

// ---------------------------------------------------------------------------
// Construction / lifecycle
// ---------------------------------------------------------------------------

DStore::DStore(pmem::Pool* pool, ssd::BlockDevice* device, DStoreConfig cfg)
    : pool_(pool), device_(device), cfg_(cfg), read_counts_(1 << 16) {
  init_metrics();
}

Result<std::unique_ptr<DStore>> DStore::create(pmem::Pool* pool, ssd::BlockDevice* device,
                                               DStoreConfig cfg) {
  cfg.engine = effective_engine_config(cfg);
  if (device->config().num_blocks < cfg.num_blocks) {
    return Status::invalid_argument("device smaller than configured block pool");
  }
  if (pool->size() < dipper::Engine::required_pool_bytes(cfg.engine)) {
    return Status::invalid_argument("PMEM pool too small");
  }
  std::unique_ptr<DStore> store(new DStore(pool, device, cfg));
  store->engine_ = std::make_unique<dipper::Engine>(pool, store.get(), cfg.engine);
  DSTORE_RETURN_IF_ERROR(store->engine_->init_fresh());
  store->engine_->space().set_lock(&store->arena_mu_);
  uint64_t bp_off = badpage_region_off(cfg.engine);
  if (pool->size() >= bp_off + fsmeta::BadPageTable::kRegionBytes) {
    store->badpages_.format_region(pool, bp_off);
  }
  store->register_substrate_metrics();
  if (cfg.scrub_interval_ms > 0) store->start_scrubber();
  return store;
}

Result<std::unique_ptr<DStore>> DStore::recover(pmem::Pool* pool, ssd::BlockDevice* device,
                                                DStoreConfig cfg) {
  cfg.engine = effective_engine_config(cfg);
  std::unique_ptr<DStore> store(new DStore(pool, device, cfg));
  store->engine_ = std::make_unique<dipper::Engine>(pool, store.get(), cfg.engine);
  DSTORE_RETURN_IF_ERROR(store->engine_->recover());
  store->engine_->space().set_lock(&store->arena_mu_);
  uint64_t bp_off = badpage_region_off(cfg.engine);
  if (pool->size() >= bp_off + fsmeta::BadPageTable::kRegionBytes) {
    store->badpages_.attach_region(pool, bp_off);
  }
  store->register_substrate_metrics();
  if (cfg.scrub_interval_ms > 0) store->start_scrubber();
  return store;
}

// ---------------------------------------------------------------------------
// Metrics (DESIGN.md §10)
// ---------------------------------------------------------------------------

void DStore::init_metrics() {
  obs::MetricsRegistry& r = metrics_;
  obs::Gauge* active = r.gauge("dstore_active_ops", "traced operations currently in flight");

  // The six §4.3 pipeline stage span histograms, shared by oput and the
  // logged owrite path (Table 3's write breakdown reads these).
  obs::Histogram* stages[obs::kStageCount];
  stages[obs::kStageLogAppend] =
      r.histogram("dstore_stage_log_append_ns", "step 2b: log record write+flush span");
  stages[obs::kStagePoolAlloc] =
      r.histogram("dstore_stage_pool_alloc_ns", "steps 3-4: block/metadata pool allocation span");
  stages[obs::kStageMetaZone] =
      r.histogram("dstore_stage_meta_zone_ns", "step 6: metadata-zone update span");
  stages[obs::kStageBtree] = r.histogram("dstore_stage_btree_ns", "step 7: btree record span");
  stages[obs::kStageSsdBatch] =
      r.histogram("dstore_stage_ssd_batch_ns", "step 8: NVMe queue-pair submit+reap span");
  stages[obs::kStageCommitFlush] =
      r.histogram("dstore_stage_commit_flush_ns", "step 9: commit flush span");

  auto op = [&](obs::OpMetrics& m, const char* verb, bool staged, bool substrate) {
    std::string p = std::string("dstore_") + verb;
    m.ops = r.counter(p + "s_total", std::string(verb) + " operations attempted");
    m.failures = r.counter(p + "_failures_total", std::string(verb) + " operations failed");
    m.latency = r.histogram(p + "_latency_ns", std::string(verb) + " end-to-end latency");
    m.active = active;
    if (staged) {
      for (int s = 0; s < obs::kStageCount; s++) m.stage[s] = stages[s];
    }
    if (substrate) {
      m.flushes_per_op =
          r.histogram(p + "_flushes_per_op", "pmem cache-line flushes per sampled op");
      m.fences_per_op = r.histogram(p + "_fences_per_op", "pmem fences per sampled op");
    }
    m.ios_per_op = r.histogram(p + "_ios_per_op", "SSD IO descriptors per sampled op");
    m.io_retries_per_op =
        r.histogram(p + "_io_retries_per_op", "SSD descriptor retries per sampled op (when >0)");
  };
  op(put_metrics_, "put", /*staged=*/true, /*substrate=*/true);
  op(write_metrics_, "write", /*staged=*/true, /*substrate=*/true);
  op(get_metrics_, "get", /*staged=*/false, /*substrate=*/false);
  op(delete_metrics_, "delete", /*staged=*/false, /*substrate=*/true);

  ssd_io_batches_ = r.counter("ssd_io_batches_total", "queue-pair batches issued");
  ssd_ios_issued_ =
      r.counter("ssd_ios_issued_total", "IO descriptors submitted (excluding retries)");
  ssd_blocks_coalesced_ =
      r.counter("ssd_blocks_coalesced_total", "per-block IOs saved by contiguous-run merging");
  ssd_io_retries_ = r.counter("ssd_io_retries_total", "transient-error descriptor retries");
  ssd_io_exhausted_ = r.counter("ssd_io_exhausted_total", "ops whose SSD retries ran out");

  // Integrity layer (DESIGN.md §11): detection, repair, and quarantine
  // counters plus the scrubber's progress.
  integrity_failures_ = r.counter("dstore_integrity_checksum_failures_total",
                                  "checksum failures detected across all tiers");
  integrity_repairs_ = r.counter("dstore_integrity_repairs_total",
                                 "objects read-repaired from the PMEM log copy");
  integrity_quarantined_ = r.counter("dstore_integrity_quarantined_pages_total",
                                     "unrepairable device pages quarantined");
  scrub_pages_verified_ = r.counter("dstore_scrub_pages_verified_total",
                                    "device pages checksum-verified by scrub passes");

  // Ops accumulate the exact batch counters in their trace and publish
  // them in OpTrace::finish() under one stripe lookup.
  for (obs::OpMetrics* m : {&put_metrics_, &write_metrics_, &get_metrics_, &delete_metrics_}) {
    m->ssd_batches = ssd_io_batches_;
    m->ssd_ios = ssd_ios_issued_;
    m->ssd_coalesced = ssd_blocks_coalesced_;
  }
}

void DStore::register_substrate_metrics() {
  obs::MetricsRegistry& r = metrics_;
  // Scrape-time callbacks over atomics the substrates maintain anyway —
  // zero added hot-path cost. Raw pointers are safe: engine_/pool_/device_
  // outlive the registry's owner (this store).
  pmem::Pool* pool = pool_;
  r.counter_fn("pmem_flushes_total", "cache lines written back",
               [pool] { return pool->stats().lines_flushed.load(std::memory_order_relaxed); });
  r.counter_fn("pmem_fences_total", "store fences retired",
               [pool] { return pool->stats().fences.load(std::memory_order_relaxed); });
  r.counter_fn("pmem_nt_lines_total", "cache lines written with non-temporal stores",
               [pool] { return pool->stats().lines_nt.load(std::memory_order_relaxed); });
  r.counter_fn("pmem_bytes_flushed_total", "bytes written back to PMEM",
               [pool] { return pool->stats().bytes_flushed.load(std::memory_order_relaxed); });
  r.counter_fn("pmem_bytes_read_total", "bulk bytes read from PMEM",
               [pool] { return pool->stats().bytes_read.load(std::memory_order_relaxed); });

  ssd::BlockDevice* dev = device_;
  r.counter_fn("ssd_bytes_written_total", "bytes written to the block device",
               [dev] { return dev->stats().bytes_written.load(std::memory_order_relaxed); });
  r.counter_fn("ssd_bytes_read_total", "bytes read from the block device",
               [dev] { return dev->stats().bytes_read.load(std::memory_order_relaxed); });
  r.counter_fn("ssd_write_ios_total", "device write IOs",
               [dev] { return dev->stats().write_ios.load(std::memory_order_relaxed); });
  r.counter_fn("ssd_read_ios_total", "device read IOs",
               [dev] { return dev->stats().read_ios.load(std::memory_order_relaxed); });
  r.counter_fn("ssd_read_crc_failures_total", "reads that failed the page checksum sidecar",
               [dev] {
                 return dev->stats().read_crc_failures.load(std::memory_order_relaxed);
               });

  dipper::Engine* eng = engine_.get();
  const dipper::EngineStats& es = eng->stats();
  auto stat = [&r, &es](const char* name, const char* help,
                        std::atomic<uint64_t> dipper::EngineStats::* field) {
    const std::atomic<uint64_t>* p = &(es.*field);
    r.counter_fn(name, help, [p] { return p->load(std::memory_order_relaxed); });
  };
  stat("dipper_records_appended_total", "log records appended",
       &dipper::EngineStats::records_appended);
  stat("dipper_records_committed_total", "log records committed",
       &dipper::EngineStats::records_committed);
  stat("dipper_records_aborted_total", "log records aborted",
       &dipper::EngineStats::records_aborted);
  stat("dipper_records_replayed_total", "log records replayed (checkpoint+recovery)",
       &dipper::EngineStats::records_replayed);
  stat("dipper_checkpoints_total", "checkpoints installed", &dipper::EngineStats::checkpoints);
  stat("dipper_ckpt_failures_total", "background checkpoints that errored",
       &dipper::EngineStats::ckpt_failures);
  stat("dipper_backpressure_waits_total", "appends that waited on a full log",
       &dipper::EngineStats::append_backpressure_waits);
  stat("dipper_cow_page_faults_total", "CoW writer-side page copies",
       &dipper::EngineStats::cow_page_faults);
  stat("dipper_ckpt_total_ns", "checkpoint wall time", &dipper::EngineStats::ckpt_total_ns);
  stat("dipper_ckpt_swap_ns", "checkpoint phase: log switch", &dipper::EngineStats::ckpt_swap_ns);
  stat("dipper_ckpt_drain_ns", "checkpoint phase: archived-record drain",
       &dipper::EngineStats::ckpt_drain_ns);
  stat("dipper_ckpt_replay_ns", "checkpoint phase: replay/copy onto spare",
       &dipper::EngineStats::ckpt_replay_ns);
  stat("dipper_ckpt_install_ns", "checkpoint phase: root flip + log recycle",
       &dipper::EngineStats::ckpt_install_ns);
  stat("dipper_recovery_metadata_ns", "last recovery: checkpoint redo + rebuild",
       &dipper::EngineStats::recovery_metadata_ns);
  stat("dipper_recovery_replay_ns", "last recovery: log replay",
       &dipper::EngineStats::recovery_replay_ns);
  stat("dipper_log_crc_failures_total", "log records that failed their record checksum",
       &dipper::EngineStats::log_crc_failures);

  r.gauge_fn("dipper_log_fill_ratio", "fraction of active-log slots in use",
             [eng] { return eng->log_fill(); });
  r.gauge_fn("dipper_epoch", "current checkpoint epoch",
             [eng] { return (double)eng->current_epoch(); });
  r.gauge_fn("dstore_read_only", "1 once SSD write retries were exhausted",
             [this] { return read_only() ? 1.0 : 0.0; });
  r.gauge_fn("dstore_live_ctxs", "ds_init contexts alive",
             [this] { return (double)live_ctxs_.load(std::memory_order_relaxed); });
  r.gauge_fn("dstore_open_objects", "oopen handles alive",
             [this] { return (double)open_objects_.load(std::memory_order_relaxed); });
  r.gauge_fn("dstore_scrub_last_pass_seconds", "wall time of the last full scrub pass",
             [this] {
               return (double)last_scrub_ns_.load(std::memory_order_relaxed) / 1e9;
             });
  r.gauge_fn("dstore_quarantined_pages", "bad-page table entries",
             [this] { return (double)badpages_.count(); });
}

DStore::~DStore() {
  stop_scrubber();
  if (engine_) engine_->stop_background();
}

ds_ctx_t* DStore::ds_init() {
  auto* ctx = new ds_ctx_t();
  ctx->id = next_ctx_id_.fetch_add(1, std::memory_order_relaxed);
  live_ctxs_.fetch_add(1, std::memory_order_relaxed);
  return ctx;
}

void DStore::ds_finalize(ds_ctx_t* ctx) {
  if (ctx == nullptr) return;
  // Early-ack queues spin out their remaining emulated device latency here;
  // their ops are already committed and their data already durable.
  for (auto& q : ctx->pending_io) q->wait_all();
  ctx->pending_io.clear();
  live_ctxs_.fetch_sub(1, std::memory_order_relaxed);
  delete ctx;
}

// ---------------------------------------------------------------------------
// SpaceClient hooks: format & replay
// ---------------------------------------------------------------------------

Status DStore::format(SlabAllocator& space) {
  offset_t root_off = space.alloc_zeroed(sizeof(StoreRoot));
  if (root_off == 0) return Status::out_of_space("store root");
  auto* root = reinterpret_cast<StoreRoot*>(space.arena().at(root_off));

  auto btree = BTree::create(space);
  if (!btree.is_ok()) return btree.status();
  root->btree = btree.value().off;

  auto zone = MetadataZone::create(space, cfg_.max_objects);
  if (!zone.is_ok()) return zone.status();
  root->meta_zone = zone.value().off;

  auto bpool = CircularPool::create(space, cfg_.num_blocks);
  if (!bpool.is_ok()) return bpool.status();
  root->block_pool = bpool.value().off;

  auto mpool = CircularPool::create(space, cfg_.max_objects);
  if (!mpool.is_ok()) return mpool.status();
  root->meta_pool = mpool.value().off;

  space.set_user_root(root_off);
  return Status::ok();
}

DStore::View DStore::view_of(SlabAllocator& space, SharedSpinLock* btree_mu) {
  auto* root = reinterpret_cast<StoreRoot*>(space.arena().at(space.user_root()));
  return View{&space,
              BTree(space, OffPtr<BTree::Header>(root->btree)),
              MetadataZone(space, OffPtr<MetadataZone::Header>(root->meta_zone)),
              CircularPool(space, OffPtr<CircularPool::Header>(root->block_pool)),
              CircularPool(space, OffPtr<CircularPool::Header>(root->meta_pool)),
              btree_mu};
}

namespace {
// Holds a view's btree lock (shared or exclusive) for its scope, or nothing
// when the view has none.
class BtreeGuard {
 public:
  BtreeGuard(SharedSpinLock* mu, bool shared) : mu_(mu), shared_(shared) {
    if (mu_ == nullptr) return;
    if (shared_) {
      mu_->lock_shared();
    } else {
      mu_->lock();
    }
  }
  ~BtreeGuard() {
    if (mu_ == nullptr) return;
    if (shared_) {
      mu_->unlock_shared();
    } else {
      mu_->unlock();
    }
  }
  BtreeGuard(const BtreeGuard&) = delete;
  BtreeGuard& operator=(const BtreeGuard&) = delete;

 private:
  SharedSpinLock* mu_;
  bool shared_;
};
}  // namespace

std::optional<uint64_t> DStore::View::find(const Key& name) {
  BtreeGuard g(btree_mu, /*shared=*/true);
  return btree.find(name);
}

Status DStore::View::insert(const Key& name, uint64_t meta_idx) {
  BtreeGuard g(btree_mu, /*shared=*/false);
  return btree.insert(name, meta_idx);
}

Status DStore::View::erase(const Key& name) {
  BtreeGuard g(btree_mu, /*shared=*/false);
  return btree.erase(name);
}

Status DStore::replay(SlabAllocator& space, std::span<const LogRecordView> records) {
  // §3.5: "the shadow copies iterate through the same states that the
  // volatile copies went through" — the identical phase functions run here,
  // in log order, without frontend locks (replay owns the space).
  // Checkpoints of different shards run in parallel on the CheckpointPool.
  View v = view_of(space, nullptr);
  Plan plan;
  uint64_t processed = 0;
  for (const LogRecordView& rec : records) {
    // Background replay shares cores with the frontend on small hosts;
    // yield periodically so checkpointing stays quiescent-free in practice.
    if ((++processed & 63) == 0) std::this_thread::yield();
    DSTORE_FAULT_POINT(cfg_.engine.fault, "dstore.replay.record");
    if (rec.op == OpType::kNoop) continue;  // olock markers: ignored by replay (§4.5)
    DSTORE_RETURN_IF_ERROR(phase1(v, rec.op, rec.name, rec.arg0, &plan));
    DSTORE_RETURN_IF_ERROR(phase2(v, rec.op, rec.name, rec.arg0, plan));
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Metadata phases (the "same code for both spaces" core)
// ---------------------------------------------------------------------------

Status DStore::phase1(View& v, OpType op, const Key& name, uint64_t arg0, Plan* plan) {
  // Steps 3-4 of the pipeline: everything whose ORDER matters for replay
  // determinism (circular-pool pops/pushes) happens here, in log order.
  plan->existed = false;
  plan->blocks.clear();
  std::optional<uint64_t> found;
  if (op != OpType::kCreate) found = v.find(name);
  if (found.has_value()) {
    plan->existed = true;
    plan->meta_idx = *found;
  } else if (op == OpType::kCreate || op == OpType::kPut) {
    auto idx = v.meta_pool.alloc();
    if (!idx.has_value()) return Status::out_of_space("metadata pool exhausted");
    plan->meta_idx = *idx;
  } else {
    return Status::not_found(name.str());
  }
  uint64_t have = 0;  // blocks the new content keeps
  if (plan->existed) {
    const MetaEntry* e = v.zone.entry(plan->meta_idx);
    if (e == nullptr || !e->in_use) return Status::corruption("btree points at free entry");
    if (op == OpType::kWrite) {
      have = e->nblocks;
    } else {
      // Put and delete release the old content's blocks.
      const uint64_t* bl = v.zone.blocks(*e);
      for (uint32_t i = 0; i < e->nblocks; i++) {
        DSTORE_RETURN_IF_ERROR(v.block_pool.free(bl[i]));
      }
    }
  }
  if (op == OpType::kDelete) return v.meta_pool.free(plan->meta_idx);
  uint64_t need = blocks_needed(arg0);
  if (need > have) plan->blocks.reserve(need - have);
  for (uint64_t i = have; i < need; i++) {
    auto b = v.block_pool.alloc();
    if (!b.has_value()) return Status::out_of_space("block pool exhausted");
    plan->blocks.push_back(*b);
  }
  return Status::ok();
}

Status DStore::phase2(View& v, OpType op, const Key& name, uint64_t arg0, const Plan& plan,
                      obs::OpTrace* trace) {
  // Steps 6-7: metadata-zone entry + btree record. Under OE these run
  // outside the synchronous region, in parallel across requests.
  if (trace != nullptr) trace->enter(obs::kStageMetaZone);
  if (op == OpType::kDelete) {
    if (trace != nullptr) trace->enter(obs::kStageBtree);
    DSTORE_RETURN_IF_ERROR(v.erase(name));
    return v.zone.release_entry(plan.meta_idx);
  }
  const bool fresh = op == OpType::kCreate || (op == OpType::kPut && !plan.existed);
  if (fresh) DSTORE_RETURN_IF_ERROR(v.zone.init_entry(plan.meta_idx, name));
  MetaEntry* e = v.zone.entry(plan.meta_idx);
  if (op == OpType::kPut && plan.existed) e->nblocks = 0;  // array retained; refilled below
  for (uint64_t b : plan.blocks) {
    DSTORE_RETURN_IF_ERROR(v.zone.append_block(plan.meta_idx, b));
  }
  // A put replaces the content; a write only ever grows it. Per-object CC
  // makes the entry exclusive, so no structure-wide lock is needed (the
  // block-array growth locks the allocator internally).
  if (op == OpType::kPut || arg0 > e->size) e->size = arg0;
  if (op != OpType::kCreate) {
    e->generation++;
    // Content is changing: the frontend re-records the whole-object CRC
    // once its data IOs complete; replay (no data bytes) leaves it invalid.
    e->data_crc_valid = 0;
    v.zone.seal_entry(plan.meta_idx);
  }
  if (op == OpType::kWrite) return Status::ok();
  if (trace != nullptr) trace->enter(obs::kStageBtree);
  return fresh ? v.insert(name, plan.meta_idx) : Status::ok();
}

// ---------------------------------------------------------------------------
// Data plane (async NVMe queue-pair emulation; see ssd/io_queue.h)
// ---------------------------------------------------------------------------

Status DStore::apply_io_policy(Status s, bool is_write) {
  if (!s.is_ok() && ssd::is_transient(s)) {
    ssd_io_exhausted_->add(1);
    if (is_write) {
      // Degrade rather than wedge: the SSD is refusing writes, so stop
      // accepting mutations but keep serving whatever is still readable.
      read_only_.store(true, std::memory_order_release);
      return Status::read_only("ssd write retries exhausted: " + s.to_string());
    }
  }
  return s;
}

void DStore::reap_pending(ds_ctx_t* ctx) {
  if (ctx == nullptr || ctx->pending_io.empty()) return;
  // A parked queue only ever holds ok statuses, so poll()/wait_all() here
  // never resubmit (which would dereference a dead caller buffer).
  auto& v = ctx->pending_io;
  v.erase(std::remove_if(v.begin(), v.end(),
                         [](std::unique_ptr<ssd::IoQueue>& q) { return q->poll() == 0; }),
          v.end());
  // Bound the context's outstanding emulated commands like a real
  // queue-pair would: past the cap, the oldest is waited out.
  constexpr size_t kMaxParked = 4;
  while (v.size() > kMaxParked) {
    v.front()->wait_all();
    v.erase(v.begin());
  }
}

Status DStore::finish_io(ssd::IoQueue& q, bool is_write, obs::OpTrace* trace) {
  q.wait_all();
  for (size_t i = 0; i < q.size(); i++) {
    if (q.status_of(i).is_ok()) continue;
    // Per-descriptor recovery: only the failed IO is re-issued (paying its
    // device latency again); the original submission was the first attempt.
    uint64_t retries = 0;
    Status s = ssd::retry_after_failure(
        q.status_of(i), [&] { return q.resubmit(i); },
        ssd::RetryPolicy{cfg_.io_max_retries, cfg_.io_retry_backoff_ns}, &retries);
    if (retries != 0) ssd_io_retries_->add(retries);
    s = apply_io_policy(std::move(s), is_write);
    if (!s.is_ok()) {
      if (trace != nullptr) trace->add_io(q.size(), q.resubmits());
      return s;
    }
  }
  if (trace != nullptr) trace->add_io(q.size(), q.resubmits());
  return Status::ok();
}

Status DStore::submit_io_range(ssd::IoQueue& q, const uint64_t* bl, uint64_t nblocks,
                               const void* wsrc, void* rdst, size_t size, uint64_t offset,
                               obs::OpTrace* trace) {
  const char* w = static_cast<const char*>(wsrc);
  char* r = static_cast<char*>(rdst);
  const size_t bs = block_size();
  uint64_t issued = 0;
  uint64_t saved = 0;
  size_t done = 0;
  while (done < size) {
    uint64_t pos = offset + done;
    uint64_t bi = pos / bs;
    size_t in_block = pos % bs;
    if (bi >= nblocks) return Status::internal("io beyond allocated blocks");
    size_t len = std::min(bs - in_block, size - done);
    // Coalesce a physically contiguous block run into one descriptor
    // (media addressing is linear), capped at cfg_.ssd_qd blocks — the
    // emulated max transfer size — so qd=1 degenerates to one IO per
    // block, the historical synchronous data plane.
    uint64_t run = 1;
    while (run < cfg_.ssd_qd && done + len < size && bi + run < nblocks &&
           bl[bi + run] == bl[bi] + run) {
      len += std::min(bs, size - (done + len));
      run++;
    }
    issued++;
    saved += run - 1;
    q.submit(ssd::IoDesc{bl[bi], in_block, len, w != nullptr ? w + done : nullptr,
                         r != nullptr ? r + done : nullptr});
    done += len;
  }
  if (trace != nullptr) {
    // Published exactly in OpTrace::finish(), batched with the op counter.
    trace->add_batch(issued, saved);
  } else {
    ssd_ios_issued_->add(issued);
    ssd_blocks_coalesced_->add(saved);
    ssd_io_batches_->add(1);
  }
  return Status::ok();
}

Status DStore::read_data_range(View& v, uint64_t meta_idx, void* buf, size_t size,
                               uint64_t offset, size_t* out_len, obs::OpTrace* trace) {
  DSTORE_RETURN_IF_ERROR(verify_meta(v, meta_idx));
  const MetaEntry* e = v.zone.entry(meta_idx);
  if (e == nullptr || !e->in_use) return Status::corruption("read from free entry");
  if (offset >= e->size) {
    *out_len = 0;
    return Status::ok();
  }
  size_t want = std::min(size, (size_t)(e->size - offset));
  if (want == 0) {
    *out_len = 0;
    return Status::ok();
  }
  const uint64_t* bl = v.zone.blocks(*e);
  ssd::IoQueue q(device_, cfg_.ssd_qd);
  DSTORE_RETURN_IF_ERROR(submit_io_range(q, bl, e->nblocks, nullptr, buf, want, offset, trace));
  Status s = finish_io(q, /*is_write=*/false, trace);
  if (s.code() == Code::kCorruption) {
    // The device flagged a bad page under this read: run the containment
    // ladder, and on a successful repair retry the read against the healed
    // pages — the caller sees either verified bytes or corruption, never
    // silently wrong data.
    s = contain_corruption(v, meta_idx, trace);
    if (s.is_ok()) {
      ssd::IoQueue retry(device_, cfg_.ssd_qd);
      s = submit_io_range(retry, bl, e->nblocks, nullptr, buf, want, offset, trace);
      if (s.is_ok()) s = finish_io(retry, /*is_write=*/false, trace);
    }
  }
  DSTORE_RETURN_IF_ERROR(s);
  *out_len = want;
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Integrity containment ladder + scrubber (DESIGN.md §11)
// ---------------------------------------------------------------------------

Status DStore::verify_meta(View& v, uint64_t meta_idx) {
  Status s = v.zone.verify_entry(meta_idx);
  if (s.code() == Code::kCorruption) {
    // The entry's block list itself is untrustworthy, so no repair tier can
    // run — the one uncontainable case. Stop accepting mutations; reads of
    // other objects keep working.
    integrity_failures_->add(1);
    read_only_.store(true, std::memory_order_release);
  }
  return s;
}

Status DStore::verify_object_pages(View& v, uint64_t meta_idx, uint64_t* pages,
                                   std::vector<uint64_t>* bad) {
  const MetaEntry* e = v.zone.entry(meta_idx);
  if (e == nullptr || !e->in_use) return Status::invalid_argument("bad metadata entry");
  const uint64_t* bl = v.zone.blocks(*e);
  const uint64_t bs = block_size();
  const uint64_t ps = device_->config().page_size;
  Status worst;
  for (uint32_t i = 0; i < e->nblocks; i++) {
    uint64_t off = (uint64_t)i * bs;
    if (off >= e->size) break;
    size_t len = (size_t)std::min(bs, e->size - off);
    if (pages != nullptr) *pages += (len + ps - 1) / ps;
    Status s = device_->verify_pages(bl[i], 0, len, bad);
    if (!s.is_ok()) {
      if (bad == nullptr) return s;  // fail fast when not collecting
      if (worst.is_ok()) worst = s;
    }
  }
  return worst;
}

Status DStore::repair_object(View& v, uint64_t meta_idx, obs::OpTrace* trace) {
  const MetaEntry* e = v.zone.entry(meta_idx);
  if (e == nullptr || !e->in_use) return Status::corruption("repair of free entry");
  if (e->size == 0) return Status::ok();  // no data pages to heal
  // The newest committed whole-object put inside the checkpoint window,
  // authenticated by its payload CRC (engine::find_repair_payload).
  auto rp = engine_->find_repair_payload(e->name, e->size);
  if (!rp.is_ok()) return rp.status();
  const std::vector<char>& data = rp.value();
  if (e->data_crc_valid && crc32c(data.data(), data.size()) != e->data_crc) {
    return Status::corruption("log payload does not match the object's content checksum");
  }
  ssd::IoQueue q(device_, cfg_.ssd_qd);
  DSTORE_RETURN_IF_ERROR(submit_io_range(q, v.zone.blocks(*e), e->nblocks, data.data(), nullptr,
                                         data.size(), 0, trace));
  return finish_io(q, /*is_write=*/true, trace);
}

Status DStore::contain_corruption(View& v, uint64_t meta_idx, obs::OpTrace* trace,
                                  uint64_t* quarantined) {
  integrity_failures_->add(1);
  Status rs = repair_object(v, meta_idx, trace);
  if (rs.is_ok()) rs = verify_object_pages(v, meta_idx, nullptr, nullptr);
  if (rs.is_ok()) {
    integrity_repairs_->add(1);
    return Status::ok();
  }
  // Unrepairable: quarantine every page that still fails its checksum so
  // later reads, scrubs, and fsck report it as known-bad.
  std::vector<uint64_t> bad;
  // lint: allow-discard collecting the bad-page list; the verdict is already failure
  (void)verify_object_pages(v, meta_idx, nullptr, &bad);
  uint64_t before = badpages_.count();
  // lint: allow-discard quarantine is advisory; a full table still fails page reads
  for (uint64_t page : bad) (void)badpages_.add(page);
  uint64_t added = badpages_.count() - before;
  integrity_quarantined_->add(added);
  if (quarantined != nullptr) *quarantined += added;
  const MetaEntry* e = v.zone.entry(meta_idx);
  return Status::corruption("object '" + (e != nullptr ? e->name.str() : std::string()) +
                            "' is corrupt and unrepairable (" + std::to_string(bad.size()) +
                            " bad pages, " + std::to_string(added) + " newly quarantined)");
}

// scrub_now lives below ReaderGuard's definition (it takes per-object read
// exclusion the same way foreground reads do).

void DStore::start_scrubber() {
  scrub_thread_ = std::thread([this] { scrub_loop(); });
}

void DStore::stop_scrubber() {
  {
    MutexGuard g(scrub_mu_);
    scrub_stop_ = true;
  }
  scrub_cv_.notify_all();
  if (scrub_thread_.joinable()) scrub_thread_.join();
}

void DStore::scrub_loop() {
  UniqueLock g(scrub_mu_);
  while (!scrub_stop_) {
    if (scrub_cv_.wait_for(g, std::chrono::milliseconds(cfg_.scrub_interval_ms),
                           [this] { return scrub_stop_; })) {
      break;
    }
    g.unlock();
    // Failures publish through the integrity metrics and re-surface on the
    // next foreground read; the scrubber itself never aborts.
    // lint: allow-discard see above
    (void)scrub_now(nullptr);
    g.lock();
  }
}

// ---------------------------------------------------------------------------
// Reader-side concurrency control (§4.4)
// ---------------------------------------------------------------------------

namespace {
// In-flight records on `name` that `ctx`'s own ops tolerate: its olock's
// NOOP record, when it holds one (§4.5). Writers and readers share it.
int64_t allowed_inflight(const ds_ctx_t* ctx, const Key& name) {
  if (ctx == nullptr || ctx->held_locks.empty()) return 0;
  return ctx->held_locks.count(name.str()) != 0 ? 1 : 0;
}
}  // namespace

// Reader protocol: register in the read-count table FIRST, then check for
// in-flight writes (beyond the caller's own olock); retreat and retry if
// one exists. Combined with the writer's append-then-poll order this
// guarantees mutual exclusion without locks (flag/flag protocol; the
// reader side retreats, so no deadlock).
class DStore::ReaderGuard {
 public:
  ReaderGuard(DStore& store, const ds_ctx_t* ctx, const Key& name)
      : store_(store), name_(name) {
    const int64_t allowed = allowed_inflight(ctx, name_);
    for (;;) {
      store_.read_counts_.inc(name_);
      if (store_.engine_->inflight_count(name_) <= allowed) return;
      store_.read_counts_.dec(name_);
      store_.engine_->wait_inflight_at_most(name_, allowed);
    }
  }
  ~ReaderGuard() { store_.read_counts_.dec(name_); }
  ReaderGuard(const ReaderGuard&) = delete;
  ReaderGuard& operator=(const ReaderGuard&) = delete;

 private:
  DStore& store_;
  Key name_;
};

Status DStore::scrub_now(ScrubReport* report) {
  // The whole pass runs under the scrubber role: any store-wide lock held
  // here that a foreground op then blocks on is a quiescence violation.
  // That is why object discovery walks the metadata zone lock-free
  // (peek_live) instead of list()-ing the btree under btree_mu_ — the old
  // listing held the btree shared for the entire enumeration, so a
  // foreground writer's exclusive acquisition could stall behind the
  // scrubber (exactly the tail the paper's scrubber design avoids).
  lockdep::RoleScope role(lockdep::Role::kScrubber);
  ScrubReport local;
  ScrubReport* rep = report != nullptr ? report : &local;
  uint64_t t0 = now_ns();
  View v = live_view();
  Status worst;
  const uint64_t n_entries = v.zone.num_entries();
  for (uint64_t idx = 0; idx < n_entries; idx++) {
    Key k;
    if (!v.zone.peek_live(idx, &k)) continue;  // free entry
    // Per-object read exclusion: writers of this object wait, everything
    // else proceeds — the scrubber never stalls the store globally.
    ReaderGuard guard(*this, nullptr, k);
    // Re-validate the (idx -> k) binding under the guard: the entry may
    // have been deleted — or released and re-initialized for a different
    // object, leaving the peeked name torn — between the peek and the
    // guard. A binding that validates here is stable for the guard's
    // lifetime, because any writer that could change it writes object k
    // and is excluded.
    Key cur;
    if (!v.zone.peek_live(idx, &cur) || !(cur == k)) continue;
    std::string n = k.str();
    rep->objects_scanned++;
    // Tier 1: metadata entry CRC (uncontainable on failure).
    Status es = verify_meta(v, idx);
    if (!es.is_ok()) {
      rep->checksum_failures++;
      rep->corrupt_objects.push_back(n);
      if (worst.is_ok()) worst = es;
      continue;
    }
    // Tier 2: device page sidecar over the object's used bytes. The
    // device's bandwidth channel rate-limits these verification reads.
    Status ds = verify_object_pages(v, idx, &rep->pages_verified, nullptr);
    // Tier 3: whole-object content CRC — catches internally consistent
    // stale pages (lost or misdirected writes) the sidecar cannot see.
    const MetaEntry* e = v.zone.entry(idx);
    if (ds.is_ok() && e->data_crc_valid && e->size > 0) {
      std::vector<char> content(e->size);
      const uint64_t* bl = v.zone.blocks(*e);
      ssd::IoQueue q(device_, cfg_.ssd_qd);
      ds = submit_io_range(q, bl, e->nblocks, nullptr, content.data(), e->size, 0);
      if (ds.is_ok()) ds = finish_io(q, /*is_write=*/false);
      if (ds.is_ok() && crc32c(content.data(), content.size()) != e->data_crc) {
        ds = Status::corruption("object '" + n + "' content checksum mismatch");
      }
    }
    if (ds.is_ok()) continue;
    if (ds.code() != Code::kCorruption) {
      if (worst.is_ok()) worst = ds;  // transient IO problem, not corruption
      continue;
    }
    rep->checksum_failures++;
    Status cs = contain_corruption(v, idx, nullptr, &rep->quarantined_pages);
    if (cs.is_ok()) {
      rep->repaired++;
    } else {
      rep->corrupt_objects.push_back(n);
      if (worst.is_ok()) worst = cs;
    }
  }
  scrub_pages_verified_->add(rep->pages_verified);
  last_scrub_ns_.store(now_ns() - t0, std::memory_order_relaxed);
  return worst;
}

// ---------------------------------------------------------------------------
// The write pipeline (§4.3, §4.4)
// ---------------------------------------------------------------------------

namespace {
// Replication prepare (DESIGN.md §16): mirror a mutation into the sink
// while the op's in-flight exclusion still holds, so the stream position it
// is assigned equals the per-key commit order. Called after the data is
// durable and immediately before the commit; the returned ticket is settled
// (sink commit) right after. A null `h` is a pure overwrite: no log record,
// so the entry ships unlogged, without a slot image.
uint64_t repl_prepare(const DStoreConfig& cfg, dipper::Engine* eng,
                      const dipper::Engine::RecordHandle* h, dipper::OpType op,
                      const Key& k, const void* value, size_t size, uint64_t arg0,
                      uint64_t arg1) {
  if (cfg.repl_sink == nullptr) return 0;
  ReplSink::Mutation m;
  m.op = (uint8_t)op;
  m.shard = cfg.repl_shard_id;
  m.unlogged = h == nullptr;
  if (h != nullptr) {
    m.side = h->side;
    m.slot = h->slot;
    m.lsn = h->lsn;
    m.slot_image = eng->slot_image(*h);
  }
  m.arg0 = arg0;
  m.arg1 = arg1;
  m.key = k.str();
  if (size > 0) m.value.assign((const char*)value, size);
  return cfg.repl_sink->prepare(std::move(m));
}
}  // namespace

Status DStore::admit(View& v, Mutation& m) {
  auto found = v.find(m.key);
  const MetaEntry* e = found.has_value() ? v.zone.entry(*found) : nullptr;
  switch (m.op) {
    case OpType::kPut:
      if (e == nullptr && v.meta_pool.free_count() == 0) {
        return Status::out_of_space("metadata pool exhausted");
      }
      if (v.block_pool.free_count() + (e != nullptr ? e->nblocks : 0) < blocks_needed(m.size)) {
        return Status::out_of_space("block pool exhausted");
      }
      return Status::ok();
    case OpType::kDelete:
      return e != nullptr ? Status::ok() : Status::not_found(m.key.str());
    case OpType::kCreate:
      m.done = e != nullptr;  // another writer created it first; just open it
      if (!m.done && v.meta_pool.free_count() == 0) {
        return Status::out_of_space("metadata pool exhausted");
      }
      return Status::ok();
    case OpType::kWrite: {
      if (e == nullptr) return Status::not_found(m.key.str());
      m.plan.meta_idx = *found;
      m.arg0 = std::max<uint64_t>(e->size, m.arg1 + m.size);
      // Only a metadata change is a logged operation (§4.3). repair_logging
      // routes pure overwrites through the logged path too, so their
      // payloads reach the physical log and stay repairable (§11); that
      // kWrite record replays as a metadata no-op.
      m.unlogged = m.arg0 == e->size && !cfg_.repair_logging;
      uint64_t need = blocks_needed(m.arg0);
      if (need > e->nblocks && v.block_pool.free_count() < need - e->nblocks) {
        return Status::out_of_space("block pool exhausted");
      }
      return Status::ok();
    }
    case OpType::kNoop:
      break;
  }
  return Status::invalid_argument("not a mutation");
}

Status DStore::mutate(ds_ctx_t* ctx, Mutation& m) {
  if (read_only()) return Status::read_only("store degraded after ssd write failures");
  const Key& k = m.key;
  const int64_t allowed = allowed_inflight(ctx, k);
  reap_pending(ctx);
  View v = live_view();
  obs::OpTrace trace(m.op == OpType::kDelete  ? delete_metrics_
                     : m.op == OpType::kWrite ? write_metrics_
                                              : put_metrics_,
                     pool_);
  // Write-write CC (§4.4): conflicting writers serialize on the log's
  // in-flight state before entering the synchronous region (step 1).
  // Readers are pre-drained here too so the in-region residual wait is
  // ~zero.
  for (;;) {
    engine_->wait_inflight_at_most(k, allowed);
    read_counts_.wait_at_most(k, 0);
    pipeline_mu_.lock();
    if (engine_->inflight_count(k) <= allowed) break;
    pipeline_mu_.unlock();
  }
  Status s = admit(v, m);
  if (!s.is_ok() || m.done) {
    pipeline_mu_.unlock();
    if (s.is_ok()) trace.succeed();
    return s;
  }
  // Step 2a: reserve the log record — this fixes its conflict-order
  // position; the in-flight marker becomes visible here. The record's PMEM
  // write happens outside the synchronous region (step 2b below). A pure
  // overwrite has no record but raises the same marker.
  dipper::Engine::RecordHandle h;
  if (m.unlogged) {
    engine_->register_external_write(k);
  } else {
    auto hr = engine_->reserve(k);
    if (!hr.is_ok()) {
      pipeline_mu_.unlock();
      return hr.status();
    }
    h = hr.value();
  }
  // A failed op must drop its marker: a record left in flight would wedge
  // every later writer of this object.
  auto abandon = [&](Status st) {
    if (m.unlogged) {
      engine_->unregister_external_write(k);
    } else {
      engine_->abort(h);
    }
    return st;
  };
  // Read-write CC (§4.4): residual poll of the read count. New readers see
  // the in-flight marker and retreat; the pre-drain above already cleared
  // existing ones, so this is almost always zero iterations.
  read_counts_.wait_at_most(k, 0);
  if (m.unlogged) {
    // Content is about to change: drop the recorded CRC first, so a torn
    // write can never leave a stale-but-"valid" content checksum behind.
    v.zone.entry(m.plan.meta_idx)->data_crc_valid = 0;
    v.zone.seal_entry(m.plan.meta_idx);
  } else {
    // Steps 3-4.
    trace.enter(obs::kStagePoolAlloc);
    s = phase1(v, m.op, k, m.arg0, &m.plan);
    trace.leave();
    if (!s.is_ok()) {
      pipeline_mu_.unlock();
      return abandon(s);  // unreachable given admit's checks; fail loudly
    }
  }
  // The data range's blocks: a put's freshly planned ones; for an owrite,
  // the object's own plus any phase 1 appended. Phase 2 appends those to
  // the entry (possibly reallocating its block array) after the unlock, so
  // the full list is snapshotted now, while the entry is stable.
  const uint64_t* bl = m.plan.blocks.data();
  uint64_t nbl = m.plan.blocks.size();
  std::vector<uint64_t> grown;
  if (m.op == OpType::kWrite) {
    const MetaEntry* e = v.zone.entry(m.plan.meta_idx);
    bl = v.zone.blocks(*e);
    nbl = e->nblocks;
    if (!m.plan.blocks.empty()) {
      grown.assign(bl, bl + nbl);
      grown.insert(grown.end(), m.plan.blocks.begin(), m.plan.blocks.end());
      bl = grown.data();
      nbl = grown.size();
    }
  }
  // Steps 8a/2b: submit the op's data IOs through the NVMe queue-pair,
  // then persist the log record while they are in flight — the record
  // write and the data writes are independent until the commit point
  // (step 9), so their latencies overlap instead of adding up. The queue is
  // heap-owned so the early-ack path can park it on the context; the
  // allocation is noise next to the device's per-IO base latency.
  const bool has_data = m.op == OpType::kPut || m.op == OpType::kWrite;
  std::unique_ptr<ssd::IoQueue> ioq;
  Status ws;
  auto issue = [&] {
    if (has_data) {
      ioq = std::make_unique<ssd::IoQueue>(device_, cfg_.ssd_qd);
      trace.enter(obs::kStageSsdBatch);
      ws = submit_io_range(*ioq, bl, nbl, m.data, nullptr, m.size, m.arg1, &trace);
    }
    if (!m.unlogged) {
      trace.enter(obs::kStageLogAppend);
      engine_->write_reserved(h, m.op, m.arg0, m.arg1, m.data, m.size);
    }
    trace.leave();
  };
  auto metadata = [&] {
    Status ps = m.unlogged ? Status::ok() : phase2(v, m.op, k, m.arg0, m.plan, &trace);
    trace.leave();
    return ps;
  };
  if (cfg_.observational_equivalence) {
    // Step 5, then 8a, 2b and 6-7 outside the region.
    pipeline_mu_.unlock();
    issue();
    s = metadata();
  } else {
    // Fig 9 ablation (no OE): steps 6-7 stay inside the synchronous region.
    s = metadata();
    pipeline_mu_.unlock();
    issue();
  }
  // Step 8b: reap the data completions (device-cache durable once acked).
  //
  // Early ack (DESIGN.md §13, puts only): with a PLP device, every
  // submission already landed in the capacitor-backed write cache —
  // acknowledged == durable — and in this emulation a failure completes at
  // submission time, so a queue with none observed will drain clean. Skip
  // the latency wait, commit now, and park the queue on the context;
  // anything else (a failure already posted, no context, no PLP) takes the
  // synchronous reap with its bounded-retry policy.
  //
  // A write covering the whole object re-establishes its content CRC. It is
  // hashed before the reap, while the data IOs are still in flight — the
  // caller's buffer is stable for the whole call, so the hash overlaps the
  // device instead of following it — and published only after the
  // completions (below).
  const bool whole = m.size > 0 && m.arg1 == 0 && m.size == m.arg0;
  uint32_t value_crc = 0;
  bool parked = false;
  if (has_data) {
    trace.enter(obs::kStageSsdBatch);
    if (whole) value_crc = crc32c(m.data, m.size);
    const bool early_ack = m.op == OpType::kPut && cfg_.early_ack && ctx != nullptr &&
                           device_->config().power_loss_protection;
    if (s.is_ok() && ws.is_ok()) {
      if (early_ack && !ioq->any_failed()) {
        trace.add_io(ioq->size(), ioq->resubmits());
        parked = true;
      } else {
        ws = finish_io(*ioq, /*is_write=*/true, &trace);
      }
    }
  }
  if (s.is_ok()) s = ws;
  if (!s.is_ok()) return abandon(s);
  // Publish the whole-object content CRC — the tier that catches internally
  // consistent stale pages (lost and misdirected writes) the per-page
  // sidecar cannot see — now that the bytes it covers have landed. Partial
  // writes leave it invalid. Frontend-only: replay has no data bytes, so
  // shadow entries keep data_crc_valid = 0.
  if (whole) {
    MetaEntry* e = v.zone.entry(m.plan.meta_idx);
    e->data_crc = value_crc;
    e->data_crc_valid = 1;
    v.zone.seal_entry(m.plan.meta_idx);
  }
  // Step 9: commit — the op is durable from here on.
  uint64_t ticket = repl_prepare(cfg_, engine_.get(), m.unlogged ? nullptr : &h, m.op, k, m.data,
                                 m.size, m.arg0, m.arg1);
  if (m.unlogged) {
    engine_->unregister_external_write(k);
  } else {
    trace.enter(obs::kStageCommitFlush);
    engine_->commit(h);
  }
  trace.leave();
  if (ticket != 0) cfg_.repl_sink->commit(ticket);
  if (parked) ctx->pending_io.push_back(std::move(ioq));
  trace.succeed();
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Key-value API
// ---------------------------------------------------------------------------

Status DStore::oput(ds_ctx_t* ctx, std::string_view name, const void* value, size_t size) {
  if (!Key::fits(name)) return Status::invalid_argument("name too long");
  if (size > 0 && value == nullptr) return Status::invalid_argument("null value");
  Mutation m{OpType::kPut, Key::from(name)};
  m.arg0 = size;
  m.data = value;
  m.size = size;
  return mutate(ctx, m);
}

Result<size_t> DStore::oget(ds_ctx_t* ctx, std::string_view name, void* buf, size_t buf_cap) {
  if (!Key::fits(name)) return Status::invalid_argument("name too long");
  Key k = Key::from(name);
  obs::OpTrace trace(get_metrics_, pool_);
  ReaderGuard guard(*this, ctx, k);
  View v = live_view();
  auto found = v.find(k);
  if (!found.has_value()) return Status::not_found(k.str());
  const MetaEntry* e = v.zone.entry(*found);
  size_t value_size = e->size;
  size_t out_len = 0;
  DSTORE_RETURN_IF_ERROR(
      read_data_range(v, *found, buf, std::min(buf_cap, value_size), 0, &out_len, &trace));
  // Content tier: a misdirected write leaves the intended pages stale but
  // internally consistent — only the whole-object checksum can tell. Runs
  // whenever the caller's buffer covered the entire object.
  if (out_len == value_size && value_size > 0 && e->data_crc_valid &&
      crc32c(buf, out_len) != e->data_crc) {
    Status s = contain_corruption(v, *found, &trace);
    if (s.is_ok()) {
      s = read_data_range(v, *found, buf, value_size, 0, &out_len, &trace);
      if (s.is_ok() && crc32c(buf, out_len) != e->data_crc) {
        s = Status::corruption("object '" + k.str() + "' content checksum mismatch");
      }
    }
    DSTORE_RETURN_IF_ERROR(s);
  }
  trace.succeed();
  return value_size;
}

// Out-of-line so unique_ptr<ReaderGuard> sees the complete guard type.
DStore::ReadView::ReadView() = default;
DStore::ReadView::ReadView(ReadView&&) noexcept = default;
DStore::ReadView& DStore::ReadView::operator=(ReadView&&) noexcept = default;
DStore::ReadView::~ReadView() = default;

namespace {
// The same composition crc32c(data, size) produces, streamed over the
// view's pieces — zero-copy reads verify the identical content checksum
// oget computes over the copied-out buffer.
uint32_t crc_over_pieces(const std::vector<DStore::ReadView::Piece>& pieces) {
  uint32_t c = 0xffffffffu;
  c = crc32c_extend_u64(c, 0);
  for (const auto& p : pieces) c = crc32c_extend(c, p.data, p.len);
  c ^= 0xffffffffu;
  return c == 0 ? 1u : c;
}
}  // namespace

Result<DStore::ReadView> DStore::oget_zc(ds_ctx_t* ctx, std::string_view name) {
  if (!Key::fits(name)) return Status::invalid_argument("name too long");
  Key k = Key::from(name);
  obs::OpTrace trace(get_metrics_, pool_);
  ReadView view;
  view.pin_ = std::make_unique<ReaderGuard>(*this, ctx, k);  // pin before lookup
  View v = live_view();
  auto found = v.find(k);
  if (!found.has_value()) return Status::not_found(k.str());
  DSTORE_RETURN_IF_ERROR(verify_meta(v, *found));
  const MetaEntry* e = v.zone.entry(*found);
  view.size_ = e->size;
  if (e->size == 0) {
    trace.succeed();
    return view;
  }
  const uint64_t* bl = v.zone.blocks(*e);
  const size_t bs = block_size();
  // Map every block, merging pointer-contiguous runs into one piece, and
  // sidecar-verify what is handed out — verify_pages charges the media
  // bandwidth channel, so zero-copy reads still pay the device's read cost
  // (minus the copy-out).
  uint64_t remaining = e->size;
  for (uint32_t i = 0; i < e->nblocks && remaining > 0; i++) {
    const char* p = static_cast<const char*>(device_->direct_read_map(bl[i]));
    if (p == nullptr) {
      return Status::unsupported("device has no direct read mapping; use oget()");
    }
    size_t len = (size_t)std::min<uint64_t>(bs, remaining);
    Status vs = device_->verify_pages(bl[i], 0, len, nullptr);
    if (vs.code() == Code::kCorruption) {
      vs = contain_corruption(v, *found, &trace);
      if (vs.is_ok()) vs = device_->verify_pages(bl[i], 0, len, nullptr);
    }
    DSTORE_RETURN_IF_ERROR(vs);
    if (!view.pieces_.empty() &&
        static_cast<const char*>(view.pieces_.back().data) + view.pieces_.back().len == p) {
      view.pieces_.back().len += len;
    } else {
      view.pieces_.push_back({p, len});
    }
    remaining -= len;
  }
  // Content tier (as in oget): catches internally consistent stale pages —
  // lost or misdirected writes — the per-page sidecar cannot see.
  if (e->data_crc_valid && crc_over_pieces(view.pieces_) != e->data_crc) {
    Status cs = contain_corruption(v, *found, &trace);
    if (cs.is_ok() && crc_over_pieces(view.pieces_) != e->data_crc) {
      cs = Status::corruption("object '" + k.str() + "' content checksum mismatch");
    }
    DSTORE_RETURN_IF_ERROR(cs);
  }
  trace.succeed();
  return view;
}

Status DStore::odelete(ds_ctx_t* ctx, std::string_view name) {
  if (!Key::fits(name)) return Status::invalid_argument("name too long");
  Mutation m{OpType::kDelete, Key::from(name)};
  return mutate(ctx, m);
}

// ---------------------------------------------------------------------------
// Filesystem API
// ---------------------------------------------------------------------------

Result<Object*> DStore::oopen(ds_ctx_t* ctx, std::string_view name, size_t /*size_hint*/,
                              uint32_t mode) {
  if (!Key::fits(name)) return Status::invalid_argument("name too long");
  if ((mode & (kRead | kWrite)) == 0) return Status::invalid_argument("bad open mode");
  if ((mode & kCreate) != 0 && (mode & kWrite) == 0) {
    return Status::invalid_argument("kCreate requires kWrite");
  }
  Key k = Key::from(name);
  if (!live_view().find(k).has_value()) {
    if ((mode & kCreate) == 0) return Status::not_found(k.str());
    // Create path: a logged metadata operation (§4.3: "log records for
    // oopen ... are only written if they modify any metadata").
    Mutation m{OpType::kCreate, k};
    DSTORE_RETURN_IF_ERROR(mutate(ctx, m));
  }
  auto* obj = new Object{this, k, mode, ctx};
  open_objects_.fetch_add(1, std::memory_order_relaxed);
  return obj;
}

void DStore::oclose(Object* object) {
  if (object == nullptr) return;
  open_objects_.fetch_sub(1, std::memory_order_relaxed);
  delete object;
}

Result<size_t> DStore::oread(Object* object, void* buf, size_t size, uint64_t offset) {
  if (object == nullptr || (object->mode & kRead) == 0) {
    return Status::invalid_argument("object not open for reading");
  }
  obs::OpTrace trace(get_metrics_, pool_);
  ReaderGuard guard(*this, object->ctx, object->name);
  View v = live_view();
  auto found = v.find(object->name);
  if (!found.has_value()) return Status::not_found(object->name.str());
  size_t out_len = 0;
  DSTORE_RETURN_IF_ERROR(read_data_range(v, *found, buf, size, offset, &out_len, &trace));
  trace.succeed();
  return out_len;
}

Result<size_t> DStore::owrite(Object* object, const void* buf, size_t size, uint64_t offset) {
  if (object == nullptr || (object->mode & kWrite) == 0) {
    return Status::invalid_argument("object not open for writing");
  }
  if (size == 0) return (size_t)0;
  Mutation m{OpType::kWrite, object->name};
  m.arg1 = offset;  // admit() sets arg0, the new size
  m.data = buf;
  m.size = size;
  DSTORE_RETURN_IF_ERROR(mutate(object->ctx, m));
  return size;
}

// ---------------------------------------------------------------------------
// olock / ounlock (§4.5)
// ---------------------------------------------------------------------------

Status DStore::olock(ds_ctx_t* ctx, std::string_view name) {
  if (ctx == nullptr) return Status::invalid_argument("null context");
  if (!Key::fits(name)) return Status::invalid_argument("name too long");
  Key k = Key::from(name);
  std::string ks = k.str();
  if (ctx->held_locks.count(ks) != 0) return Status::busy("lock already held by this context");
  for (;;) {
    engine_->wait_inflight_at_most(k, 0);
    auto h = engine_->lock_object(k);
    if (h.is_ok()) {
      ctx->held_locks.insert(ks);
      return Status::ok();
    }
    if (h.status().code() != Code::kBusy) return h.status();
    std::this_thread::yield();
  }
}

Status DStore::ounlock(ds_ctx_t* ctx, std::string_view name) {
  if (ctx == nullptr) return Status::invalid_argument("null context");
  Key k = Key::from(name);
  std::string ks = k.str();
  auto it = ctx->held_locks.find(ks);
  if (it == ctx->held_locks.end()) return Status::not_found("lock not held by this context");
  ctx->held_locks.erase(it);
  engine_->unlock_object({}, k);
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

Result<uint64_t> DStore::object_size(std::string_view name) {
  if (!Key::fits(name)) return Status::invalid_argument("name too long");
  Key k = Key::from(name);
  View v = live_view();
  auto found = v.find(k);
  if (!found.has_value()) return Status::not_found(k.str());
  return (uint64_t)v.zone.entry(*found)->size;
}

Result<uint32_t> DStore::content_crc(std::string_view name) {
  if (!Key::fits(name)) return Status::invalid_argument("name too long");
  Key k = Key::from(name);
  ReaderGuard guard(*this, nullptr, k);  // no writer mid-publish
  View v = live_view();
  auto found = v.find(k);
  if (!found.has_value()) return Status::not_found(k.str());
  const MetaEntry* e = v.zone.entry(*found);
  return e->data_crc_valid ? e->data_crc : 0u;
}

void DStore::list(const std::function<bool(std::string_view, uint64_t)>& fn) {
  View v = live_view();
  SharedLockGuard g(btree_mu_);
  v.btree.for_each([&](const Key& key, uint64_t idx) {
    const MetaEntry* e = v.zone.entry(idx);
    return fn(key.view(), e != nullptr ? e->size : 0);
  });
}

uint64_t DStore::object_count() {
  View v = live_view();
  SharedLockGuard g(btree_mu_);
  return v.btree.size();
}

DStore::SpaceUsage DStore::space_usage() {
  View v = live_view();
  SpaceUsage u{};
  u.dram_bytes = engine_->space().used_bytes();
  u.pmem_bytes = engine_->pmem_used_bytes();
  uint64_t blocks_in_use = cfg_.num_blocks - v.block_pool.free_count();
  u.ssd_bytes = blocks_in_use * block_size();
  return u;
}

Status DStore::validate() {
  View v = live_view();
  LockGuard<SharedSpinLock> g(btree_mu_);
  DSTORE_RETURN_IF_ERROR(v.btree.validate());
  uint64_t visited = 0;
  uint64_t blocks_in_entries = 0;
  Status problem;
  v.btree.for_each([&](const Key& key, uint64_t idx) {
    const MetaEntry* e = v.zone.entry(idx);
    if (e == nullptr || !e->in_use) {
      problem = Status::corruption("btree value points at unused metadata entry");
      return false;
    }
    if (!(e->name == key)) {
      problem = Status::corruption("metadata entry name mismatch");
      return false;
    }
    if (blocks_needed(e->size) != e->nblocks) {
      problem = Status::corruption("entry size/block-count mismatch");
      return false;
    }
    Status es = v.zone.verify_entry(idx);
    if (!es.is_ok()) {
      problem = es;
      return false;
    }
    visited++;
    blocks_in_entries += e->nblocks;
    return true;
  });
  DSTORE_RETURN_IF_ERROR(problem);
  if (visited != v.btree.size()) return Status::corruption("btree size mismatch");
  if (v.meta_pool.free_count() + visited != cfg_.max_objects) {
    return Status::corruption("metadata pool accounting mismatch");
  }
  if (v.block_pool.free_count() + blocks_in_entries != cfg_.num_blocks) {
    return Status::corruption("block pool accounting mismatch");
  }
  return Status::ok();
}

}  // namespace dstore
