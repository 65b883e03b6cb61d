// DStore (§4): a fast, tailless, quiescent-free object store whose control
// plane is DIPPER and whose data plane is an SSD block device.
//
// Layout (§4.2, Figure 4):
//   * DRAM:  btree object index, metadata zone, block pool, metadata pool —
//            the volatile system space, one slab-allocated arena;
//   * PMEM:  the operation log + shadow copies of all of the above
//            (managed by the DIPPER engine);
//   * SSD:   object data, in fixed-size blocks allocated from the block
//            pool; writes land in the device's capacitor-protected cache.
//
// API (§4.1, Table 2): both key-value (oget/oput/odelete) and filesystem
// (oopen/oclose/oread/owrite) styles over the same objects, plus
// olock/ounlock for inter-object dependencies and ds_init/ds_finalize
// thread contexts.
//
// Write pipeline (§4.3, Figure 4), written once in DStore::mutate() for
// oput, odelete, oopen(kCreate) and owrite:
//   1 lock the block and metadata pools       ┐ synchronous region,
//   2 allocate and write the log record       │ <300ns of real work —
//   3 allocate blocks from the block pool     │ everything that must be
//   4 allocate pages from the metadata pool   │ ordered identically on
//   5 unlock the pools                        ┘ replay
//   6 write metadata in the metadata zone     ┐ parallel across requests
//   7 write the btree record                  ┘ (observational equivalence)
//   8 write data to SSD: submit the IOs, hash the value (content CRC)
//     while they are in flight, reap the completions, then publish the
//     CRC into the metadata entry
//   9 commit and flush the log record  → op is durable
// Each op supplies only its record type and args, its data range, and its
// metadata steps (phase1 = steps 3-4, phase2 = steps 6-7).
//
// Replay (checkpoint/recovery) is one sequential loop that runs steps 3-4
// and 6-7 from the log with the SAME phase functions, against a shadow
// space. Determinism of the circular pools guarantees replay allocates the
// identical SSD blocks, which is why block lists never appear in the
// 32-byte log records.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/lockdep.h"
#include "dipper/engine.h"
#include "fsmeta/badpage_table.h"
#include "obs/metrics.h"
#include "obs/op_trace.h"
#include "ds/btree.h"
#include "ds/circular_pool.h"
#include "ds/key.h"
#include "ds/metadata_zone.h"
#include "ds/name_count_table.h"
#include "pmem/pool.h"
#include "ssd/block_device.h"
#include "ssd/io_queue.h"

namespace dstore {

// Replication hook (DESIGN.md §16). A primary's repl::Node implements this
// to mirror every committed mutation into its ship buffer. Two-phase so the
// stream order equals the per-key commit order: prepare() is called INSIDE
// the op's in-flight exclusion window (after the data is durable, before
// the log record commits) and assigns the entry its stream position;
// commit()/abort() settle it after the engine commit. The sink must not
// block on other stores and must tolerate calls from any store thread.
// Followers install the same sink but return ticket 0 while applying
// replicated entries (no loops).
class ReplSink {
 public:
  struct Mutation {
    uint8_t op = 0;       // dipper::OpType ordinal
    uint32_t shard = 0;   // DStoreConfig::repl_shard_id of the source store
    uint8_t side = 0;     // log side of the record (with `slot`, locates it)
    uint32_t slot = 0;
    uint64_t lsn = 0;
    bool unlogged = false;  // pure data overwrite: no log record, no image
    uint64_t arg0 = 0;      // record arg0 (put: size; write: new_size)
    uint64_t arg1 = 0;      // record arg1 (write: offset)
    std::string key;
    std::string value;           // the op's data bytes (empty for deletes)
    const void* slot_image = nullptr;  // 128-byte raw record image, or null
  };
  virtual ~ReplSink() = default;
  // Returns an opaque ticket (0 = untracked; commit/abort must be skipped).
  virtual uint64_t prepare(Mutation m) = 0;
  virtual void commit(uint64_t ticket) = 0;
  virtual void abort(uint64_t ticket) = 0;
};

struct DStoreConfig {
  uint64_t max_objects = 1 << 14;  // metadata pool / zone capacity
  uint64_t num_blocks = 1 << 14;   // SSD blocks managed by the block pool
  dipper::EngineConfig engine;
  // Observational-equivalence concurrency (§3.7/§4.3). When disabled
  // (Fig 9 ablation), the synchronous region extends over the metadata and
  // btree updates, serializing steps 6-7 under the pipeline lock.
  bool observational_equivalence = true;
  // Transient SSD errors (IO_ERROR / BUSY) are retried with exponential
  // backoff: attempt i sleeps io_retry_backoff_ns << i. After
  // io_max_retries failed retries a write marks the store read-only and the
  // error surfaces through the public API; reads just surface the error.
  int io_max_retries = 3;
  uint64_t io_retry_backoff_ns = 2000;
  // NVMe queue-pair depth for the data plane: each op submits all of its
  // block IOs through an ssd::IoQueue bounded at this many outstanding
  // requests, overlapping their device latency with each other and with
  // the PMEM log persist. It also caps how many physically contiguous
  // blocks coalesce into a single IO descriptor (an MDTS-like transfer
  // limit). ssd_qd = 1 reproduces the historical fully synchronous
  // one-block-at-a-time behaviour.
  uint32_t ssd_qd = 16;

  // Background scrubber (DESIGN.md §11): every scrub_interval_ms a store
  // thread walks all objects and verifies every checksum tier — metadata
  // entry CRCs, the device page sidecar, and whole-object content CRCs —
  // repairing or quarantining what it finds, so latent corruption is found
  // before a read hits it. The device's bandwidth channel rate-limits the
  // verification reads. 0 disables the thread; scrub_now() always works.
  uint64_t scrub_interval_ms = 0;
  // Early-ack puts (DESIGN.md §13): acknowledge an oput once every data IO
  // has been accepted into the device's capacitor-backed write cache and
  // the log record committed, instead of also waiting out the emulated
  // device latency — the queue-pair is parked on the caller's ds_ctx_t and
  // reaped on its next mutating op (ds_finalize drains the rest). Only
  // effective with a power-loss-protected device and a non-null context;
  // otherwise puts stay fully synchronous. Acknowledged == durable under
  // PLP, so commit-implies-durable is unchanged.
  bool early_ack = false;
  // Read-repair support: route pure data overwrites through logged kWrite
  // records and force the engine's physical payload logging, so every
  // committed write inside the checkpoint window has an authenticated PMEM
  // copy the containment ladder can repair corrupted SSD pages from.
  bool repair_logging = false;

  // Replication (DESIGN.md §16): when non-null, every committed mutation is
  // mirrored through the two-phase sink. `repl_shard_id` tags the entries
  // with this store's shard index so a follower applies them to the same
  // shard (ShardedStore::shard_config sets it).
  ReplSink* repl_sink = nullptr;
  uint32_t repl_shard_id = 0;

  // A volatile arena comfortably sized for `objects` objects.
  static size_t suggested_arena_bytes(uint64_t objects);
  // Total PMEM pool bytes a store with this config needs: the DIPPER
  // engine's layout (with the repair_logging override applied) plus the
  // persistent bad-page table region. Pools sized exactly for the engine
  // still work — the bad-page table then runs volatile.
  static size_t required_pool_bytes(const DStoreConfig& cfg);
};

// Per-thread IO context (ds_init/ds_finalize, Table 2).
struct ds_ctx_t {
  uint64_t id = 0;
  // Object locks held via olock() (a writer tolerates its own lock record).
  std::set<std::string> held_locks;
  // Early-ack puts: committed ops whose queue-pairs are still spinning out
  // their emulated device latency. Every parked queue has only ok statuses
  // (checked before parking), so reaping never resubmits — and therefore
  // never touches a caller write buffer that is long gone.
  std::vector<std::unique_ptr<ssd::IoQueue>> pending_io;
};

// Open-object handle for the filesystem-style API.
struct Object;

// Open mode flags (op_t in Table 2).
enum OpenMode : uint32_t {
  kRead = 1u << 0,
  kWrite = 1u << 1,
  kCreate = 1u << 2,  // create if absent (requires kWrite)
};

class DStore final : public dipper::SpaceClient {
 public:
  // Format a fresh store onto `pool` + `device`.
  static Result<std::unique_ptr<DStore>> create(pmem::Pool* pool, ssd::BlockDevice* device,
                                                DStoreConfig cfg);
  // Recover an existing store after a crash or restart (§3.6).
  static Result<std::unique_ptr<DStore>> recover(pmem::Pool* pool, ssd::BlockDevice* device,
                                                 DStoreConfig cfg);
  ~DStore() override;

  // ---- environment --------------------------------------------------------
  ds_ctx_t* ds_init();
  void ds_finalize(ds_ctx_t* ctx);

  // ---- key-value API ------------------------------------------------------
  // Store `size` bytes under `name` (insert or overwrite).
  Status oput(ds_ctx_t* ctx, std::string_view name, const void* value, size_t size);
  // Fetch the value; copies min(buf_cap, value_size) bytes and returns the
  // full value size.
  Result<size_t> oget(ds_ctx_t* ctx, std::string_view name, void* buf, size_t buf_cap);

 private:
  class ReaderGuard;  // per-object read exclusion (defined in dstore.cc)

 public:
  // Zero-copy get (DESIGN.md §13): the object's bytes as views over the
  // device's internal buffer — no copy into a caller buffer. The view holds
  // the object's read exclusion (writers of this object wait) until it is
  // destroyed, so drop it promptly. Both checksum tiers still run: the
  // per-page sidecar (bandwidth-charged like a media read) and, when
  // recorded, the whole-object content CRC over the mapped bytes. Devices
  // without a direct read mapping (FileBlockDevice, !PLP RamBlockDevice)
  // return Status::unsupported — fall back to oget().
  class ReadView {
   public:
    struct Piece {
      const void* data;
      size_t len;
    };
    ReadView();
    ReadView(ReadView&&) noexcept;
    ReadView& operator=(ReadView&&) noexcept;
    ~ReadView();
    const std::vector<Piece>& pieces() const { return pieces_; }
    size_t size() const { return size_; }

   private:
    friend class DStore;
    std::vector<Piece> pieces_;
    size_t size_ = 0;
    std::unique_ptr<ReaderGuard> pin_;  // released on destruction
  };
  Result<ReadView> oget_zc(ds_ctx_t* ctx, std::string_view name);

  Status odelete(ds_ctx_t* ctx, std::string_view name);

  // ---- filesystem API -----------------------------------------------------
  Result<Object*> oopen(ds_ctx_t* ctx, std::string_view name, size_t size_hint, uint32_t mode);
  void oclose(Object* object);
  Result<size_t> oread(Object* object, void* buf, size_t size, uint64_t offset);
  Result<size_t> owrite(Object* object, const void* buf, size_t size, uint64_t offset);

  // ---- concurrency control ------------------------------------------------
  Status olock(ds_ctx_t* ctx, std::string_view name);
  Status ounlock(ds_ctx_t* ctx, std::string_view name);

  // ---- introspection ------------------------------------------------------
  Result<uint64_t> object_size(std::string_view name);
  // Test hook, not supported API: the whole-object content CRC recorded for
  // `name` (DESIGN.md §11), i.e. crc32c(content); 0 while none is recorded
  // (a partial write cleared it). Readers verify it through oget.
  Result<uint32_t> content_crc(std::string_view name);
  uint64_t object_count();
  // Visit every object in name order. Return false from `fn` to stop.
  // Holds the index shared lock for the duration; writers wait.
  void list(const std::function<bool(std::string_view name, uint64_t size)>& fn);

  struct SpaceUsage {
    uint64_t dram_bytes;  // volatile system space in use
    uint64_t pmem_bytes;  // root + logs + shadow copies in use
    uint64_t ssd_bytes;   // data blocks in use
  };
  SpaceUsage space_usage();

  dipper::Engine& engine() { return *engine_; }
  Status checkpoint_now() { return engine_->checkpoint_now(); }

  // True once a data write exhausted its SSD retries: mutating calls fail
  // with READ_ONLY until the store is reopened; reads keep working.
  bool read_only() const { return read_only_.load(std::memory_order_acquire); }

  // ---- integrity (DESIGN.md §11) ------------------------------------------
  // One full verification pass over every object: metadata entry CRC,
  // device page sidecar over the object's used bytes, and (when recorded)
  // the whole-object content CRC. Detected corruption runs the containment
  // ladder — read-repair from the PMEM log copy, else quarantine — exactly
  // like a foreground read. Returns ok when every object verified clean or
  // was repaired; the first unrepairable corruption otherwise. The same
  // pass the background scrubber thread runs every scrub_interval_ms.
  struct ScrubReport {
    uint64_t objects_scanned = 0;
    uint64_t pages_verified = 0;
    uint64_t checksum_failures = 0;  // objects that failed any checksum tier
    uint64_t repaired = 0;           // of those, healed from the log copy
    uint64_t quarantined_pages = 0;  // pages quarantined this pass
    std::vector<std::string> corrupt_objects;  // unrepairable, by name
  };
  Status scrub_now(ScrubReport* report = nullptr);

  // The quarantine tier's persistent record (advisory; see badpage_table.h).
  const fsmeta::BadPageTable& bad_pages() const { return badpages_; }

  // Snapshot of the integrity counters (the dstore_integrity_* /
  // dstore_scrub_* metrics), for harnesses that reconcile detections
  // against injected fault counts without scraping the registry.
  struct IntegrityCounters {
    uint64_t checksum_failures = 0;
    uint64_t repairs = 0;
    uint64_t quarantined_pages = 0;
    uint64_t scrub_pages_verified = 0;
  };
  IntegrityCounters counters() const {
    return {integrity_failures_->value(), integrity_repairs_->value(),
            integrity_quarantined_->value(), scrub_pages_verified_->value()};
  }

  // ---- observability ------------------------------------------------------
  // The one introspection surface (replaces the former Stats/StageStats/
  // io_retries getters — see DESIGN.md §10 for the metric catalogue and the
  // migration mapping). Everything the store, its DIPPER engine, and the
  // PMEM/SSD substrates measure is a named metric here: op counters and
  // latency histograms (dstore_put_latency_ns, ...), pipeline stage spans
  // (dstore_stage_ssd_batch_ns, ...), per-op substrate distributions
  // (dstore_put_flushes_per_op, ...), SSD data-plane counters
  // (ssd_io_batches_total, ...), and scrape-time callbacks over substrate
  // stats (pmem_flushes_total, dipper_log_fill_ratio, ...).
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  std::string metrics_json() const { return metrics_.scrape_json(); }
  std::string metrics_prometheus() const { return metrics_.scrape_prometheus(); }

  // Deep structural cross-check for tests: btree/zone/pool agreement.
  Status validate();

  // ---- SpaceClient (DIPPER hooks) -----------------------------------------
  Status format(SlabAllocator& space) override;
  Status replay(SlabAllocator& space, std::span<const dipper::LogRecordView> records) override;

 private:
  DStore(pmem::Pool* pool, ssd::BlockDevice* device, DStoreConfig cfg);

  // The four control-plane structures, bound to one space. Constructed on
  // demand for the volatile space or a shadow space — the "same code on
  // both structures" mechanism.
  struct StoreRoot {
    offset_t btree;
    offset_t meta_zone;
    offset_t block_pool;
    offset_t meta_pool;
  };
  struct View {
    SlabAllocator* sp;
    BTree btree;
    MetadataZone zone;
    CircularPool block_pool;
    CircularPool meta_pool;
    // The readers-writer lock guarding `btree`: the volatile tree's for
    // frontend views, null for replay's (replay owns its shadow space).
    // find() holds it shared, insert()/erase() exclusive.
    SharedSpinLock* btree_mu;
    std::optional<uint64_t> find(const Key& name);
    Status insert(const Key& name, uint64_t meta_idx);
    Status erase(const Key& name);
  };
  View view_of(SlabAllocator& space, SharedSpinLock* btree_mu);
  View live_view() { return view_of(engine_->space(), &btree_mu_); }

  size_t block_size() const { return device_->config().block_size(); }
  uint64_t blocks_needed(uint64_t bytes) const {
    return (bytes + block_size() - 1) / block_size();
  }

  // The metadata steps of one logged op, shared by the frontend and replay
  // (the "same code on both spaces" core), dispatched on the record type.
  // `arg0` is the record's arg0 (put: size; write: new size).
  struct Plan {
    bool existed = false;          // the object already had an entry
    uint64_t meta_idx = 0;         // the object's metadata entry
    std::vector<uint64_t> blocks;  // put: the new value's; write: appended
  };
  // Steps 3-4 (+ old-block frees), in log order. The frontend holds the
  // pipeline lock and has checked capacity (admit).
  Status phase1(View& v, dipper::OpType op, const Key& name, uint64_t arg0, Plan* plan);
  // Steps 6-7. `trace` (optional, frontend only) splits zone vs btree time.
  Status phase2(View& v, dipper::OpType op, const Key& name, uint64_t arg0, const Plan& plan,
                obs::OpTrace* trace = nullptr);

  // One mutation through the write pipeline. The op fills in its record
  // type, key and data range; admit() completes the rest under the
  // pipeline lock.
  struct Mutation {
    Mutation(dipper::OpType o, const Key& k) : op(o), key(k) {}
    dipper::OpType op;
    Key key;
    uint64_t arg0 = 0;           // record arg0 (put: size; write: new size)
    uint64_t arg1 = 0;           // record arg1 = the data's object offset
    const void* data = nullptr;  // the op's data bytes (put/write)
    size_t size = 0;
    bool unlogged = false;  // owrite pure overwrite: no record, no phases
    bool done = false;      // oopen(kCreate) lost the race: nothing to log
    Plan plan;
  };
  // The one §4.3/§4.4 pipeline: conflict wait, synchronous region, record
  // reserve, phases, data IO, early ack, abort or commit, replication.
  Status mutate(ds_ctx_t* ctx, Mutation& m);
  // Capacity and existence checks under the pipeline lock, before the
  // append: an appended record must never fail.
  Status admit(View& v, Mutation& m);

  // Reader-side CC (§4.4 + the symmetric check) is class ReaderGuard,
  // declared with the public API above (ReadView holds one); defined in
  // dstore.cc. See name_count_table.h.

  // -- async data plane ------------------------------------------------------
  // Every SSD access goes through an ssd::IoQueue (NVMe queue-pair
  // emulation, see ssd/io_queue.h): submit the whole byte range as
  // coalesced descriptors, overlap their latency up to cfg_.ssd_qd deep,
  // then reap and apply the retry/read-only policy in finish_io.

  // Walk `size` bytes starting at byte `offset` into the object laid out on
  // `bl[0..nblocks)`, coalescing physically contiguous block runs (capped
  // at cfg_.ssd_qd blocks per descriptor) and submitting them to `q`.
  // Writes from `wsrc`, or reads into `rdst` (exactly one non-null).
  Status submit_io_range(ssd::IoQueue& q, const uint64_t* bl, uint64_t nblocks,
                         const void* wsrc, void* rdst, size_t size, uint64_t offset,
                         obs::OpTrace* trace = nullptr);
  // Wait for all of `q`'s completions; re-submit failed descriptors with
  // bounded exponential backoff (cfg_.io_max_retries / io_retry_backoff_ns).
  // Exhausted write retries degrade the store to read-only; reads surface
  // the error. Transient errors are absorbed or surfaced — never dropped.
  Status finish_io(ssd::IoQueue& q, bool is_write, obs::OpTrace* trace = nullptr);
  Status apply_io_policy(Status s, bool is_write);
  // Early-ack bookkeeping: drop the context's drained parked queues and
  // bound the still-spinning ones (oldest waited out past a small cap).
  void reap_pending(ds_ctx_t* ctx);

  Status read_data_range(View& v, uint64_t meta_idx, void* buf, size_t size, uint64_t offset,
                         size_t* out_len, obs::OpTrace* trace = nullptr);

  // -- integrity containment ladder (DESIGN.md §11) --------------------------
  // Caller holds the object's read/write exclusion (ReaderGuard or an
  // in-flight record) for all of these.

  // Metadata entry CRC check; a failure is uncontainable (the block list
  // itself is untrustworthy), so it degrades the store to READ_ONLY.
  Status verify_meta(View& v, uint64_t meta_idx);
  // Sidecar-verify every device page backing the object's used bytes.
  // Counts pages into *pages (may be null); collects failing absolute page
  // numbers into *bad (may be null, then fails fast).
  Status verify_object_pages(View& v, uint64_t meta_idx, uint64_t* pages,
                             std::vector<uint64_t>* bad);
  // Rewrite the whole object from the engine's authenticated physical-log
  // payload (find_repair_payload); fails when no committed whole-object
  // copy of the right size exists in the checkpoint window.
  Status repair_object(View& v, uint64_t meta_idx, obs::OpTrace* trace);
  // The ladder: count the failure, attempt repair_object + re-verify; on
  // success count a repair, else quarantine the object's bad pages and
  // surface Status::corruption.
  Status contain_corruption(View& v, uint64_t meta_idx, obs::OpTrace* trace,
                            uint64_t* quarantined = nullptr);

  // -- background scrubber ---------------------------------------------------
  void start_scrubber();
  void stop_scrubber();
  void scrub_loop();

  pmem::Pool* pool_;
  ssd::BlockDevice* device_;
  DStoreConfig cfg_;
  std::unique_ptr<dipper::Engine> engine_;

  SpinLock pipeline_mu_{"dstore.pipeline"};   // §4.3 step 1/5: pools + log order
  SpinLock arena_mu_{"dstore.arena"};         // volatile slab alloc (set_lock)
  SharedSpinLock btree_mu_{"dstore.btree"};   // volatile btree
  NameCountTable read_counts_;

  std::atomic<uint64_t> next_ctx_id_{1};
  std::atomic<int64_t> live_ctxs_{0};
  std::atomic<int64_t> open_objects_{0};

  std::atomic<bool> read_only_{false};  // set on write-retry exhaustion

  fsmeta::BadPageTable badpages_;

  std::thread scrub_thread_;
  Mutex scrub_mu_{"dstore.scrub"};
  CondVar scrub_cv_;
  bool scrub_stop_ = false;
  std::atomic<uint64_t> last_scrub_ns_{0};  // wall time of the last full pass

  // -- metrics ---------------------------------------------------------------
  // init_metrics() (ctor) registers the owned metrics and builds the
  // OpMetrics handle bundles; register_substrate_metrics() (create/recover,
  // once engine_ exists) adds the scrape-time callbacks over engine/pool/
  // device stats.
  void init_metrics();
  void register_substrate_metrics();

  obs::MetricsRegistry metrics_;
  obs::OpMetrics put_metrics_;     // oput + oopen(kCreate)
  obs::OpMetrics get_metrics_;     // oget / oread
  obs::OpMetrics delete_metrics_;  // odelete
  obs::OpMetrics write_metrics_;   // owrite
  obs::Counter* ssd_io_batches_ = nullptr;
  obs::Counter* ssd_ios_issued_ = nullptr;
  obs::Counter* ssd_blocks_coalesced_ = nullptr;
  obs::Counter* ssd_io_retries_ = nullptr;
  obs::Counter* ssd_io_exhausted_ = nullptr;
  obs::Counter* integrity_failures_ = nullptr;     // checksum failures detected
  obs::Counter* integrity_repairs_ = nullptr;      // healed from the log copy
  obs::Counter* integrity_quarantined_ = nullptr;  // pages quarantined
  obs::Counter* scrub_pages_verified_ = nullptr;
};

// Open-object handle (stateful filesystem API). Obtained from oopen(),
// released with oclose().
struct Object {
  DStore* store = nullptr;
  Key name;
  uint32_t mode = 0;
  ds_ctx_t* ctx = nullptr;  // the opening context: its olocks cover this handle's IO
};

}  // namespace dstore
