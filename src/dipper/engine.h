// The DIPPER engine (§3): decoupled, in-memory, parallel persistence.
//
// The engine makes a client's set of DRAM data structures persistent by
// logging logical operations to PMEM and applying them to identical shadow
// copies in the background. The client (DStore, or anything else — DIPPER
// treats the structures as a black box, §3.2) provides exactly two hooks:
//
//   * format(space)          — build the empty structures in a space;
//   * replay(space, records) — apply logged operations to a space, using
//                              THE SAME code paths as the frontend.
//
// The engine owns:
//   * the volatile system space: a slab-allocated arena in DRAM;
//   * the persistent checkpoint space: a PMEM pool laid out as
//       [root object][log A][log B][payload region][arena slot 0..2];
//   * two PMEM logs (active + archived) with the §3.5 swap protocol;
//   * the atomic quiescent-free checkpoint (Mode::kDipper) or the
//     copy-on-write checkpoint used for comparison (Mode::kCow, §4.5);
//   * idempotent recovery (§3.6).
//
// Checkpoints run in the background on a CheckpointPool (ckpt_pool.h): a
// ShardedStore's shared pool, or the engine's own one-worker pool. The
// frontend only notifies it at the log watermark and never waits on it.
//
// Checkpoint (kDipper): when active-log free space falls below the
// threshold the logs are swapped (one persisted 8-byte root flip — the
// frontend immediately continues appending to the new active log), in-
// flight records drain (bounded by one op, microseconds — never a global
// quiesce), the current shadow copy is cloned into the spare arena slot,
// the archived log's committed records replay onto the clone in LSN order,
// the clone is bulk-flushed, and the root flips cur→clone. A crash at any
// point leaves a consistent copy reachable from the root.
//
// Checkpoint (kCow): the volatile arena is write-protected (mprotect); a
// copier thread and SIGSEGV-faulting writers copy pages into the spare
// slot; writers BLOCK until their page is copied — exactly the behaviour
// whose tail-latency cost Figures 1/8/9 measure.
//
// Deviation from the paper, documented: §3.5 moves *all* uncommitted
// records to the new active log at swap. We move only NOOP (olock) records
// — the only ones that can stay uncommitted indefinitely — and let normal
// in-flight records drain into the archived log (bounded by one SSD write).
// This avoids a relocation map for records whose commit may race the swap,
// and preserves quiescent-freedom: the frontend never waits on the drain.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc/slab_allocator.h"
#include "common/lockdep.h"
#include "common/status.h"
#include "dipper/log.h"
#include "dipper/root.h"
#include "ds/key.h"
#include "ds/name_count_table.h"
#include "fault/fault.h"
#include "pmem/pool.h"

namespace dstore::dipper {

// Client hooks: the "statically defined mapping" from logical operations to
// data-structure functions (§3.2).
class SpaceClient {
 public:
  virtual ~SpaceClient() = default;
  // Build the initial (empty) structures inside a freshly formatted space.
  virtual Status format(SlabAllocator& space) = 0;
  // Apply committed records, in the given order, to a space. Must be
  // deterministic: identical space state + identical record sequence =>
  // identical resulting state (§3.1). Noop records are filtered out by the
  // engine before this is called.
  virtual Status replay(SlabAllocator& space, std::span<const LogRecordView> records) = 0;
};

// Default for EngineConfig::nt_stores: the DSTORE_PMEM_NT environment knob
// (README "Build & test") — "1" publishes log records with non-temporal
// stores, anything else uses the clwb path. An env default (rather than a
// hardwired one) lets CI run the whole crash sweep with nt forced on
// without a second binary.
inline bool nt_stores_default() {
  const char* e = std::getenv("DSTORE_PMEM_NT");
  return e != nullptr && e[0] == '1';
}

class CheckpointPool;

struct EngineConfig {
  size_t arena_bytes = 64ull << 20;  // size of the system space (and each shadow slot)
  uint32_t log_slots = 8192;         // capacity of each of the two logs
  // Checkpoint triggers when used slots exceed this fraction of the log.
  double checkpoint_threshold = 0.5;
  // Checkpoint in the background on the CheckpointPool when the log
  // crosses the watermark. Tests disable it and call checkpoint_now() to
  // exercise states deterministically.
  bool background_checkpointing = true;
  enum class CkptMode { kDipper, kCow } ckpt_mode = CkptMode::kDipper;
  // Physical-logging ablation (Fig 9 naive baseline / DudeTM archetype):
  // append() additionally writes+flushes the op's data payload into a
  // per-slot PMEM payload region, emulating value-carrying log records.
  bool physical_logging = false;
  size_t physical_payload_bytes = 4096;  // payload region slot size
  // Publish log records with non-temporal stores (pmem::Pool::persist_nt)
  // instead of store+clwb: cheaper per line, identical single-fence
  // ordering (DESIGN.md §13). Does not change the on-PMEM layout, so a pool
  // written with either setting recovers under the other.
  bool nt_stores = nt_stores_default();

  // The CheckpointPool that runs this engine's background checkpoints and
  // bulk passes, and the engine's slot in it. A ShardedStore passes its
  // shared pool; null gives the engine a private one-slot pool with one
  // worker under background_checkpointing and none without (bulk passes
  // then run on the thread that checkpoints).
  CheckpointPool* ckpt_pool = nullptr;
  size_t ckpt_slot = 0;

  // Deterministic fault injection (src/fault): every step of the
  // swap/drain/clone/replay/root-flip sequence and of recovery is a named
  // fault point (see DESIGN.md §8 for the full catalogue). Unlike
  // Engine::abort_checkpoints_at — which abandons the checkpoint
  // cooperatively — an injected crash here freezes the pool/device
  // persistence mid-protocol, which is what a real power failure does.
  fault::FaultInjector* fault = nullptr;
};

struct EngineStats {
  std::atomic<uint64_t> records_appended{0};
  std::atomic<uint64_t> records_committed{0};
  std::atomic<uint64_t> records_aborted{0};
  std::atomic<uint64_t> checkpoints{0};
  std::atomic<uint64_t> ckpt_failures{0};  // background checkpoints that errored
  std::atomic<uint64_t> records_replayed{0};
  std::atomic<uint64_t> ckpt_total_ns{0};
  // Checkpoint phase attribution (sums across checkpoints; §3.5 protocol):
  // swap = log switch under log_mu_; drain = wait for archived in-flight
  // records; replay = replay/CoW-copy onto the spare arena + durability
  // pass; install = root flip + archived-log recycle.
  std::atomic<uint64_t> ckpt_swap_ns{0};
  std::atomic<uint64_t> ckpt_drain_ns{0};
  std::atomic<uint64_t> ckpt_replay_ns{0};
  std::atomic<uint64_t> ckpt_install_ns{0};
  std::atomic<uint64_t> append_backpressure_waits{0};
  std::atomic<uint64_t> cow_page_faults{0};  // kCow only: writer-side copies
  // Recovery phase timings from the last recover() (Table 4 attribution):
  // metadata = checkpoint redo + volatile-space rebuild; replay = active-log
  // (and, in CoW mode, archived-log) replay onto the volatile space.
  std::atomic<uint64_t> recovery_metadata_ns{0};
  std::atomic<uint64_t> recovery_replay_ns{0};
  // Published log records (valid LSN) that failed their slot checksum —
  // silent PMEM corruption the scan refused to decode.
  std::atomic<uint64_t> log_crc_failures{0};
};

class Engine {
 public:
  // Total PMEM pool bytes this configuration needs.
  static size_t required_pool_bytes(const EngineConfig& cfg);

  Engine(pmem::Pool* pool, SpaceClient* client, EngineConfig cfg);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Format the pool and both spaces from scratch (calls client->format on
  // the volatile space, then snapshots it as the initial shadow copy).
  Status init_fresh();

  // Recover after a crash or restart (§3.6): finish any interrupted
  // checkpoint, rebuild the volatile space from the current shadow copy,
  // and replay the active log's committed records.
  Status recover();

  // The volatile system space. The client performs all normal-operation
  // reads/writes here, under its own concurrency control.
  SlabAllocator& space() { return volatile_space_; }

  // ---- logging (called from the client's synchronous region) -------------
  struct RecordHandle {
    uint8_t side = 0;  // which of the two logs holds the record
    uint32_t slot = 0;
    uint64_t lsn = 0;
    Key name;  // needed to release in-flight CC state at commit
  };

  // Append a logical operation. Blocks (backpressure) if the active log is
  // full and the checkpoint cannot keep up — the >70%-writes backlog case.
  // With no checkpoint allowed to run (background_checkpointing off, or
  // set_checkpointing_enabled(false)) a full log fails Status::busy instead.
  // `phys_payload`/`phys_len`: data bytes for physical-logging mode.
  Result<RecordHandle> append(OpType op, const Key& name, uint64_t arg0, uint64_t arg1,
                              const void* phys_payload = nullptr, size_t phys_len = 0);

  // Split form of append for minimal synchronous regions (§4.3: the work
  // done under the pipeline lock is <300ns): reserve() assigns the slot and
  // LSN — fixing the record's position in conflict order — inside the
  // caller's critical section; write_reserved() performs the record write
  // and its PMEM flush outside it. A reserved record MUST be written before
  // it is committed.
  Result<RecordHandle> reserve(const Key& name);
  void write_reserved(const RecordHandle& h, OpType op, uint64_t arg0, uint64_t arg1,
                      const void* phys_payload = nullptr, size_t phys_len = 0);

  // Persistently commit a record; the op's effects are now durable.
  void commit(const RecordHandle& h);

  // Persistently abort a reserved/written record whose operation failed
  // (e.g. its SSD data write errored): the record becomes invisible to
  // replay and the in-flight count it holds is released — without this,
  // conflicting writers on the same key would wait forever.
  void abort(const RecordHandle& h);

  // ---- concurrency control hooks (§4.4) -----------------------------------
  // Number of uncommitted records (including held locks) targeting `name`.
  int64_t inflight_count(const Key& name) const;
  // Block until at most `allowed` uncommitted records target `name` (a
  // writer holding an olock on the object tolerates its own NOOP record).
  void wait_inflight_at_most(const Key& name, int64_t allowed) const;

  // Register a write that carries no log record (an in-place owrite that
  // touches no metadata, §4.3) so readers and conflicting writers see it.
  void register_external_write(const Key& name) { inflight_inc(name); }
  void unregister_external_write(const Key& name) { inflight_dec(name); }

  // Reference log-scan conflict detection (the paper's exact mechanism:
  // scan from the first uncommitted record to the end of the active log).
  // Functionally equivalent to inflight_count(name) > 0; kept for tests and as
  // documentation of the §4.4 algorithm.
  bool scan_conflicting_write(const Key& name) const;

  // olock/ounlock support (§4.5): a NOOP record held uncommitted.
  Result<RecordHandle> lock_object(const Key& name);
  void unlock_object(const RecordHandle& h, const Key& name);

  // ---- checkpointing ------------------------------------------------------
  // Run one full checkpoint synchronously (tests/benches).
  Status checkpoint_now();
  // Abandon every checkpoint at the named protocol step until cleared
  // (nullptr clears): "ckpt:after_swap", "ckpt:after_drain",
  // "ckpt:after_replay", CoW's "ckpt:cow_mid_copy", or "ckpt:after_install"
  // (which skips only the archived-log recycle, so the checkpoint still
  // succeeds). Combined with pmem::Pool::crash() this simulates a process
  // kill at a precise protocol step. `point` must outlive the setting.
  void abort_checkpoints_at(const char* point) {
    abandon_point_.store(point, std::memory_order_release);
  }
  // One checkpoint abandoned at `point`: abort_checkpoints_at(point), run,
  // clear. Stages the paper's "crash just before the checkpoint process is
  // complete" worst case for the recovery benches.
  Status checkpoint_abandon_at(const char* point);
  // Disable/enable automatic checkpoint triggering (Fig 1's "w/o ckpt"
  // comparison). With checkpointing disabled the log is only swapped by
  // checkpoint_now(); a full log fails appends with Status::busy, so size
  // the log accordingly.
  void set_checkpointing_enabled(bool enabled) {
    checkpointing_enabled_.store(enabled, std::memory_order_release);
  }
  bool checkpoint_running() const { return ckpt_running_.load(std::memory_order_acquire); }
  // ---- pool-driven checkpointing (EngineConfig::ckpt_pool) ----------------
  // True when a checkpoint should run now: the sticky request flag is set
  // or the active log is past the watermark (and checkpointing is enabled).
  bool checkpoint_due() const;
  // Run one checkpoint on the calling thread, clearing the request flag
  // first (any append that still finds the log past the watermark re-sets
  // it and re-notifies). A failure other than busy counts in
  // stats().ckpt_failures.
  Status checkpoint_step();
  // Fraction of active-log slots in use.
  double log_fill() const;
  // Current checkpoint epoch (increments on every installed checkpoint).
  uint64_t current_epoch() const;

  const EngineStats& stats() const { return stats_; }
  pmem::Pool& pool() { return *pool_; }

  // Test accessors: the fault/crash harness tampers with exact log slots.
  const PmemLog& log_for_testing(uint8_t side) const { return sides_[side].log; }
  uint8_t active_log_index() const { return active_idx_.load(std::memory_order_acquire); }

  // Raw bytes of a reserved/written record's slot — the replication stream
  // ships these so followers authenticate each entry with
  // PmemLog::decode_image (DESIGN.md §16). Valid between write_reserved()
  // and commit()/abort(): the slot cannot recycle while the record is
  // in flight.
  const void* slot_image(const RecordHandle& h) const {
    return pool_->base() + sides_[h.side].log.slot_offset(h.slot);
  }

  // Bytes of PMEM actually in use: root + valid log records + the shadow
  // copies reachable from the root (storage-footprint accounting, Fig 10).
  uint64_t pmem_used_bytes() const;

  // Stop background work: join a private pool's worker (a shared pool is
  // its owner's to stop) and lift CoW write protection. Also the clean
  // shutdown; recovery is identical either way, since DIPPER recovery is
  // uniform and idempotent. Tests call it so pool().crash() is race-free.
  void stop_background();

  // Read-repair source lookup: the physically-logged payload for `name`,
  // iff the globally newest committed record for the name (across both log
  // sides) is a whole-object put of exactly `expected_size` bytes and the
  // stored payload authenticates against that record's payload CRC.
  // Anything else — no record (already checkpointed out), a newer partial
  // write, a clobbered payload slot — returns not_found/corruption and the
  // caller falls through to quarantine. Callers must hold the object's
  // write exclusion (no in-flight writes on `name`).
  Result<std::vector<char>> find_repair_payload(const Key& name, uint64_t expected_size) const;

 private:
  // Volatile per-slot bookkeeping mirroring the active/archived logs.
  enum class SlotState : uint8_t { kFree = 0, kReserved, kValid, kCommitted, kAborted };
  struct LogSide {
    PmemLog log;
    std::vector<std::atomic<SlotState>> states;
    std::vector<uint64_t> name_hashes;  // for conflict scans
    std::atomic<uint32_t> next_slot{0};
    std::atomic<bool> zeroed{true};  // region is formatted and ready for use
    // Recycle generation: bumped (under log_mu_) every time this side's
    // slots are reset, so chunked scans (find_repair_payload) can detect a
    // checkpoint recycling the side mid-walk and restart.
    std::atomic<uint64_t> gen{0};
  };

  // Pool layout offsets.
  struct Layout {
    uint64_t root_off;
    uint64_t log_off[2];
    uint64_t payload_off;  // physical-logging payload region (may be 0-sized)
    uint64_t arena_off[3];
  };
  static Layout compute_layout(const EngineConfig& cfg);

  RootObject* root() const;
  PackedState load_state() const;
  void store_state(PackedState s);  // atomic store + persist

  Arena pmem_arena(uint8_t slot) const;

  // Checkpoint machinery.
  Status do_checkpoint();
  // False when abort_checkpoints_at() names this checkpoint step.
  bool step_allowed(const char* point) const;
  Status swap_logs();                           // flip active log (root transition)
  void drain_archived(uint8_t archived_idx);    // wait for in-flight commits
  // Gathers the log's committed records in LSN order. Fails with
  // Status::corruption (fail-stop: the log can no longer be trusted) if any
  // published record fails its slot checksum.
  Status collect_committed(uint8_t log_idx, std::vector<LogRecordView>* out);
  Status replay_onto_spare(uint8_t archived_idx);  // kDipper
  Status cow_copy_into_spare();                    // kCow
  void install_spare(uint8_t archived_idx);
  void recycle_archived(uint8_t archived_idx);
  // Set the sticky request flag and notify the pool (hot-path safe: never
  // blocks; a lost notify race is recovered by the flag).
  void request_checkpoint();

  // CoW support.
  void cow_protect_arena();
  void cow_unprotect_all();
  bool cow_handle_fault(void* addr);  // called from the SIGSEGV handler
  void cow_copy_page(size_t page_idx);
  friend struct CowFaultRouter;

  void inflight_inc(const Key& name) { inflight_.inc(name); }
  void inflight_dec(const Key& name) { inflight_.dec(name); }

  Status rebuild_volatile_from_shadow();

  pmem::Pool* pool_;
  SpaceClient* client_;
  EngineConfig cfg_;
  Layout layout_;

  // Volatile system space (mmap'd so kCow can mprotect it).
  char* volatile_base_ = nullptr;
  SlabAllocator volatile_space_;

  LogSide sides_[2];
  std::atomic<uint64_t> lsn_counter_{1};
  std::atomic<uint8_t> active_idx_{0};  // volatile cache of the root's active log

  // olock records currently held uncommitted; relocated at log swaps.
  struct HeldLock {
    uint8_t side;
    uint32_t slot;
  };
  std::unordered_map<std::string, HeldLock> held_locks_;  // guarded by log_mu_

  // Quiescence-exempt: the §3.5 log swap briefly holds this against
  // foreground reserve() — the paper's one by-design bounded stall (a
  // persisted 8-byte root flip plus held-lock relocation). Every other
  // holder keeps it O(chunk) (see find_repair_payload / recycle_archived).
  mutable Mutex log_mu_{"dipper.log", lockdep::kQuiesceExempt};
  std::atomic<bool> ckpt_requested_{false};
  std::atomic<bool> ckpt_running_{false};
  std::atomic<bool> checkpointing_enabled_{true};
  std::atomic<const char*> abandon_point_{nullptr};  // abort_checkpoints_at

  // Uncommitted records (and registered external writes) per name.
  mutable NameCountTable inflight_;
  EngineStats stats_;

  // CoW state.
  std::vector<std::atomic<uint8_t>> cow_page_done_;  // 1 = copied this round
  std::atomic<bool> cow_active_{false};
  size_t cow_pages_ = 0;
  uint8_t cow_target_slot_ = 0;

  // Unshared engines only: the private pool cfg_.ckpt_pool points at.
  // Declared last: its worker uses every member above.
  std::unique_ptr<CheckpointPool> own_pool_;
};

}  // namespace dstore::dipper
