#include "dipper/engine.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <csignal>
#include <cstring>
#include <thread>

#include "common/cacheline.h"
#include "common/clock.h"
#include "common/crc32c.h"
#include "dipper/ckpt_pool.h"

namespace dstore::dipper {

namespace {
constexpr size_t kRootRegion = 4096;
constexpr size_t kPageSize = 4096;
constexpr size_t kInflightTableSize = 1 << 16;

uint64_t fingerprint(const EngineConfig& cfg) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(cfg.arena_bytes);
  mix(cfg.log_slots);
  mix(cfg.physical_logging ? cfg.physical_payload_bytes : 0);
  return h;
}

// CoW checkpoint page copy. The copier only reads pages that are still
// mprotect(PROT_READ)-protected — the MMU, not the memory model, is what
// excludes concurrent mutator writes — and TSan cannot see that barrier,
// so under TSan the copy runs uninstrumented. A byte loop, not memcpy:
// TSan intercepts memcpy even inside a no_sanitize function.
#if defined(__SANITIZE_THREAD__)
__attribute__((no_sanitize("thread")))
void cow_raw_copy(char* dst, const char* src, size_t n) {
  for (size_t i = 0; i < n; i++) dst[i] = src[i];
}
#else
inline void cow_raw_copy(char* dst, const char* src, size_t n) { std::memcpy(dst, src, n); }
#endif
}  // namespace

// ---------------------------------------------------------------------------
// SIGSEGV routing for the CoW checkpoint (§4.5). The handler must be
// async-signal-safe: it touches only atomics, memcpy, and mprotect.
// ---------------------------------------------------------------------------

struct CowFaultRouter {
  static constexpr int kMaxEngines = 16;
  static std::atomic<Engine*> engines[kMaxEngines];
  static std::atomic<bool> installed;
  static struct sigaction old_action;

  static void handler(int sig, siginfo_t* info, void* uctx) {
    void* addr = info->si_addr;
    for (auto& slot : engines) {
      Engine* e = slot.load(std::memory_order_acquire);
      if (e != nullptr && e->cow_handle_fault(addr)) return;
    }
    // Not ours: chain to whatever was installed before (usually default).
    if ((old_action.sa_flags & SA_SIGINFO) != 0 && old_action.sa_sigaction != nullptr) {
      old_action.sa_sigaction(sig, info, uctx);
    } else if (old_action.sa_handler == SIG_IGN) {
      // ignore
    } else {
      signal(SIGSEGV, SIG_DFL);
      raise(sig);
    }
  }

  static void ensure_installed() {
    bool expected = false;
    if (!installed.compare_exchange_strong(expected, true)) return;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = &handler;
    sa.sa_flags = SA_SIGINFO;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGSEGV, &sa, &old_action);
  }

  static void add(Engine* e) {
    ensure_installed();
    for (auto& slot : engines) {
      Engine* expected = nullptr;
      if (slot.compare_exchange_strong(expected, e)) return;
    }
  }
  static void remove(Engine* e) {
    for (auto& slot : engines) {
      Engine* expected = e;
      slot.compare_exchange_strong(expected, nullptr);
    }
  }
};

std::atomic<Engine*> CowFaultRouter::engines[CowFaultRouter::kMaxEngines];
std::atomic<bool> CowFaultRouter::installed{false};
struct sigaction CowFaultRouter::old_action;

// ---------------------------------------------------------------------------
// Layout / construction
// ---------------------------------------------------------------------------

Engine::Layout Engine::compute_layout(const EngineConfig& cfg) {
  Layout l{};
  uint64_t off = 0;
  l.root_off = off;
  off += kRootRegion;
  l.log_off[0] = off;
  off += PmemLog::region_bytes(cfg.log_slots);
  l.log_off[1] = off;
  off += PmemLog::region_bytes(cfg.log_slots);
  l.payload_off = off;
  if (cfg.physical_logging) off += (uint64_t)cfg.log_slots * cfg.physical_payload_bytes;
  for (int i = 0; i < 3; i++) {
    l.arena_off[i] = off;
    off += cfg.arena_bytes;
  }
  return l;
}

size_t Engine::required_pool_bytes(const EngineConfig& cfg) {
  Layout l = compute_layout(cfg);
  return l.arena_off[2] + cfg.arena_bytes;
}

Engine::Engine(pmem::Pool* pool, SpaceClient* client, EngineConfig cfg)
    : pool_(pool), client_(client), cfg_(cfg), layout_(compute_layout(cfg)),
      inflight_(kInflightTableSize),
      cow_page_done_((cfg.arena_bytes + kPageSize - 1) / kPageSize) {
  void* p = mmap(nullptr, cfg_.arena_bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  volatile_base_ = static_cast<char*>(p);
  for (int i = 0; i < 2; i++) {
    sides_[i].log = PmemLog(pool_, layout_.log_off[i], cfg_.log_slots, cfg_.nt_stores);
    sides_[i].states = std::vector<std::atomic<SlotState>>(cfg_.log_slots);
    sides_[i].name_hashes.assign(cfg_.log_slots, 0);
  }
  if (cfg_.ckpt_mode == EngineConfig::CkptMode::kCow) CowFaultRouter::add(this);
  if (cfg_.ckpt_pool == nullptr) {
    own_pool_ = std::make_unique<CheckpointPool>(CheckpointPool::Config{.workers = 1}, 1);
    own_pool_->set_engine(0, this);
    cfg_.ckpt_pool = own_pool_.get();
    cfg_.ckpt_slot = 0;
  }
}

Engine::~Engine() {
  stop_background();
  if (cfg_.ckpt_mode == EngineConfig::CkptMode::kCow) CowFaultRouter::remove(this);
  if (volatile_base_ != nullptr) munmap(volatile_base_, cfg_.arena_bytes);
}

RootObject* Engine::root() const {
  return reinterpret_cast<RootObject*>(pool_->base() + layout_.root_off);
}

PackedState Engine::load_state() const {
  return PackedState::unpack(root()->state.load(std::memory_order_acquire));
}

void Engine::store_state(PackedState s) {
  // The 8B-atomic root transition — the durability point every swap /
  // checkpoint-install hinges on (§3.5).
  pmem::PmemCheckScope check_scope("engine:root_flip");
  root()->state.store(s.pack(), std::memory_order_release);
  pmem::PersistBatch batch(pool_);
  batch.add(&root()->state, sizeof(uint64_t));
  batch.commit();
  pool_->check_durable(&root()->state, sizeof(uint64_t), "engine:root_flip");
}

Arena Engine::pmem_arena(uint8_t slot) const {
  return Arena(pool_->base() + layout_.arena_off[slot], cfg_.arena_bytes);
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

Status Engine::init_fresh() {
  if (pool_->size() < required_pool_bytes(cfg_)) {
    return Status::invalid_argument("PMEM pool too small for engine config");
  }
  // Volatile system space.
  Arena varena(volatile_base_, cfg_.arena_bytes);
  volatile_space_ = SlabAllocator::format(varena);
  DSTORE_RETURN_IF_ERROR(client_->format(volatile_space_));

  // Initial shadow copy: snapshot the freshly formatted space into slot 0.
  Arena shadow = pmem_arena(0);
  std::memcpy(shadow.base(), volatile_base_, volatile_space_.used_bytes());
  pool_->persist_bulk(shadow.base(), volatile_space_.used_bytes());
  pool_->check_durable(shadow.base(), volatile_space_.used_bytes(), "engine:init_snapshot");

  // Logs.
  sides_[0].log.format();
  sides_[1].log.format();
  for (int i = 0; i < 2; i++) {
    for (auto& s : sides_[i].states) s.store(SlotState::kFree, std::memory_order_relaxed);
    sides_[i].next_slot.store(0, std::memory_order_relaxed);
    sides_[i].zeroed.store(true, std::memory_order_relaxed);
  }

  // Root object, installed last.
  RootObject* r = root();
  r->magic = RootObject::kMagic;
  r->arena_bytes = cfg_.arena_bytes;
  r->log_slots = cfg_.log_slots;
  r->config_fingerprint = fingerprint(cfg_);
  PackedState st;
  st.active_log = 0;
  st.ckpt_running = false;
  st.shadow_cur = 0;
  st.shadow_old = 1;
  st.epoch = 1;
  r->state.store(st.pack(), std::memory_order_release);
  pmem::PersistBatch batch(pool_);
  batch.add(r, sizeof(RootObject));
  batch.commit();
  pool_->check_durable(r, sizeof(RootObject), "engine:init_root");

  active_idx_.store(0, std::memory_order_release);
  lsn_counter_.store(1, std::memory_order_release);
  if (own_pool_ && cfg_.background_checkpointing) own_pool_->start();
  return Status::ok();
}

Status Engine::recover() {
  lockdep::RoleScope role(lockdep::Role::kRecovery);
  pmem::PmemCheckScope check_scope("engine:recover");
  DSTORE_FAULT_POINT(cfg_.fault, "engine.recover.begin");
  RootObject* r = root();
  pool_->check_recovery_read(r, sizeof(RootObject), "engine:recover:root");
  if (r->magic != RootObject::kMagic) return Status::corruption("root object magic mismatch");
  if (r->config_fingerprint != fingerprint(cfg_)) {
    return Status::invalid_argument("engine config does not match on-PMEM layout");
  }
  PackedState st = load_state();
  uint8_t active = st.active_log;
  uint8_t archived = 1 - active;

  // Rebuild volatile per-slot log bookkeeping from PMEM (both sides).
  uint64_t max_lsn = 0;
  for (int i = 0; i < 2; i++) {
    uint32_t last_valid = 0;
    bool any = false;
    for (uint32_t s = 0; s < cfg_.log_slots; s++) {
      LogRecordView rec;
      bool corrupt = false;
      if (sides_[i].log.read(s, &rec, &corrupt)) {
        sides_[i].states[s].store(rec.committed ? SlotState::kCommitted : SlotState::kAborted,
                                  std::memory_order_relaxed);
        sides_[i].name_hashes[s] = rec.name.hash();
        last_valid = s;
        any = true;
        max_lsn = std::max(max_lsn, rec.lsn);
      } else if (corrupt) {
        if (sides_[i].log.is_committed(s)) {
          // A COMMITTED record whose bytes fail their checksum is silent
          // media corruption — commit fences strictly after the publication
          // train persisted the CRC, so no crash schedule can produce this.
          // The log's history is no longer trustworthy, and replaying
          // around the hole could silently resurrect or drop committed
          // operations. Fail-stop.
          stats_.log_crc_failures.fetch_add(1, std::memory_order_relaxed);
          return Status::corruption("log side " + std::to_string(i) + " slot " +
                                    std::to_string(s) +
                                    " failed its record checksum during recovery");
        }
        // Uncommitted + CRC-fail: a torn publication — the crash landed
        // inside the single-fence window and persisted the LSN line without
        // the CRC line (DESIGN.md §13). The op was never acknowledged, so
        // ignoring the slot is correct; park it as aborted (NOT free — it
        // stays occupied until the side is recycled and reformatted) and
        // keep scanning, since committed records can follow in slot order.
        sides_[i].states[s].store(SlotState::kAborted, std::memory_order_relaxed);
        sides_[i].name_hashes[s] = 0;
        last_valid = s;
        any = true;
      } else {
        sides_[i].states[s].store(SlotState::kFree, std::memory_order_relaxed);
        sides_[i].name_hashes[s] = 0;
      }
    }
    sides_[i].next_slot.store(any ? last_valid + 1 : 0, std::memory_order_relaxed);
    sides_[i].zeroed.store(!any, std::memory_order_relaxed);
  }
  lsn_counter_.store(max_lsn + 1, std::memory_order_release);
  active_idx_.store(active, std::memory_order_release);

  StopWatch recovery_watch;
  std::vector<LogRecordView> cow_archived_records;
  if (st.ckpt_running) {
    if (cfg_.ckpt_mode == EngineConfig::CkptMode::kDipper) {
      // §3.6: "we redo the checkpoint procedure ongoing at the time of
      // crash" — clone the (old, consistent) current copy and replay the
      // archived log onto it, exactly as the interrupted checkpoint would.
      DSTORE_FAULT_POINT(cfg_.fault, "engine.recover.redo.begin");
      DSTORE_RETURN_IF_ERROR(replay_onto_spare(archived));
      install_spare(archived);
      recycle_archived(archived);
      st = load_state();
      DSTORE_FAULT_POINT(cfg_.fault, "engine.recover.redo.done");
    } else {
      // CoW cannot redo page copies (the source pages died with DRAM); the
      // archived records are folded into volatile recovery below and a
      // fresh full snapshot is taken.
      DSTORE_RETURN_IF_ERROR(collect_committed(archived, &cow_archived_records));
    }
  }

  // Rebuild the volatile space from the current shadow copy (§3.6:
  // "replicating the PMEM allocator state ... and copying pages from PMEM
  // to DRAM").
  DSTORE_RETURN_IF_ERROR(rebuild_volatile_from_shadow());
  DSTORE_FAULT_POINT(cfg_.fault, "engine.recover.rebuild.done");
  stats_.recovery_metadata_ns.store(recovery_watch.elapsed_ns(), std::memory_order_release);
  StopWatch replay_watch;

  if (!cow_archived_records.empty()) {
    DSTORE_RETURN_IF_ERROR(client_->replay(volatile_space_, cow_archived_records));
    stats_.records_replayed.fetch_add(cow_archived_records.size(), std::memory_order_relaxed);
  }

  // Replay the active log's committed records onto the volatile space.
  DSTORE_FAULT_POINT(cfg_.fault, "engine.recover.replay.begin");
  std::vector<LogRecordView> active_records;
  DSTORE_RETURN_IF_ERROR(collect_committed(active, &active_records));
  if (!active_records.empty()) {
    DSTORE_RETURN_IF_ERROR(client_->replay(volatile_space_, active_records));
    stats_.records_replayed.fetch_add(active_records.size(), std::memory_order_relaxed);
  }
  DSTORE_FAULT_POINT(cfg_.fault, "engine.recover.replay.done");
  stats_.recovery_replay_ns.store(replay_watch.elapsed_ns(), std::memory_order_release);

  if (cfg_.ckpt_mode == EngineConfig::CkptMode::kCow && st.ckpt_running) {
    // Complete the interrupted CoW checkpoint with a full snapshot of the
    // recovered volatile state, atomically swapping to a fresh log.
    uint8_t spare = st.spare_slot();
    Arena dst = pmem_arena(spare);
    std::memcpy(dst.base(), volatile_base_, volatile_space_.used_bytes());
    pool_->persist_bulk(dst.base(), volatile_space_.used_bytes());
    // Fresh log to become active (the archived one, reformatted).
    sides_[archived].log.format();
    for (auto& s : sides_[archived].states) s.store(SlotState::kFree, std::memory_order_relaxed);
    sides_[archived].next_slot.store(0, std::memory_order_relaxed);
    sides_[archived].name_hashes.assign(cfg_.log_slots, 0);
    sides_[archived].zeroed.store(true, std::memory_order_relaxed);
    PackedState ns = st;
    ns.active_log = archived;  // old active (already-snapshotted records) retires
    ns.shadow_old = st.shadow_cur;
    ns.shadow_cur = spare;
    ns.ckpt_running = false;
    ns.epoch++;
    store_state(ns);
    // Retire the old active side.
    recycle_archived(active);
    active_idx_.store(ns.active_log, std::memory_order_release);
    st = ns;
  } else {
    // Make sure the inactive log region is pristine for the next swap.
    uint8_t inact = 1 - st.active_log;
    if (!sides_[inact].zeroed.load(std::memory_order_acquire)) recycle_archived(inact);
  }

  held_locks_.clear();  // locks do not survive restarts
  DSTORE_FAULT_POINT(cfg_.fault, "engine.recover.done");
  if (own_pool_ && cfg_.background_checkpointing) own_pool_->start();
  return Status::ok();
}

Status Engine::rebuild_volatile_from_shadow() {
  PackedState st = load_state();
  Arena shadow = pmem_arena(st.shadow_cur);
  auto shadow_space = SlabAllocator::open(shadow);
  if (!shadow_space.is_ok()) return shadow_space.status();
  uint64_t used = shadow_space.value().used_bytes();
  // Recovery consumes the current shadow copy wholesale — it must be
  // byte-identical to what a power failure would have left behind.
  pool_->check_recovery_read(shadow.base(), used, "engine:recover:shadow");
  pool_->charge_read(used);
  std::memcpy(volatile_base_, shadow.base(), used);
  Arena varena(volatile_base_, cfg_.arena_bytes);
  auto vs = SlabAllocator::open(varena);
  if (!vs.is_ok()) return vs.status();
  volatile_space_ = vs.value();
  return Status::ok();
}

void Engine::stop_background() {
  if (own_pool_) own_pool_->stop();
  if (cow_active_.load(std::memory_order_acquire)) cow_unprotect_all();
}

// ---------------------------------------------------------------------------
// Logging & concurrency control
// ---------------------------------------------------------------------------

int64_t Engine::inflight_count(const Key& name) const { return inflight_.load(name); }

void Engine::wait_inflight_at_most(const Key& name, int64_t allowed) const {
  inflight_.wait_at_most(name, allowed);
}

uint64_t Engine::pmem_used_bytes() const {
  uint64_t total = kRootRegion;
  for (int i = 0; i < 2; i++) {
    total += (uint64_t)sides_[i].next_slot.load(std::memory_order_acquire) * PmemLog::kSlotSize;
  }
  PackedState st = load_state();
  for (uint8_t slot : {st.shadow_cur, st.shadow_old}) {
    auto space = SlabAllocator::open(pmem_arena(slot));
    if (space.is_ok()) total += space.value().used_bytes();
  }
  if (st.ckpt_running) {
    auto space = SlabAllocator::open(pmem_arena(st.spare_slot()));
    if (space.is_ok()) total += space.value().used_bytes();
  }
  return total;
}

bool Engine::scan_conflicting_write(const Key& name) const {
  // §4.4: "Scanning from the first uncommitted record until the end of the
  // log enables us to detect conflicting operations". We scan the volatile
  // mirror of the active log's slot states.
  uint8_t a = active_idx_.load(std::memory_order_acquire);
  const LogSide& side = sides_[a];
  uint32_t end = side.next_slot.load(std::memory_order_acquire);
  uint64_t h = name.hash();
  for (uint32_t s = 0; s < end && s < cfg_.log_slots; s++) {
    SlotState st = side.states[s].load(std::memory_order_acquire);
    if ((st == SlotState::kReserved || st == SlotState::kValid) && side.name_hashes[s] == h) {
      return true;
    }
  }
  return false;
}

Result<Engine::RecordHandle> Engine::reserve(const Key& name) {
  for (;;) {
    {
      MutexGuard g(log_mu_);
      uint8_t side_idx = active_idx_.load(std::memory_order_acquire);
      LogSide& side = sides_[side_idx];
      uint32_t next = side.next_slot.load(std::memory_order_relaxed);
      if (next < cfg_.log_slots) {
        // Fill the slot's scan-visible fields BEFORE publishing next_slot:
        // scan_conflicting_write reads them lock-free after an acquire load
        // of next_slot, so the release store must come last.
        side.states[next].store(SlotState::kReserved, std::memory_order_release);
        side.name_hashes[next] = name.hash();
        side.next_slot.store(next + 1, std::memory_order_release);
        inflight_inc(name);
        RecordHandle h;
        h.side = side_idx;
        h.slot = next;
        h.lsn = lsn_counter_.fetch_add(1, std::memory_order_acq_rel);
        h.name = name;
        return h;
      }
    }
    // Active log full: the checkpoint has fallen behind (the paper's
    // >70%-writes backlog case). Backpressure until a swap frees space —
    // unless no checkpoint may run, when only checkpoint_now() can free it.
    stats_.append_backpressure_waits.fetch_add(1, std::memory_order_relaxed);
    if (!cfg_.background_checkpointing ||
        !checkpointing_enabled_.load(std::memory_order_acquire)) {
      return Status::busy("log full and checkpointing is off; run checkpoint_now()");
    }
    request_checkpoint();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void Engine::write_reserved(const RecordHandle& h, OpType op, uint64_t arg0, uint64_t arg1,
                            const void* phys_payload, size_t phys_len) {
  // The record write and its persist run outside every lock: the flush
  // latency (~600ns, Table 3) never serializes other appenders. The slot
  // reservation already fixed this record's conflict-order position.
  uint32_t payload_crc = 0;
  if (cfg_.physical_logging && phys_payload != nullptr && phys_len > 0) {
    size_t cap = cfg_.physical_payload_bytes;
    size_t n = phys_len < cap ? phys_len : cap;
    char* dst = pool_->base() + layout_.payload_off + (uint64_t)h.slot * cap;
    std::memcpy(dst, phys_payload, n);
    pool_->persist_bulk(dst, n);
    // Content checksum of the bytes actually stored, carried (and itself
    // checksummed) inside the log record: the read-repair path can then
    // authenticate the payload slot even though the region is shared by
    // slot index between the two log sides.
    payload_crc = crc32c(dst, n);
  }
  sides_[h.side].log.write_record(h.slot, h.lsn, op, h.name, arg0, arg1, op == OpType::kNoop,
                                  payload_crc);
  sides_[h.side].states[h.slot].store(SlotState::kValid, std::memory_order_release);
  stats_.records_appended.fetch_add(1, std::memory_order_relaxed);

  if (cfg_.background_checkpointing && checkpointing_enabled_.load(std::memory_order_acquire) &&
      !ckpt_running_.load(std::memory_order_acquire) &&
      log_fill() > cfg_.checkpoint_threshold) {
    request_checkpoint();
  }
}

void Engine::request_checkpoint() {
  // The pool's notify never blocks, so a foreground append never stalls
  // here (quiescent-freedom, §3). The request flag is sticky: if a notify
  // is lost, the next append (or the backpressure retry loop) re-notifies,
  // and the worker's checkpoint_due() reads the flag.
  ckpt_requested_.store(true, std::memory_order_release);
  cfg_.ckpt_pool->notify(cfg_.ckpt_slot);
}

Result<Engine::RecordHandle> Engine::append(OpType op, const Key& name, uint64_t arg0,
                                            uint64_t arg1, const void* phys_payload,
                                            size_t phys_len) {
  auto h = reserve(name);
  if (!h.is_ok()) return h;
  write_reserved(h.value(), op, arg0, arg1, phys_payload, phys_len);
  return h;
}

void Engine::commit(const RecordHandle& h) {
  // Ordering contract with the async data plane: between write_reserved()
  // and commit() the record's PMEM persist and the op's SSD data writes
  // are independent and may overlap freely; commit() is the join point and
  // requires BOTH the record written (slot state kValid — asserted here)
  // AND every data IO acknowledged (the caller reaps its queue-pair first).
  // Committing a merely-reserved slot would publish a record whose bytes
  // may not be durable.
  assert(sides_[h.side].states[h.slot].load(std::memory_order_acquire) == SlotState::kValid);
  sides_[h.side].log.commit(h.slot);
  sides_[h.side].states[h.slot].store(SlotState::kCommitted, std::memory_order_release);
  inflight_dec(h.name);
  stats_.records_committed.fetch_add(1, std::memory_order_relaxed);
}

void Engine::abort(const RecordHandle& h) {
  // A reserved-but-unwritten slot (lsn still 0) only gets its flags set;
  // recovery never decodes it, and the swap's drain treats kAborted as
  // settled — so aborting is safe at any point after reserve().
  sides_[h.side].log.abort(h.slot);
  sides_[h.side].states[h.slot].store(SlotState::kAborted, std::memory_order_release);
  inflight_dec(h.name);
  stats_.records_aborted.fetch_add(1, std::memory_order_relaxed);
}

Result<Engine::RecordHandle> Engine::lock_object(const Key& name) {
  // §4.5: olock places a NOOP record in the log; a log scan (or the
  // in-flight table mirroring it) then reports the object as conflicting.
  MutexGuard g(log_mu_);
  std::string key_str = name.str();
  if (held_locks_.count(key_str) != 0) return Status::busy("object already locked");
  uint8_t side_idx = active_idx_.load(std::memory_order_acquire);
  LogSide& side = sides_[side_idx];
  uint32_t next = side.next_slot.load(std::memory_order_relaxed);
  if (next >= cfg_.log_slots) return Status::busy("log full");
  // Publish next_slot only once the slot is fully formed (see reserve()):
  // the lock-free conflict scan must never observe a half-written slot.
  side.name_hashes[next] = name.hash();
  uint64_t lsn = lsn_counter_.fetch_add(1, std::memory_order_acq_rel);
  side.log.write_record(next, lsn, OpType::kNoop, name, 0, 0, /*noop=*/true);
  side.states[next].store(SlotState::kValid, std::memory_order_release);
  side.next_slot.store(next + 1, std::memory_order_release);
  inflight_inc(name);
  held_locks_[key_str] = HeldLock{side_idx, next};
  RecordHandle h;
  h.side = side_idx;
  h.slot = next;
  h.lsn = lsn;
  h.name = name;
  return h;
}

void Engine::unlock_object(const RecordHandle& /*h*/, const Key& name) {
  // §4.5: ounlock marks the NOOP record committed. The record may have been
  // relocated by a log swap, so resolve through the held-locks map under
  // the same mutex the swap takes.
  MutexGuard g(log_mu_);
  auto it = held_locks_.find(name.str());
  if (it == held_locks_.end()) return;
  HeldLock hl = it->second;
  held_locks_.erase(it);
  sides_[hl.side].log.commit(hl.slot);
  sides_[hl.side].states[hl.slot].store(SlotState::kCommitted, std::memory_order_release);
  inflight_dec(name);
}

Result<std::vector<char>> Engine::find_repair_payload(const Key& name,
                                                      uint64_t expected_size) const {
  if (!cfg_.physical_logging) return Status::not_found("physical logging disabled");
  if (expected_size == 0 || expected_size > cfg_.physical_payload_bytes) {
    return Status::not_found("object does not fit a payload slot");
  }
  // The globally newest committed record for `name` across both log sides.
  // Records from before the last checkpoint were recycled with their log,
  // so "found" implies the record is inside the current checkpoint window —
  // its payload, if any, reflects the object's current committed state.
  //
  // The walk takes log_mu_ in bounded chunks instead of holding it across
  // the full 2x log scan: a scrubber-driven repair must never stall
  // foreground reserve() for the scan's duration (quiescent-freedom, §3).
  // Consistency across the chunk boundaries comes from each side's recycle
  // generation: a checkpoint recycling the side mid-walk bumps it (under
  // log_mu_) and the scan restarts.
  constexpr uint32_t kScanChunk = 256;
  for (int attempt = 0; attempt < 3; attempt++) {
    LogRecordView best;
    uint32_t best_slot = 0;
    int best_side = -1;
    bool restart = false;
    uint64_t gen_seen[2] = {0, 0};
    for (int i = 0; i < 2 && !restart; i++) {
      const LogSide& side = sides_[i];
      gen_seen[i] = side.gen.load(std::memory_order_acquire);
      uint32_t s = 0;
      for (;;) {
        MutexGuard g(log_mu_);
        if (side.gen.load(std::memory_order_acquire) != gen_seen[i]) {
          restart = true;
          break;
        }
        uint32_t limit = std::min(side.next_slot.load(std::memory_order_acquire), cfg_.log_slots);
        if (s >= limit) break;
        uint32_t end = std::min(s + kScanChunk, limit);
        for (; s < end; s++) {
          LogRecordView rec;
          if (!side.log.read(s, &rec)) continue;
          if (!rec.committed || rec.op == OpType::kNoop) continue;
          if (!(rec.name == name)) continue;
          if (best_side < 0 || rec.lsn > best.lsn) {
            best = rec;
            best_slot = s;
            best_side = i;
          }
        }
      }
    }
    if (restart) continue;
    if (best_side < 0) {
      return Status::not_found("no committed record for object in the log window");
    }
    // Only a whole-object put is a valid repair source: any newer create/
    // delete/partial-write means the logged payload no longer equals the
    // object's committed content.
    if (best.op != OpType::kPut || best.arg0 != expected_size || best.payload_crc == 0) {
      return Status::not_found("newest record is not a whole-object put with a logged payload");
    }
    const char* src =
        pool_->base() + layout_.payload_off + (uint64_t)best_slot * cfg_.physical_payload_bytes;
    std::vector<char> data(src, src + expected_size);
    if (sides_[best_side].gen.load(std::memory_order_acquire) != gen_seen[best_side]) {
      continue;  // side recycled after the walk; the copied bytes are stale
    }
    // Authenticate: the payload region is indexed by slot alone (shared
    // between the two log sides), so a record in the *other* side's same
    // slot may have overwritten these bytes. The record's own payload CRC is
    // the final arbiter of whether this copy is the one it logged.
    if (crc32c(data.data(), data.size()) != best.payload_crc) {
      return Status::corruption("logged payload failed its record's checksum");
    }
    pool_->charge_read(expected_size);
    return data;
  }
  return Status::not_found("log side recycled repeatedly during the repair scan");
}

double Engine::log_fill() const {
  uint8_t a = active_idx_.load(std::memory_order_acquire);
  return (double)sides_[a].next_slot.load(std::memory_order_acquire) / (double)cfg_.log_slots;
}

uint64_t Engine::current_epoch() const { return load_state().epoch; }

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

Status Engine::checkpoint_now() {
  return do_checkpoint();
}

bool Engine::checkpoint_due() const {
  if (!checkpointing_enabled_.load(std::memory_order_acquire)) return false;
  return ckpt_requested_.load(std::memory_order_acquire) ||
         log_fill() > cfg_.checkpoint_threshold;
}

Status Engine::checkpoint_step() {
  ckpt_requested_.store(false, std::memory_order_release);
  Status s = do_checkpoint();
  if (!s.is_ok() && !s.is_busy()) stats_.ckpt_failures.fetch_add(1, std::memory_order_relaxed);
  return s;
}

Status Engine::checkpoint_abandon_at(const char* point) {
  abort_checkpoints_at(point);
  Status s = do_checkpoint();
  abort_checkpoints_at(nullptr);
  return s;
}

bool Engine::step_allowed(const char* point) const {
  const char* abort_at = abandon_point_.load(std::memory_order_acquire);
  return abort_at == nullptr || std::strcmp(abort_at, point) != 0;
}

Status Engine::swap_logs() {
  // Caller holds log_mu_. Flip the active log with one persisted 8-byte
  // root transition; relocate held-lock NOOP records into the new log.
  PackedState st = load_state();
  uint8_t from = st.active_log;
  uint8_t to = 1 - from;
  if (!sides_[to].zeroed.load(std::memory_order_acquire)) {
    return Status::busy("previous archived log not yet recycled");
  }
  DSTORE_FAULT_POINT(cfg_.fault, "engine.swap.begin");
  // Wait for reservations in the outgoing log to finish their record
  // writes (microseconds; the writers do not need log_mu_).
  LogSide& fs = sides_[from];
  uint32_t used = fs.next_slot.load(std::memory_order_acquire);
  for (uint32_t s = 0; s < used; s++) {
    int spins = 0;
    while (fs.states[s].load(std::memory_order_acquire) == SlotState::kReserved) {
      if (++spins > 64) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }
  // Move uncommitted NOOP (olock) records — the only records that can stay
  // uncommitted indefinitely — to the new active log (§3.5).
  DSTORE_FAULT_POINT(cfg_.fault, "engine.swap.before_relocate");
  LogSide& ts = sides_[to];
  for (auto& [key_str, hl] : held_locks_) {
    if (hl.side != from) continue;
    Key name = Key::from(key_str);
    uint32_t ns = ts.next_slot.load(std::memory_order_relaxed);
    // Slot fields first, next_slot publish last (see reserve()).
    ts.name_hashes[ns] = name.hash();
    uint64_t lsn = lsn_counter_.fetch_add(1, std::memory_order_acq_rel);
    ts.log.write_record(ns, lsn, OpType::kNoop, name, 0, 0, /*noop=*/true);
    ts.states[ns].store(SlotState::kValid, std::memory_order_release);
    ts.next_slot.store(ns + 1, std::memory_order_release);
    fs.states[hl.slot].store(SlotState::kAborted, std::memory_order_release);
    hl = HeldLock{to, ns};
  }
  ts.zeroed.store(false, std::memory_order_release);
  st.active_log = to;
  st.ckpt_running = true;
  st.epoch++;
  DSTORE_FAULT_POINT(cfg_.fault, "engine.swap.before_root_flip");
  store_state(st);
  DSTORE_FAULT_POINT(cfg_.fault, "engine.swap.after_root_flip");
  active_idx_.store(to, std::memory_order_release);
  return Status::ok();
}

void Engine::drain_archived(uint8_t archived_idx) {
  // Wait for in-flight (uncommitted) records in the archived log to settle.
  // Bounded by the longest in-flight op (one SSD write) — the frontend is
  // already appending to the new active log, so this never quiesces it.
  LogSide& side = sides_[archived_idx];
  uint32_t used = side.next_slot.load(std::memory_order_acquire);
  for (uint32_t s = 0; s < used; s++) {
    int spins = 0;
    for (;;) {
      SlotState st = side.states[s].load(std::memory_order_acquire);
      if (st != SlotState::kReserved && st != SlotState::kValid) break;
      if (++spins > 64) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }
  DSTORE_FAULT_POINT(cfg_.fault, "engine.drain.done");
}

Status Engine::collect_committed(uint8_t log_idx, std::vector<LogRecordView>* out) {
  const LogSide& side = sides_[log_idx];
  uint32_t limit = std::max(side.next_slot.load(std::memory_order_acquire), (uint32_t)0);
  if (limit == 0) limit = cfg_.log_slots;  // recovery path: scan everything
  for (uint32_t s = 0; s < limit && s < cfg_.log_slots; s++) {
    LogRecordView rec;
    bool corrupt = false;
    if (!side.log.read(s, &rec, &corrupt)) {
      if (corrupt && side.log.is_committed(s)) {
        // Replaying a log with an unreadable COMMITTED record would build a
        // checkpoint missing (or misordering) committed operations. Fail
        // the pass; the caller surfaces Status::corruption. (Uncommitted +
        // CRC-fail is a torn publication — a crash inside the single-fence
        // window, DESIGN.md §13 — never acknowledged, never replayable:
        // skip it like any other non-committed slot.)
        stats_.log_crc_failures.fetch_add(1, std::memory_order_relaxed);
        return Status::corruption("log side " + std::to_string(log_idx) + " slot " +
                                  std::to_string(s) + " failed its record checksum");
      }
      continue;
    }
    if (!rec.committed || rec.op == OpType::kNoop) continue;
    out->push_back(rec);
  }
  // Replay order is LSN order: a valid linearization because conflicting
  // ops were serialized by CC before their records were appended (§3.7).
  std::sort(out->begin(), out->end(),
            [](const LogRecordView& a, const LogRecordView& b) { return a.lsn < b.lsn; });
  return Status::ok();
}

Status Engine::replay_onto_spare(uint8_t archived_idx) {
  PackedState st = load_state();
  uint8_t spare = st.spare_slot();
  Arena src = pmem_arena(st.shadow_cur);
  Arena dst = pmem_arena(spare);
  auto src_space = SlabAllocator::open(src);
  if (!src_space.is_ok()) return src_space.status();
  uint64_t used = src_space.value().used_bytes();
  // §3.5: "we always create a new copy of the shadow copies" — idempotency:
  // a crash mid-replay never touches the copy recovery would restart from.
  // Copy in chunks on the pool: idle workers steal chunks, and the
  // checkpointing thread yields between its own.
  pool_->charge_read(used);
  DSTORE_FAULT_POINT(cfg_.fault, "engine.clone.before_copy");
  constexpr uint64_t kCloneChunk = 256 * 1024;
  cfg_.ckpt_pool->run_chunks((size_t)((used + kCloneChunk - 1) / kCloneChunk), [&](size_t i) {
    uint64_t off = (uint64_t)i * kCloneChunk;
    uint64_t n = std::min(kCloneChunk, used - off);
    std::memcpy(dst.base() + off, src.base() + off, n);
  });
  DSTORE_FAULT_POINT(cfg_.fault, "engine.clone.after_copy");
  // The clone (and everything replay writes into it) must be persistent by
  // the install root flip; the durability pass below provides it.
  pool_->note_obligation(dst.base(), used, "ckpt:clone");
  auto dst_space_r = SlabAllocator::open(dst);
  if (!dst_space_r.is_ok()) return dst_space_r.status();
  SlabAllocator dst_space = dst_space_r.value();

  std::vector<LogRecordView> records;
  DSTORE_RETURN_IF_ERROR(collect_committed(archived_idx, &records));
  DSTORE_FAULT_POINT(cfg_.fault, "engine.replay.begin");
  DSTORE_RETURN_IF_ERROR(client_->replay(dst_space, records));
  stats_.records_replayed.fetch_add(records.size(), std::memory_order_relaxed);
  DSTORE_FAULT_POINT(cfg_.fault, "engine.replay.done");

  // Durability pass (§3.5): flush every allocated byte of the new copy.
  DSTORE_FAULT_POINT(cfg_.fault, "engine.flush.before_bulk");
  uint64_t out_bytes = dst_space.used_bytes();
  cfg_.ckpt_pool->run_chunks((size_t)((out_bytes + kCloneChunk - 1) / kCloneChunk),
                             [&](size_t i) {
                               uint64_t off = (uint64_t)i * kCloneChunk;
                               uint64_t n = std::min(kCloneChunk, out_bytes - off);
                               pool_->persist_bulk(dst.base() + off, n);
                             });
  return Status::ok();
}

void Engine::install_spare(uint8_t /*archived_idx*/) {
  // Durability point: the root flip makes the spare copy current — every
  // obligation noted while building it (clone, replayed metadata) must be
  // persistent before the flip publishes it.
  pool_->check_obligations("ckpt:install");
  // Atomic checkpoint completion: one persisted 8-byte root transition.
  PackedState st = load_state();
  uint8_t spare = st.spare_slot();
  PackedState ns = st;
  ns.shadow_old = st.shadow_cur;
  ns.shadow_cur = spare;
  ns.ckpt_running = false;
  ns.epoch++;
  DSTORE_FAULT_POINT(cfg_.fault, "engine.install.before_root_flip");
  store_state(ns);
  DSTORE_FAULT_POINT(cfg_.fault, "engine.install.after_root_flip");
}

void Engine::recycle_archived(uint8_t archived_idx) {
  DSTORE_FAULT_POINT(cfg_.fault, "engine.recycle.begin");
  LogSide& side = sides_[archived_idx];
  {
    // Reset the volatile mirror under log_mu_ and bump the recycle
    // generation so chunked scans (find_repair_payload) restart instead of
    // reading half-reset state. With next_slot published as 0 no scan
    // touches the slot bytes, so the bulk format below can run outside the
    // lock — the old code formatted without any exclusion against scans,
    // a latent data race this ordering removes.
    MutexGuard g(log_mu_);
    side.gen.fetch_add(1, std::memory_order_acq_rel);
    for (auto& s : side.states) s.store(SlotState::kFree, std::memory_order_relaxed);
    side.name_hashes.assign(cfg_.log_slots, 0);
    side.next_slot.store(0, std::memory_order_release);
  }
  side.log.format();
  side.zeroed.store(true, std::memory_order_release);
  DSTORE_FAULT_POINT(cfg_.fault, "engine.recycle.done");
}

Status Engine::do_checkpoint() {
  // checkpoint_now() runs this on the caller's thread; the role scope makes
  // the quiescence gate treat it as checkpoint work either way.
  lockdep::RoleScope role(lockdep::Role::kCheckpoint);
  bool expected = false;
  if (!ckpt_running_.compare_exchange_strong(expected, true)) {
    return Status::busy("checkpoint already running");
  }
  DSTORE_FAULT_POINT(cfg_.fault, "engine.ckpt.begin");
  StopWatch watch;
  uint8_t archived_idx;
  uint64_t phase_mark = now_ns();
  {
    MutexGuard g(log_mu_);
    uint8_t active = active_idx_.load(std::memory_order_acquire);
    if (sides_[active].next_slot.load(std::memory_order_acquire) == 0) {
      ckpt_running_.store(false);
      return Status::ok();  // nothing to checkpoint
    }
    if (cfg_.ckpt_mode == EngineConfig::CkptMode::kCow) {
      // CoW snapshot consistency: the snapshot must align exactly with the
      // log cut, so in-flight ops must finish before we write-protect.
      // (This brief stall is inherent to the CoW archetype.)
      LogSide& side = sides_[active];
      uint32_t used = side.next_slot.load(std::memory_order_acquire);
      for (uint32_t s = 0; s < used; s++) {
        int spins = 0;
        for (;;) {
          SlotState st = side.states[s].load(std::memory_order_acquire);
          if (st != SlotState::kReserved && st != SlotState::kValid) break;
          if (++spins > 64) {
            std::this_thread::yield();
            spins = 0;
          }
        }
      }
      PackedState st = load_state();
      cow_target_slot_ = st.spare_slot();
      cow_pages_ = (volatile_space_.used_bytes() + kPageSize - 1) / kPageSize;
      for (size_t i = 0; i < cow_pages_; i++)
        cow_page_done_[i].store(0, std::memory_order_relaxed);
      cow_active_.store(true, std::memory_order_release);
      cow_protect_arena();
    }
    Status s = swap_logs();
    if (!s.is_ok()) {
      if (cfg_.ckpt_mode == EngineConfig::CkptMode::kCow) {
        cow_active_.store(false, std::memory_order_release);
        cow_unprotect_all();
      }
      ckpt_running_.store(false);
      return s;
    }
    archived_idx = 1 - active_idx_.load(std::memory_order_acquire);
  }
  // Phase attribution: mark -> mark deltas land in swap/drain/replay/install.
  auto end_phase = [&](std::atomic<uint64_t>& sink) {
    uint64_t n = now_ns();
    sink.fetch_add(n - phase_mark, std::memory_order_relaxed);
    phase_mark = n;
  };
  end_phase(stats_.ckpt_swap_ns);

  Status result;
  if (!step_allowed("ckpt:after_swap")) {
    result = Status::internal("abandoned at ckpt:after_swap");
  } else if (cfg_.ckpt_mode == EngineConfig::CkptMode::kDipper) {
    drain_archived(archived_idx);
    end_phase(stats_.ckpt_drain_ns);
    if (!step_allowed("ckpt:after_drain")) {
      result = Status::internal("abandoned at ckpt:after_drain");
    } else {
      result = replay_onto_spare(archived_idx);
      end_phase(stats_.ckpt_replay_ns);
      if (result.is_ok() && !step_allowed("ckpt:after_replay")) {
        result = Status::internal("abandoned at ckpt:after_replay");
      }
    }
  } else {
    result = cow_copy_into_spare();
    end_phase(stats_.ckpt_replay_ns);
    if (result.is_ok() && !step_allowed("ckpt:after_replay")) {
      result = Status::internal("abandoned at ckpt:after_replay");
    }
  }
  if (result.is_ok()) {
    phase_mark = now_ns();
    install_spare(archived_idx);
    stats_.checkpoints.fetch_add(1, std::memory_order_relaxed);
    if (step_allowed("ckpt:after_install")) {
      recycle_archived(archived_idx);
    }
    end_phase(stats_.ckpt_install_ns);
  }
  stats_.ckpt_total_ns.fetch_add(watch.elapsed_ns(), std::memory_order_relaxed);
  ckpt_running_.store(false);
  return result;
}

// ---------------------------------------------------------------------------
// CoW checkpoint support (§4.5)
// ---------------------------------------------------------------------------

void Engine::cow_protect_arena() {
  mprotect(volatile_base_, cow_pages_ * kPageSize, PROT_READ);
}

void Engine::cow_unprotect_all() {
  cow_active_.store(false, std::memory_order_release);
  mprotect(volatile_base_, cfg_.arena_bytes, PROT_READ | PROT_WRITE);
}

Status Engine::cow_copy_into_spare() {
  // Copier thread: walk all protected pages in 16-page runs ("clients can
  // assist in this copying process" -- faulting writers race us page by
  // page). Batching keeps the copier streaming at media bandwidth, which
  // is exactly why clients' fault copies queue behind it on real PMEM.
  constexpr size_t kBatch = 16;
  for (size_t base = 0; base < cow_pages_; base += kBatch) {
    if (base <= cow_pages_ / 2 && base + kBatch > cow_pages_ / 2 &&
        !step_allowed("ckpt:cow_mid_copy")) {
      cow_unprotect_all();
      return Status::internal("abandoned at ckpt:cow_mid_copy");
    }
    size_t end = std::min(base + kBatch, cow_pages_);
    // Claim a maximal contiguous run within the batch.
    size_t run_start = base;
    while (run_start < end) {
      uint8_t expected = 0;
      if (!cow_page_done_[run_start].compare_exchange_strong(expected, 1,
                                                             std::memory_order_acq_rel)) {
        run_start++;
        continue;
      }
      size_t run_end = run_start + 1;
      while (run_end < end) {
        uint8_t e2 = 0;
        if (!cow_page_done_[run_end].compare_exchange_strong(e2, 1,
                                                             std::memory_order_acq_rel)) {
          break;
        }
        run_end++;
      }
      char* src = volatile_base_ + run_start * kPageSize;
      char* dst = pool_->base() + layout_.arena_off[cow_target_slot_] + run_start * kPageSize;
      size_t bytes = (run_end - run_start) * kPageSize;
      cow_raw_copy(dst, src, bytes);
      pool_->persist_bulk(dst, bytes);
      mprotect(src, bytes, PROT_READ | PROT_WRITE);
      for (size_t pg = run_start; pg < run_end; pg++) {
        cow_page_done_[pg].store(2, std::memory_order_release);
      }
      run_start = run_end;
    }
    std::this_thread::yield();
  }
  cow_active_.store(false, std::memory_order_release);
  return Status::ok();
}

void Engine::cow_copy_page(size_t page_idx) {
  uint8_t expected = 0;
  if (!cow_page_done_[page_idx].compare_exchange_strong(expected, 1,
                                                        std::memory_order_acq_rel)) {
    // Another thread is copying: wait until the page is unprotected.
    int spins = 0;
    while (cow_page_done_[page_idx].load(std::memory_order_acquire) != 2) {
      if (++spins > 64) {
        std::this_thread::yield();
        spins = 0;
      }
    }
    return;
  }
  char* src = volatile_base_ + page_idx * kPageSize;
  char* dst = pool_->base() + layout_.arena_off[cow_target_slot_] + page_idx * kPageSize;
  cow_raw_copy(dst, src, kPageSize);
  pool_->persist_bulk(dst, kPageSize);
  mprotect(src, kPageSize, PROT_READ | PROT_WRITE);
  cow_page_done_[page_idx].store(2, std::memory_order_release);
}

bool Engine::cow_handle_fault(void* addr) {
  auto a = reinterpret_cast<uintptr_t>(addr);
  auto base = reinterpret_cast<uintptr_t>(volatile_base_);
  if (a < base || a >= base + cfg_.arena_bytes) return false;
  size_t page = (a - base) / kPageSize;
  if (cow_active_.load(std::memory_order_acquire) && page < cow_pages_) {
    // §4.5: "a page fault is triggered and a handler copies the page to
    // PMEM. Clients ... must wait until the page is copied before making
    // any modification" — this wait is the CoW tail cost Fig 9 measures.
    cow_copy_page(page);
    stats_.cow_page_faults.fetch_add(1, std::memory_order_relaxed);
  }
  // Address is inside our arena: retry the instruction. If the checkpoint
  // just finished, the page is (or is about to be) writable again.
  return true;
}

}  // namespace dstore::dipper
