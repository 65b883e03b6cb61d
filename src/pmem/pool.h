// Emulated byte-addressable persistent memory pool.
//
// The paper's testbed used Intel Optane DCPMM mapped with a DAX filesystem.
// This pool reproduces the *semantics* that DIPPER's correctness depends on:
//
//   * byte addressability — the region is ordinary mapped memory;
//   * persistence at cache-line flush granularity — stores are volatile
//     until the line is flushed (`clwb`/`clflushopt` emulation) and a store
//     fence retires the flushes;
//   * 8-byte atomicity — recovery code may rely on an aligned 8B store
//     being all-or-nothing, and nothing wider;
//   * spurious evictions — a written-but-unflushed line may become
//     persistent at any time (the hardware may write back cache lines on
//     its own), so flush *ordering* must never be inferred from store order.
//
// In `Mode::kCrashSim` the pool keeps a second buffer, the *persistent
// image*: `flush()` stages lines, `fence()` copies staged lines into the
// image, `evict_random_lines()` is the adversary that persists arbitrary
// lines early, and `crash()` throws away everything that is not in the
// image (power failure). Crash-consistency tests drive real workloads and
// then crash at arbitrary points.
//
// In `Mode::kDirect` there is no image; flush/fence only inject latency and
// account bandwidth, which is what the benchmarks use.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bandwidth.h"
#include "common/lockdep.h"
#include "common/status.h"
#include "common/cacheline.h"
#include "common/latency_model.h"
#include "common/rng.h"
#include "common/timeseries.h"
#include "fault/fault.h"
#include "pmem/persist_checker.h"

namespace dstore::pmem {

struct IoStats {
  std::atomic<uint64_t> bytes_flushed{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> fences{0};
  std::atomic<uint64_t> lines_flushed{0};  // cache lines written back
};

class Pool {
 public:
  enum class Mode {
    kDirect,    // no crash simulation; latency/stat injection only
    kCrashSim,  // full persistent-image tracking for crash tests
  };

  Pool(size_t size, Mode mode, LatencyModel lat = LatencyModel::none());
  ~Pool();
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  // File-backed pool (the emulation analogue of a DAX-mapped PMEM file,
  // §4.2): contents persist across process restarts. Always kDirect; crash
  // simulation needs the in-memory image and uses the anonymous ctor.
  static Result<std::unique_ptr<Pool>> open_file(const std::string& path, size_t size,
                                                 LatencyModel lat, bool create);

  char* base() { return region_; }
  const char* base() const { return region_; }
  size_t size() const { return size_; }
  Mode mode() const { return mode_; }

  // ---- persistence primitives -------------------------------------------
  // Stage write-back of the cache lines covering [addr, addr+len). The data
  // is NOT persistent until the next fence(). `deferred`: the caller may
  // leave the lines unfenced for good (PersistBatch::defer), so PmemCheck
  // does not report them at teardown.
  void flush(const void* addr, size_t len, bool deferred = false);

  // Store fence: all lines staged by *this thread* become persistent.
  void fence();

  // flush + fence.
  void persist(const void* addr, size_t len) {
    flush(addr, len);
    fence();
  }

  // Bulk persistence for large ranges (checkpoint durability pass). Charged
  // with the bandwidth model rather than per-line flush cost, matching the
  // batched write-back a real checkpoint achieves.
  void persist_bulk(const void* addr, size_t len);

  // Account a large read from PMEM (recovery copying pages to DRAM).
  void charge_read(size_t len);

  // ---- crash simulation (kCrashSim only) --------------------------------
  // Adversary: persist up to `count` random lines that have been written
  // but not flushed (hardware may evict cache lines at any time).
  void evict_random_lines(Rng& rng, size_t count);

  // Simulate power failure + restart: the region's contents revert to the
  // persistent image. All staged flushes are discarded. Unfreezes a pool
  // frozen by a fault-injected power failure.
  void crash();

  // ---- fault injection (kCrashSim only) ---------------------------------
  // Attach a deterministic fault injector: flush/fence/persist_bulk become
  // the fault points "pmem.flush" / "pmem.fence" / "pmem.bulk" (crash,
  // delay, spurious-eviction and — for bulk — torn-write faults), and this
  // pool's freeze_image() is registered as a crash sink so an injected
  // power failure anywhere in the system stops persistence here too.
  void set_fault_injector(fault::FaultInjector* inj);

  // Power is gone as of now: stop applying flushes/fences/bulk writes to
  // the persistent image. The workload keeps running on the volatile region
  // (harmlessly — a real machine would simply be off) until the harness
  // calls crash(), which reverts to the frozen image and unfreezes.
  void freeze_image() { frozen_.store(true, std::memory_order_release); }
  bool image_frozen() const { return frozen_.load(std::memory_order_acquire); }

  // Adversary: spuriously persist the cache lines covering exactly
  // [addr, addr+len) — the chosen-line variant of evict_random_lines().
  void evict_lines(const void* addr, size_t len);

  // Torn-write primitive for fault tests: force the persistent image of
  // [addr, addr+len) into "only the first `keep` bytes of this range ever
  // persisted" — the prefix is copied from the region, the suffix zeroed.
  // Byte-granular on purpose: callers emulating aligned 8B stores (which
  // the hardware tears only as a whole) must snap `keep` themselves.
  void tear_image(const void* addr, size_t keep, size_t len);

  // Test helper: true if [addr,addr+len) matches the persistent image.
  bool is_persisted(const void* addr, size_t len) const;

  // ---- PmemCheck (kCrashSim only) ----------------------------------------
  // Attach a persistence-order checker: every flush/fence/crash is traced
  // through the clean → dirty → staged → persistent state machine and the
  // annotation calls below become live. The checker must outlive the
  // attachment; detach (or pool destruction) runs the teardown check for
  // staged-but-never-fenced lines.
  void attach_checker(PersistChecker* checker);
  void detach_checker();
  PersistChecker* checker() const { return checker_.load(std::memory_order_acquire); }

  // Durability point: every cache line of [addr, addr+len) must match the
  // persistent image (no-op without an attached checker).
  void check_durable(const void* addr, size_t len, const char* site);
  // Recovery/replay read: the bytes being consumed must match the image.
  void check_recovery_read(const void* addr, size_t len, const char* site);
  // Record that [addr, addr+len) must be persistent by the time
  // check_obligations() runs (writes whose durability a later bulk pass
  // provides, e.g. checkpoint replay into the spare arena).
  void note_obligation(const void* addr, size_t len, const char* site);
  void check_obligations(const char* site);

  // The registered checking pool whose region covers `p`, or nullptr. Lets
  // annotation sites that only hold a raw pointer (e.g. MetadataZone
  // writing into an arena) find their pool; only pools with an attached
  // checker are registered.
  static Pool* checked_pool_covering(const void* p);

  // ---- instrumentation ---------------------------------------------------
  const IoStats& stats() const { return stats_; }
  // Monotone per-thread flush/fence counts for the calling thread. An op
  // trace reads this at the start and end of each half of the op (one half
  // for most ops; obs::OpTrace::pause/resume); the summed deltas are that
  // op's substrate cost, however many ops the thread interleaves.
  struct ThreadIoCounts {
    uint64_t flushes = 0;  // cache lines staged by flush()
    uint64_t fences = 0;
  };
  ThreadIoCounts thread_io_counts() {
    ThreadState& st = tls();
    return ThreadIoCounts{st.flushes_total, st.fences_total};
  }
  // Optional bandwidth time-series (bytes flushed per bin) for Figure 7.
  void set_bandwidth_series(TimeSeries* ts) { bw_series_ = ts; }
  const LatencyModel& latency() const { return lat_; }

 private:
  struct Range {
    uint64_t off;
    uint64_t len;
  };
  // Per-thread staged flush state for one pool.
  struct ThreadState {
    std::vector<Range> ranges;
    size_t lines = 0;  // lines staged for the next fence
    uint64_t flushes_total = 0;  // monotone; see thread_io_counts()
    uint64_t fences_total = 0;
  };
  ThreadState& tls();
  static uint64_t next_pool_gen();

  void apply_to_image(uint64_t off, uint64_t len);
  void apply_fault_outcome(const fault::Outcome& o);
  // Silent-corruption injection (kBitFlipPmemLine): flip bit `bit` (mod the
  // range's bit count) of region_[off, off+len) in place, so the caller's
  // own staging/apply propagates the flipped byte into the image.
  void corrupt_bit(uint64_t off, uint64_t len, uint64_t bit);

  Pool() = default;  // for open_file

  char* region_ = nullptr;
  int fd_ = -1;  // >= 0 when file-backed
  // Unique per-pool key for the thread-local staging map. Keying by `this`
  // would alias a new pool to a destroyed one at a recycled address and
  // leak its staged lines and monotone counters into the newcomer.
  uint64_t pool_gen_ = next_pool_gen();
  std::unique_ptr<char[]> image_;  // kCrashSim only
  size_t size_;
  Mode mode_;
  LatencyModel lat_;
  IoStats stats_;
  TimeSeries* bw_series_ = nullptr;
  BandwidthChannel bw_channel_;  // serializes the bandwidth share of bulk ops
  std::atomic<PersistChecker*> checker_{nullptr};  // PmemCheck hook (kCrashSim)
  fault::FaultInjector* fault_ = nullptr;          // fault hook (kCrashSim)
  std::atomic<bool> frozen_{false};  // power failed; image no longer updates
  // Quiescence-exempt: kCrashSim bookkeeping only — real PMEM flushes are
  // lock-free; the simulated shadow image is what needs the serialization.
  mutable Mutex image_mu_{"pmem.image", lockdep::kQuiesceExempt};  // guards image_ (and checker state) in kCrashSim
};

// Minimal-ordering persistence batch (DESIGN.md §13): accumulate every line
// an operation must persist with add(), then retire the whole train with ONE
// fence via commit(). This is the only way hot-path code (log.cc, engine.cc,
// metadata_zone.cc, dstore.cc — enforced by dstore_lint's raw-persist rule)
// is allowed to reach the pool's flush/fence primitives; it makes the
// ordering points of an op explicit and countable.
//
//   PersistBatch b(pool);
//   b.add(&slot->body, body_len);    // flush train: no fences yet
//   b.add(&slot->crc, crc_len);
//   b.commit();                      // exactly one fence
//
// The destructor commits a non-committed batch so an early return can never
// lose the fence, but hot paths should commit explicitly at the op's
// durability point.
class PersistBatch {
 public:
  explicit PersistBatch(Pool* pool) : pool_(pool) {}
  ~PersistBatch() {
    if (!committed_) commit();
  }
  PersistBatch(const PersistBatch&) = delete;
  PersistBatch& operator=(const PersistBatch&) = delete;

  void add(const void* addr, size_t len) {
    pool_->flush(addr, len);
    added_ = true;
  }

  // One fence retiring every added range. Idempotent; a batch with no adds
  // commits without fencing (no ordering point was needed).
  void commit() {
    if (committed_) return;
    committed_ = true;
    if (added_) pool_->fence();
  }

  // Flush [addr, addr+len) without a fence: the lines persist with the
  // calling thread's next fence. Only for lines whose loss on a crash the
  // protocol tolerates (a commit flag recovery can re-derive).
  void defer(const void* addr, size_t len) { pool_->flush(addr, len, /*deferred=*/true); }

 private:
  Pool* pool_;
  bool added_ = false;
  bool committed_ = false;
};

// Annotation helper for code that writes into an arena without knowing
// whether the arena lives in DRAM or inside a checked PMEM pool: records a
// durability obligation iff some checked pool covers `p`. One relaxed
// atomic load when no checker is attached anywhere.
inline void annotate_must_persist(const void* p, size_t len, const char* site) {
  if (!PersistChecker::any_active()) return;
  if (Pool* pool = Pool::checked_pool_covering(p)) pool->note_obligation(p, len, site);
}

}  // namespace dstore::pmem
