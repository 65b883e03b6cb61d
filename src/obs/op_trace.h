// OpTrace — the per-operation trace context carried through the §4.3 write
// pipeline.
//
// Each oput/oget/odelete/owrite stack-allocates one OpTrace. It records:
//
//   * op and failure counts (always);
//   * the op's end-to-end latency (sampled);
//   * per-stage spans of the nine-step pipeline — log append, pool alloc,
//     metadata zone, btree, SSD batch, commit flush (sampled);
//   * per-op substrate counts — cache-line flushes and fences performed by
//     this thread in pmem::Pool, and IO descriptors/retries issued through
//     the op's ssd::IoQueue (sampled).
//
// Publication happens once, in finish() (or the destructor), into the
// OpMetrics handle bundle the store registered at construction. A sampled
// trace increments an active-ops gauge for its lifetime; it returning to
// zero when the store idles is the "no span leaks" invariant tests assert.
//
// Cost model: the always-on portion is one thread-local tick and one
// striped counter add (single-digit ns — the <2% oput p50 budget is why
// even the two now_ns() reads for latency are sampled; a clock read costs
// ~20ns against a ~1.2us pipeline). Everything else rides on the 1-in-
// kSampleEvery sampled trace (per-thread tick, so every thread samples).
// Sampling is decided before the op runs, independent of its duration, so
// sampled latency/stage distributions are unbiased; histogram counts
// reflect sampled ops, not total ops (dstore_*_total counters are exact).
// With DSTORE_METRICS_DISABLED the whole class compiles to an empty object
// and every call inlines to nothing.
#pragma once

#include <cstdint>

#include "common/clock.h"
#include "common/lockdep.h"
#include "obs/metrics.h"
#include "pmem/pool.h"

namespace dstore::obs {

// Pipeline stages (§4.3, Figure 4). Not every op visits every stage.
enum Stage : int {
  kStageLogAppend = 0,   // step 2b: write+flush the reserved log record
  kStagePoolAlloc,       // steps 3-4: block/metadata pool allocation
  kStageMetaZone,        // step 6: metadata-zone entry update
  kStageBtree,           // step 7: btree record
  kStageSsdBatch,        // step 8: submit + reap the NVMe queue-pair batch
  kStageCommitFlush,     // step 9: commit flush (op becomes durable)
  kStageCount,
};

// The registry handles one op type publishes into. Built once per store;
// unset (nullptr) members simply skip that recording.
struct OpMetrics {
  Counter* ops = nullptr;       // attempts (success + failure)
  Counter* failures = nullptr;
  Gauge* active = nullptr;      // in-flight traced ops (span-leak canary)
  // Exact data-plane counters (ssd_io_batches_total & co). The op
  // accumulates them in plain members and publishes all of them in
  // finish() behind a single stripe lookup — cheaper than a striped add
  // per batch on the hot path.
  Counter* ssd_batches = nullptr;
  Counter* ssd_ios = nullptr;
  Counter* ssd_coalesced = nullptr;
  Histogram* latency = nullptr;
  Histogram* stage[kStageCount] = {};
  Histogram* flushes_per_op = nullptr;  // pmem cache-line flushes (this thread)
  Histogram* fences_per_op = nullptr;
  Histogram* ios_per_op = nullptr;      // SSD descriptors submitted
  Histogram* io_retries_per_op = nullptr;
};

class OpTrace {
 public:
  // One op in kSampleEvery carries the full stage/substrate trace.
  static constexpr uint32_t kSampleEvery = 16;

#if !defined(DSTORE_METRICS_DISABLED)
  OpTrace(const OpMetrics& m, pmem::Pool* pool) : m_(&m), pool_(pool) {
    static thread_local uint32_t tick = 0;
    sampled_ = (tick++ % kSampleEvery) == 0;
    if (sampled_) {
      // The sampled-only state is deliberately left uninitialized on the
      // (common) unsampled path; initialize it here.
      for (int s = 0; s < kStageCount; s++) stage_ns_[s] = 0;
      flushes0_ = 0;
      fences0_ = 0;
      start_ns_ = now_ns();
      if (pool_ != nullptr) {
        auto c = pool_->thread_io_counts();
        flushes0_ = c.flushes;
        fences0_ = c.fences;
      }
      if (m_->active != nullptr) m_->active->add(1);
    }
  }

  ~OpTrace() { finish(); }
  OpTrace(const OpTrace&) = delete;
  OpTrace& operator=(const OpTrace&) = delete;

  // Enter `stage`, closing the span of whatever stage was current. Stages
  // may be re-entered; spans accumulate.
  void enter(int stage) {
    if (!sampled_) return;
    uint64_t n = now_ns();
    if (cur_ >= 0) stage_ns_[cur_] += n - mark_;
    cur_ = stage;
    mark_ = n;
  }
  // Close the current span without entering another stage.
  void leave() {
    if (!sampled_ || cur_ < 0) return;
    stage_ns_[cur_] += now_ns() - mark_;
    cur_ = -1;
  }

  // Attribute the op's data-plane IO (descriptor count, resubmit count).
  // Plain member adds: published (exactly or as sampled per-op histograms)
  // once, in finish().
  void add_io(uint64_t descriptors, uint64_t retries) {
    ios_ += descriptors;
    io_retries_ += retries;
  }
  // One submitted batch: `issued` descriptors, `coalesced` block merges.
  void add_batch(uint64_t issued, uint64_t coalesced) {
    batches_++;
    ios_issued_ += issued;
    coalesced_ += coalesced;
  }

  // Mark the op successful; an un-succeeded trace publishes as a failure.
  void succeed() { ok_ = true; }

  // A split op (DStore::WriteOp, DESIGN.md §9) runs in two halves, and the
  // thread may run other ops in between. pause() closes a half: the open
  // span ends, the thread's flush/fence counts since the half began are
  // banked, and the op leaves the lockdep hot scope. resume() opens the
  // next half. The per-op substrate counts stay exactly this op's however
  // many others interleave.
  void pause() {
    if (paused_) return;
    paused_ = true;
    hot_scope_.leave();
    if (!sampled_) return;
    leave();
    rebase_counts();  // flushes0_/fences0_ now hold the banked counts
  }
  void resume() {
    if (!paused_) return;
    paused_ = false;
    hot_scope_.enter();
    if (sampled_) rebase_counts();  // baselines that keep the banked counts
  }

  // Drop the op unpublished: a non-blocking attempt that would have
  // waited, which its caller retries as a fresh op.
  void cancel() {
    if (done_) return;
    done_ = true;
    if (sampled_ && m_->active != nullptr) m_->active->sub(1);
  }

  void finish() {
    if (done_) return;
    done_ = true;
    // One stripe lookup covers every exact counter this op touches.
    size_t idx = stripe_index();
    if (m_->ops != nullptr) m_->ops->add_at(idx, 1);
    if (!ok_ && m_->failures != nullptr) m_->failures->add_at(idx, 1);
    if (batches_ != 0) {
      if (m_->ssd_batches != nullptr) m_->ssd_batches->add_at(idx, batches_);
      if (m_->ssd_ios != nullptr) m_->ssd_ios->add_at(idx, ios_issued_);
      if (m_->ssd_coalesced != nullptr) m_->ssd_coalesced->add_at(idx, coalesced_);
    }
    if (sampled_) {
      leave();
      if (m_->latency != nullptr) m_->latency->record(now_ns() - start_ns_);
      for (int s = 0; s < kStageCount; s++) {
        if (stage_ns_[s] != 0 && m_->stage[s] != nullptr) m_->stage[s]->record(stage_ns_[s]);
      }
      if (pool_ != nullptr && (m_->flushes_per_op != nullptr || m_->fences_per_op != nullptr)) {
        if (!paused_) rebase_counts();  // the last half's counts join the bank
        if (m_->flushes_per_op != nullptr) m_->flushes_per_op->record(flushes0_);
        if (m_->fences_per_op != nullptr) m_->fences_per_op->record(fences0_);
      }
      if (m_->ios_per_op != nullptr) m_->ios_per_op->record(ios_);
      if (m_->io_retries_per_op != nullptr && io_retries_ != 0) {
        m_->io_retries_per_op->record(io_retries_);
      }
      if (m_->active != nullptr) m_->active->sub(1);
    }
    hot_scope_.leave();  // the op is over, whichever thread ends the trace
  }

  bool sampled() const { return sampled_; }

 private:
  // Toggle flushes0_/fences0_ between a running half's baseline and the
  // banked count: x = now - x. At a half's end that leaves the counts
  // banked so far; at the next half's start, a baseline that keeps them.
  void rebase_counts() {
    if (pool_ == nullptr) return;
    auto c = pool_->thread_io_counts();
    flushes0_ = c.flushes - flushes0_;
    fences0_ = c.fences - fences0_;
  }

  const OpMetrics* m_;
  pmem::Pool* pool_;
  int cur_ = -1;
  bool sampled_ = false;
  bool ok_ = false;
  bool done_ = false;
  bool paused_ = false;
  // Always-on accumulators for the exact data-plane counters (and, when
  // sampled, the per-op IO histograms).
  uint64_t ios_ = 0;
  uint64_t io_retries_ = 0;
  uint64_t batches_ = 0;
  uint64_t ios_issued_ = 0;
  uint64_t coalesced_ = 0;
  // Sampled-only state: initialized in the constructor iff sampled_, and
  // only ever read behind a sampled_ check.
  uint64_t start_ns_;
  uint64_t mark_;
  uint64_t stage_ns_[kStageCount];
  uint64_t flushes0_;
  uint64_t fences0_;
#else
  // Metrics compiled out: every member function is an empty inline no-op.
  OpTrace(const OpMetrics& m, pmem::Pool* pool) {
    (void)m;
    (void)pool;
  }
  void enter(int stage) { (void)stage; }
  void leave() {}
  void add_io(uint64_t descriptors, uint64_t retries) {
    (void)descriptors;
    (void)retries;
  }
  void add_batch(uint64_t issued, uint64_t coalesced) {
    (void)issued;
    (void)coalesced;
  }
  void succeed() {}
  void pause() { hot_scope_.leave(); }
  void resume() { hot_scope_.enter(); }
  void cancel() {}
  void finish() { hot_scope_.leave(); }
  bool sampled() const { return false; }
#endif

  // Lockdep quiescence gate: an OpTrace's lifetime is exactly the §4.3
  // foreground op scope, so it carries the hot-path marker. Empty unless
  // DSTORE_LOCKDEP is ON.
  lockdep::HotOpScope hot_scope_;
};

}  // namespace dstore::obs
