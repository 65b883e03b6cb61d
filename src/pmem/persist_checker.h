// PmemCheck: a shadow-memory persistence-order checker for pmem::Pool.
//
// DIPPER's crash-consistency argument (§3.4 reverse-order flush protocol,
// 8B-atomic root transitions) rests on every PMEM store being flushed and
// fenced in the right order. Nothing at runtime enforces that discipline: a
// missing persist() only surfaces as a flaky crash test, and a redundant
// one silently costs ~600 ns per line. PmemCheck tracks every cache line in
// a kCrashSim pool through the state machine
//
//     clean ──store──▶ dirty ──flush──▶ staged ──fence──▶ persistent(clean)
//
// and reports the four defect classes in common/check_report.h. Stores are
// not intercepted; a line is *dirty* iff its region bytes differ from the
// persistent image, which the kCrashSim pool already maintains. Flushes are
// tracked exactly: flush() snapshots the line, fence() compares the line
// against the snapshot (a mismatch means a store landed inside the staged
// window and was not re-flushed — defect class 3).
//
// Thread model: the pool invokes every hook with its image mutex held, so
// the checker needs no locking of its own. Staged lines are keyed by pool
// offset and owned by the flushing thread — a fence retires only the
// calling thread's staged lines, matching the pool's (and x86's) semantics.
// crash() clears all staged state: a new epoch begins and stale snapshots
// from quiesced threads can no longer raise violations.
//
// Attribution: violations carry the innermost PmemCheckScope label active
// on the flushing/checking thread. Scopes are free when no checker is
// attached anywhere in the process (one relaxed atomic load).
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/cacheline.h"
#include "common/check_report.h"

namespace dstore::pmem {

class PersistChecker {
 public:
  explicit PersistChecker(size_t max_recorded_violations = 1024)
      : report_(max_recorded_violations) {}
  PersistChecker(const PersistChecker&) = delete;
  PersistChecker& operator=(const PersistChecker&) = delete;

  // ---- site attribution (thread-local, shared across checkers) ----------
  static void push_site(const char* site);
  static void pop_site();
  // Innermost active scope label, or "<unscoped>".
  static const char* current_site();
  // True if any checker is attached to any pool (gates annotation helpers).
  static bool any_active();

  // ---- hooks invoked by Pool (image mutex held) --------------------------
  // `line` / `image_line` point at the kCacheLineSize bytes of the flushed
  // line in the region and in the persistent image.
  // `deferred`: the flusher may never fence the line (PersistBatch::defer),
  // so teardown does not report it.
  void on_flush(uint64_t line_off, const char* line, const char* image_line, uint64_t tid,
                bool deferred = false);
  // A fence is retiring `line_off` for thread `tid`; `line` is the region
  // contents now, compared against the flush-time snapshot.
  void on_fence_line(uint64_t line_off, const char* line, uint64_t tid);
  // Power failure: all staged state and pending obligations die with DRAM.
  void on_crash();
  // Pool teardown / checker detach: staged-but-never-fenced lines are
  // missing-flush violations (their write-back was never retired), unless
  // they were flushed as deferred.
  void on_teardown();

  // ---- annotations (image mutex held; bases passed by the pool) ----------
  // Durability point: every line of [off, off+len) must match the image.
  void check_durable(uint64_t off, uint64_t len, const char* region, const char* image,
                     const char* site);
  // Recovery/replay read: the consumed bytes must match the image.
  void check_recovery_read(uint64_t off, uint64_t len, const char* region, const char* image,
                           const char* site);
  // Record that [off, off+len) must be persistent by the next
  // check_obligations() call (used for writes into PMEM arenas whose
  // durability is provided by a later bulk pass, e.g. checkpoint replay).
  void note_obligation(uint64_t off, uint64_t len, const char* site);
  void check_obligations(const char* region, const char* image, const char* site);

  CheckReport& report() { return report_; }
  const CheckReport& report() const { return report_; }

 private:
  struct StagedLine {
    std::array<char, kCacheLineSize> snapshot;
    uint64_t tid;
    const char* site;  // scope active at flush time
    bool deferred = false;
  };
  struct Obligation {
    uint64_t off;
    uint64_t len;
    const char* site;
  };

  std::unordered_map<uint64_t, StagedLine> staged_;  // keyed by line offset
  std::vector<Obligation> obligations_;
  CheckReport report_;
};

// RAII scope label for violation attribution, e.g.
//   PmemCheckScope scope("log:write_record");
// Nesting is allowed; the innermost label wins.
class PmemCheckScope {
 public:
  explicit PmemCheckScope(const char* site) : pushed_(PersistChecker::any_active()) {
    if (pushed_) PersistChecker::push_site(site);
  }
  ~PmemCheckScope() {
    if (pushed_) PersistChecker::pop_site();
  }
  PmemCheckScope(const PmemCheckScope&) = delete;
  PmemCheckScope& operator=(const PmemCheckScope&) = delete;

 private:
  bool pushed_;
};

namespace detail {
// Maintained by Pool::attach_checker / detach_checker; backs any_active().
void checker_global_activate();
void checker_global_deactivate();
}  // namespace detail

}  // namespace dstore::pmem
