// Lock-order and quiescence validation (kernel-lockdep style).
//
// Every mutex/spinlock in DStore is one of the wrappers below, named with a
// *lock class* at construction (e.g. "dstore.pipeline"). With
// -DDSTORE_LOCKDEP=ON each wrapper records, per thread, the stack of held
// locks and feeds a global acquisition-order graph keyed by class: the first
// time class A is acquired while class B is held, the edge B→A is validated
// against the graph (DFS for a path A→…→B) and recorded with the acquiring
// thread's call stack. Any later acquisition that would close a cycle is an
// inversion: lockdep reports both acquisition stacks — the one that
// established the conflicting edge and the current one — and aborts (or
// calls the test hook). Validation is once per (ordered) class pair per
// thread, so steady-state overhead is one thread-local hash probe.
//
// On top of the graph sits the §3 *quiescence gate*, the paper's
// quiescent-free claim as an executable assertion: foreground oget/oput/
// owrite/odelete scopes are marked hot (obs::OpTrace owns a HotOpScope), and
// background threads declare a Role (checkpoint / scrubber / recovery) via
// RoleScope. If a hot foreground acquisition ever *blocks* — its try_lock
// fails — on a lock currently held by a background role, that is a
// quiescence violation. Classes that exist only in the crash simulation
// (pmem image bookkeeping, the fault injector, the simulated SSD cache
// buffers) or that implement the §3.5 bounded log swap are flagged
// kQuiesceExempt; the full table lives in DESIGN.md §12.
//
// With DSTORE_LOCKDEP=OFF (the default) every wrapper is a zero-overhead
// passthrough over the raw primitive: no per-lock state, no thread-locals,
// identical code to the pre-lockdep tree.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "common/spinlock.h"

namespace dstore::lockdep {

// Who is running on this thread. Foreground is the default; background
// subsystems enter their role with a RoleScope for the lifetime of the
// thread (or the pass, for synchronous scrubs).
enum class Role : uint8_t {
  kForeground = 0,
  kCheckpoint = 1,
  kScrubber = 2,
  kRecovery = 3,
};
constexpr int kRoleCount = 4;

const char* role_name(Role r);

// Per-class behavior flags (set at lock construction, same for every
// instance of the class; see the DESIGN.md §12 table for the rationale of
// each exemption).
enum ClassFlags : uint32_t {
  kQuiesceExempt = 1u << 0,  // excluded from the quiescence gate
};

#if defined(DSTORE_LOCKDEP_ENABLED)

// Instrumentation state embedded in every wrapper instance.
struct LockState {
  const char* class_name;
  uint32_t flags;
  // Lazily assigned class id (index into the global class table); -1 until
  // the first acquisition.
  std::atomic<int> cls{-1};
  // Packed per-role holder counts, 8 bits per Role, used by the quiescence
  // gate to answer "is a background thread holding this right now?".
  std::atomic<uint64_t> holders{0};

  LockState(const char* name, uint32_t f) : class_name(name), flags(f) {}
};

struct Violation {
  std::string kind;    // "inversion" | "self-deadlock" | "quiescence"
  std::string report;  // full human-readable report
};

// Ordering validation, run *before* the acquisition attempt so a would-be
// deadlock is reported instead of hung.
void pre_acquire(LockState* s, bool shared);
// Bookkeeping after a successful acquisition (held stack push + holder
// role count).
void post_acquire(LockState* s, bool shared);
// Bookkeeping before release.
void pre_release(LockState* s, bool shared);
// Called when a blocking acquisition found the lock contended (try_lock
// failed); runs the quiescence gate.
void on_contended(LockState* s);

Role current_role();
bool in_hot_op();

// Total violations observed since start/reset (inversions + self-deadlocks
// + quiescence trips).
uint64_t violation_count();

// Install a hook to receive violations instead of abort(); pass nullptr to
// restore the default (report to stderr and abort). Tests use this.
void set_report_hook(std::function<void(const Violation&)> hook);

// Drop the recorded acquisition-order graph and violation count, and
// invalidate every thread's validated-edge cache. Test-only: lets one
// process run independent ordering scenarios.
void reset_for_testing();

class RoleScope {
 public:
  explicit RoleScope(Role r);
  ~RoleScope();
  RoleScope(const RoleScope&) = delete;
  RoleScope& operator=(const RoleScope&) = delete;

 private:
  Role prev_;
};

class HotOpScope {
 public:
  HotOpScope();
  ~HotOpScope();
  HotOpScope(const HotOpScope&) = delete;
  HotOpScope& operator=(const HotOpScope&) = delete;
  // A split op (obs::OpTrace::pause/resume) is hot only inside its halves:
  // leave() drops the marker between them, enter() restores it.
  void leave();
  void enter();

 private:
  bool in_ = true;
};

#else  // !DSTORE_LOCKDEP_ENABLED — everything inlines to nothing.

struct Violation {
  const char* kind = "";
  const char* report = "";
};

inline Role current_role() { return Role::kForeground; }
inline bool in_hot_op() { return false; }
inline uint64_t violation_count() { return 0; }
inline void set_report_hook(std::function<void(const Violation&)>) {}
inline void reset_for_testing() {}

class RoleScope {
 public:
  explicit RoleScope(Role) {}
  RoleScope(const RoleScope&) = delete;
  RoleScope& operator=(const RoleScope&) = delete;
};

class HotOpScope {
 public:
  HotOpScope() = default;
  HotOpScope(const HotOpScope&) = delete;
  HotOpScope& operator=(const HotOpScope&) = delete;
  void leave() {}
  void enter() {}
};

#endif  // DSTORE_LOCKDEP_ENABLED

}  // namespace dstore::lockdep

namespace dstore {

// ---------------------------------------------------------------------------
// Instrumented lock wrappers. Each takes a lock-class name (string literal;
// locks sharing a name share a class) and optional lockdep::ClassFlags.
// ---------------------------------------------------------------------------

class SpinLock {
 public:
  explicit SpinLock(const char* lock_class, uint32_t flags = 0)
#if defined(DSTORE_LOCKDEP_ENABLED)
      : state_(lock_class, flags) {
  }
#else
  {
    (void)lock_class;
    (void)flags;
  }
#endif
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() {
#if defined(DSTORE_LOCKDEP_ENABLED)
    lockdep::pre_acquire(&state_, false);
    if (!raw_.try_lock()) {
      lockdep::on_contended(&state_);
      raw_.lock();
    }
    lockdep::post_acquire(&state_, false);
#else
    raw_.lock();
#endif
  }
  bool try_lock() {
#if defined(DSTORE_LOCKDEP_ENABLED)
    if (!raw_.try_lock()) return false;
    lockdep::post_acquire(&state_, false);
    return true;
#else
    return raw_.try_lock();
#endif
  }
  void unlock() {
#if defined(DSTORE_LOCKDEP_ENABLED)
    lockdep::pre_release(&state_, false);
#endif
    raw_.unlock();
  }

 private:
  RawSpinLock raw_;
#if defined(DSTORE_LOCKDEP_ENABLED)
  lockdep::LockState state_;
#endif
};

class SharedSpinLock {
 public:
  explicit SharedSpinLock(const char* lock_class, uint32_t flags = 0)
#if defined(DSTORE_LOCKDEP_ENABLED)
      : state_(lock_class, flags) {
  }
#else
  {
    (void)lock_class;
    (void)flags;
  }
#endif
  SharedSpinLock(const SharedSpinLock&) = delete;
  SharedSpinLock& operator=(const SharedSpinLock&) = delete;

  void lock() {
#if defined(DSTORE_LOCKDEP_ENABLED)
    lockdep::pre_acquire(&state_, false);
    if (!raw_.try_lock()) {
      lockdep::on_contended(&state_);
      raw_.lock();
    }
    lockdep::post_acquire(&state_, false);
#else
    raw_.lock();
#endif
  }
  void unlock() {
#if defined(DSTORE_LOCKDEP_ENABLED)
    lockdep::pre_release(&state_, false);
#endif
    raw_.unlock();
  }
  void lock_shared() {
#if defined(DSTORE_LOCKDEP_ENABLED)
    lockdep::pre_acquire(&state_, true);
    if (!raw_.try_lock_shared()) {
      lockdep::on_contended(&state_);
      raw_.lock_shared();
    }
    lockdep::post_acquire(&state_, true);
#else
    raw_.lock_shared();
#endif
  }
  void unlock_shared() {
#if defined(DSTORE_LOCKDEP_ENABLED)
    lockdep::pre_release(&state_, true);
#endif
    raw_.unlock_shared();
  }

 private:
  RawSharedSpinLock raw_;
#if defined(DSTORE_LOCKDEP_ENABLED)
  lockdep::LockState state_;
#endif
};

// Instrumented std::mutex. native() exposes the underlying mutex for
// CondVar, which must run the wait against the real primitive.
class Mutex {
 public:
  explicit Mutex(const char* lock_class, uint32_t flags = 0)
#if defined(DSTORE_LOCKDEP_ENABLED)
      : state_(lock_class, flags) {
  }
#else
  {
    (void)lock_class;
    (void)flags;
  }
#endif
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() {
#if defined(DSTORE_LOCKDEP_ENABLED)
    lockdep::pre_acquire(&state_, false);
    if (!raw_.try_lock()) {
      lockdep::on_contended(&state_);
      raw_.lock();
    }
    lockdep::post_acquire(&state_, false);
#else
    raw_.lock();
#endif
  }
  bool try_lock() {
#if defined(DSTORE_LOCKDEP_ENABLED)
    if (!raw_.try_lock()) return false;
    lockdep::post_acquire(&state_, false);
    return true;
#else
    return raw_.try_lock();
#endif
  }
  void unlock() {
#if defined(DSTORE_LOCKDEP_ENABLED)
    lockdep::pre_release(&state_, false);
#endif
    raw_.unlock();
  }

  std::mutex& native() { return raw_; }

  // CondVar bookkeeping: the native mutex is released/reacquired inside the
  // condition-variable wait, outside the wrapper's lock()/unlock().
  void ld_note_release() {
#if defined(DSTORE_LOCKDEP_ENABLED)
    lockdep::pre_release(&state_, false);
#endif
  }
  void ld_note_acquire() {
#if defined(DSTORE_LOCKDEP_ENABLED)
    lockdep::pre_acquire(&state_, false);
    lockdep::post_acquire(&state_, false);
#endif
  }

 private:
  std::mutex raw_;
#if defined(DSTORE_LOCKDEP_ENABLED)
  lockdep::LockState state_;
#endif
};

// Instrumented std::shared_mutex.
class SharedMutex {
 public:
  explicit SharedMutex(const char* lock_class, uint32_t flags = 0)
#if defined(DSTORE_LOCKDEP_ENABLED)
      : state_(lock_class, flags) {
  }
#else
  {
    (void)lock_class;
    (void)flags;
  }
#endif
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() {
#if defined(DSTORE_LOCKDEP_ENABLED)
    lockdep::pre_acquire(&state_, false);
    if (!raw_.try_lock()) {
      lockdep::on_contended(&state_);
      raw_.lock();
    }
    lockdep::post_acquire(&state_, false);
#else
    raw_.lock();
#endif
  }
  void unlock() {
#if defined(DSTORE_LOCKDEP_ENABLED)
    lockdep::pre_release(&state_, false);
#endif
    raw_.unlock();
  }
  void lock_shared() {
#if defined(DSTORE_LOCKDEP_ENABLED)
    lockdep::pre_acquire(&state_, true);
    if (!raw_.try_lock_shared()) {
      lockdep::on_contended(&state_);
      raw_.lock_shared();
    }
    lockdep::post_acquire(&state_, true);
#else
    raw_.lock_shared();
#endif
  }
  void unlock_shared() {
#if defined(DSTORE_LOCKDEP_ENABLED)
    lockdep::pre_release(&state_, true);
#endif
    raw_.unlock_shared();
  }

 private:
  std::shared_mutex raw_;
#if defined(DSTORE_LOCKDEP_ENABLED)
  lockdep::LockState state_;
#endif
};

// std::unique_lock equivalent over dstore::Mutex, for use with CondVar.
class UniqueLock {
 public:
  explicit UniqueLock(Mutex& m) : m_(&m) {
    m_->lock();
    owns_ = true;
  }
  UniqueLock(Mutex& m, std::defer_lock_t) : m_(&m) {}
  ~UniqueLock() {
    if (owns_) m_->unlock();
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() {
    m_->lock();
    owns_ = true;
  }
  void unlock() {
    m_->unlock();
    owns_ = false;
  }
  Mutex* mutex() const { return m_; }

 private:
  Mutex* m_;
  bool owns_ = false;
};

// Condition variable paired with dstore::Mutex. The waits run on the native
// mutex (adopted for the duration) and tell lockdep about the release/
// reacquire around the sleep so the held-lock stack stays accurate.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  template <typename Pred>
  void wait(UniqueLock& l, Pred pred) {
    std::unique_lock<std::mutex> nl(l.mutex()->native(), std::adopt_lock);
    l.mutex()->ld_note_release();
    cv_.wait(nl, std::move(pred));
    l.mutex()->ld_note_acquire();
    nl.release();
  }

  template <typename Rep, typename Period, typename Pred>
  bool wait_for(UniqueLock& l, std::chrono::duration<Rep, Period> d, Pred pred) {
    std::unique_lock<std::mutex> nl(l.mutex()->native(), std::adopt_lock);
    l.mutex()->ld_note_release();
    bool r = cv_.wait_for(nl, d, std::move(pred));
    l.mutex()->ld_note_acquire();
    nl.release();
    return r;
  }

 private:
  std::condition_variable cv_;
};

// ---------------------------------------------------------------------------
// Guards (work for any of the wrappers above).
// ---------------------------------------------------------------------------

template <typename Lock>
class LockGuard {
 public:
  explicit LockGuard(Lock& l) : l_(l) { l_.lock(); }
  ~LockGuard() { l_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Lock& l_;
};

using MutexGuard = LockGuard<Mutex>;

template <typename Lock = SharedSpinLock>
class SharedLockGuard {
 public:
  explicit SharedLockGuard(Lock& l) : l_(l) { l_.lock_shared(); }
  ~SharedLockGuard() { l_.unlock_shared(); }
  SharedLockGuard(const SharedLockGuard&) = delete;
  SharedLockGuard& operator=(const SharedLockGuard&) = delete;

 private:
  Lock& l_;
};

}  // namespace dstore
