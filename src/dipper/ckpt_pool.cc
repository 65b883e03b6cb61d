#include "dipper/ckpt_pool.h"

#include <algorithm>
#include <chrono>

namespace dstore::dipper {

CheckpointPool::CheckpointPool(Config cfg, size_t num_slots)
    : cfg_(cfg),
      num_slots_(num_slots),
      pending_(num_slots),
      engines_(num_slots, nullptr),
      slot_running_(num_slots) {}

CheckpointPool::~CheckpointPool() { stop(); }

void CheckpointPool::set_engine(size_t i, Engine* engine) {
  MutexGuard g(mu_);
  engines_[i] = engine;
}

void CheckpointPool::start() {
  if (!workers_.empty()) return;
  int n = cfg_.workers;
  if (n <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    n = (int)std::min(num_slots_, (size_t)std::max(1u, hw / 2));
  }
  stop_.store(false, std::memory_order_release);
  workers_.reserve((size_t)n);
  for (int i = 0; i < n; i++) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

void CheckpointPool::stop() {
  {
    MutexGuard g(mu_);
    if (stop_.load(std::memory_order_acquire)) return;
    stop_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

void CheckpointPool::pause() {
  paused_.store(true, std::memory_order_seq_cst);
  UniqueLock g(mu_);
  cv_.wait(g, [this] { return active_steps_.load(std::memory_order_acquire) == 0; });
}

void CheckpointPool::resume() {
  paused_.store(false, std::memory_order_release);
  cv_.notify_all();
}

void CheckpointPool::notify(size_t slot) {
  // Frontend hot path: sticky per-slot flag for dedup, then try_lock-then-
  // notify — never block here (quiescent-freedom, §3). A lost notify is
  // recovered by the flag: the next notify (an append that still finds the
  // log past the watermark) re-wakes a worker.
  stats_.notifies.fetch_add(1, std::memory_order_relaxed);
  if (!pending_[slot].exchange(true, std::memory_order_acq_rel)) {
    pending_count_.fetch_add(1, std::memory_order_acq_rel);
  }
  if (mu_.try_lock()) {
    mu_.unlock();
    cv_.notify_one();
  }
}

size_t CheckpointPool::queue_depth() const {
  return pending_count_.load(std::memory_order_acquire) +
         active_steps_.load(std::memory_order_acquire);
}

bool CheckpointPool::claim_pending_slot(size_t* slot) {
  if (pending_count_.load(std::memory_order_acquire) == 0) return false;
  size_t start = rr_next_.fetch_add(1, std::memory_order_relaxed);
  for (size_t k = 0; k < num_slots_; k++) {
    size_t i = (start + k) % num_slots_;
    if (pending_[i].exchange(false, std::memory_order_acq_rel)) {
      pending_count_.fetch_sub(1, std::memory_order_acq_rel);
      *slot = i;
      return true;
    }
  }
  return false;
}

void CheckpointPool::run_step(size_t slot) {
  if (slot_running_[slot].exchange(true, std::memory_order_acq_rel)) {
    // Another worker is mid-step on this slot; it re-checks checkpoint_due()
    // after its step and re-queues, so dropping the claim here is safe.
    return;
  }
  active_steps_.fetch_add(1, std::memory_order_seq_cst);
  Engine* e = nullptr;
  if (!paused_.load(std::memory_order_seq_cst) && !stop_.load(std::memory_order_acquire)) {
    {
      MutexGuard g(mu_);
      e = engines_[slot];
    }
    if (e != nullptr && e->checkpoint_due()) {
      stats_.runs.fetch_add(1, std::memory_order_relaxed);
      if (e->checkpoint_step().is_busy()) {
        // Transient (previous archived log not yet recycled, or a racing
        // checkpoint_now()): back off before re-queueing so a stuck slot
        // doesn't spin the worker hot. Other errors count in the engine's
        // stats().ckpt_failures.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }
  // Appends during the step (or a busy/paused skip) may have left the slot
  // past the watermark again; the sticky flag makes this cheap. The engine
  // must be consulted while this step still counts toward active_steps_ —
  // once the decrement below lands, pause() can return and recovery may
  // delete the engine out from under a late checkpoint_due() probe.
  bool renotify = e != nullptr && e->checkpoint_due();
  slot_running_[slot].store(false, std::memory_order_release);
  active_steps_.fetch_sub(1, std::memory_order_seq_cst);
  cv_.notify_all();  // pause() waits on active_steps_ == 0
  if (renotify) notify(slot);
}

bool CheckpointPool::try_run_one_job() {
  Job job;
  {
    MutexGuard g(mu_);
    if (jobs_.empty()) return false;
    job = jobs_.front();
    jobs_.pop_front();
  }
  Status s = (*job.fn)(job.slot);
  (*job.out)[job.slot] = s;
  job.remaining->fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

std::vector<Status> CheckpointPool::run_all(const std::function<Status(size_t)>& fn) {
  std::vector<Status> out(num_slots_, Status::ok());
  if (num_slots_ == 0) return out;
  std::atomic<size_t> remaining{num_slots_};
  {
    MutexGuard g(mu_);
    for (size_t i = 0; i < num_slots_; i++) {
      jobs_.push_back(Job{i, &fn, &out, &remaining});
    }
  }
  cv_.notify_all();
  // The caller participates: with few (or stopped) workers every job still
  // runs, and a caller-side job that publishes a bulk pass finds helpers.
  while (remaining.load(std::memory_order_acquire) > 0) {
    if (!try_run_one_job()) {
      help_chunks(/*stealing=*/false);
      std::this_thread::yield();
    }
  }
  return out;
}

void CheckpointPool::help_chunks(bool stealing) {
  // chunk_helpers accounting (see run_chunks) keeps the task alive while
  // any helper might still dereference it.
  chunk_helpers_.fetch_add(1, std::memory_order_acq_rel);
  ChunkTask* t = chunk_task_.load(std::memory_order_acquire);
  if (t != nullptr) {
    for (;;) {
      size_t i = t->next.fetch_add(1, std::memory_order_acq_rel);
      if (i >= t->n) break;
      (*t->fn)(i);
      t->done.fetch_add(1, std::memory_order_acq_rel);
      if (stealing) stats_.steal_chunks.fetch_add(1, std::memory_order_relaxed);
    }
  }
  chunk_helpers_.fetch_sub(1, std::memory_order_acq_rel);
}

void CheckpointPool::run_chunks(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  ChunkTask task;
  task.n = n;
  task.fn = &fn;
  ChunkTask* expected = nullptr;
  // One published task at a time; a second concurrent bulk pass just runs
  // its own chunks without donating them.
  bool published = chunk_task_.compare_exchange_strong(expected, &task,
                                                       std::memory_order_acq_rel);
  if (published) {
    if (mu_.try_lock()) {
      mu_.unlock();
      cv_.notify_all();
    }
  }
  for (;;) {
    size_t i = task.next.fetch_add(1, std::memory_order_acq_rel);
    if (i >= n) break;
    fn(i);
    task.done.fetch_add(1, std::memory_order_acq_rel);
    // On an oversubscribed host the bulk pass must not monopolize cores the
    // frontend needs (on the paper's testbed checkpoints run on their own
    // cores).
    std::this_thread::yield();
  }
  while (task.done.load(std::memory_order_acquire) < n) std::this_thread::yield();
  if (published) {
    chunk_task_.store(nullptr, std::memory_order_release);
    // A helper that loaded the pointer before the clear may still be inside
    // its (empty) claim loop; wait it out before the task leaves scope.
    while (chunk_helpers_.load(std::memory_order_acquire) > 0) std::this_thread::yield();
  }
}

void CheckpointPool::worker_main() {
  lockdep::RoleScope role(lockdep::Role::kCheckpoint);
  for (;;) {
    bool have_job = false;
    {
      UniqueLock g(mu_);
      cv_.wait(g, [this] {
        return stop_.load(std::memory_order_acquire) || !jobs_.empty() ||
               chunk_task_.load(std::memory_order_acquire) != nullptr ||
               (!paused_.load(std::memory_order_acquire) &&
                pending_count_.load(std::memory_order_acquire) > 0);
      });
      if (stop_.load(std::memory_order_acquire)) return;
      have_job = !jobs_.empty();
    }
    if (have_job) {
      try_run_one_job();
      continue;
    }
    help_chunks(/*stealing=*/true);
    size_t slot = 0;
    if (!paused_.load(std::memory_order_acquire) && claim_pending_slot(&slot)) run_step(slot);
  }
}

}  // namespace dstore::dipper
