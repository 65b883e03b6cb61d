// CheckpointPool — the one scheduler of DIPPER's background checkpoints
// (DESIGN.md §14).
//
// A fixed pool of K workers services checkpoint work for every engine wired
// into one of its slots. A ShardedStore shares one pool across its shards:
// PMEM write bandwidth saturates at a small number of writers
// (arXiv:1903.05714), so a checkpoint thread per shard past that point only
// adds scheduling noise. An unshared engine owns a one-slot pool (one worker
// with background checkpointing, none without). The pool is three things:
//
//   * a watermark queue: the engine calls notify(slot) from the frontend
//     hot path (sticky per-slot dedup + try_lock/notify — never blocks); an
//     idle worker picks the slot up and runs one Engine::checkpoint_step()
//     on it;
//   * a job executor: run_all(fn) runs fn(slot) for every slot across the
//     workers AND the calling thread, collecting every status — parallel
//     checkpoint_all() and parallel recovery are both this;
//   * a bulk-pass executor: a checkpoint publishes its clone/flush chunk
//     range through run_chunks() and idle workers steal chunks, so one
//     large shard's bulk pass cannot convoy the others.
//
// Every worker runs under lockdep::RoleScope(kCheckpoint), so the
// quiescence gate machine-checks that pool work never blocks a foreground
// op on a non-exempt lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/lockdep.h"
#include "common/status.h"
#include "dipper/engine.h"

namespace dstore::dipper {

class CheckpointPool {
 public:
  struct Config {
    // 0 = auto: min(num_slots, max(1, hardware_concurrency / 2)).
    int workers = 0;
  };

  struct Stats {
    std::atomic<uint64_t> runs{0};          // checkpoint_step() invocations
    std::atomic<uint64_t> notifies{0};      // notify() calls (pre-dedup)
    std::atomic<uint64_t> steal_chunks{0};  // bulk chunks run by a stealing worker
  };

  CheckpointPool(Config cfg, size_t num_slots);
  ~CheckpointPool();
  CheckpointPool(const CheckpointPool&) = delete;
  CheckpointPool& operator=(const CheckpointPool&) = delete;

  // Wire slot i's engine. Engines may be swapped (set_engine(i, nullptr),
  // then a new engine) across a recovery; callers must pause() around the
  // swap so no worker holds the old pointer.
  void set_engine(size_t i, Engine* engine);

  void start();
  void stop();  // drain in-flight steps, join workers; idempotent

  // Stop servicing watermark requests and wait until no worker is inside a
  // checkpoint step. run_all() and run_chunks() still work while paused —
  // recovery runs on a paused pool, since the engines it tears down must
  // not be mid-checkpoint.
  void pause();
  void resume();

  // Hot-path safe (called from Engine::request_checkpoint): never blocks.
  void notify(size_t slot);

  // Run fn(slot) for every slot, fanned out across the pool workers and
  // the calling thread. Returns one status per slot — every slot is
  // attempted, no matter how many fail.
  std::vector<Status> run_all(const std::function<Status(size_t)>& fn);

  // Run fn(0..n-1) with idle-worker stealing; returns when all n chunks are
  // done. The caller yields between its own chunks. Safe to call from pool
  // workers and outsiders, and on a pool without workers (then the caller
  // runs every chunk).
  void run_chunks(size_t n, const std::function<void(size_t)>& fn);

  int workers() const { return (int)workers_.size(); }
  // Slots queued for a watermark checkpoint plus those mid-step.
  size_t queue_depth() const;
  const Stats& stats() const { return stats_; }

 private:
  struct Job {
    size_t slot = 0;
    const std::function<Status(size_t)>* fn = nullptr;
    std::vector<Status>* out = nullptr;
    std::atomic<size_t>* remaining = nullptr;
  };
  struct ChunkTask {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    size_t n = 0;
    const std::function<void(size_t)>* fn = nullptr;
  };

  void worker_main();
  bool try_run_one_job();           // pop+run one run_all job; true if it ran one
  void help_chunks(bool stealing);  // drain the published chunk task, if any
  bool claim_pending_slot(size_t* slot);
  void run_step(size_t slot);

  const Config cfg_;
  const size_t num_slots_;

  // Watermark requests: sticky per-slot flags (dedup) + a count driving
  // the worker wakeup predicate. notify() touches only these and a
  // try_lock, so the frontend never blocks here.
  std::vector<std::atomic<bool>> pending_;
  std::atomic<size_t> pending_count_{0};
  std::atomic<size_t> rr_next_{0};  // round-robin scan start

  std::vector<Engine*> engines_;                 // guarded by mu_ for swap; read by workers
  std::vector<std::atomic<bool>> slot_running_;  // one step per slot at a time

  mutable Mutex mu_{"ckpt_pool.mu"};
  CondVar cv_;
  std::deque<Job> jobs_;                         // guarded by mu_
  std::atomic<ChunkTask*> chunk_task_{nullptr};  // published bulk pass, if any
  std::atomic<int> chunk_helpers_{0};            // threads inside help_chunks
  std::atomic<size_t> active_steps_{0};          // workers inside run_step
  std::atomic<bool> paused_{false};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;

  Stats stats_;
};

}  // namespace dstore::dipper
