// Monotonic wall-clock helpers (ns resolution).
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

namespace dstore {

inline uint64_t now_ns() {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Wait for `ns` nanoseconds of injected device latency.
//
// Short waits busy-poll (accuracy); long waits SLEEP so they release the
// CPU — a long device operation (checkpoint flush, bulk copy) keeps its
// issuing thread busy on a real machine's *device*, not on a core, and on
// an oversubscribed host a spinning background thread would otherwise
// steal wall-clock from the frontend and fake checkpoint stalls that the
// real system does not have.
inline void spin_for_ns(uint64_t ns) {
  if (ns == 0) return;
  uint64_t deadline = now_ns() + ns;
  if (ns > 200000) {  // 200us: past scheduler wakeup accuracy
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns - 100000));
  }
  int spins = 0;
  while (now_ns() < deadline) {
    if (++spins > 256) {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

class StopWatch {
 public:
  StopWatch() : start_(now_ns()) {}
  void reset() { start_ = now_ns(); }
  uint64_t elapsed_ns() const { return now_ns() - start_; }
  double elapsed_ms() const { return (double)elapsed_ns() / 1e6; }
  double elapsed_s() const { return (double)elapsed_ns() / 1e9; }

 private:
  uint64_t start_;
};

}  // namespace dstore
