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

// Wait until the clock reads `deadline_ns` (an absolute now_ns() time, such
// as a device completion deadline) and return the reading the wait ended
// on, so a caller that goes on to reap completions needs no second clock
// read. A deadline already past returns at once.
//
// Short waits busy-poll (accuracy); long waits SLEEP so they release the
// CPU — a long device operation (checkpoint flush, bulk copy) keeps its
// issuing thread busy on a real machine's *device*, not on a core, and on
// an oversubscribed host a spinning background thread would otherwise
// steal wall-clock from the frontend and fake checkpoint stalls that the
// real system does not have.
inline uint64_t spin_until_ns(uint64_t deadline_ns) {
  uint64_t now = now_ns();
  if (now >= deadline_ns) return now;
  if (deadline_ns - now > 200000) {  // 200us: past scheduler wakeup accuracy
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now - 100000));
  }
  int spins = 0;
  while ((now = now_ns()) < deadline_ns) {
    if (++spins > 256) {
      std::this_thread::yield();
      spins = 0;
    }
  }
  return now;
}

// Wait for `ns` nanoseconds of injected latency (a relative wait; waits on
// a known deadline use spin_until_ns).
inline void spin_for_ns(uint64_t ns) {
  if (ns == 0) return;
  spin_until_ns(now_ns() + ns);
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
