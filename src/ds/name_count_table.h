// Per-name counter table for concurrency control (§4.4).
//
// "For resolving read-write concurrency, we introduce a new in-memory hash
// table that maps object names to their current read count. The read count
// is updated using the atomic fetch-and-add instruction."
//
// DStore keeps two of these: the read counts (readers bump their object's
// counter around an access; a writer polls it down to zero before
// mutating) and, inside the DIPPER engine, the in-flight write counts
// (uncommitted log records per name; readers and conflicting writers wait
// them out). Counts are signed, like the tolerances callers compare them
// with (an olock holder tolerates its own NOOP record). The table is purely
// volatile (its correct post-crash state is all-zero), so it lives outside
// the arena.
//
// Open addressing over (name-hash tag, count) slots; slots are claimed with
// CAS and never released — the live-slot count is bounded by the number of
// distinct object names touched, and a hash collision merely makes two
// objects share a counter, which is conservative (extra waiting), never
// unsafe.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "ds/key.h"

namespace dstore {

class NameCountTable {
 public:
  explicit NameCountTable(size_t capacity = 1 << 16)
      : slots_(round_up_pow2(capacity)), mask_(slots_.size() - 1) {}

  // Sequentially consistent: readers and writers run a flag/flag protocol
  // across two tables (bump your own counter, then load the other's).
  void inc(const Key& name) { slot_for(name).count.fetch_add(1); }
  void dec(const Key& name) { slot_for(name).count.fetch_sub(1); }
  int64_t load(const Key& name) { return slot_for(name).count.load(); }

  // Poll until at most `allowed` holders remain (§4.4: "we simply poll on
  // it until it is zero").
  void wait_at_most(const Key& name, int64_t allowed) {
    Slot& s = slot_for(name);
    int spins = 0;
    while (s.count.load(std::memory_order_acquire) > allowed) {
      if (++spins > 64) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }

  // RAII reader guard.
  class ReadGuard {
   public:
    ReadGuard(NameCountTable& t, const Key& name) : t_(t), name_(name) { t_.inc(name_); }
    ~ReadGuard() { t_.dec(name_); }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    NameCountTable& t_;
    Key name_;
  };

 private:
  struct Slot {
    std::atomic<uint64_t> tag{0};  // name hash (0 = empty; hash 0 remapped to 1)
    std::atomic<int64_t> count{0};
  };

  static size_t round_up_pow2(size_t v) {
    size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  Slot& slot_for(const Key& name) {
    uint64_t h = name.hash();
    if (h == 0) h = 1;
    size_t idx = h & mask_;
    for (size_t probe = 0; probe < slots_.size(); probe++, idx = (idx + 1) & mask_) {
      uint64_t tag = slots_[idx].tag.load(std::memory_order_acquire);
      if (tag == h) return slots_[idx];
      if (tag == 0) {
        uint64_t expected = 0;
        if (slots_[idx].tag.compare_exchange_strong(expected, h, std::memory_order_acq_rel))
          return slots_[idx];
        if (expected == h) return slots_[idx];
      }
    }
    // Table saturated: collapse to the home slot. Shared counters are
    // conservative (extra conflicts), never incorrect.
    return slots_[h & mask_];
  }

  std::vector<Slot> slots_;
  size_t mask_;
};

}  // namespace dstore
