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
// Open addressing over 16-byte (name-hash tag, count, hint) slots; slots are
// claimed with CAS and never released — the live-slot count is bounded by
// the number of distinct object names touched, and a hash collision merely
// makes two objects share a slot, which is conservative (extra waiting),
// never unsafe. A lookup probes at most kMaxProbe slots from the name's
// home slot; a name that finds neither its slot nor a free one there
// collapses onto its home slot. Slots are never released, so that answer
// never changes, and past saturation a lookup costs kMaxProbe probes, not
// a scan of the whole table.
//
// The hint is DStore's lookup cache (DESIGN.md §3, decision 6): the index
// of the name's metadata entry, so a get or put that already holds the slot
// can skip the btree descent. It is only a hint — a slot shared by several
// names holds whichever one wrote last — so the reader validates it against
// the entry's name under the object's exclusion before trusting it. Like
// the counts it is volatile and empty after recovery.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "ds/key.h"

namespace dstore {

class NameCountTable {
 public:
  class alignas(16) Slot {
   public:
    // Sequentially consistent: readers and writers run a flag/flag protocol
    // across two tables (bump your own counter, then load the other's).
    void inc() { count_.fetch_add(1); }
    void dec() { count_.fetch_sub(1); }
    int64_t load() const { return count_.load(); }

    // Poll until at most `allowed` holders remain (§4.4: "we simply poll on
    // it until it is zero").
    void wait_at_most(int64_t allowed) const {
      int spins = 0;
      while (count_.load(std::memory_order_acquire) > allowed) {
        if (++spins > 64) {
          std::this_thread::yield();
          spins = 0;
        }
      }
    }

    // The remembered entry index, if any.
    std::optional<uint64_t> hint() const {
      uint32_t h = hint_.load();
      if (h == 0) return std::nullopt;
      return h - 1;
    }
    // Remember `idx` (none clears). An index past the 32-bit field is
    // never remembered.
    void set_hint(std::optional<uint64_t> idx) {
      uint32_t h = idx.has_value() && *idx < UINT32_MAX ? (uint32_t)(*idx + 1) : 0;
      hint_.store(h);
    }

   private:
    friend class NameCountTable;
    std::atomic<uint64_t> tag_{0};  // name hash (0 = empty; hash 0 remapped to 1)
    std::atomic<int32_t> count_{0};
    std::atomic<uint32_t> hint_{0};  // entry index + 1; 0 = none
  };
  static_assert(sizeof(Slot) == 16, "a slot must stay one quarter of a cache line");

  // The probe window: slots looked at before falling back to the home slot.
  static constexpr size_t kMaxProbe = 64;

  explicit NameCountTable(size_t capacity = 1 << 16)
      : slots_(round_up_pow2(capacity)), mask_(slots_.size() - 1) {}

  void inc(const Key& name) { slot(name).inc(); }
  void dec(const Key& name) { slot(name).dec(); }
  int64_t load(const Key& name) { return slot(name).load(); }
  void wait_at_most(const Key& name, int64_t allowed) { slot(name).wait_at_most(allowed); }

  // The slot that counts `name`, claimed on first use. Callers that touch
  // the same name several times hold on to it instead of probing again.
  Slot& slot(const Key& name) {
    uint64_t h = name.hash();
    if (h == 0) h = 1;
    size_t idx = h & mask_;
    const size_t window = std::min(kMaxProbe, slots_.size());
    for (size_t probe = 0; probe < window; probe++, idx = (idx + 1) & mask_) {
      uint64_t tag = slots_[idx].tag_.load(std::memory_order_acquire);
      if (tag == h) return slots_[idx];
      if (tag == 0) {
        uint64_t expected = 0;
        if (slots_[idx].tag_.compare_exchange_strong(expected, h, std::memory_order_acq_rel))
          return slots_[idx];
        if (expected == h) return slots_[idx];
      }
    }
    // Probe window full: collapse to the home slot. Shared counters are
    // conservative (extra conflicts), never incorrect.
    return slots_[h & mask_];
  }

 private:
  static size_t round_up_pow2(size_t v) {
    size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  std::vector<Slot> slots_;
  size_t mask_;
};

}  // namespace dstore
