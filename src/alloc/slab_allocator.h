// Slab allocator whose entire state lives *inside* the arena it manages.
//
// Paper §3.3 and §4.2: both DRAM and PMEM use the same simple slab-based
// allocator with power-of-two size classes. Keeping the designs identical
// (in our case: the identical code and the identical in-arena layout) is
// what lets recovery "replicate the PMEM allocator state in the DRAM
// allocator and copy pages from PMEM to DRAM" as a flat copy.
//
// The allocator is asked to provide two extra functions (§3.3):
//   1. iterate over all allocated memory and flush it to PMEM — we expose
//      the high-water mark (`used_bytes()`), and the checkpointer bulk-
//      flushes [0, used_bytes());
//   2. create a copy of the allocator state — `clone_into()` copies the
//      used prefix of the arena (header + free lists + every allocation)
//      into another arena.
//
// Because the backend uses shadow updates for atomicity, the allocator
// itself need not be crash consistent (§3.3): its persistent state is only
// ever read from a completed, atomically-installed checkpoint image.
//
// Layout: a Header at offset 0, then bump-allocated slabs. Each allocation
// is preceded by an 8-byte tag carrying its size class (used by free() and
// by leak diagnostics). Free blocks are intrusive singly-linked lists of
// offsets, one list per size class.
//
// Thread safety: by default the allocator relies on the caller's locks
// (checkpoint replay owns its shadow space exclusively). The volatile
// system space is mutated by OE-parallel writers from several structures
// (btree node allocs, metadata block arrays), so it attaches an external
// SpinLock via set_lock(); alloc/free then serialize internally while the
// structures themselves keep their own finer-grained locks.
#pragma once

#include <cstdint>

#include "alloc/arena.h"
#include "common/lockdep.h"
#include "common/status.h"

namespace dstore {

class SlabAllocator {
 public:
  static constexpr uint64_t kMagic = 0x44495050'45524131ull;  // "DIPPERA1"
  static constexpr int kMinClassLog = 4;   // 16 B
  static constexpr int kMaxClassLog = 26;  // 64 MiB single allocation cap
  static constexpr int kNumClasses = kMaxClassLog - kMinClassLog + 1;
  static constexpr size_t kSlabSize = 64 * 1024;

  struct Header {
    uint64_t magic;
    uint64_t arena_size;
    uint64_t brk;  // bump pointer: [0, brk) is the used prefix
    uint64_t allocated_bytes;
    uint64_t allocation_count;
    offset_t free_lists[kNumClasses];
    offset_t user_root;  // root offset of the client's top-level structure
  };

  SlabAllocator() = default;

  // Initialize a fresh allocator in `arena` (overwrites the header).
  static SlabAllocator format(Arena arena);
  // Attach to an arena already containing an allocator (e.g. after
  // recovery copied a shadow space); verifies the magic.
  static Result<SlabAllocator> open(Arena arena);

  // Attach a lock serializing alloc/free (volatile space only).
  void set_lock(SpinLock* lock) { lock_ = lock; }

  // Allocate `size` bytes; returns 0 on out-of-space.
  offset_t alloc(size_t size);
  // Allocate and zero.
  offset_t alloc_zeroed(size_t size);
  // Return an allocation to its size-class free list. Freeing an offset
  // whose tag is invalid — a double free, a stray pointer, or in-arena
  // corruption — returns Status::corruption and leaves the allocator state
  // untouched; freeing 0 is a no-op.
  Status free(offset_t off);

  // Usable size of the allocation at `off` (its size-class capacity).
  size_t allocation_size(offset_t off) const;

  const Arena& arena() const { return arena_; }
  Arena& arena() { return arena_; }

  // High-water mark: every byte the allocator has ever handed out (plus its
  // own state) lives in [0, used_bytes()).
  uint64_t used_bytes() const { return header()->brk; }
  uint64_t allocated_bytes() const { return header()->allocated_bytes; }
  uint64_t allocation_count() const { return header()->allocation_count; }

  offset_t user_root() const { return header()->user_root; }
  void set_user_root(offset_t off) { header()->user_root = off; }

  // Copy the full allocator state + all allocations into `dst` (which must
  // be at least used_bytes() large). Returns the attached copy.
  Result<SlabAllocator> clone_into(Arena dst) const;

  // Convenience typed helpers.
  template <typename T>
  OffPtr<T> alloc_object() {
    return OffPtr<T>(alloc_zeroed(sizeof(T)));
  }

 private:
  explicit SlabAllocator(Arena arena) : arena_(arena) {}

  Header* header() const { return reinterpret_cast<Header*>(arena_.base()); }

  static int class_for(size_t size);
  static size_t class_size(int cls) { return (size_t)1 << (cls + kMinClassLog); }

  // Carve a new slab for `cls` from the bump region; returns false on OOM.
  bool refill(int cls);

  offset_t alloc_impl(size_t size);
  Status free_impl(offset_t off);

  Arena arena_;
  SpinLock* lock_ = nullptr;
};

}  // namespace dstore
