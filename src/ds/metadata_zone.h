// Metadata zone (§4.2): fixed-size metadata pages describing each object —
// its name, logical size, and the list of SSD blocks holding its data.
//
// Pages are indexed by the id handed out by the metadata pool; the block
// list grows by deterministic doubling from the slab allocator, so shadow
// replay re-produces identical layouts. Lives in an arena; externally
// synchronized.
#pragma once

#include <cstdint>

#include "alloc/slab_allocator.h"
#include "common/status.h"
#include "ds/key.h"

namespace dstore {

struct MetaEntry {
  Key name;            // 64 B
  uint64_t size;       // logical object size in bytes
  uint32_t nblocks;    // blocks in use
  uint32_t cap;        // capacity of the block array
  offset_t blocks;     // uint64_t[cap] in the arena
  uint64_t generation; // bumped on every metadata change (debug/validation)
  uint8_t in_use;
  // 1 iff data_crc holds the checksum of the object's full content. Set by
  // a frontend whole-object put, cleared by partial writes and by replay
  // (which has no data bytes to checksum) — so after recovery, content
  // verification falls back to the device's page sidecar alone.
  uint8_t data_crc_valid;
  uint8_t pad0[2];
  // Index-seeded CRC32C over the entry's logical fields (name, size,
  // nblocks, generation, in_use, data_crc[_valid]) and its block-id list —
  // everything except the arena-layout fields (blocks offset, cap) and the
  // CRC itself. 0 = never sealed (fresh zeroed entry).
  uint32_t crc;
  // Whole-object content CRC32C (valid iff data_crc_valid). Catches lost
  // and misdirected writes whose stale page contents are internally
  // self-consistent — the one corruption class a per-page sidecar cannot
  // see.
  uint32_t data_crc;
  // Frontend-only, outside the CRC, untouched by replay: where the object's
  // last record committed without a fence lives (log side, slot + 1 with 0
  // for none, the side's recycle generation), so an owrite can persist its
  // flag before overwriting the data that proves it (DStore::mutate_begin).
  uint32_t commit_slot;
  uint8_t commit_side;
  uint8_t pad[7];
  uint64_t commit_gen;
};
static_assert(sizeof(MetaEntry) == 128, "MetaEntry must pack to 128B");

class MetadataZone {
 public:
  struct Header {
    uint64_t num_entries;
    offset_t entries;  // MetaEntry[num_entries]
  };

  static Result<OffPtr<Header>> create(SlabAllocator& sp, uint64_t num_entries);

  MetadataZone(SlabAllocator& sp, OffPtr<Header> header) : sp_(&sp), header_(header) {}

  MetaEntry* entry(uint64_t idx) const;
  uint64_t num_entries() const { return hdr()->num_entries; }

  // Lock-free liveness peek for the scrubber's zone walk: atomically read
  // the entry's (in_use, name) publication pair. Returns true iff the entry
  // was observed in use, copying its name into *name. The name may still be
  // torn if the entry was released and re-initialized mid-peek — callers
  // MUST re-validate the (idx -> name) binding under per-object exclusion
  // (ReaderGuard) before trusting any other entry field. This is what lets
  // the scrubber enumerate live objects without taking any store-wide lock
  // (quiescent-free: a foreground writer can never block on the scrubber).
  bool peek_live(uint64_t idx, Key* name) const;
  // The binding check: entry `idx` is in use and named `name`. Trustworthy
  // only under `name`'s exclusion, where no writer can change that binding
  // (the scrubber's re-validation, DStore's lookup hint).
  bool bound_to(uint64_t idx, const Key& name) const {
    Key cur;
    return peek_live(idx, &cur) && cur == name;
  }

  // Initialize entry `idx` for a new object.
  Status init_entry(uint64_t idx, const Key& name);
  // Append a data block id; grows the block array (powers of two).
  Status append_block(uint64_t idx, uint64_t block_id);
  // Release the entry's block array and mark it free; the block ids
  // themselves are returned to the block pool by the caller. Surfaces
  // Status::corruption if the block array's slab tag is invalid.
  Status release_entry(uint64_t idx);

  // Recompute and store entry `idx`'s checksum. The mutators above seal
  // automatically; callers that write entry fields directly (size bumps,
  // generation, data_crc) MUST seal afterwards or the entry reads as
  // corrupt.
  void seal_entry(uint64_t idx);
  // Checksum-verify entry `idx`. A never-sealed free entry passes; an
  // in-use entry (or a sealed free one) must match its stored CRC.
  Status verify_entry(uint64_t idx) const;

  const uint64_t* blocks(const MetaEntry& e) const {
    return e.blocks == 0 ? nullptr : reinterpret_cast<const uint64_t*>(sp_->arena().at(e.blocks));
  }
  uint64_t* blocks(MetaEntry& e) {
    return e.blocks == 0 ? nullptr : reinterpret_cast<uint64_t*>(sp_->arena().at(e.blocks));
  }

 private:
  Header* hdr() const { return header_.get(sp_->arena()); }
  uint32_t entry_crc(uint64_t idx, const MetaEntry& e) const;

  SlabAllocator* sp_;
  OffPtr<Header> header_;
};

}  // namespace dstore
