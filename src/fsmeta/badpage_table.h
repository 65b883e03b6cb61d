// Persistent bad-page table: the quarantine tier of the integrity
// containment ladder (DESIGN.md §11).
//
// When a device page fails its checksum and read-repair from the PMEM log
// copy is impossible, the page number is quarantined here so later reads,
// the scrubber, and fsck report it as known-bad instead of re-diagnosing
// (and so the knowledge survives restarts — silent corruption does).
//
// Quarantine is *advisory*: the block stays in the circular block pool.
// Pulling it out would perturb the pool's pop/push order, and replay
// determinism (§4.3 — recovery re-allocating the identical blocks) is a
// stronger invariant than avoiding a handful of known-bad pages. A
// quarantined page that gets rewritten with fresh data is healthy again;
// clear() drops the quarantine wholesale (fsck --repair's job).
//
// Layout: one 4 KB PMEM region — a small header plus a flat uint64 page
// array, sealed by a CRC32C over the logical state. A torn or bit-flipped
// table re-formats empty on attach (losing quarantine records degrades
// reporting, never correctness: the page checksums still fail on read).
#pragma once

#include <cstdint>
#include <vector>

#include "common/lockdep.h"
#include "common/status.h"
#include "pmem/pool.h"

namespace dstore::fsmeta {

class BadPageTable {
 public:
  static constexpr size_t kRegionBytes = 4096;
  static constexpr uint64_t kMagic = 0x4241445047455331ull;  // "BADPGES1"
  static constexpr uint64_t kCapacity = (kRegionBytes - 24) / sizeof(uint64_t);

  // The table lives at [off, off + kRegionBytes) of `pool`; format() or
  // attach() must run before any other call.
  BadPageTable(pmem::Pool* pool, uint64_t off) : pool_(pool), off_(off) {}

  // Format an empty table over the region.
  void format();
  // Attach to an existing table; a missing, torn, or corrupt region is
  // re-formatted empty (quarantine records are advisory, see above).
  void attach();

  // Quarantine `page` (an absolute device page number). Idempotent.
  // Returns out_of_space once the table is full — the caller still
  // surfaces corruption; only the durable record is lost.
  Status add(uint64_t page);
  bool contains(uint64_t page) const;
  // Drop every quarantine record (after a repair pass rewrote the pages).
  void clear();

  uint64_t count() const;
  std::vector<uint64_t> pages() const;

 private:
  struct Header {
    uint64_t magic;
    uint64_t count;
    uint32_t crc;  // CRC32C over count + pages[0..count), seeded with magic
    uint32_t pad;
  };
  static_assert(sizeof(Header) == 24, "badpage header layout");

  Header* hdr() const;
  uint64_t* slots() const;
  uint32_t table_crc(uint64_t count) const;
  void seal_and_persist();

  pmem::Pool* const pool_;
  const uint64_t off_;
  mutable SpinLock mu_{"fsmeta.badpage"};
};

}  // namespace dstore::fsmeta
