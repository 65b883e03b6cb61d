#include "ds/metadata_zone.h"

#include <atomic>
#include <cstring>

#include "common/crc32c.h"
#include "pmem/pool.h"

namespace dstore {

namespace {

// peek_live() reads (in_use, name) WITHOUT the per-object exclusion every
// other accessor holds, so these two fields' writers must cooperate:
// in_use is release-published last on init and retracted first on release,
// and neither field is ever plain-zeroed while the entry is reachable —
// otherwise the scrubber's lock-free walk is a data race. All other entry
// fields stay plain; they are only read under exclusion.
static_assert(sizeof(Key) % sizeof(uint64_t) == 0, "Key must be word-granular");
constexpr size_t kNameWords = sizeof(Key) / sizeof(uint64_t);

void name_store_atomic(Key* dst, const Key& src) {
  uint64_t words[kNameWords];
  std::memcpy(words, &src, sizeof(Key));
  auto* d = reinterpret_cast<uint64_t*>(dst);
  for (size_t i = 0; i < kNameWords; i++) {
    std::atomic_ref<uint64_t>(d[i]).store(words[i], std::memory_order_relaxed);
  }
}

void in_use_store_release(MetaEntry* e, uint8_t v) {
  std::atomic_ref<uint8_t>(e->in_use).store(v, std::memory_order_release);
}

}  // namespace

// Durability annotations: metadata mutations run against whichever arena
// the caller hands us — the volatile DRAM space during normal operation
// (annotations no-op) or a PMEM shadow copy during checkpoint replay, where
// every write must be covered by the checkpoint's durability pass before
// the install root flip. PmemCheck verifies exactly that.
//
// Minimal ordering (DESIGN.md §13): an entry update records ONE batched
// obligation covering the whole entry (seal_entry, after all field stores)
// rather than annotating field by field, and issues no flush or fence of
// its own — the checkpoint's single persist_bulk pass is the only ordering
// point for the entire metadata zone. Intra-entry store order is
// irrelevant to crash consistency here because the shadow copy only
// becomes reachable at the install root flip, which happens-after the bulk
// pass; the entry CRC covers torn media, not ordering.

Result<OffPtr<MetadataZone::Header>> MetadataZone::create(SlabAllocator& sp,
                                                          uint64_t num_entries) {
  auto h = sp.alloc_object<Header>();
  if (h.is_null()) return Status::out_of_space("metadata zone header");
  offset_t entries = sp.alloc_zeroed(num_entries * sizeof(MetaEntry));
  if (entries == 0) return Status::out_of_space("metadata zone entries");
  Header* hdr = h.get(sp.arena());
  hdr->num_entries = num_entries;
  hdr->entries = entries;
  pmem::annotate_must_persist(hdr, sizeof(Header), "meta:create");
  pmem::annotate_must_persist(sp.arena().at(entries), num_entries * sizeof(MetaEntry),
                              "meta:create");
  return h;
}

MetaEntry* MetadataZone::entry(uint64_t idx) const {
  const Header* h = hdr();
  if (idx >= h->num_entries) return nullptr;
  return reinterpret_cast<MetaEntry*>(sp_->arena().at(h->entries)) + idx;
}

bool MetadataZone::peek_live(uint64_t idx, Key* name) const {
  MetaEntry* e = entry(idx);
  if (e == nullptr) return false;
  std::atomic_ref<uint8_t> used(e->in_use);
  if (used.load(std::memory_order_acquire) == 0) return false;
  // in_use == 1 was release-published after the name, so these word loads
  // see a fully written name — unless the entry was released and
  // re-initialized mid-peek, in which case the copy may be torn. The
  // caller's re-validation under ReaderGuard catches that.
  uint64_t words[kNameWords];
  auto* src = reinterpret_cast<uint64_t*>(&e->name);
  for (size_t i = 0; i < kNameWords; i++) {
    words[i] = std::atomic_ref<uint64_t>(src[i]).load(std::memory_order_relaxed);
  }
  if (used.load(std::memory_order_acquire) == 0) return false;
  std::memcpy(name, words, sizeof(Key));
  return true;
}

uint32_t MetadataZone::entry_crc(uint64_t idx, const MetaEntry& e) const {
  uint32_t c = 0xffffffffu;
  c = crc32c_extend_u64(c, idx);  // location seed: wrong-index decode fails
  c = crc32c_extend(c, &e.name, sizeof(e.name));
  c = crc32c_extend_u64(c, e.size);
  c = crc32c_extend_u64(c, ((uint64_t)e.nblocks << 8) | e.in_use);
  c = crc32c_extend_u64(c, e.generation);
  c = crc32c_extend_u64(c, ((uint64_t)e.data_crc << 8) | e.data_crc_valid);
  if (e.in_use && e.blocks != 0 && e.nblocks > 0) {
    c = crc32c_extend(c, blocks(e), e.nblocks * sizeof(uint64_t));
  }
  c ^= 0xffffffffu;
  return c == 0 ? 1u : c;
}

void MetadataZone::seal_entry(uint64_t idx) {
  MetaEntry* e = entry(idx);
  if (e == nullptr) return;
  e->crc = entry_crc(idx, *e);
  pmem::annotate_must_persist(e, sizeof(MetaEntry), "meta:seal_entry");
}

Status MetadataZone::verify_entry(uint64_t idx) const {
  const MetaEntry* e = entry(idx);
  if (e == nullptr) return Status::invalid_argument("metadata index out of range");
  if (!e->in_use && e->crc == 0) return Status::ok();  // fresh zeroed entry, never sealed
  if (e->crc != entry_crc(idx, *e)) {
    return Status::corruption("metadata entry " + std::to_string(idx) +
                              " failed its checksum");
  }
  return Status::ok();
}

Status MetadataZone::init_entry(uint64_t idx, const Key& name) {
  MetaEntry* e = entry(idx);
  if (e == nullptr) return Status::invalid_argument("metadata index out of range");
  if (e->in_use) return Status::internal("metadata entry already in use");
  // Plain-reset everything EXCEPT (name, in_use), which the scrubber's
  // lock-free peek may be reading concurrently: write the name with atomic
  // word stores, then release-publish in_use so an observed in_use == 1
  // implies a fully written name.
  e->size = 0;
  e->nblocks = 0;
  e->cap = 0;
  e->blocks = 0;
  e->data_crc_valid = 0;
  e->crc = 0;
  e->data_crc = 0;
  e->commit_slot = 0;
  name_store_atomic(&e->name, name);
  e->generation = 1;
  in_use_store_release(e, 1);
  seal_entry(idx);  // one whole-entry obligation covers every store above
  return Status::ok();
}

Status MetadataZone::append_block(uint64_t idx, uint64_t block_id) {
  MetaEntry* e = entry(idx);
  if (e == nullptr || !e->in_use) return Status::invalid_argument("bad metadata entry");
  if (e->nblocks == e->cap) {
    uint32_t new_cap = e->cap == 0 ? 4 : e->cap * 2;
    offset_t grown = sp_->alloc(new_cap * sizeof(uint64_t));
    if (grown == 0) return Status::out_of_space("block array");
    if (e->blocks != 0) {
      std::memcpy(sp_->arena().at(grown), sp_->arena().at(e->blocks),
                  e->nblocks * sizeof(uint64_t));
      DSTORE_RETURN_IF_ERROR(sp_->free(e->blocks));
    }
    e->blocks = grown;
    e->cap = new_cap;
  }
  blocks(*e)[e->nblocks++] = block_id;
  e->generation++;
  seal_entry(idx);  // one whole-entry obligation covers every store above
  pmem::annotate_must_persist(blocks(*e), e->nblocks * sizeof(uint64_t), "meta:append_block");
  return Status::ok();
}

Status MetadataZone::release_entry(uint64_t idx) {
  MetaEntry* e = entry(idx);
  if (e == nullptr || !e->in_use) return Status::ok();
  if (e->blocks != 0) DSTORE_RETURN_IF_ERROR(sp_->free(e->blocks));
  // Retract in_use FIRST (the peek's liveness bit), then zero the name with
  // atomic word stores and the remaining fields plainly. crc = 0 reads as a
  // never-sealed free entry.
  in_use_store_release(e, 0);
  name_store_atomic(&e->name, Key{});
  e->size = 0;
  e->nblocks = 0;
  e->cap = 0;
  e->blocks = 0;
  e->generation = 0;
  e->data_crc_valid = 0;
  e->crc = 0;
  e->data_crc = 0;
  pmem::annotate_must_persist(e, sizeof(MetaEntry), "meta:release_entry");
  return Status::ok();
}

}  // namespace dstore
