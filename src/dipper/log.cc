#include "dipper/log.h"

#include <cstring>

#include "common/cacheline.h"
#include "common/crc32c.h"

namespace dstore::dipper {

uint32_t PmemLog::record_crc(const Slot* s, uint32_t slot, uint64_t lsn) {
  uint32_t c = 0xffffffffu;
  c = crc32c_extend_u64(c, slot);  // location seed: wrong-slot decode fails
  c = crc32c_extend_u64(c, lsn);
  c = crc32c_extend_u64(c, ((uint64_t)s->length << 32) | s->op);
  c = crc32c_extend_u64(c, s->arg0);
  c = crc32c_extend_u64(c, s->arg1);
  c = crc32c_extend_u64(c, ((uint64_t)s->klen << 32) | s->payload_crc);
  size_t klen = s->klen <= kMaxNameLen ? s->klen : kMaxNameLen;
  c = crc32c_extend(c, s->name, klen);
  c ^= 0xffffffffu;
  return c == 0 ? 1u : c;
}

void PmemLog::format() {
  char* base = pool_->base() + region_off_;
  std::memset(base, 0, region_bytes(slot_count_));
  pool_->persist_bulk(base, region_bytes(slot_count_));
}

void PmemLog::write_record(uint32_t slot, uint64_t lsn, OpType op, const Key& name, uint64_t arg0,
                           uint64_t arg1, bool noop, uint32_t payload_crc) {
  pmem::PmemCheckScope check_scope("log:write_record");
  Slot* s = slot_ptr(slot);
  // Phase 1: write everything except the LSN.
  s->length = (uint32_t)(8 + 8 + 1 + name.len);
  s->op = (uint16_t)op;
  s->flags.store(noop ? kFlagNoop : 0, std::memory_order_relaxed);
  s->arg0 = arg0;
  s->arg1 = arg1;
  s->klen = name.len;
  std::memcpy(s->name, name.data, name.len);
  s->payload_crc = payload_crc;
  s->crc = record_crc(s, slot, lsn);
  // Single-fence publication (see log.h / DESIGN.md §13): the LSN is the
  // last *store* but persists in the same train as everything else. Any
  // crash-persisted subset of the two lines is safe — the head line alone
  // yields a valid LSN whose CRC (stale tail line) fails, which recovery
  // classifies as a torn uncommitted publication and skips. One flush train
  // + one fence replaces the old two-fence reverse-order protocol.
  s->lsn.store(lsn, std::memory_order_release);
  pmem::PersistBatch batch(pool_, nt_);
  batch.add(s, kSlotSize);
  batch.commit();
  // Durability point: the record is published (valid LSN) — every byte a
  // recovery scan would decode must now be in the persistent image.
  size_t payload_end = offsetof(Slot, name) + name.len;
  pool_->check_durable(s, payload_end, "log:write_record");
  pool_->check_durable(&s->crc, sizeof(s->crc) + sizeof(s->payload_crc), "log:write_record");
}

void PmemLog::commit(uint32_t slot) {
  pmem::PmemCheckScope check_scope("log:commit");
  Slot* s = slot_ptr(slot);
  // Read-modify-write of a live line: clwb path, never nt (a streaming
  // store of a partially-rewritten line would be wrong on real hardware).
  s->flags.fetch_or(kFlagCommitted, std::memory_order_release);
  pmem::PersistBatch batch(pool_);
  batch.add(&s->flags, sizeof(s->flags));
  batch.commit();
  // Durability point: commit == durable (§4.5). The whole record — not
  // just the flags line — must be persistent once the commit flag is.
  pool_->check_durable(s, offsetof(Slot, arg0) + s->length, "log:commit");
}

void PmemLog::abort(uint32_t slot) {
  pmem::PmemCheckScope check_scope("log:abort");
  Slot* s = slot_ptr(slot);
  s->flags.fetch_or(kFlagAborted, std::memory_order_release);
  pmem::PersistBatch batch(pool_);
  batch.add(&s->flags, sizeof(s->flags));
  batch.commit();
  pool_->check_durable(&s->flags, sizeof(s->flags), "log:abort");
}

bool PmemLog::read(uint32_t slot, LogRecordView* out, bool* corrupt) const {
  if (corrupt != nullptr) *corrupt = false;
  if (slot >= slot_count_) return false;
  const Slot* s = slot_ptr(slot);
  uint64_t lsn = s->lsn.load(std::memory_order_acquire);
  if (lsn == 0) return false;
  // Defect class 4: every read() consumer (recovery scan, checkpoint
  // replay collection) acts on what it decodes — under PmemCheck, verify
  // the slot's bytes are what a crash would actually have left behind.
  pool_->check_recovery_read(s, kSlotSize, "log:read");
  if (s->crc != record_crc(s, slot, lsn)) {
    // Published record (valid LSN) whose bytes no longer checksum: silent
    // PMEM corruption. Never decode it.
    if (corrupt != nullptr) *corrupt = true;
    return false;
  }
  out->lsn = lsn;
  out->op = (OpType)s->op;
  uint16_t flags = s->flags.load(std::memory_order_acquire);
  out->committed = (flags & kFlagCommitted) != 0 && (flags & kFlagAborted) == 0;
  out->arg0 = s->arg0;
  out->arg1 = s->arg1;
  out->name.len = s->klen > kMaxNameLen ? kMaxNameLen : s->klen;
  std::memcpy(out->name.data, s->name, out->name.len);
  out->payload_crc = s->payload_crc;
  return true;
}

bool PmemLog::decode_image(const void* bytes, uint32_t slot, LogRecordView* out) {
  // Copy into an aligned Slot so the atomics are loadable regardless of the
  // source buffer's alignment (wire bodies are arbitrary byte strings).
  Slot s;
  std::memcpy(static_cast<void*>(&s), bytes, kSlotSize);
  uint64_t lsn = s.lsn.load(std::memory_order_relaxed);
  if (lsn == 0) return false;
  if (s.crc != record_crc(&s, slot, lsn)) return false;
  out->lsn = lsn;
  out->op = (OpType)s.op;
  uint16_t flags = s.flags.load(std::memory_order_relaxed);
  out->committed = (flags & kFlagCommitted) != 0 && (flags & kFlagAborted) == 0;
  out->arg0 = s.arg0;
  out->arg1 = s.arg1;
  out->name.len = s.klen > kMaxNameLen ? kMaxNameLen : s.klen;
  std::memcpy(out->name.data, s.name, out->name.len);
  out->payload_crc = s.payload_crc;
  return true;
}

bool PmemLog::is_committed(uint32_t slot) const {
  const Slot* s = slot_ptr(slot);
  return (s->flags.load(std::memory_order_acquire) & kFlagCommitted) != 0;
}

}  // namespace dstore::dipper
