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

void PmemLog::set_flag(Slot* s, uint16_t flag) {
  // A record's flags have one writer at a time — the op that owns the
  // record, or recovery — so a plain store suffices; readers load them.
  s->flags.store(s->flags.load(std::memory_order_relaxed) | flag, std::memory_order_release);
}

void PmemLog::format() {
  char* base = pool_->base() + region_off_;
  std::memset(base, 0, region_bytes(slot_count_));
  pool_->persist_bulk(base, region_bytes(slot_count_));
}

void PmemLog::write_record(uint32_t slot, uint64_t lsn, OpType op, const Key& name, uint64_t arg0,
                           uint64_t arg1, bool noop, uint32_t payload_crc, bool value_crc) {
  pmem::PmemCheckScope check_scope("log:write_record");
  Slot* s = slot_ptr(slot);
  // Phase 1: write everything except the LSN.
  s->length = (uint32_t)(8 + 8 + 1 + name.len);
  s->op = (uint16_t)((uint16_t)op | (value_crc ? kOpValueCrc : 0));
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
  pmem::PersistBatch batch(pool_);
  batch.add(s, kSlotSize);
  batch.commit();
  // Durability point: the record is published (valid LSN) — every byte a
  // recovery scan would decode must now be in the persistent image.
  size_t payload_end = offsetof(Slot, name) + name.len;
  pool_->check_durable(s, payload_end, "log:write_record");
  pool_->check_durable(&s->crc, sizeof(s->crc) + sizeof(s->payload_crc), "log:write_record");
}

void PmemLog::commit(uint32_t slot, bool fence) {
  pmem::PmemCheckScope check_scope("log:commit");
  Slot* s = slot_ptr(slot);
  // Read-modify-write of a live line: clwb path, never nt (a streaming
  // store of a partially-rewritten line would be wrong on real hardware).
  set_flag(s, kFlagCommitted);
  pmem::PersistBatch batch(pool_);
  if (!fence) {
    // The flag line rides this thread's next fence. Until then the record
    // is decided by its value CRC, so that must be durable.
    batch.defer(&s->flags, sizeof(s->flags));
    pool_->check_durable(&s->crc, sizeof(s->crc) + sizeof(s->payload_crc), "log:commit");
    return;
  }
  batch.add(&s->flags, sizeof(s->flags));
  batch.commit();
  // Durability point: commit == durable (§4.5). The whole record — not
  // just the flags line — must be persistent once the commit flag is.
  pool_->check_durable(s, offsetof(Slot, arg0) + s->length, "log:commit");
}

void PmemLog::abort(uint32_t slot) {
  pmem::PmemCheckScope check_scope("log:abort");
  Slot* s = slot_ptr(slot);
  set_flag(s, kFlagAborted);
  pmem::PersistBatch batch(pool_);
  batch.add(&s->flags, sizeof(s->flags));
  batch.commit();
  pool_->check_durable(&s->flags, sizeof(s->flags), "log:abort");
}

void PmemLog::mark(uint32_t slot, uint16_t flag, pmem::PersistBatch& batch) {
  Slot* s = slot_ptr(slot);
  set_flag(s, flag);
  batch.add(&s->flags, sizeof(s->flags));
}

void PmemLog::persist_flags(uint32_t slot) {
  pmem::PersistBatch batch(pool_);
  batch.add(&slot_ptr(slot)->flags, sizeof(uint16_t));
  batch.commit();
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
  // Not the flags: a commit made without a fence may not have persisted
  // yet, and recovery re-derives what it stands for from the value CRC.
  const char* b = reinterpret_cast<const char*>(s);
  pool_->check_recovery_read(b, offsetof(Slot, flags), "log:read");
  pool_->check_recovery_read(b + offsetof(Slot, arg0), kSlotSize - offsetof(Slot, arg0),
                             "log:read");
  if (s->crc != record_crc(s, slot, lsn)) {
    // Published record (valid LSN) whose bytes no longer checksum: silent
    // PMEM corruption. Never decode it.
    if (corrupt != nullptr) *corrupt = true;
    return false;
  }
  decode(*s, lsn, s->flags.load(std::memory_order_acquire), out);
  out->slot = slot;
  return true;
}

void PmemLog::decode(const Slot& s, uint64_t lsn, uint16_t flags, LogRecordView* out) {
  out->lsn = lsn;
  out->op = (OpType)(s.op & ~kOpValueCrc);
  out->value_crc = (s.op & kOpValueCrc) != 0;
  out->state = (flags & kFlagDropped) != 0   ? RecordState::kDropped
               : (flags & kFlagAborted) != 0 ? RecordState::kAborted
               : (flags & kFlagCommitted) != 0 ? RecordState::kCommitted
                                               : RecordState::kOpen;
  out->arg0 = s.arg0;
  out->arg1 = s.arg1;
  out->name.len = s.klen > kMaxNameLen ? kMaxNameLen : s.klen;
  std::memcpy(out->name.data, s.name, out->name.len);
  out->payload_crc = s.payload_crc;
}

bool PmemLog::decode_image(const void* bytes, uint32_t slot, LogRecordView* out) {
  // Copy into an aligned Slot so the atomics are loadable regardless of the
  // source buffer's alignment (wire bodies are arbitrary byte strings).
  Slot s;
  std::memcpy(static_cast<void*>(&s), bytes, kSlotSize);
  uint64_t lsn = s.lsn.load(std::memory_order_relaxed);
  if (lsn == 0) return false;
  if (s.crc != record_crc(&s, slot, lsn)) return false;
  decode(s, lsn, s.flags.load(std::memory_order_relaxed), out);
  out->slot = slot;
  return true;
}

bool PmemLog::is_committed(uint32_t slot) const {
  const Slot* s = slot_ptr(slot);
  return (s->flags.load(std::memory_order_acquire) & kFlagCommitted) != 0;
}

}  // namespace dstore::dipper
