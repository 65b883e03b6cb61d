// DIPPER's PMEM-resident operation log (§3.4, Figure 3).
//
// Each record captures one logical operation: LSN, length, op type, commit
// flag, and the op's parameters (object name + two integer args). Records
// live in fixed 128-byte slots — two cache lines — so that recovery can
// examine every slot independently: a slot is *present* iff its LSN field
// is non-zero (the region is zeroed before reuse). In practice (short
// names) a record occupies a single cache line, matching the paper's "we
// expect most log records to fit within a single cache line".
//
// Atomic visibility protocol (§3.4, minimally ordered — DESIGN.md §13):
// PMEM gives 8-byte atomicity and may evict cache lines spuriously. Rather
// than store-ordering the LSN behind its own fence (the old reverse-order
// two-fence protocol), the record is *self-certifying*: every field —
// including the slot-seeded CRC and, last in program order, the LSN — is
// written with plain stores, then BOTH slot lines are persisted by a single
// flush train and ONE fence (pmem::PersistBatch). Publication is that fence.
//
// A crash or spurious eviction inside the publication window can persist
// any subset of the two lines, and every subset is safe:
//
//   * neither line, or the tail line alone  → LSN still 0 → empty slot;
//   * head line alone (valid LSN, stale CRC) → the CRC check fails →
//     recovery counts the slot as a torn, uncommitted publication and
//     skips it — it can never be committed, because the commit store
//     happens-after the publication fence;
//   * both lines → complete record.
//
// So the invariant the old protocol bought with two fences — a decodable
// record is a complete record — holds with one.
//
// Commit (§4.5) runs only after the operation's data is durable on the
// SSD. A record whose payload_crc is the CRC of the object's whole new
// value (a *value-CRC* record: a whole-object put or owrite) may commit
// without a fence (commit(slot, /*fence=*/false)): its flag line persists
// with the committing thread's next fence, and until then recovery decides
// the record by checking its data blocks against that CRC (DESIGN.md §13).
// Every other record commits fenced, so commit == flag persisted. Either
// way the flag store happens-after the publication fence: a flagged record
// that fails its CRC is silent media corruption, never a torn publication,
// and recovery fail-stops on it.
//
// Recovery writes its verdict on every record it decided by CRC back into
// the flags (mark()): committed, aborted (replayed but its data never
// landed), or dropped (after the last replayed record: it never happened).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/status.h"
#include "ds/key.h"
#include "pmem/pool.h"

namespace dstore::dipper {

enum class OpType : uint16_t {
  kNoop = 0,    // olock/ounlock marker (§4.5); ignored by replay
  kCreate = 1,  // oopen with creation: (name)
  kPut = 2,     // oput: (name, value_size)
  kDelete = 3,  // odelete: (name)
  kWrite = 4,   // owrite that changed metadata: (name, new_size)
};

// How a record stands, from its persisted flags.
enum class RecordState : uint8_t {
  kOpen = 0,   // no flag persisted: in flight, or committed without a fence
  kCommitted,  // commit flag set
  kAborted,    // the op failed after its record was published
  kDropped,    // recovery found it after the last replayed record
};

// Decoded view of a log record, handed to replay.
struct LogRecordView {
  uint64_t lsn = 0;
  uint32_t slot = 0;  // the slot it was decoded from
  OpType op = OpType::kNoop;
  RecordState state = RecordState::kOpen;
  bool committed() const { return state == RecordState::kCommitted; }
  // payload_crc is the CRC32C of the object's whole content after this op
  // (a whole-object put or owrite), so the op's data can be checked.
  bool value_crc = false;
  Key name;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
  // Checksum of the record's physically-logged payload (0 when none was
  // logged). Lets the read-repair path verify a candidate payload before
  // trusting it.
  uint32_t payload_crc = 0;
};

class PmemLog {
 public:
  static constexpr size_t kSlotSize = 128;

  // Record flag bits (persisted).
  static constexpr uint16_t kFlagCommitted = 1u << 0;
  static constexpr uint16_t kFlagAborted = 1u << 1;
  static constexpr uint16_t kFlagNoop = 1u << 2;
  static constexpr uint16_t kFlagDropped = 1u << 3;

  PmemLog() = default;
  PmemLog(pmem::Pool* pool, uint64_t region_off, uint32_t slot_count)
      : pool_(pool), region_off_(region_off), slot_count_(slot_count) {}

  static size_t region_bytes(uint32_t slot_count) { return (size_t)slot_count * kSlotSize; }
  uint32_t slot_count() const { return slot_count_; }

  // Pool-relative byte offset of `slot`'s record. The torn-write fault
  // tests use this to tamper with the persistent image of an exact slot.
  uint64_t slot_offset(uint32_t slot) const {
    return region_off_ + (uint64_t)slot * kSlotSize;
  }

  // Zero the whole region and persist (bulk). Required before reuse so the
  // LSN-validity rule holds.
  void format();

  // Write a record into `slot` following the single-fence publication
  // protocol above. The record is persistent-but-uncommitted on return. `payload_crc` is the checksum
  // of the physically-logged payload accompanying the record (0 if none);
  // it is covered by the record's own CRC so a repair source can be
  // authenticated end to end. With `value_crc`, payload_crc is instead the
  // CRC of the object's whole new content (LogRecordView::value_crc).
  void write_record(uint32_t slot, uint64_t lsn, OpType op, const Key& name, uint64_t arg0,
                    uint64_t arg1, bool noop, uint32_t payload_crc = 0,
                    bool value_crc = false);

  // Mark the record committed. With `fence` the flag is persistent on
  // return; without, the flag line is flushed but persists with the
  // calling thread's next fence — only for value-CRC records, which
  // recovery can decide without the flag.
  void commit(uint32_t slot, bool fence = true);
  // Persistently mark the record aborted.
  void abort(uint32_t slot);
  // Recovery's verdict: OR `flag` (kFlagCommitted, kFlagAborted or
  // kFlagDropped) into the record's flags and add the line to `batch`,
  // whose fence persists every verdict at once.
  void mark(uint32_t slot, uint16_t flag, pmem::PersistBatch& batch);
  // Flush and fence `slot`'s flag line: persists a commit made without a
  // fence, from any thread.
  void persist_flags(uint32_t slot);

  // Decode `slot`. Returns false if the slot holds no valid record; in that
  // case `*corrupt` (when non-null) distinguishes "empty/invalid slot"
  // (false) from "valid LSN but failed checksum" (true) — a record that was
  // written but can no longer be trusted.
  bool read(uint32_t slot, LogRecordView* out, bool* corrupt = nullptr) const;

  // Decode + authenticate a raw kSlotSize-byte slot image captured from
  // slot index `slot` of SOME log — no pool needed. Because the record CRC
  // is slot-index-seeded, the index is part of the authentication: an image
  // replayed against the wrong slot fails. This is the replication stream's
  // end-to-end check (DESIGN.md §16): a follower verifies each shipped slot
  // image exactly the way recovery verifies the slot in place. Commit-flag
  // state is reported in `out->state` but is NOT covered by the CRC
  // (images are captured pre-commit).
  static bool decode_image(const void* bytes, uint32_t slot, LogRecordView* out);

  bool is_committed(uint32_t slot) const;

 private:
  // On-PMEM slot layout. First cache line: header + start of payload.
  struct Slot {
    std::atomic<uint64_t> lsn;     // 0 = invalid; written last
    uint32_t length;               // payload bytes used
    uint16_t op;                   // OpType | kOpValueCrc
    std::atomic<uint16_t> flags;
    // payload: arg0(8) arg1(8) klen(1) name(<=63)
    uint64_t arg0;
    uint64_t arg1;
    uint8_t klen;
    char name[kMaxNameLen];
    // Slot-index-seeded CRC32C over every field above except `flags` (which
    // legitimately mutates at commit/abort) — a record decoded from the
    // wrong slot fails its seed. Persisted in the same single-fence train
    // as the LSN; a crash that publishes the LSN line without this one
    // reads as a torn (CRC-failing, uncommitted) publication.
    uint32_t crc;
    uint32_t payload_crc;  // value CRC, else the physically-logged payload's, or 0
    uint8_t pad[24];
  };
  static_assert(sizeof(Slot) == kSlotSize, "slot must be exactly two cache lines");

  // The record checksum (lsn passed explicitly: it is computed before the
  // LSN field is stored).
  static uint32_t record_crc(const Slot* s, uint32_t slot, uint64_t lsn);
  static void set_flag(Slot* s, uint16_t flag);
  // The fields read() and decode_image() share, once the CRC checked out.
  static void decode(const Slot& s, uint64_t lsn, uint16_t flags, LogRecordView* out);
  // Stored in `op`'s high bits (so the record CRC covers it): payload_crc
  // is a value CRC.
  static constexpr uint16_t kOpValueCrc = 1u << 8;

  Slot* slot_ptr(uint32_t slot) const {
    return reinterpret_cast<Slot*>(pool_->base() + region_off_ + (uint64_t)slot * kSlotSize);
  }

  pmem::Pool* pool_ = nullptr;
  uint64_t region_off_ = 0;
  uint32_t slot_count_ = 0;
};

}  // namespace dstore::dipper
