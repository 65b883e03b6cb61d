// DStore wire protocol (DESIGN.md §15): a compact length-prefixed binary
// framing shared by the server, the client library and the loadgen.
//
// Every message — request or response — is one frame: a fixed 24-byte
// little-endian header followed by an opcode-specific body. Requests carry
// a connection-local req_id; the server echoes it in the response, and MAY
// complete pipelined requests out of order (slow ops like SCRUB run off
// the event loop), so clients match responses by req_id, never by arrival
// order — the same submit/complete contract as ssd::IoQueue.
//
//   offset size field
//   0      4    magic 0x50545344 ("DSTP" on the wire)
//   4      1    version (kVersion; mismatch is a connection error)
//   5      1    opcode (Op)
//   6      1    status — wire byte from common/status_codes.h; 0 in
//               requests, the op's outcome in responses
//   7      1    flags (sender zeroes, receiver ignores; reserved)
//   8      8    req_id
//   16     4    body_len (bytes after the header; bounded by max_frame)
//   20     4    reserved (sender zeroes, receiver ignores)
//
// Error codes never get invented at this layer: the status byte IS the
// dstore::Code ordinal (one table, common/status_codes.h), so a remote
// Status round-trips losslessly.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dstore::net {

inline constexpr uint32_t kMagic = 0x50545344;  // "DSTP" little-endian
inline constexpr uint8_t kVersion = 1;
inline constexpr size_t kHeaderBytes = 24;
// Default ceiling on body_len: a header claiming more is a protocol error,
// not an allocation — it bounds memory per connection against garbage or
// hostile headers.
inline constexpr size_t kDefaultMaxFrame = 4u << 20;

enum class Op : uint8_t {
  kOpenNs = 1,  // body: u16 name_len + name          -> u32 ns_id, u32 shard
  kPut = 2,     // body: u32 ns, u16 key_len, key, value -> empty
  kGet = 3,     // body: u32 ns, u16 key_len, key     -> value bytes
  kGetZc = 4,   // alias of kGet, answered under opcode 4
  kDelete = 5,  // body: u32 ns, u16 key_len, key     -> empty
  kScrub = 6,   // body: empty                        -> ScrubSummary
  kMetrics = 7, // body: u8 format (0 json, 1 prom)   -> text
  // Replication + liveness opcodes (DESIGN.md §16). HEARTBEAT doubles as a
  // client keepalive: any server answers it (repl-less servers echo zeros),
  // and it refreshes the idle-reaper clock like every other frame.
  kHeartbeat = 8,      // body: Heartbeat              -> ReplAck
  kReplSubscribe = 9,  // body: ReplHello              -> ReplSubscribeResult
                       //   (kind=kSnapPull            -> SnapChunk)
  kReplAppend = 10,    // body: ReplEntryWire          -> ReplAck (op kReplAck)
  kReplAck = 11,       // response opcode for append acks; never a request
  kPromote = 12,       // body: PromoteReq             -> PromoteResp
};

struct FrameHeader {
  uint8_t version = kVersion;
  Op op = Op::kPut;
  uint8_t status = 0;  // wire byte (status_codes.h)
  uint8_t flags = 0;
  uint64_t req_id = 0;
  uint32_t body_len = 0;
};

struct Frame {
  FrameHeader hdr;
  std::string body;
};

// ---- little-endian scalar helpers (explicit, host-order independent) -----

inline void put_u16(std::string* out, uint16_t v) {
  out->push_back((char)(v & 0xff));
  out->push_back((char)(v >> 8));
}
inline void put_u32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; i++) out->push_back((char)((v >> (8 * i)) & 0xff));
}
inline void put_u64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; i++) out->push_back((char)((v >> (8 * i)) & 0xff));
}
inline uint16_t get_u16(const uint8_t* p) { return (uint16_t)(p[0] | (uint16_t)p[1] << 8); }
inline uint32_t get_u32(const uint8_t* p) {
  return p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16 | (uint32_t)p[3] << 24;
}
inline uint64_t get_u64(const uint8_t* p) {
  return (uint64_t)get_u32(p) | (uint64_t)get_u32(p + 4) << 32;
}

// ---- frame encode --------------------------------------------------------

// Append one complete frame (header + body) to `out`.
void append_frame(std::string* out, Op op, uint64_t req_id, uint8_t status,
                  std::string_view body);
// Append only the header of a frame whose `body_len` body bytes the caller
// appends next (a body gathered from several pieces, without staging it).
void append_frame_header(std::string* out, Op op, uint64_t req_id, uint8_t status,
                         uint32_t body_len);

// Request-body builders. Key/namespace-name lengths are u16 on the wire;
// longer names are a caller bug surfaced by the bool parsers server-side.
std::string open_ns_body(std::string_view name);
std::string key_body(uint32_t ns, std::string_view key);  // get / get_zc / delete
std::string put_body(uint32_t ns, std::string_view key, const void* value, size_t size);
std::string metrics_body(uint8_t format);

// Response bodies with structure (get/metrics responses are raw bytes).
struct NamespaceInfo {
  uint32_t ns_id = 0;
  uint32_t shard = 0;
};
std::string open_ns_resp_body(const NamespaceInfo& info);

struct ScrubSummary {
  uint64_t objects_scanned = 0;
  uint64_t pages_verified = 0;
  uint64_t checksum_failures = 0;
  uint64_t repaired = 0;
  uint64_t quarantined_pages = 0;
};
std::string scrub_resp_body(const ScrubSummary& s);

// ---- replication messages (DESIGN.md §16) --------------------------------
//
// All integers little-endian like the rest of the wire. Keys are bounded by
// the store's 63-byte Key limit but the wire carries full u16 lengths — the
// parsers only enforce framing, the Node enforces semantics.

// HEARTBEAT request: the primary's liveness beacon (also a client keepalive).
struct Heartbeat {
  uint64_t epoch = 0;       // sender's current epoch (0 from plain clients)
  uint64_t node_id = 0;     // sender's node id (0 from plain clients)
  uint64_t commit_seq = 0;  // primary's quorum-committed watermark
};
std::string heartbeat_body(const Heartbeat& hb);
bool parse_heartbeat(std::string_view body, Heartbeat* hb);

// Generic ack carried by HEARTBEAT and REPL_ACK responses.
struct ReplAck {
  uint64_t epoch = 0;        // responder's epoch — higher fences the sender
  uint64_t applied_seq = 0;  // responder's last applied stream seq
  uint8_t accepted = 0;      // append accepted / heartbeat acknowledged
};
std::string repl_ack_body(const ReplAck& a);
bool parse_repl_ack(std::string_view body, ReplAck* a);

// REPL_SUBSCRIBE request. kind=kSubscribe opens (or re-opens) the stream
// from `seq` (= last applied + 1, with `last_epoch` = entry epoch at
// applied, for the log-matching check); kind=kSnapPull fetches the next
// resync snapshot chunk, `seq` reused as the chunk cursor.
struct ReplHello {
  static constexpr uint8_t kSubscribe = 0;
  static constexpr uint8_t kSnapPull = 1;
  uint8_t kind = kSubscribe;
  uint64_t epoch = 0;
  uint64_t node_id = 0;
  uint64_t seq = 0;        // from_seq (kSubscribe) or chunk cursor (kSnapPull)
  uint64_t last_epoch = 0; // entry epoch at seq-1 (kSubscribe only)
};
std::string repl_hello_body(const ReplHello& h);
bool parse_repl_hello(std::string_view body, ReplHello* h);

// REPL_SUBSCRIBE response (kind=kSubscribe).
struct ReplSubscribeResult {
  static constexpr uint8_t kStream = 0;    // appends will flow from base_seq+1
  static constexpr uint8_t kResync = 1;    // pull snapshot chunks first
  static constexpr uint8_t kRejected = 2;  // not primary / unknown node
  uint8_t result = kRejected;
  uint64_t epoch = 0;       // primary's epoch (follower adopts it)
  uint64_t primary_id = 0;  // leader hint on rejection
  uint64_t base_seq = 0;    // stream resumes from base_seq + 1
  uint64_t base_epoch = 0;  // entry epoch at base_seq (log-matching anchor)
};
std::string repl_subscribe_resp_body(const ReplSubscribeResult& r);
bool parse_repl_subscribe_resp(std::string_view body, ReplSubscribeResult* r);

// REPL_SUBSCRIBE response (kind=kSnapPull): one chunk of the resync
// snapshot. Items are (shard, key, offset, value) tuples: offset 0 applies
// as a fresh put; offset > 0 is a continuation piece of a value too large
// for one byte-budgeted chunk, which the follower splices in place at that
// offset. Chunks are budgeted by encoded bytes (never item count alone) so
// a chunk always fits under the transport's max_frame.
struct SnapItemView {
  uint32_t shard = 0;
  std::string_view key;
  std::string_view value;
  uint64_t offset = 0;  // byte offset of `value` within the full object
};
struct SnapChunk {
  uint64_t next_cursor = 0;
  uint8_t done = 0;
  std::vector<SnapItemView> items;  // views into the response body
};
std::string snap_chunk_body(uint64_t next_cursor, bool done,
                            const std::vector<SnapItemView>& items);
bool parse_snap_chunk(std::string_view body, SnapChunk* c);

// REPL_APPEND request: one replicated stream entry. Logged entries carry
// the raw 128-byte PMEM log slot image, whose slot-seeded CRC (PR 5)
// authenticates (op, key, args, payload_crc) end to end; unlogged entries
// (pure data overwrites) and noops ship without one. `value_crc` is
// crc32c over `value` — verified on receipt either way.
struct ReplEntryWire {
  static constexpr uint8_t kNoop = 1u << 0;      // aborted/lock entry: skip
  static constexpr uint8_t kUnlogged = 1u << 1;  // no log record (pure overwrite)
  uint64_t epoch = 0;        // sender's current epoch (fencing)
  uint64_t seq = 0;          // dense stream sequence number
  uint64_t entry_epoch = 0;  // epoch the entry was appended under
  uint8_t op = 0;            // dipper::OpType ordinal
  uint8_t eflags = 0;
  uint32_t shard = 0;        // target shard on the follower
  uint32_t slot = 0;         // log slot index (seeds the image CRC)
  uint64_t lsn = 0;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
  uint32_t value_crc = 0;
  std::string_view key;
  std::string_view slot_image;  // empty or exactly 128 bytes
  std::string_view value;
};
std::string repl_append_body(const ReplEntryWire& e);
bool parse_repl_append(std::string_view body, ReplEntryWire* e);

// PROMOTE request: kVote asks for an election vote, kClaim announces the
// winner. `seq`/`seq_epoch` are the sender's replicated position — voters
// only grant to candidates at least as caught up (highest replicated LSN
// wins, ties broken by node id).
struct PromoteReq {
  static constexpr uint8_t kVote = 0;
  static constexpr uint8_t kClaim = 1;
  uint8_t kind = kVote;
  uint64_t epoch = 0;
  uint64_t node_id = 0;
  uint64_t seq = 0;
  uint64_t seq_epoch = 0;
};
std::string promote_body(const PromoteReq& p);
bool parse_promote(std::string_view body, PromoteReq* p);

struct PromoteResp {
  uint8_t granted = 0;
  uint64_t epoch = 0;  // responder's (possibly higher) epoch
};
std::string promote_resp_body(const PromoteResp& p);
bool parse_promote_resp(std::string_view body, PromoteResp* p);

// ---- server-side replication handler -------------------------------------
//
// Implemented by repl::Node; net::Server dispatches the replication opcodes
// through it (declared here so net/ never depends on repl/). writable() and
// finish_write() let the server gate client writes on the node's role: a
// put/delete only acks once finish_write() reports quorum replication.
class ReplHandler {
 public:
  virtual ~ReplHandler() = default;
  virtual ReplAck handle_append(const ReplEntryWire& e) = 0;
  virtual ReplSubscribeResult handle_subscribe(const ReplHello& h) = 0;
  // Returns an encoded snap_chunk body; empty string = pull rejected.
  virtual std::string handle_snap_pull(const ReplHello& h) = 0;
  virtual ReplAck handle_heartbeat(const Heartbeat& hb) = 0;
  virtual PromoteResp handle_promote(const PromoteReq& p) = 0;
  // Write gating: writable() before the store op, finish_write() after it
  // (waits for quorum replication of the entry this thread just produced).
  virtual bool writable() = 0;
  virtual Status finish_write() = 0;
  // Split completion for servers that must not block their event loop on
  // follower RPCs: write_ticket() — called on the thread that ran the store
  // op — hands back that write's replication ticket (0 = role lost mid-op);
  // await_ticket() blocks until it is quorum-replicated and may run on any
  // thread. finish_write() == await_ticket(write_ticket()).
  virtual uint64_t write_ticket() = 0;
  virtual Status await_ticket(uint64_t ticket) = 0;
};

// Body parsers: false on malformed input (short body, length overrun).
// Views point into `body` — valid while it is.
bool parse_open_ns(std::string_view body, std::string_view* name);
bool parse_key(std::string_view body, uint32_t* ns, std::string_view* key);
bool parse_put(std::string_view body, uint32_t* ns, std::string_view* key,
               std::string_view* value);
bool parse_metrics(std::string_view body, uint8_t* format);
bool parse_open_ns_resp(std::string_view body, NamespaceInfo* info);
bool parse_scrub_resp(std::string_view body, ScrubSummary* s);

// ---- frame decode (stream parser) ----------------------------------------
//
// Incremental decoder over a byte stream: feed() whatever recv() produced,
// then drain complete frames with next(). Handles frames split across any
// number of reads. A malformed header (bad magic, wrong version, body_len
// over the limit) poisons the parser permanently — framing is lost, the
// connection must be torn down.
class FrameParser {
 public:
  explicit FrameParser(size_t max_frame_bytes = kDefaultMaxFrame)
      : max_frame_(max_frame_bytes) {}

  void feed(const void* data, size_t n) { buf_.append((const char*)data, n); }

  enum class Next { kFrame, kNeedMore, kError };
  Next next(Frame* out);

  // Set once next() returns kError; describes the first protocol fault.
  const Status& error() const { return error_; }
  size_t buffered() const { return buf_.size() - off_; }

 private:
  size_t max_frame_;
  std::string buf_;
  size_t off_ = 0;  // consumed prefix; compacted once it dominates
  Status error_ = Status::ok();
  bool poisoned_ = false;
};

}  // namespace dstore::net
