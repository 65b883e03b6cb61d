#include "net/wire.h"

namespace dstore::net {

void append_frame_header(std::string* out, Op op, uint64_t req_id, uint8_t status,
                         uint32_t body_len) {
  out->reserve(out->size() + kHeaderBytes + body_len);
  put_u32(out, kMagic);
  out->push_back((char)kVersion);
  out->push_back((char)op);
  out->push_back((char)status);
  out->push_back((char)0);  // flags
  put_u64(out, req_id);
  put_u32(out, body_len);
  put_u32(out, 0);  // reserved
}

void append_frame(std::string* out, Op op, uint64_t req_id, uint8_t status,
                  std::string_view body) {
  append_frame_header(out, op, req_id, status, (uint32_t)body.size());
  out->append(body.data(), body.size());
}

std::string open_ns_body(std::string_view name) {
  std::string b;
  put_u16(&b, (uint16_t)name.size());
  b.append(name.data(), name.size());
  return b;
}

std::string key_body(uint32_t ns, std::string_view key) {
  std::string b;
  put_u32(&b, ns);
  put_u16(&b, (uint16_t)key.size());
  b.append(key.data(), key.size());
  return b;
}

std::string put_body(uint32_t ns, std::string_view key, const void* value, size_t size) {
  std::string b = key_body(ns, key);
  b.append((const char*)value, size);
  return b;
}

std::string metrics_body(uint8_t format) { return std::string(1, (char)format); }

std::string open_ns_resp_body(const NamespaceInfo& info) {
  std::string b;
  put_u32(&b, info.ns_id);
  put_u32(&b, info.shard);
  return b;
}

std::string scrub_resp_body(const ScrubSummary& s) {
  std::string b;
  put_u64(&b, s.objects_scanned);
  put_u64(&b, s.pages_verified);
  put_u64(&b, s.checksum_failures);
  put_u64(&b, s.repaired);
  put_u64(&b, s.quarantined_pages);
  return b;
}

bool parse_open_ns(std::string_view body, std::string_view* name) {
  if (body.size() < 2) return false;
  uint16_t len = get_u16((const uint8_t*)body.data());
  if (body.size() != (size_t)2 + len) return false;
  *name = body.substr(2, len);
  return true;
}

bool parse_key(std::string_view body, uint32_t* ns, std::string_view* key) {
  if (body.size() < 6) return false;
  const uint8_t* p = (const uint8_t*)body.data();
  *ns = get_u32(p);
  uint16_t len = get_u16(p + 4);
  if (body.size() != (size_t)6 + len) return false;
  *key = body.substr(6, len);
  return true;
}

bool parse_put(std::string_view body, uint32_t* ns, std::string_view* key,
               std::string_view* value) {
  if (body.size() < 6) return false;
  const uint8_t* p = (const uint8_t*)body.data();
  *ns = get_u32(p);
  uint16_t len = get_u16(p + 4);
  if (body.size() < (size_t)6 + len) return false;
  *key = body.substr(6, len);
  *value = body.substr(6 + (size_t)len);
  return true;
}

bool parse_metrics(std::string_view body, uint8_t* format) {
  if (body.size() != 1) return false;
  *format = (uint8_t)body[0];
  return true;
}

bool parse_open_ns_resp(std::string_view body, NamespaceInfo* info) {
  if (body.size() != 8) return false;
  const uint8_t* p = (const uint8_t*)body.data();
  info->ns_id = get_u32(p);
  info->shard = get_u32(p + 4);
  return true;
}

bool parse_scrub_resp(std::string_view body, ScrubSummary* s) {
  if (body.size() != 40) return false;
  const uint8_t* p = (const uint8_t*)body.data();
  s->objects_scanned = get_u64(p);
  s->pages_verified = get_u64(p + 8);
  s->checksum_failures = get_u64(p + 16);
  s->repaired = get_u64(p + 24);
  s->quarantined_pages = get_u64(p + 32);
  return true;
}

// ---- replication messages (DESIGN.md §16) --------------------------------

std::string heartbeat_body(const Heartbeat& hb) {
  std::string b;
  put_u64(&b, hb.epoch);
  put_u64(&b, hb.node_id);
  put_u64(&b, hb.commit_seq);
  return b;
}

bool parse_heartbeat(std::string_view body, Heartbeat* hb) {
  if (body.size() != 24) return false;
  const uint8_t* p = (const uint8_t*)body.data();
  hb->epoch = get_u64(p);
  hb->node_id = get_u64(p + 8);
  hb->commit_seq = get_u64(p + 16);
  return true;
}

std::string repl_ack_body(const ReplAck& a) {
  std::string b;
  put_u64(&b, a.epoch);
  put_u64(&b, a.applied_seq);
  b.push_back((char)a.accepted);
  return b;
}

bool parse_repl_ack(std::string_view body, ReplAck* a) {
  if (body.size() != 17) return false;
  const uint8_t* p = (const uint8_t*)body.data();
  a->epoch = get_u64(p);
  a->applied_seq = get_u64(p + 8);
  a->accepted = p[16];
  return true;
}

std::string repl_hello_body(const ReplHello& h) {
  std::string b;
  b.push_back((char)h.kind);
  put_u64(&b, h.epoch);
  put_u64(&b, h.node_id);
  put_u64(&b, h.seq);
  put_u64(&b, h.last_epoch);
  return b;
}

bool parse_repl_hello(std::string_view body, ReplHello* h) {
  if (body.size() != 33) return false;
  const uint8_t* p = (const uint8_t*)body.data();
  h->kind = p[0];
  if (h->kind > ReplHello::kSnapPull) return false;
  h->epoch = get_u64(p + 1);
  h->node_id = get_u64(p + 9);
  h->seq = get_u64(p + 17);
  h->last_epoch = get_u64(p + 25);
  return true;
}

std::string repl_subscribe_resp_body(const ReplSubscribeResult& r) {
  std::string b;
  b.push_back((char)r.result);
  put_u64(&b, r.epoch);
  put_u64(&b, r.primary_id);
  put_u64(&b, r.base_seq);
  put_u64(&b, r.base_epoch);
  return b;
}

bool parse_repl_subscribe_resp(std::string_view body, ReplSubscribeResult* r) {
  if (body.size() != 33) return false;
  const uint8_t* p = (const uint8_t*)body.data();
  r->result = p[0];
  if (r->result > ReplSubscribeResult::kRejected) return false;
  r->epoch = get_u64(p + 1);
  r->primary_id = get_u64(p + 9);
  r->base_seq = get_u64(p + 17);
  r->base_epoch = get_u64(p + 25);
  return true;
}

std::string snap_chunk_body(uint64_t next_cursor, bool done,
                            const std::vector<SnapItemView>& items) {
  std::string b;
  put_u64(&b, next_cursor);
  b.push_back((char)(done ? 1 : 0));
  put_u32(&b, (uint32_t)items.size());
  for (const SnapItemView& it : items) {
    put_u32(&b, it.shard);
    put_u16(&b, (uint16_t)it.key.size());
    b.append(it.key.data(), it.key.size());
    put_u64(&b, it.offset);
    put_u32(&b, (uint32_t)it.value.size());
    b.append(it.value.data(), it.value.size());
  }
  return b;
}

bool parse_snap_chunk(std::string_view body, SnapChunk* c) {
  if (body.size() < 13) return false;
  const uint8_t* p = (const uint8_t*)body.data();
  c->next_cursor = get_u64(p);
  c->done = p[8];
  uint32_t count = get_u32(p + 9);
  c->items.clear();
  size_t off = 13;
  for (uint32_t i = 0; i < count; i++) {
    if (body.size() < off + 6) return false;
    SnapItemView it;
    it.shard = get_u32((const uint8_t*)body.data() + off);
    uint16_t klen = get_u16((const uint8_t*)body.data() + off + 4);
    off += 6;
    if (body.size() < off + klen + 12) return false;
    it.key = body.substr(off, klen);
    off += klen;
    it.offset = get_u64((const uint8_t*)body.data() + off);
    off += 8;
    uint32_t vlen = get_u32((const uint8_t*)body.data() + off);
    off += 4;
    if (body.size() < off + vlen) return false;
    it.value = body.substr(off, vlen);
    off += vlen;
    c->items.push_back(it);
  }
  return off == body.size();
}

std::string repl_append_body(const ReplEntryWire& e) {
  std::string b;
  put_u64(&b, e.epoch);
  put_u64(&b, e.seq);
  put_u64(&b, e.entry_epoch);
  b.push_back((char)e.op);
  b.push_back((char)e.eflags);
  put_u32(&b, e.shard);
  put_u32(&b, e.slot);
  put_u64(&b, e.lsn);
  put_u64(&b, e.arg0);
  put_u64(&b, e.arg1);
  put_u32(&b, e.value_crc);
  put_u16(&b, (uint16_t)e.key.size());
  b.append(e.key.data(), e.key.size());
  b.push_back((char)(e.slot_image.empty() ? 0 : 1));
  if (!e.slot_image.empty()) b.append(e.slot_image.data(), e.slot_image.size());
  put_u32(&b, (uint32_t)e.value.size());
  b.append(e.value.data(), e.value.size());
  return b;
}

bool parse_repl_append(std::string_view body, ReplEntryWire* e) {
  // Fixed prefix through the key length: 8*3 + 2 + 4*2 + 8 + 8*2 + 4 + 2 = 64.
  if (body.size() < 64) return false;
  const uint8_t* p = (const uint8_t*)body.data();
  e->epoch = get_u64(p);
  e->seq = get_u64(p + 8);
  e->entry_epoch = get_u64(p + 16);
  e->op = p[24];
  e->eflags = p[25];
  e->shard = get_u32(p + 26);
  e->slot = get_u32(p + 30);
  e->lsn = get_u64(p + 34);
  e->arg0 = get_u64(p + 42);
  e->arg1 = get_u64(p + 50);
  e->value_crc = get_u32(p + 58);
  uint16_t klen = get_u16(p + 62);
  size_t off = 64;
  if (body.size() < off + klen + 1) return false;
  e->key = body.substr(off, klen);
  off += klen;
  uint8_t has_image = (uint8_t)body[off];
  off += 1;
  if (has_image > 1) return false;
  if (has_image == 1) {
    if (body.size() < off + 128) return false;
    e->slot_image = body.substr(off, 128);
    off += 128;
  } else {
    e->slot_image = {};
  }
  if (body.size() < off + 4) return false;
  uint32_t vlen = get_u32((const uint8_t*)body.data() + off);
  off += 4;
  if (body.size() != off + vlen) return false;
  e->value = body.substr(off, vlen);
  return true;
}

std::string promote_body(const PromoteReq& p) {
  std::string b;
  b.push_back((char)p.kind);
  put_u64(&b, p.epoch);
  put_u64(&b, p.node_id);
  put_u64(&b, p.seq);
  put_u64(&b, p.seq_epoch);
  return b;
}

bool parse_promote(std::string_view body, PromoteReq* p) {
  if (body.size() != 33) return false;
  const uint8_t* d = (const uint8_t*)body.data();
  p->kind = d[0];
  if (p->kind > PromoteReq::kClaim) return false;
  p->epoch = get_u64(d + 1);
  p->node_id = get_u64(d + 9);
  p->seq = get_u64(d + 17);
  p->seq_epoch = get_u64(d + 25);
  return true;
}

std::string promote_resp_body(const PromoteResp& p) {
  std::string b;
  b.push_back((char)p.granted);
  put_u64(&b, p.epoch);
  return b;
}

bool parse_promote_resp(std::string_view body, PromoteResp* p) {
  if (body.size() != 9) return false;
  const uint8_t* d = (const uint8_t*)body.data();
  p->granted = d[0];
  p->epoch = get_u64(d + 1);
  return true;
}

FrameParser::Next FrameParser::next(Frame* out) {
  if (poisoned_) return Next::kError;
  if (buffered() < kHeaderBytes) return Next::kNeedMore;
  const uint8_t* p = (const uint8_t*)buf_.data() + off_;
  if (get_u32(p) != kMagic) {
    poisoned_ = true;
    error_ = Status::invalid_argument("bad frame magic — stream is not DSTP");
    return Next::kError;
  }
  if (p[4] != kVersion) {
    poisoned_ = true;
    error_ = Status::unsupported("wire protocol version " + std::to_string(p[4]) +
                                 " (this build speaks " + std::to_string(kVersion) + ")");
    return Next::kError;
  }
  uint32_t body_len = get_u32(p + 16);
  if (body_len > max_frame_) {
    poisoned_ = true;
    error_ = Status::invalid_argument("frame body " + std::to_string(body_len) +
                                      " bytes exceeds the " + std::to_string(max_frame_) +
                                      "-byte limit");
    return Next::kError;
  }
  if (buffered() < kHeaderBytes + body_len) return Next::kNeedMore;
  out->hdr.version = p[4];
  out->hdr.op = (Op)p[5];
  out->hdr.status = p[6];
  out->hdr.flags = p[7];
  out->hdr.req_id = get_u64(p + 8);
  out->hdr.body_len = body_len;
  out->body.assign((const char*)p + kHeaderBytes, body_len);
  off_ += kHeaderBytes + body_len;
  // Compact once the dead prefix dominates the buffer, amortized O(1).
  if (off_ > 4096 && off_ * 2 > buf_.size()) {
    buf_.erase(0, off_);
    off_ = 0;
  }
  return Next::kFrame;
}

}  // namespace dstore::net
