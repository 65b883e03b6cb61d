#include "repl/repl.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstring>

#include "common/crc32c.h"
#include "dipper/log.h"

namespace dstore::repl {

namespace {

// Tick-driven timers (the rig pumps on_tick() deterministically; TCP
// deployments run start_ticker()). A follower that hears nothing from a
// primary for kElectionTimeoutTicks campaigns, staggered by id rank so the
// highest-id up-to-date node campaigns first and wins ties.
constexpr uint32_t kHeartbeatEveryTicks = 1;
constexpr uint32_t kElectionTimeoutTicks = 5;
constexpr uint32_t kCandidacyStaggerTicks = 2;

// Re-entrancy channels between the store's write paths and the Node.
// tl_applying marks "this thread is replaying a stream/resync entry" so the
// sink hook inside the store does not re-ship it; tl_last_seq carries the
// stream seq the sink assigned to the write this thread just performed, so
// finish_write() knows what to await.
thread_local int tl_applying = 0;
thread_local uint64_t tl_last_seq = 0;

struct ApplyScope {
  ApplyScope() { tl_applying++; }
  ~ApplyScope() { tl_applying--; }
};

}  // namespace

// ---- MetaStore -----------------------------------------------------------

MetaStore::State MetaStore::load() {
  if (pool_ == nullptr) return vol_;
  State out{};
  version_ = 0;
  for (int i = 0; i < 2; i++) {
    Rec r;
    std::memcpy(&r, pool_->base() + off_ + (uint64_t)i * 64, sizeof(Rec));
    if (r.version == 0 || crc32c(&r, offsetof(Rec, crc)) != r.crc) continue;
    if (r.version <= version_) continue;
    version_ = r.version;
    out.epoch = r.epoch;
    out.voted_epoch = r.voted_epoch;
    out.voted_for = r.voted_for;
    out.applied_seq = r.applied_seq;
    out.applied_epoch = r.applied_epoch;
    out.flags = r.flags;
  }
  return out;
}

void MetaStore::persist(const State& st) {
  if (pool_ == nullptr) {
    vol_ = st;
    return;
  }
  Rec r{};
  r.version = ++version_;
  r.epoch = st.epoch;
  r.voted_epoch = st.voted_epoch;
  r.voted_for = st.voted_for;
  r.applied_seq = st.applied_seq;
  r.applied_epoch = st.applied_epoch;
  r.flags = st.flags;
  r.crc = crc32c(&r, offsetof(Rec, crc));
  char* dst = pool_->base() + off_ + (version_ % 2) * 64;
  std::memcpy(dst, &r, sizeof(Rec));
  pool_->persist(dst, sizeof(Rec));
}

// ---- Node lifecycle ------------------------------------------------------

Node::Node(NodeConfig cfg) : cfg_(cfg) {
  meta_.attach(cfg_.meta_pool, cfg_.meta_off);
  MetaStore::State st = meta_.load();
  bool fresh = st.epoch == 0;
  epoch_ = fresh ? cfg_.initial_epoch : st.epoch;
  voted_epoch_ = st.voted_epoch;
  voted_for_ = st.voted_for;
  applied_seq_ = st.applied_seq;
  applied_epoch_ = st.applied_epoch;
  tainted_ = (st.flags & MetaStore::kFlagWasPrimary) != 0;
  if (cfg_.start_as_primary && fresh) {
    role_ = Role::kPrimary;
    primary_id_ = cfg_.node_id;
    tainted_ = true;
    next_seq_ = committed_floor_ = commit_seq_ = buffer_base_ = applied_seq_;
    floor_epoch_ = applied_epoch_;
  } else {
    role_ = Role::kFollower;
    primary_id_ = cfg_.initial_primary;
  }
  persist_meta_locked();  // ctor is single-threaded; seals the initial epoch
  mirror_locked();

  m_shipped_ = metrics_.counter("repl_entries_shipped_total",
                                "stream entries acked by a follower");
  m_applied_ = metrics_.counter("repl_entries_applied_total",
                                "stream entries applied to the local store");
  m_acks_ = metrics_.counter("repl_acks_total",
                             "client writes acked after quorum replication");
  m_rejects_ = metrics_.counter("repl_append_rejects_total",
                                "appends rejected (stale epoch, gap, bad CRC)");
  m_resyncs_ = metrics_.counter("repl_resyncs_total",
                                "checkpoint resyncs ordered for followers");
  m_elections_ = metrics_.counter("repl_elections_total", "candidacies started");
  m_heartbeats_ = metrics_.counter("repl_heartbeats_total",
                                   "valid primary heartbeats received");
  m_snap_items_ = metrics_.counter("repl_snapshot_items_total",
                                   "objects served in resync snapshot chunks");
  metrics_.gauge_fn("repl_epoch", "current replication epoch (term)",
                    [this] { return (double)a_epoch_.load(std::memory_order_relaxed); });
  metrics_.gauge_fn("repl_role", "0=follower 1=candidate 2=primary",
                    [this] { return (double)a_role_.load(std::memory_order_relaxed); });
  metrics_.gauge_fn("repl_commit_seq", "quorum-replicated stream watermark",
                    [this] { return (double)a_commit_.load(std::memory_order_relaxed); });
  metrics_.gauge_fn("repl_applied_seq", "last stream seq applied locally",
                    [this] { return (double)a_applied_.load(std::memory_order_relaxed); });
  metrics_.gauge_fn("repl_followers_in_sync", "followers streaming (primary only)",
                    [this] { return (double)a_insync_.load(std::memory_order_relaxed); });
}

Node::~Node() { stop_ticker(); }

void Node::add_peer(uint64_t id, PeerRpc* rpc) {
  MutexGuard g(mu_);
  PeerState p;
  p.id = id;
  p.rpc = rpc;
  peers_.push_back(std::move(p));
}

void Node::start_ticker(uint32_t interval_ms) {
  stop_ticker();
  ticker_stop_.store(false);
  ticker_ = std::thread([this, interval_ms] {
    while (!ticker_stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      if (ticker_stop_.load(std::memory_order_relaxed)) break;
      on_tick();
    }
  });
}

void Node::stop_ticker() {
  ticker_stop_.store(true);
  if (ticker_.joinable()) ticker_.join();
}

void Node::reset_after_recovery() {
  MutexGuard g(mu_);
  MetaStore::State st = meta_.load();
  epoch_ = st.epoch != 0 ? st.epoch : cfg_.initial_epoch;
  voted_epoch_ = st.voted_epoch;
  voted_for_ = st.voted_for;
  applied_seq_ = st.applied_seq;
  applied_epoch_ = st.applied_epoch;
  tainted_ = (st.flags & MetaStore::kFlagWasPrimary) != 0;
  // Whatever we were before the power failure, we come back as a follower:
  // a surviving primary's epoch (or a fresh election) decides leadership.
  role_ = Role::kFollower;
  primary_id_ = 0;
  buffer_.clear();
  buffer_base_ = next_seq_ = committed_floor_ = commit_seq_ = 0;
  floor_epoch_ = 0;
  leader_commit_ = 0;
  last_tick_applied_ = 0;
  synced_ = false;
  apply_busy_ = false;
  ticks_since_leader_ = 0;
  ticks_since_hb_ = 0;
  for (auto& p : peers_) {
    p.subscribed = p.in_sync = p.shipping = false;
    p.fails = 0;
    p.acked = 0;
    p.snapshot.clear();
    p.snapshot_pending = false;
    p.snap_next = p.snap_off = 0;
  }
  repl_cv_.notify_all();
  mirror_locked();
}

// ---- shared helpers (mu_ held) -------------------------------------------

Node::PeerState* Node::find_peer_locked(uint64_t id) {
  for (auto& p : peers_)
    if (p.id == id) return &p;
  return nullptr;
}

void Node::advance_floor_locked() {
  uint64_t was = committed_floor_;
  while (committed_floor_ < next_seq_) {
    size_t idx = committed_floor_ - buffer_base_;
    if (idx >= buffer_.size()) break;
    Entry& e = buffer_[idx];
    if (e.st == Entry::St::kPending) break;
    committed_floor_++;
    floor_epoch_ = e.epoch;
  }
  // The floor is the primary's replicated position (see persist_meta_locked)
  // and every client ack waits for commit_seq_ ≤ floor, so persisting here
  // — before any ack can be sent — keeps the durable position ahead of
  // every acked write even across a power failure.
  if (committed_floor_ != was) {
    if (role_ == Role::kPrimary) persist_meta_locked();
    repl_cv_.notify_all();
  }
}

void Node::recompute_commit_locked() {
  uint32_t need = quorum();
  uint64_t s;
  if (need <= 1) {
    s = committed_floor_;
  } else {
    std::vector<uint64_t> acks;
    acks.reserve(peers_.size());
    // Only peers actively streaming attest a durable position: a follower's
    // acked is set from its own persisted applied position (subscribe hello
    // or a confirmed append). A peer mid-resync or with its link down holds
    // nothing we can count toward the quorum — serving snapshot bytes in
    // particular proves nothing about durability on the other end.
    for (auto& p : peers_)
      acks.push_back(p.subscribed && p.in_sync ? p.acked : 0);
    std::sort(acks.begin(), acks.end(), std::greater<uint64_t>());
    uint32_t others = need - 1;  // besides self
    s = others <= acks.size() ? std::min(committed_floor_, acks[others - 1]) : 0;
  }
  if (s > commit_seq_) {
    commit_seq_ = s;
    repl_cv_.notify_all();
  }
}

void Node::trim_buffer_locked() {
  // Hold the buffer for every streaming follower's ack and every parked
  // resync base; beyond ship_window, laggards fall out and must resync.
  uint64_t min_acked = committed_floor_;
  for (auto& p : peers_) {
    if (p.subscribed && p.in_sync) min_acked = std::min(min_acked, p.acked);
    if (p.snapshot_pending) min_acked = std::min(min_acked, p.snap_base_seq);
  }
  while (!buffer_.empty() && buffer_base_ < min_acked &&
         buffer_.front().st != Entry::St::kPending) {
    buffer_.pop_front();
    buffer_base_++;
  }
  while (buffer_.size() > cfg_.ship_window &&
         buffer_.front().st != Entry::St::kPending) {
    buffer_.pop_front();
    buffer_base_++;
  }
}

void Node::persist_meta_locked() {
  MetaStore::State st;
  st.epoch = epoch_;
  st.voted_epoch = voted_epoch_;
  st.voted_for = voted_for_;
  // A primary's replicated position lives in its decided floor (applied_seq_
  // stops advancing while it leads). Persisting the floor keeps the position
  // this node attests in elections truthful after a power failure: a revived
  // ex-primary that understated it would grant votes to candidates missing
  // acked writes, breaking the ack-quorum ∩ vote-quorum intersection.
  st.applied_seq = role_ == Role::kPrimary ? committed_floor_ : applied_seq_;
  st.applied_epoch = role_ == Role::kPrimary ? floor_epoch_ : applied_epoch_;
  st.flags = tainted_ ? MetaStore::kFlagWasPrimary : 0;
  meta_.persist(st);
}

void Node::mirror_locked() {
  a_role_.store((uint64_t)role_, std::memory_order_relaxed);
  a_epoch_.store(epoch_, std::memory_order_relaxed);
  a_applied_.store(applied_seq_, std::memory_order_relaxed);
  a_commit_.store(commit_seq_, std::memory_order_relaxed);
  uint64_t in_sync = 0;
  for (auto& p : peers_)
    if (p.subscribed && p.in_sync) in_sync++;
  a_insync_.store(in_sync, std::memory_order_relaxed);
}

void Node::demote_primary_locked() {
  // The ex-primary's vote-weight position is its decided floor: carrying it
  // into (applied_seq, applied_epoch) keeps this voter denying candidates
  // that would lose acked writes. The primary stream state dies with the
  // role — after the (mandatory, tainted) resync it restarts from scratch.
  applied_seq_ = committed_floor_;
  applied_epoch_ = floor_epoch_;
  buffer_.clear();
  buffer_base_ = next_seq_ = committed_floor_ = commit_seq_ = 0;
  floor_epoch_ = 0;
}

void Node::adopt_epoch_locked(uint64_t e) {
  if (e <= epoch_) return;
  epoch_ = e;
  if (role_ != Role::kFollower) {
    if (role_ == Role::kPrimary) demote_primary_locked();
    role_ = Role::kFollower;
    primary_id_ = 0;
    synced_ = false;
    ticks_since_leader_ = 0;
    repl_cv_.notify_all();  // waiters in await_replication see the role loss
  }
  persist_meta_locked();
  mirror_locked();
}

void Node::step_down_locked(uint64_t new_primary) {
  if (role_ == Role::kPrimary) {
    demote_primary_locked();
    persist_meta_locked();
    repl_cv_.notify_all();
  }
  role_ = Role::kFollower;
  primary_id_ = new_primary;
  synced_ = false;
  ticks_since_leader_ = 0;
  mirror_locked();
}

// ---- ReplSink (primary write path) ---------------------------------------

uint64_t Node::prepare(Mutation m) {
  if (tl_applying > 0) return 0;  // stream replay / resync: don't re-ship
  // Cheap pre-check before the lock: a demoted node's in-flight writers
  // must not contend with an apply that may be waiting on their per-key
  // exclusion (repl.node is never held across store ops, but writers here
  // still hold store-side exclusions).
  if (a_role_.load(std::memory_order_relaxed) != (uint64_t)Role::kPrimary) return 0;
  // Hashed before the lock, so concurrent writers do not queue behind it.
  const uint32_t value_crc = crc32c(m.value.data(), m.value.size());
  MutexGuard g(mu_);
  if (role_ != Role::kPrimary) return 0;
  Entry e;
  e.seq = ++next_seq_;
  e.epoch = epoch_;
  e.op = m.op;
  e.shard = m.shard;
  e.slot = m.slot;
  e.lsn = m.lsn;
  e.arg0 = m.arg0;
  e.arg1 = m.arg1;
  if (m.unlogged) e.eflags |= net::ReplEntryWire::kUnlogged;
  e.key = std::move(m.key);
  e.value = std::move(m.value);
  e.value_crc = value_crc;
  if (m.slot_image != nullptr && !m.unlogged)
    e.slot_image.assign((const char*)m.slot_image, dipper::PmemLog::kSlotSize);
  tl_last_seq = e.seq;
  buffer_.push_back(std::move(e));
  return buffer_.back().seq;
}

void Node::commit(uint64_t ticket) {
  MutexGuard g(mu_);
  if (ticket <= buffer_base_) return;
  size_t idx = ticket - buffer_base_ - 1;
  if (idx >= buffer_.size()) return;
  buffer_[idx].st = Entry::St::kCommitted;
  advance_floor_locked();
  mirror_locked();
}

void Node::abort(uint64_t ticket) {
  MutexGuard g(mu_);
  if (ticket <= buffer_base_) return;
  size_t idx = ticket - buffer_base_ - 1;
  if (idx >= buffer_.size()) return;
  Entry& e = buffer_[idx];
  e.st = Entry::St::kAborted;
  e.eflags |= net::ReplEntryWire::kNoop;
  e.value.clear();
  e.slot_image.clear();
  e.value_crc = crc32c(e.value.data(), 0);
  advance_floor_locked();
  mirror_locked();
}

// ---- client-facing operations --------------------------------------------

Status Node::put(std::string_view key, const void* value, size_t size) {
  {
    MutexGuard g(mu_);
    if (role_ != Role::kPrimary)
      return Status::read_only("not the primary; leader hint node " +
                               std::to_string(primary_id_));
  }
  tl_last_seq = 0;
  DSTORE_RETURN_IF_ERROR(store_->put(key, value, size));
  return finish_write();
}

Status Node::del(std::string_view key) {
  {
    MutexGuard g(mu_);
    if (role_ != Role::kPrimary)
      return Status::read_only("not the primary; leader hint node " +
                               std::to_string(primary_id_));
  }
  tl_last_seq = 0;
  DSTORE_RETURN_IF_ERROR(store_->del(key));
  return finish_write();
}

Result<size_t> Node::get(std::string_view key, void* buf, size_t cap) {
  return store_->get(key, buf, cap);
}

uint64_t Node::write_ticket() {
  uint64_t seq = tl_last_seq;
  tl_last_seq = 0;
  return seq;
}

Status Node::await_ticket(uint64_t ticket) {
  if (ticket == 0)
    return Status::busy("write not replicated: primary role lost mid-operation");
  return await_replication(ticket);
}

Status Node::finish_write() { return await_ticket(write_ticket()); }

Status Node::await_replication(uint64_t seq) {
  // Phase 1: wait for every entry up to `seq` to be decided (concurrent
  // writers commit through the sink as their store ops finish; they signal
  // repl_cv_ through advance_floor_locked).
  {
    UniqueLock l(mu_);
    while (committed_floor_ < seq) {
      if (role_ != Role::kPrimary)
        return Status::read_only("stepped down during replication");
      repl_cv_.wait_for(l, std::chrono::milliseconds(1), [&] {
        return committed_floor_ >= seq || role_ != Role::kPrimary;
      });
    }
  }
  // Phase 2: ship the decided backlog and wait for the quorum watermark to
  // cover `seq`. Under concurrent writers another thread may hold a peer's
  // shipping slot — losing that race means waiting for its acks (which
  // advance commit_seq_ for this entry too), not failing the write; the
  // periodic re-ship covers the window where the other shipper returned
  // before this entry was decided. Only a genuinely unreachable quorum
  // (ack_timeout_ms elapsed) or a role loss surfaces to the client.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(cfg_.ack_timeout_ms);
  for (;;) {
    ship_committed();
    UniqueLock l(mu_);
    if (commit_seq_ >= seq) {
      m_acks_->inc();
      return Status::ok();
    }
    if (role_ != Role::kPrimary)
      return Status::read_only("stepped down during replication");
    if (cfg_.ack_timeout_ms == 0 || std::chrono::steady_clock::now() >= deadline)
      return Status::busy("replication quorum unreachable at seq " +
                          std::to_string(seq));
    repl_cv_.wait_for(l, std::chrono::milliseconds(5), [&] {
      return commit_seq_ >= seq || role_ != Role::kPrimary;
    });
  }
}

// ---- primary: shipping ---------------------------------------------------

void Node::ship_committed() {
  std::vector<PeerState*> ps;
  {
    MutexGuard g(mu_);
    if (role_ != Role::kPrimary) return;
    for (auto& p : peers_) ps.push_back(&p);
  }
  for (auto* p : ps) ship_to_peer(p);
  MutexGuard g(mu_);
  recompute_commit_locked();
  trim_buffer_locked();
  mirror_locked();
}

void Node::ship_to_peer(PeerState* p) {
  for (size_t rounds = 0; rounds < cfg_.ship_window + 16; rounds++) {
    net::ReplEntryWire w;
    std::string key, value, image;
    PeerRpc* rpc = nullptr;
    uint64_t seq = 0;
    {
      MutexGuard g(mu_);
      if (role_ != Role::kPrimary) return;
      if (!p->subscribed || !p->in_sync || p->shipping) return;
      uint64_t next = p->acked + 1;
      if (next > committed_floor_) return;  // fully caught up
      if (next <= buffer_base_) {
        // The backlog outran the window: force a checkpoint resync (the
        // follower's next hello gets kResync).
        p->subscribed = false;
        p->in_sync = false;
        return;
      }
      const Entry& e = buffer_[next - buffer_base_ - 1];
      key = e.key;
      value = e.value;
      image = e.slot_image;
      w.epoch = epoch_;
      w.seq = e.seq;
      w.entry_epoch = e.epoch;
      w.op = e.op;
      w.eflags = e.eflags;
      w.shard = e.shard;
      w.slot = e.slot;
      w.lsn = e.lsn;
      w.arg0 = e.arg0;
      w.arg1 = e.arg1;
      w.value_crc = e.value_crc;
      w.key = key;
      w.value = value;
      w.slot_image = image;
      seq = e.seq;
      p->shipping = true;
      rpc = p->rpc;
    }
    auto r = rpc->append(w);
    MutexGuard g(mu_);
    p->shipping = false;
    if (!r.is_ok()) {
      if (++p->fails >= 3) p->in_sync = false;  // link down; hello resumes
      return;
    }
    const net::ReplAck& a = r.value();
    if (a.epoch > epoch_) {
      adopt_epoch_locked(a.epoch);
      return;
    }
    if (a.accepted != 0) {
      p->fails = 0;
      uint64_t reached = std::max(seq, a.applied_seq);
      if (reached > p->acked) p->acked = reached;
      m_shipped_->inc();
      recompute_commit_locked();
      continue;
    }
    // Rejected (gap / CRC / local IO): rewind to the follower's applied
    // position and retry; persistent rejection falls back to resync.
    if (++p->fails >= 8) {
      p->in_sync = false;
      return;
    }
    p->acked = a.applied_seq;
  }
}

void Node::send_heartbeats() {
  net::Heartbeat hb;
  std::vector<PeerRpc*> rpcs;
  {
    MutexGuard g(mu_);
    if (role_ != Role::kPrimary) return;
    hb.epoch = epoch_;
    hb.node_id = cfg_.node_id;
    hb.commit_seq = commit_seq_;
    for (auto& p : peers_) rpcs.push_back(p.rpc);
  }
  uint64_t max_epoch = 0;
  for (auto* r : rpcs) {
    auto a = r->heartbeat(hb);
    if (a.is_ok() && a.value().epoch > max_epoch) max_epoch = a.value().epoch;
  }
  MutexGuard g(mu_);
  if (max_epoch > epoch_) adopt_epoch_locked(max_epoch);
}

void Node::build_snapshot(std::vector<SnapItem>* out) {
  // Runs WITHOUT mu_ (store reads wait on per-key write exclusions; holding
  // the node lock here could deadlock with a writer parked in prepare()).
  // The base seq is captured before the scan, so the snapshot reflects at
  // least every entry ≤ base; later entries re-apply idempotently.
  out->clear();
  for (int sidx = 0; sidx < store_->num_shards(); sidx++) {
    std::vector<std::pair<std::string, uint64_t>> names;
    store_->shard(sidx).list([&](std::string_view n, uint64_t sz) {
      names.emplace_back(std::string(n), sz);
      return true;
    });
    for (auto& [name, sz] : names) {
      SnapItem it;
      it.shard = (uint32_t)sidx;
      it.key = name;
      it.value.resize(sz);
      auto r = store_->get_on(nullptr, sidx, name, it.value.data(), sz);
      if (!r.is_ok()) continue;  // deleted mid-scan; a later entry covers it
      it.value.resize(std::min<size_t>(r.value(), sz));
      out->push_back(std::move(it));
    }
  }
}

// ---- ReplHandler: server-side opcodes ------------------------------------

net::ReplAck Node::handle_append(const net::ReplEntryWire& w) {
  net::ReplAck ack;
  net::ReplEntryWire copy;
  std::string key(w.key), value(w.value), image(w.slot_image);
  {
    MutexGuard g(mu_);
    DSTORE_FAULT_POINT(cfg_.fault, "repl.append");
    ack.epoch = epoch_;
    ack.applied_seq = applied_seq_;
    if (w.epoch < epoch_) {  // the epoch fence: stale primary rejected
      m_rejects_->inc();
      return ack;
    }
    if (w.epoch > epoch_) adopt_epoch_locked(w.epoch);
    if (role_ != Role::kFollower) step_down_locked(primary_id_);
    ticks_since_leader_ = 0;
    ack.epoch = epoch_;
    if (w.seq <= applied_seq_) {  // duplicate after a retry
      ack.accepted = 1;
      return ack;
    }
    if (w.seq != applied_seq_ + 1 || apply_busy_) {  // gap, or apply in flight
      m_rejects_->inc();
      return ack;
    }
    if (!verify_entry(w)) {
      m_rejects_->inc();
      return ack;
    }
    apply_busy_ = true;
    copy = w;
    copy.key = key;
    copy.value = value;
    copy.slot_image = image;
    // Taint intent, durably, BEFORE the store mutation: if power fails
    // between the apply and the post-apply meta persist, the store is one
    // entry ahead of (applied_seq, applied_epoch) — possibly across a fork.
    // The taint forces a resync on rejoin instead of a silent divergence.
    if (!tainted_ && (copy.eflags & net::ReplEntryWire::kNoop) == 0) {
      tainted_ = true;
      persist_meta_locked();
    }
  }
  Status s = (copy.eflags & net::ReplEntryWire::kNoop) != 0 ? Status::ok()
                                                            : apply_entry(copy);
  MutexGuard g(mu_);
  apply_busy_ = false;
  if (!s.is_ok()) {
    ack.applied_seq = applied_seq_;
    return ack;  // primary rewinds/retries; the taint stands until a resync
  }
  applied_seq_ = copy.seq;
  applied_epoch_ = copy.entry_epoch;
  tainted_ = false;  // store and meta agree again as of this persist
  synced_ = true;
  persist_meta_locked();
  m_applied_->inc();
  mirror_locked();
  ack.applied_seq = applied_seq_;
  ack.accepted = 1;
  return ack;
}

bool Node::verify_entry(const net::ReplEntryWire& w) const {
  if (crc32c(w.value.data(), w.value.size()) != w.value_crc) return false;
  if ((w.eflags & (net::ReplEntryWire::kNoop | net::ReplEntryWire::kUnlogged)) != 0)
    return true;  // no log record to authenticate
  if (w.slot_image.size() != dipper::PmemLog::kSlotSize) return false;
  dipper::LogRecordView v;
  if (!dipper::PmemLog::decode_image(w.slot_image.data(), w.slot, &v)) return false;
  if (v.lsn != w.lsn || (uint8_t)v.op != w.op) return false;
  if (v.arg0 != w.arg0 || v.arg1 != w.arg1) return false;
  if (v.name.str() != w.key) return false;
  // Cross-check the record's payload checksum against the shipped value
  // where the log recorded one (oput's content seal).
  if (v.payload_crc != 0 && v.op == dipper::OpType::kPut &&
      v.payload_crc != w.value_crc)
    return false;
  return true;
}

Status Node::apply_entry(const net::ReplEntryWire& w) {
  ApplyScope scope;
  int shard = (int)w.shard;
  if (shard < 0 || shard >= store_->num_shards())
    return Status::invalid_argument("stream entry for unknown shard");
  std::string key(w.key);
  switch ((dipper::OpType)w.op) {
    case dipper::OpType::kPut:
      return store_->put_on(nullptr, shard, key, w.value.data(), w.value.size());
    case dipper::OpType::kDelete: {
      Status s = store_->del_on(nullptr, shard, key);
      if (s.code() == Code::kNotFound) return Status::ok();  // resync overlap
      return s;
    }
    case dipper::OpType::kCreate: {
      DStore& d = store_->shard(shard);
      auto o = d.oopen(nullptr, key, w.arg0, kWrite | kCreate);
      if (!o.is_ok()) return o.status();
      d.oclose(o.value());
      return Status::ok();
    }
    case dipper::OpType::kWrite: {
      DStore& d = store_->shard(shard);
      auto o = d.oopen(nullptr, key, 0, kWrite | kCreate);
      if (!o.is_ok()) return o.status();
      auto r = d.owrite(o.value(), w.value.data(), w.value.size(), w.arg1);
      d.oclose(o.value());
      return r.is_ok() ? Status::ok() : r.status();
    }
    default:
      return Status::ok();  // kNoop
  }
}

net::ReplSubscribeResult Node::handle_subscribe(const net::ReplHello& h) {
  net::ReplSubscribeResult resp;
  uint64_t base_seq = 0, base_epoch = 0;
  {
    MutexGuard g(mu_);
    DSTORE_FAULT_POINT(cfg_.fault, "repl.subscribe");
    resp.epoch = epoch_;
    resp.primary_id = primary_id_;
    if (h.epoch > epoch_) adopt_epoch_locked(h.epoch);
    if (role_ != Role::kPrimary) {
      resp.result = net::ReplSubscribeResult::kRejected;
      resp.epoch = epoch_;
      return resp;
    }
    PeerState* p = find_peer_locked(h.node_id);
    if (p == nullptr) {
      resp.result = net::ReplSubscribeResult::kRejected;
      return resp;
    }
    resp.epoch = epoch_;
    resp.primary_id = cfg_.node_id;
    // Log matching: stream iff the follower's (seq-1, last_epoch) anchor
    // matches our history; anything else (divergence, out-of-window lag)
    // goes through a checkpoint resync.
    bool chain_ok = false;
    if (h.seq == committed_floor_ + 1) {
      chain_ok = committed_floor_ == 0 || h.last_epoch == floor_epoch_;
    } else if (h.seq == 1 && buffer_base_ == 0) {
      chain_ok = true;  // empty follower, full history still buffered
    } else if (h.seq >= buffer_base_ + 2 && h.seq <= committed_floor_) {
      chain_ok = buffer_[h.seq - 2 - buffer_base_].epoch == h.last_epoch;
    }
    if (chain_ok) {
      p->subscribed = true;
      p->in_sync = true;
      p->fails = 0;
      p->acked = h.seq - 1;
      p->snapshot.clear();
      p->snapshot_pending = false;
      p->snap_next = p->snap_off = 0;
      recompute_commit_locked();
      mirror_locked();
      resp.result = net::ReplSubscribeResult::kStream;
      resp.base_seq = h.seq - 1;
      resp.base_epoch = h.last_epoch;
      return resp;
    }
    p->subscribed = false;
    p->in_sync = false;
    base_seq = committed_floor_;
    base_epoch = floor_epoch_;
    m_resyncs_->inc();
  }
  // Build the snapshot outside the lock (store reads can wait on writers
  // that are themselves parked in prepare()).
  std::vector<SnapItem> snap;
  build_snapshot(&snap);
  MutexGuard g(mu_);
  PeerState* p = find_peer_locked(h.node_id);
  if (p == nullptr || role_ != Role::kPrimary) {
    resp.result = net::ReplSubscribeResult::kRejected;
    resp.epoch = epoch_;
    return resp;
  }
  p->snapshot = std::move(snap);
  p->snapshot_pending = true;
  p->snap_base_seq = base_seq;
  p->snap_base_epoch = base_epoch;
  p->snap_next = p->snap_off = 0;
  resp.result = net::ReplSubscribeResult::kResync;
  resp.base_seq = base_seq;
  resp.base_epoch = base_epoch;
  return resp;
}

std::string Node::handle_snap_pull(const net::ReplHello& h) {
  MutexGuard g(mu_);
  if (role_ != Role::kPrimary) return std::string();
  PeerState* p = find_peer_locked(h.node_id);
  if (p == nullptr || !p->snapshot_pending) return std::string();
  uint64_t cursor = h.seq;
  if (cursor > p->snapshot.size()) return std::string();
  if (cursor != p->snap_next) {
    // Rewind/restart: re-serve that item from its first byte. The follower
    // re-applies pieces idempotently.
    p->snap_next = cursor;
    p->snap_off = 0;
  }
  // Budget the chunk by ENCODED bytes, never item count alone: the body
  // must stay under the transport's frame cap or the follower's FrameParser
  // poisons and the resync can never complete. A value larger than the
  // budget streams as continuation pieces (offset > 0) across chunks.
  const size_t budget = std::max<size_t>(cfg_.snapshot_chunk_bytes, 256);
  size_t used = 13;  // chunk header: cursor + done + count
  std::vector<net::SnapItemView> items;
  uint64_t idx = p->snap_next;
  uint64_t off = p->snap_off;
  uint64_t completed = 0;
  while (idx < p->snapshot.size() && items.size() < cfg_.snapshot_chunk_items) {
    const SnapItem& it = p->snapshot[idx];
    size_t overhead = 6 + it.key.size() + 12;  // shard+klen+key+offset+vlen
    if (!items.empty() && used + overhead >= budget) break;
    size_t room = budget > used + overhead ? budget - used - overhead : 0;
    size_t piece = std::min<size_t>(it.value.size() - off, room);
    items.push_back({it.shard, it.key,
                     std::string_view(it.value).substr(off, piece), off});
    used += overhead + piece;
    off += piece;
    if (off < it.value.size()) break;  // chunk full mid-value
    idx++;
    off = 0;
    completed++;
  }
  p->snap_next = idx;
  p->snap_off = off;
  bool done = idx >= p->snapshot.size() && off == 0;
  m_snap_items_->add(completed);
  // Serialize BEFORE retiring the snapshot — the views point into it.
  std::string body = net::snap_chunk_body(idx, done, items);
  if (done) {
    // The follower now installs base_seq locally and re-subscribes from
    // base_seq + 1. Only that subscribe — anchored at the follower's own
    // persisted applied position — may advance p->acked: serving bytes
    // proves nothing about what the other end received or persisted, so
    // the quorum watermark must not move here (an "acked" write could
    // otherwise be durable on this node alone). snapshot_pending stays set
    // so trim_buffer_locked keeps the stream buffer anchored at
    // snap_base_seq until the re-subscribe lands (bounded by ship_window).
    p->snapshot.clear();
  }
  return body;
}

net::ReplAck Node::handle_heartbeat(const net::Heartbeat& hb) {
  MutexGuard g(mu_);
  net::ReplAck ack;
  ack.epoch = epoch_;
  ack.applied_seq = applied_seq_;
  if (hb.epoch < epoch_) return ack;  // stale primary learns our epoch
  if (hb.epoch > epoch_) adopt_epoch_locked(hb.epoch);
  if (hb.node_id != 0 && hb.node_id != cfg_.node_id) {
    if (role_ != Role::kFollower) step_down_locked(hb.node_id);
    primary_id_ = hb.node_id;
    leader_commit_ = hb.commit_seq;
    ticks_since_leader_ = 0;
    m_heartbeats_->inc();
  }
  ack.epoch = epoch_;
  ack.accepted = 1;
  return ack;
}

net::PromoteResp Node::handle_promote(const net::PromoteReq& p) {
  MutexGuard g(mu_);
  DSTORE_FAULT_POINT(cfg_.fault, "repl.promote");
  net::PromoteResp r;
  r.epoch = epoch_;
  if (p.kind == net::PromoteReq::kClaim) {
    if (p.epoch < epoch_) return r;
    if (p.epoch > epoch_) adopt_epoch_locked(p.epoch);
    if (p.node_id != cfg_.node_id && role_ != Role::kFollower)
      step_down_locked(p.node_id);
    primary_id_ = p.node_id;
    synced_ = false;  // resubscribe to the new leader
    ticks_since_leader_ = 0;
    r.granted = 1;
    r.epoch = epoch_;
    return r;
  }
  // kVote. A higher epoch is adopted even when the vote is denied.
  if (p.epoch <= epoch_) return r;
  adopt_epoch_locked(p.epoch);
  r.epoch = epoch_;
  // Highest replicated position wins; ties break toward the higher node id
  // (the candidacy stagger makes that node campaign first, this makes the
  // outcome deterministic even under simultaneous candidacies).
  uint64_t my_seq = role_ == Role::kPrimary ? committed_floor_ : applied_seq_;
  uint64_t my_se = role_ == Role::kPrimary ? floor_epoch_ : applied_epoch_;
  bool up_to_date =
      std::pair(p.seq_epoch, p.seq) > std::pair(my_se, my_seq) ||
      (p.seq_epoch == my_se && p.seq == my_seq && p.node_id >= cfg_.node_id);
  bool can_vote = voted_epoch_ < p.epoch ||
                  (voted_epoch_ == p.epoch && voted_for_ == p.node_id);
  if (up_to_date && can_vote) {
    voted_epoch_ = p.epoch;
    voted_for_ = p.node_id;
    persist_meta_locked();
    ticks_since_leader_ = 0;
    r.granted = 1;
  }
  return r;
}

// ---- follower: subscribe / resync / elections ----------------------------

void Node::on_tick() {
  bool do_hb = false, do_sub = false, do_elect = false;
  uint64_t leader = 0;
  {
    MutexGuard g(mu_);
    if (role_ == Role::kPrimary) {
      if (++ticks_since_hb_ >= kHeartbeatEveryTicks) {
        ticks_since_hb_ = 0;
        do_hb = true;
      }
    } else {
      ticks_since_leader_++;
      if (ticks_since_leader_ >= election_threshold_locked()) {
        do_elect = true;
      } else if (primary_id_ != 0 && primary_id_ != cfg_.node_id &&
                 (!synced_ || (leader_commit_ > applied_seq_ &&
                               applied_seq_ == last_tick_applied_))) {
        // Not streaming, or the leader is ahead and we made no progress
        // since the last tick: (re)subscribe — idempotent on the primary.
        do_sub = true;
        leader = primary_id_;
      }
      last_tick_applied_ = applied_seq_;
    }
  }
  if (do_hb) {
    send_heartbeats();
    ship_committed();
  }
  if (do_sub) do_subscribe(leader);
  if (do_elect) run_election();
}

uint32_t Node::election_threshold_locked() const {
  uint32_t rank = 0;
  for (auto& p : peers_)
    if (p.id > cfg_.node_id) rank++;
  return kElectionTimeoutTicks + rank * kCandidacyStaggerTicks;
}

void Node::do_subscribe(uint64_t leader_id) {
  PeerRpc* rpc = nullptr;
  net::ReplHello h;
  {
    MutexGuard g(mu_);
    PeerState* p = find_peer_locked(leader_id);
    if (p == nullptr || role_ != Role::kFollower) return;
    rpc = p->rpc;
    h.kind = net::ReplHello::kSubscribe;
    h.epoch = epoch_;
    h.node_id = cfg_.node_id;
    // A tainted node (was primary since its last resync) may hold durable
    // entries beyond applied_seq_, possibly from a forked-away history.
    // from_seq = 0 never chains, so the primary always orders a resync.
    h.seq = tainted_ ? 0 : applied_seq_ + 1;
    h.last_epoch = applied_epoch_;
  }
  auto r = rpc->subscribe(h);
  if (!r.is_ok()) return;
  const net::ReplSubscribeResult& res = r.value();
  {
    MutexGuard g(mu_);
    if (res.epoch > epoch_) adopt_epoch_locked(res.epoch);
    if (res.result == net::ReplSubscribeResult::kRejected) {
      if (res.primary_id != 0 && res.primary_id != cfg_.node_id)
        primary_id_ = res.primary_id;  // follow the leader hint
      return;
    }
    if (res.result == net::ReplSubscribeResult::kStream) {
      synced_ = true;
      ticks_since_leader_ = 0;
      return;
    }
    if (apply_busy_) return;  // an append is mid-apply; retry next tick
    apply_busy_ = true;
  }
  do_resync(rpc, res);
  MutexGuard g(mu_);
  apply_busy_ = false;
}

void Node::do_resync(PeerRpc* rpc, const net::ReplSubscribeResult& res) {
  ApplyScope scope;
  {
    // Durable taint for the whole wipe+install window: a crash mid-resync
    // leaves the store matching neither the old nor the new position, so a
    // restart must come back through another resync, never a stream.
    MutexGuard g(mu_);
    if (!tainted_) {
      tainted_ = true;
      persist_meta_locked();
    }
  }
  // Divergent or out-of-window history is discarded wholesale: wipe every
  // local object, then install the primary's checkpoint image.
  for (int sidx = 0; sidx < store_->num_shards(); sidx++) {
    std::vector<std::string> names;
    store_->shard(sidx).list([&](std::string_view n, uint64_t) {
      names.emplace_back(n);
      return true;
    });
    for (auto& n : names) {
      Status s = store_->del_on(nullptr, sidx, n);
      if (!s.is_ok() && s.code() != Code::kNotFound) return;
    }
  }
  uint64_t cursor = 0;
  for (;;) {
    net::ReplHello h;
    h.kind = net::ReplHello::kSnapPull;
    h.node_id = cfg_.node_id;
    h.seq = cursor;
    {
      MutexGuard g(mu_);
      h.epoch = epoch_;
    }
    std::string storage;
    auto c = rpc->snap_pull(h, &storage);
    if (!c.is_ok()) return;  // link died mid-resync; next tick restarts it
    for (const net::SnapItemView& it : c.value().items) {
      if ((int)it.shard >= store_->num_shards()) return;
      Status s;
      if (it.offset == 0) {
        s = store_->put_on(nullptr, (int)it.shard, it.key, it.value.data(),
                           it.value.size());
      } else {
        // Continuation piece of a value larger than one byte-budgeted
        // chunk: splice it in at its offset, extending the object the
        // offset-0 piece created.
        DStore& d = store_->shard((int)it.shard);
        auto o = d.oopen(nullptr, it.key, 0, kWrite | kCreate);
        if (!o.is_ok()) return;
        auto r = d.owrite(o.value(), it.value.data(), it.value.size(), it.offset);
        d.oclose(o.value());
        s = r.is_ok() ? Status::ok() : r.status();
      }
      if (!s.is_ok()) return;
    }
    cursor = c.value().next_cursor;
    if (c.value().done != 0) break;
  }
  {
    MutexGuard g(mu_);
    applied_seq_ = res.base_seq;
    applied_epoch_ = res.base_epoch;
    tainted_ = false;  // the wipe discarded any was-primary residue
    synced_ = false;   // the follow-up subscribe flips this
    persist_meta_locked();
    mirror_locked();
  }
  // Rejoin the stream from the snapshot base.
  net::ReplHello h2;
  h2.kind = net::ReplHello::kSubscribe;
  h2.node_id = cfg_.node_id;
  h2.seq = res.base_seq + 1;
  h2.last_epoch = res.base_epoch;
  {
    MutexGuard g(mu_);
    h2.epoch = epoch_;
  }
  auto r2 = rpc->subscribe(h2);
  if (r2.is_ok() && r2.value().result == net::ReplSubscribeResult::kStream) {
    MutexGuard g(mu_);
    synced_ = true;
    ticks_since_leader_ = 0;
  }
}

void Node::run_election() {
  uint64_t e = 0, my_seq = 0, my_se = 0;
  std::vector<PeerRpc*> targets;
  {
    MutexGuard g(mu_);
    if (role_ == Role::kPrimary) return;
    role_ = Role::kCandidate;
    e = ++epoch_;
    voted_epoch_ = e;
    voted_for_ = cfg_.node_id;
    persist_meta_locked();
    my_seq = applied_seq_;
    my_se = applied_epoch_;
    for (auto& p : peers_) targets.push_back(p.rpc);
    ticks_since_leader_ = 0;
    m_elections_->inc();
    mirror_locked();
  }
  net::PromoteReq req;
  req.kind = net::PromoteReq::kVote;
  req.epoch = e;
  req.node_id = cfg_.node_id;
  req.seq = my_seq;
  req.seq_epoch = my_se;
  uint32_t votes = 1;  // self
  uint64_t max_epoch = e;
  for (auto* t : targets) {
    auto r = t->promote(req);
    if (!r.is_ok()) continue;
    if (r.value().granted != 0) votes++;
    max_epoch = std::max(max_epoch, r.value().epoch);
  }
  bool won = false;
  {
    MutexGuard g(mu_);
    if (max_epoch > epoch_) {
      adopt_epoch_locked(max_epoch);
      return;
    }
    if (role_ == Role::kCandidate && epoch_ == e && votes >= quorum()) {
      become_primary_locked();
      won = true;
    } else if (role_ == Role::kCandidate) {
      role_ = Role::kFollower;  // lost; wait for the winner's claim
      ticks_since_leader_ = 0;
      mirror_locked();
    }
  }
  if (!won) return;
  net::PromoteReq claim;
  claim.kind = net::PromoteReq::kClaim;
  claim.epoch = e;
  claim.node_id = cfg_.node_id;
  claim.seq = my_seq;
  claim.seq_epoch = my_se;
  uint64_t seen = 0;
  for (auto* t : targets) {
    auto r = t->promote(claim);
    if (r.is_ok()) seen = std::max(seen, (uint64_t)r.value().epoch);
  }
  MutexGuard g(mu_);
  if (seen > epoch_) adopt_epoch_locked(seen);
}

void Node::become_primary_locked() {
  role_ = Role::kPrimary;
  primary_id_ = cfg_.node_id;
  // From here on the store can run ahead of the persisted applied position
  // (primaries don't persist meta per write); if this node ever rejoins as
  // a follower it must resync, never stream — see MetaStore::kFlagWasPrimary.
  tainted_ = true;
  // The stream restarts at the local applied position; followers behind it
  // resync from the checkpoint (the buffer holds no pre-promotion history).
  next_seq_ = committed_floor_ = commit_seq_ = buffer_base_ = applied_seq_;
  floor_epoch_ = applied_epoch_;
  buffer_.clear();
  ticks_since_hb_ = 0;
  for (auto& p : peers_) {
    p.subscribed = p.in_sync = p.shipping = false;
    p.fails = 0;
    p.acked = 0;
    p.snapshot.clear();
    p.snapshot_pending = false;
    p.snap_next = p.snap_off = 0;
  }
  persist_meta_locked();
  mirror_locked();
}

}  // namespace dstore::repl
