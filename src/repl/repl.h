// Primary-backup replication over the DIPPER log (DESIGN.md §16).
//
// A primary Node ships every committed mutation — slot bytes, LSN and the
// slot-seeded record CRC from the PMEM log, so the stream authenticates end
// to end — to its followers over the DSTP replication opcodes. Followers
// replay entries through the same DStore write paths recovery uses, serve
// reads, and elect a replacement when the primary's heartbeats stop: the
// node with the highest replicated position wins, ties broken by node id,
// and a persisted epoch fences any stale primary that comes back.
//
// The RPC surface is synchronous and pluggable: MemPeer (mem_hub.h) calls
// straight into another in-process Node through the real wire codecs — the
// DistRig's partitionable link — while TcpPeer (tcp_peer.h) speaks DSTP to
// a remote dstore_serverd.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/lockdep.h"
#include "common/status.h"
#include "dstore/dstore.h"
#include "dstore/sharded.h"
#include "fault/fault.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "pmem/pool.h"

namespace dstore::repl {

enum class Role : uint8_t { kFollower = 0, kCandidate = 1, kPrimary = 2 };

// Synchronous peer transport. Every call maps 1:1 onto a DSTP frame pair;
// failures (partition, crash, timeout) surface as non-ok Status. snap_pull
// fills *storage with the raw chunk body the returned views point into.
class PeerRpc {
 public:
  virtual ~PeerRpc() = default;
  virtual Result<net::ReplAck> append(const net::ReplEntryWire& e) = 0;
  virtual Result<net::ReplSubscribeResult> subscribe(const net::ReplHello& h) = 0;
  virtual Result<net::SnapChunk> snap_pull(const net::ReplHello& h, std::string* storage) = 0;
  virtual Result<net::ReplAck> heartbeat(const net::Heartbeat& hb) = 0;
  virtual Result<net::PromoteResp> promote(const net::PromoteReq& p) = 0;
};

// Durable per-node replication state, persisted in a caller-provided PMEM
// region (two alternating 64-byte CRC-sealed records; the higher valid
// version wins on load, so a crash mid-persist falls back to the previous
// state). With no pool attached the state is volatile — a node that forgets
// its vote could double-vote after a crash, so tests that sweep crashes
// always attach one.
class MetaStore {
 public:
  static constexpr uint64_t kRegionBytes = 128;

  // flags bit: this node has held the primary role since its last resync.
  // A primary persists its decided floor as its position, but its durable
  // store content can still run ahead of it by the in-flight window — and
  // a later election can fork those entries away. A tainted node must
  // resync (wipe + snapshot install), never stream-subscribe, or that junk
  // silently diverges.
  static constexpr uint64_t kFlagWasPrimary = 1;

  struct State {
    uint64_t epoch = 0;
    uint64_t voted_epoch = 0;
    uint64_t voted_for = 0;
    uint64_t applied_seq = 0;
    uint64_t applied_epoch = 0;
    uint64_t flags = 0;
  };

  void attach(pmem::Pool* pool, uint64_t off) { pool_ = pool; off_ = off; }
  State load();
  void persist(const State& st);

 private:
  struct Rec {
    uint64_t version;
    uint64_t epoch;
    uint64_t voted_epoch;
    uint64_t voted_for;
    uint64_t applied_seq;
    uint64_t applied_epoch;
    uint64_t flags;
    uint32_t crc;
    uint32_t pad;
  };
  static_assert(sizeof(Rec) == 64);

  pmem::Pool* pool_ = nullptr;
  uint64_t off_ = 0;
  uint64_t version_ = 0;
  State vol_{};  // fallback when no pool is attached
};

struct NodeConfig {
  uint64_t node_id = 1;  // nonzero; ties in elections break toward higher id
  bool start_as_primary = false;
  uint64_t initial_epoch = 1;
  uint64_t initial_primary = 0;  // leader hint for followers (0 = unknown)

  // Ship buffer: decided entries older than every in-sync follower's ack are
  // trimmed; a follower that falls more than ship_window entries behind is
  // forced through a checkpoint resync instead of replaying the backlog.
  size_t ship_window = 4096;
  uint32_t snapshot_chunk_items = 64;
  // Resync chunk budget in ENCODED bytes: a chunk stops growing before it
  // would exceed this, and a single value larger than the budget streams as
  // continuation pieces (SnapItemView::offset) across as many chunks as it
  // takes. Must stay under the transport's frame cap (kDefaultMaxFrame)
  // with headroom for the response header.
  size_t snapshot_chunk_bytes = 1u << 20;
  // How long a writer waits for its decided entry to reach the ack quorum
  // (re-shipping as needed — another writer may hold the per-peer shipping
  // slot) before the write fails Status::busy. 0 = one non-blocking attempt;
  // deterministic rigs use that so retry counts never depend on wall-clock.
  uint32_t ack_timeout_ms = 1000;

  pmem::Pool* meta_pool = nullptr;  // MetaStore region owner (may be null)
  uint64_t meta_off = 0;
  fault::FaultInjector* fault = nullptr;
};

// One replication node: owns the role/epoch state machine and bridges the
// local ShardedStore (as its dstore::ReplSink) to the peer set. Construct
// the Node first, point ShardedConfig::repl_sink at it, create the store,
// then attach_store(); add_peer() wires the cluster.
class Node : public dstore::ReplSink, public net::ReplHandler {
 public:
  explicit Node(NodeConfig cfg);
  ~Node() override;

  void attach_store(ShardedStore* store) { store_ = store; }
  void add_peer(uint64_t id, PeerRpc* rpc);

  // Client-facing operations. Writes are primary-only (Status::read_only
  // with a leader hint otherwise) and ack only after quorum replication;
  // reads are served locally on any role (READ_ONLY degradation mode).
  Status put(std::string_view key, const void* value, size_t size);
  Status del(std::string_view key);
  Result<size_t> get(std::string_view key, void* buf, size_t cap);

  // One timer tick: primary → heartbeats + backlog shipping; follower →
  // failure detection, (re)subscribe / resync, election when the timeout
  // expires. The DistRig pumps this deterministically.
  void on_tick();
  // Background ticker for TCP deployments (serverd --repl).
  void start_ticker(uint32_t interval_ms);
  void stop_ticker();

  // Rig support: after a simulated power failure + store recovery, drop all
  // volatile state and reload the durable MetaStore (role restarts as
  // follower; a resync/subscribe brings the node back in sync).
  void reset_after_recovery();

  Role role() const { return (Role)a_role_.load(std::memory_order_relaxed); }
  uint64_t epoch() const { return a_epoch_.load(std::memory_order_relaxed); }
  uint64_t applied_seq() const { return a_applied_.load(std::memory_order_relaxed); }
  uint64_t commit_seq() const { return a_commit_.load(std::memory_order_relaxed); }
  uint64_t node_id() const { return cfg_.node_id; }
  obs::MetricsRegistry& metrics() { return metrics_; }

  // dstore::ReplSink — invoked from inside the store's write paths while
  // the per-key write exclusion is still held.
  uint64_t prepare(Mutation m) override;
  void commit(uint64_t ticket) override;
  void abort(uint64_t ticket) override;

  // net::ReplHandler — the server-side of every replication opcode.
  net::ReplAck handle_append(const net::ReplEntryWire& e) override;
  net::ReplSubscribeResult handle_subscribe(const net::ReplHello& h) override;
  std::string handle_snap_pull(const net::ReplHello& h) override;
  net::ReplAck handle_heartbeat(const net::Heartbeat& hb) override;
  net::PromoteResp handle_promote(const net::PromoteReq& p) override;
  bool writable() override { return role() == Role::kPrimary; }
  Status finish_write() override;
  uint64_t write_ticket() override;
  Status await_ticket(uint64_t ticket) override;

 private:
  struct Entry {
    enum class St : uint8_t { kPending, kCommitted, kAborted };
    St st = St::kPending;
    uint64_t seq = 0;
    uint64_t epoch = 0;  // epoch the entry was appended under
    uint8_t op = 0;
    uint8_t eflags = 0;
    uint32_t shard = 0;
    uint32_t slot = 0;
    uint64_t lsn = 0;
    uint64_t arg0 = 0;
    uint64_t arg1 = 0;
    uint32_t value_crc = 0;
    std::string key;
    std::string value;
    std::string slot_image;  // 128 bytes, or empty for unlogged entries
  };

  struct SnapItem {
    uint32_t shard = 0;
    std::string key;
    std::string value;
  };

  struct PeerState {
    uint64_t id = 0;
    PeerRpc* rpc = nullptr;
    bool subscribed = false;
    bool in_sync = false;
    bool shipping = false;  // one shipper per peer at a time
    uint32_t fails = 0;
    uint64_t acked = 0;  // highest stream seq the peer confirmed applied
    // Parked resync snapshot (built at subscribe time, served in chunks).
    std::vector<SnapItem> snapshot;
    bool snapshot_pending = false;
    uint64_t snap_base_seq = 0;
    uint64_t snap_base_epoch = 0;
    // Serving cursor: next item index + byte offset into that item's value
    // (nonzero while a value larger than one chunk streams in pieces).
    uint64_t snap_next = 0;
    uint64_t snap_off = 0;

    // Drop the peer's stream state (recovery, promotion): it must
    // re-subscribe before it is shipped to or counted in a quorum again.
    void reset_stream() {
      subscribed = in_sync = shipping = false;
      fails = 0;
      acked = 0;
      snapshot.clear();
      snapshot_pending = false;
      snap_next = snap_off = 0;
    }
  };

  // --- primary side ---
  Status await_replication(uint64_t seq);
  void ship_committed();
  void ship_to_peer(PeerState* p);
  void send_heartbeats();
  void build_snapshot(std::vector<SnapItem>* out);

  // --- follower side ---
  void do_subscribe(uint64_t leader_id);
  void do_resync(PeerRpc* rpc, const net::ReplSubscribeResult& res);
  bool verify_entry(const net::ReplEntryWire& w) const;
  Status apply_entry(const net::ReplEntryWire& w);

  // --- elections ---
  void run_election();
  uint32_t election_threshold_locked() const;
  void become_primary_locked();
  void demote_primary_locked();
  void adopt_epoch_locked(uint64_t e);
  void step_down_locked(uint64_t new_primary);

  // --- shared helpers (mu_ held) ---
  PeerState* find_peer_locked(uint64_t id);
  void advance_floor_locked();
  void recompute_commit_locked();
  void trim_buffer_locked();
  void persist_meta_locked();
  uint32_t quorum() const { return (uint32_t)(peers_.size() + 1) / 2 + 1; }
  void mirror_locked();

  NodeConfig cfg_;
  ShardedStore* store_ = nullptr;
  MetaStore meta_;

  // All node state below is guarded by mu_. The lock is NEVER held across a
  // peer RPC or a store operation (DESIGN.md §12: no repl.node → dipper.*
  // edges): handlers validate under the lock, release it to touch the
  // store, and re-lock to publish — apply_busy_ serializes that window.
  mutable dstore::Mutex mu_{"repl.node", lockdep::kQuiesceExempt};
  Role role_ = Role::kFollower;
  uint64_t epoch_ = 0;
  uint64_t primary_id_ = 0;
  uint64_t voted_epoch_ = 0;
  uint64_t voted_for_ = 0;

  // Primary stream state. buffer_[i] holds seq buffer_base_ + 1 + i;
  // committed_floor_ = highest contiguously decided seq (every entry ≤ it
  // is committed or aborted); commit_seq_ = quorum-replicated watermark.
  std::deque<Entry> buffer_;
  uint64_t buffer_base_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t committed_floor_ = 0;
  uint64_t floor_epoch_ = 0;
  uint64_t commit_seq_ = 0;
  // deque, not vector: shippers hold PeerState* across RPC calls with mu_
  // dropped, and a concurrent add_peer() must never invalidate them —
  // deque::push_back keeps references to existing elements stable.
  std::deque<PeerState> peers_;
  uint32_t ticks_since_hb_ = 0;
  // Signaled whenever committed_floor_/commit_seq_ advance or the role
  // changes; await_replication() waits on it instead of spinning.
  CondVar repl_cv_;

  // Follower stream state.
  uint64_t applied_seq_ = 0;
  uint64_t applied_epoch_ = 0;
  uint64_t leader_commit_ = 0;
  uint64_t last_tick_applied_ = 0;
  bool synced_ = false;
  bool tainted_ = false;  // MetaStore::kFlagWasPrimary, mirrored volatile
  bool apply_busy_ = false;  // an append/resync is touching the store
  uint32_t ticks_since_leader_ = 0;

  // Lock-free mirrors for accessors and gauge_fn scrapes.
  std::atomic<uint64_t> a_role_{0};
  std::atomic<uint64_t> a_epoch_{0};
  std::atomic<uint64_t> a_applied_{0};
  std::atomic<uint64_t> a_commit_{0};
  std::atomic<uint64_t> a_insync_{0};

  obs::MetricsRegistry metrics_;
  obs::Counter* m_shipped_;
  obs::Counter* m_applied_;
  obs::Counter* m_acks_;
  obs::Counter* m_rejects_;
  obs::Counter* m_resyncs_;
  obs::Counter* m_elections_;
  obs::Counter* m_heartbeats_;
  obs::Counter* m_snap_items_;

  std::thread ticker_;
  std::atomic<bool> ticker_stop_{false};
};

}  // namespace dstore::repl
