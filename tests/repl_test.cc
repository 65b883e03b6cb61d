// Tests for primary-backup replication (DESIGN.md §16): the durable
// MetaStore (alternating CRC-sealed records, torn-write fallback), the
// DistPlan grammar, the epoch fence at the Node level (a stale primary's
// appends must bounce — the follower-divergence oracle), and whole-fleet
// scenarios through the DistRig: fault-free convergence, deterministic
// failover after killing the primary, partition-during-promotion, and
// double failover. A final smoke drives a 3-node fleet over real TCP —
// net::Server dispatch + TcpPeer — and fails the primary under the client.
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/rng.h"
#include "dipper/log.h"
#include "dstore/sharded.h"
#include "fault/dist_rig.h"
#include "fault/fault.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "pmem/pool.h"
#include "repl/mem_hub.h"
#include "repl/repl.h"
#include "repl/tcp_peer.h"

namespace dstore::repl {
namespace {

// ---------------------------------------------------------------------------
// MetaStore
// ---------------------------------------------------------------------------

TEST(ReplMeta, PersistsAcrossReattachAndSurvivesTornWrites) {
  pmem::Pool pool(4096, pmem::Pool::Mode::kDirect);
  MetaStore meta;
  meta.attach(&pool, 256);

  MetaStore::State a;
  a.epoch = 3;
  a.voted_epoch = 3;
  a.voted_for = 2;
  a.applied_seq = 41;
  a.applied_epoch = 2;
  meta.persist(a);  // version 1 -> record slot 1
  MetaStore::State b = a;
  b.epoch = 4;
  b.applied_seq = 42;
  b.flags = MetaStore::kFlagWasPrimary;
  meta.persist(b);  // version 2 -> record slot 0

  MetaStore fresh;
  fresh.attach(&pool, 256);
  MetaStore::State got = fresh.load();
  EXPECT_EQ(got.epoch, 4u);
  EXPECT_EQ(got.applied_seq, 42u);
  EXPECT_EQ(got.flags, MetaStore::kFlagWasPrimary);

  // Tear the newest record (version 2 lives in slot 0): its CRC fails and
  // load falls back to the previous state — never garbage, never zero.
  pool.base()[256 + 8] ^= 0x5a;
  MetaStore after_tear;
  after_tear.attach(&pool, 256);
  got = after_tear.load();
  EXPECT_EQ(got.epoch, 3u);
  EXPECT_EQ(got.applied_seq, 41u);
  EXPECT_EQ(got.voted_for, 2u);
  EXPECT_EQ(got.flags, 0u);

  // Both records torn: a genuinely fresh node.
  pool.base()[256 + 64 + 8] ^= 0x5a;
  MetaStore wiped;
  wiped.attach(&pool, 256);
  got = wiped.load();
  EXPECT_EQ(got.epoch, 0u);
  EXPECT_EQ(got.applied_seq, 0u);
}

// ---------------------------------------------------------------------------
// DistPlan grammar
// ---------------------------------------------------------------------------

TEST(DistPlanGrammar, RoundTripsThroughToString) {
  const char* text =
      "seed=7;nodes=3;n1/pmem.fence@9:crash;part@12-20=1;part@3-5=2,3;kill@24=0";
  auto r = fault::DistPlan::parse(text);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const fault::DistPlan& p = r.value();
  EXPECT_EQ(p.seed, 7u);
  EXPECT_EQ(p.nodes, 3);
  ASSERT_EQ(p.faults.size(), 1u);
  EXPECT_EQ(p.faults[0].node, 1);
  EXPECT_EQ(p.faults[0].spec.point, "pmem.fence");
  ASSERT_EQ(p.partitions.size(), 2u);
  EXPECT_EQ(p.partitions[0].at, 12u);
  EXPECT_EQ(p.partitions[0].heal, 20u);
  ASSERT_EQ(p.partitions[1].group.size(), 2u);
  ASSERT_EQ(p.kills.size(), 1u);
  EXPECT_EQ(p.kills[0].node, 0);

  auto again = fault::DistPlan::parse(p.to_string());
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().to_string(), p.to_string());
}

TEST(DistPlanGrammar, RejectsMalformedTokens) {
  const char* bad[] = {
      "nodes=1",              // below the 2-node floor
      "nodes=99",             // above the ceiling
      "seed=x",               // non-numeric
      "n5/pmem.fence@1:crash",  // fault index out of range (default 3 nodes)
      "kill@4=7",             // kill index out of range
      "part@9-3=1",           // heal before split
      "part@3-9=",            // empty group
      "part@3-9=0",           // ids are 1-based
      "part@3-9=4",           // id beyond the fleet
      "n0pmem.fence@1:crash",  // missing slash
      "bogus@1",              // unknown token
  };
  for (const char* t : bad) {
    EXPECT_FALSE(fault::DistPlan::parse(t).is_ok()) << "accepted: " << t;
  }
}

// ---------------------------------------------------------------------------
// Node-level epoch fence (the follower-divergence oracle)
// ---------------------------------------------------------------------------

// A lone follower with a real store behind it; appends arrive through the
// same handler the server dispatches to.
struct FollowerFixture {
  std::unique_ptr<Node> node;
  std::unique_ptr<ShardedStore> store;

  FollowerFixture() {
    NodeConfig ncfg;
    ncfg.node_id = 2;
    ncfg.initial_primary = 1;
    node = std::make_unique<Node>(ncfg);
    ShardedConfig scfg;
    scfg.num_shards = 1;
    scfg.shard.max_objects = 64;
    scfg.shard.num_blocks = 512;
    scfg.shard.engine.log_slots = 64;
    scfg.repl_sink = node.get();
    auto r = ShardedStore::create(scfg);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    store = std::move(r).value();
    node->attach_store(store.get());
  }

  // An unlogged put entry (pure overwrite: no slot image to authenticate).
  net::ReplAck append(uint64_t epoch, uint64_t seq, std::string_view key,
                      std::string_view value) {
    net::ReplEntryWire w;
    w.epoch = epoch;
    w.seq = seq;
    w.entry_epoch = epoch;
    w.op = (uint8_t)dipper::OpType::kPut;
    w.eflags = net::ReplEntryWire::kUnlogged;
    w.key = key;
    w.value = value;
    w.value_crc = crc32c(value.data(), value.size());
    return node->handle_append(w);
  }

  std::string read(std::string_view key) {
    char buf[256];
    auto r = node->get(key, buf, sizeof(buf));
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    return std::string(buf, r.is_ok() ? r.value() : 0);
  }
};

TEST(ReplFencing, StaleEpochAppendIsRejectedAndNeverApplied) {
  FollowerFixture fx;
  ASSERT_EQ(fx.node->role(), Role::kFollower);
  ASSERT_EQ(fx.node->epoch(), 1u);

  net::ReplAck a = fx.append(1, 1, "k", "from-epoch-1");
  EXPECT_EQ(a.accepted, 1u);
  EXPECT_EQ(a.applied_seq, 1u);
  EXPECT_EQ(fx.read("k"), "from-epoch-1");

  // A new primary announces epoch 3 by heartbeat; the follower adopts it.
  net::Heartbeat hb;
  hb.epoch = 3;
  hb.node_id = 9;
  hb.commit_seq = 1;
  EXPECT_EQ(fx.node->handle_heartbeat(hb).accepted, 1u);
  EXPECT_EQ(fx.node->epoch(), 3u);

  // The divergence oracle: the fenced-off old primary keeps streaming its
  // forked history. Every append must bounce with the higher epoch — and
  // the store must still hold exactly the accepted value.
  net::ReplAck stale = fx.append(1, 2, "k", "forked-by-stale-primary");
  EXPECT_EQ(stale.accepted, 0u);
  EXPECT_EQ(stale.epoch, 3u);  // the rejection teaches it the new epoch
  EXPECT_EQ(fx.node->applied_seq(), 1u);
  EXPECT_EQ(fx.read("k"), "from-epoch-1");

  // The legitimate epoch-3 stream continues where the follower left off.
  net::ReplAck next = fx.append(3, 2, "k", "from-epoch-3");
  EXPECT_EQ(next.accepted, 1u);
  EXPECT_EQ(fx.read("k"), "from-epoch-3");

  // Gaps are rejected too (log matching, not blind application).
  net::ReplAck gap = fx.append(3, 9, "k", "gapped");
  EXPECT_EQ(gap.accepted, 0u);
  EXPECT_EQ(gap.applied_seq, 2u);

  // Duplicates after a retry ack idempotently.
  net::ReplAck dup = fx.append(3, 2, "k", "from-epoch-3");
  EXPECT_EQ(dup.accepted, 1u);
  EXPECT_EQ(fx.node->applied_seq(), 2u);
}

TEST(ReplFencing, CorruptValueCrcIsRejected) {
  FollowerFixture fx;
  net::ReplEntryWire w;
  w.epoch = 1;
  w.seq = 1;
  w.entry_epoch = 1;
  w.op = (uint8_t)dipper::OpType::kPut;
  w.eflags = net::ReplEntryWire::kUnlogged;
  w.key = "k";
  w.value = "payload";
  w.value_crc = crc32c("payload", 7) ^ 1;  // one bit off
  net::ReplAck a = fx.node->handle_append(w);
  EXPECT_EQ(a.accepted, 0u);
  EXPECT_EQ(fx.node->applied_seq(), 0u);
}

TEST(ReplFencing, StaleVoteIsDeniedHigherEpochAdopted) {
  FollowerFixture fx;
  ASSERT_EQ(fx.append(1, 1, "k", "v").accepted, 1u);

  // A candidate at a lower replicated position must be denied even though
  // its epoch is newer — electing it would lose the acked write.
  net::PromoteReq req;
  req.kind = net::PromoteReq::kVote;
  req.epoch = 2;
  req.node_id = 3;
  req.seq = 0;  // behind our applied_seq of 1
  req.seq_epoch = 0;
  net::PromoteResp r = fx.node->handle_promote(req);
  EXPECT_EQ(r.granted, 0u);
  EXPECT_EQ(fx.node->epoch(), 2u);  // the epoch still advances

  // An equally-caught-up candidate with a higher id gets the vote.
  req.epoch = 3;
  req.seq = 1;
  req.seq_epoch = 1;
  r = fx.node->handle_promote(req);
  EXPECT_EQ(r.granted, 1u);

  // Same epoch, different candidate: no double vote.
  req.node_id = 7;
  r = fx.node->handle_promote(req);
  EXPECT_EQ(r.granted, 0u);
}

// ---------------------------------------------------------------------------
// DistRig fleet scenarios
// ---------------------------------------------------------------------------

fault::DistPlan plan_of(const std::string& text) {
  auto r = fault::DistPlan::parse(text);
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return r.value();
}

TEST(DistRigFleet, FaultFreeRunIsFullyAckedAndConverged) {
  fault::DistRig rig;
  Status s = rig.run(fault::DistPlan{});
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  const auto& st = rig.stats();
  EXPECT_EQ(st.acked, fault::DistRigOptions{}.ops);
  EXPECT_EQ(st.ambiguous, 0u);
  EXPECT_EQ(st.unavailable, 0u);
  EXPECT_EQ(st.crashes, 0u);
  EXPECT_EQ(st.final_primary, 1u);  // nobody ever campaigned
  EXPECT_EQ(st.final_epoch, 1u);
}

TEST(DistRigFleet, KillingThePrimaryFailsOverToTheHighestId) {
  fault::DistRig rig;
  Status s = rig.run(plan_of("nodes=3;kill@5=0"));
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  const auto& st = rig.stats();
  // Deterministic failover: both followers sit at the same replicated
  // position, so the candidacy stagger hands the election to node 3.
  EXPECT_EQ(st.final_primary, 3u);
  EXPECT_GE(st.final_epoch, 2u);
  EXPECT_EQ(st.crashes, 1u);
  EXPECT_GT(st.acked, 0u);
}

TEST(DistRigFleet, PartitionDuringPromotionFencesTheOldPrimary) {
  fault::DistRig rig;
  // Isolate the primary past the election timeout: the majority side
  // promotes node 3; the old primary keeps accepting writes it can never
  // commit (they surface as ambiguous), then gets fenced at the heal and
  // resyncs to the new history.
  Status s = rig.run(plan_of("nodes=3;part@4-14=1"));
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  const auto& st = rig.stats();
  EXPECT_EQ(st.final_primary, 3u);
  EXPECT_GE(st.final_epoch, 2u);
  EXPECT_GT(st.acked, 0u);
}

TEST(DistRigFleet, DoubleFailoverStillServesEveryAckedWrite) {
  fault::DistRig rig;
  // Kill the seed primary, then kill its successor (node 3 wins the first
  // election): node 2 — the only node that followed both reigns — must win
  // the final election, or acked writes from the second reign would vanish.
  Status s = rig.run(plan_of("nodes=3;kill@4=0;kill@14=2"));
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  const auto& st = rig.stats();
  EXPECT_EQ(st.final_primary, 2u);
  EXPECT_GE(st.final_epoch, 3u);
  EXPECT_EQ(st.crashes, 2u);
}

TEST(DistRigFleet, FollowerIsolationNeverLosesAnAckedWrite) {
  fault::DistRig rig;
  // Quorum survives the window (primary + node 3), so writes keep acking.
  // The isolated follower's election timeout fires just before the heal and
  // bumps its epoch; with no pre-vote round, that dethrones the primary at
  // the heal. The re-election must land on the node with the highest
  // decided position — the old primary itself, whose floor includes the
  // entry in flight at the dethrone — never the follower that sat out the
  // acked writes.
  Status s = rig.run(plan_of("nodes=3;part@6-12=2"));
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  const auto& st = rig.stats();
  EXPECT_EQ(st.final_primary, 1u);
  EXPECT_GE(st.acked, fault::DistRigOptions{}.ops - 2);
  EXPECT_EQ(st.unavailable, 0u);
}

TEST(DistRigFleet, FiveNodeFleetSurvivesAKill) {
  fault::DistRigOptions opt;
  opt.nodes = 5;
  fault::DistRig rig(opt);
  Status s = rig.run(plan_of("nodes=5;kill@8=0"));
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_EQ(rig.stats().final_primary, 5u);  // stagger: highest id first
}

// ---------------------------------------------------------------------------
// Resync serving: the quorum watermark vs. snapshot chunks, byte budgets
// ---------------------------------------------------------------------------

// A peer link to a node that is down: every RPC fails fast.
struct DownPeer : PeerRpc {
  Result<net::ReplAck> append(const net::ReplEntryWire&) override {
    return Status::io_error("peer down");
  }
  Result<net::ReplSubscribeResult> subscribe(const net::ReplHello&) override {
    return Status::io_error("peer down");
  }
  Result<net::SnapChunk> snap_pull(const net::ReplHello&, std::string*) override {
    return Status::io_error("peer down");
  }
  Result<net::ReplAck> heartbeat(const net::Heartbeat&) override {
    return Status::io_error("peer down");
  }
  Result<net::PromoteResp> promote(const net::PromoteReq&) override {
    return Status::io_error("peer down");
  }
};

// A primary whose followers are all down: writes commit locally (and fail
// Status::busy for lack of a quorum), then a follower comes back through
// the resync path and we drive handle_subscribe / handle_snap_pull directly.
struct PrimaryFixture {
  std::unique_ptr<Node> node;
  std::unique_ptr<ShardedStore> store;
  DownPeer down;

  PrimaryFixture() {
    NodeConfig ncfg;
    ncfg.node_id = 1;
    ncfg.start_as_primary = true;
    ncfg.ack_timeout_ms = 0;          // single non-blocking quorum attempt
    ncfg.snapshot_chunk_bytes = 256;  // tiny budget: force multi-chunk values
    node = std::make_unique<Node>(ncfg);
    node->add_peer(2, &down);
    node->add_peer(3, &down);
    ShardedConfig scfg;
    scfg.num_shards = 1;
    scfg.shard.max_objects = 64;
    scfg.shard.num_blocks = 512;
    scfg.shard.engine.log_slots = 64;
    scfg.repl_sink = node.get();
    auto r = ShardedStore::create(scfg);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    store = std::move(r).value();
    node->attach_store(store.get());
  }
};

TEST(ReplResync, ServingSnapshotChunksNeverAdvancesTheQuorumWatermark) {
  PrimaryFixture fx;
  std::map<std::string, std::string> expect;
  // One value much larger than the 256-byte chunk budget: it must stream
  // as continuation pieces rather than one oversized (parser-poisoning)
  // frame body.
  expect["big"] = std::string(1000, 'B');
  for (int i = 0; i < 6; i++)
    expect["k" + std::to_string(i)] = "v" + std::to_string(i);
  uint64_t writes = 0;
  for (auto& [k, v] : expect) {
    Status s = fx.node->put(k, v.data(), v.size());
    EXPECT_EQ(s.code(), Code::kBusy) << s.to_string();  // no quorum reachable
    writes++;
  }
  EXPECT_EQ(fx.node->commit_seq(), 0u);

  // Node 2 reports back with a divergent anchor: the primary parks a
  // snapshot and answers kResync.
  net::ReplHello h;
  h.kind = net::ReplHello::kSubscribe;
  h.epoch = fx.node->epoch();
  h.node_id = 2;
  h.seq = writes + 1;
  h.last_epoch = 999;  // does not match our history at writes
  net::ReplSubscribeResult sub = fx.node->handle_subscribe(h);
  ASSERT_EQ(sub.result, net::ReplSubscribeResult::kResync);
  EXPECT_EQ(sub.base_seq, writes);

  // Pull every chunk. Each encoded body must respect the byte budget, and
  // pieces must reassemble (by offset) into exactly the store's contents.
  std::map<std::string, std::string> got;
  net::ReplHello pull;
  pull.kind = net::ReplHello::kSnapPull;
  pull.node_id = 2;
  pull.seq = 0;
  int chunks = 0;
  for (; chunks < 200; chunks++) {
    std::string body = fx.node->handle_snap_pull(pull);
    ASSERT_FALSE(body.empty());
    EXPECT_LE(body.size(), 256u) << "chunk exceeds snapshot_chunk_bytes";
    net::SnapChunk c;
    ASSERT_TRUE(net::parse_snap_chunk(body, &c));
    for (const auto& it : c.items) {
      std::string& dst = got[std::string(it.key)];
      ASSERT_EQ(it.offset, dst.size()) << "continuation piece out of order";
      dst.append(it.value);
    }
    pull.seq = c.next_cursor;
    if (c.done) break;
  }
  ASSERT_LT(chunks, 200) << "snap pull never reported done";
  EXPECT_GT(chunks, 1) << "the 1000-byte value should span several chunks";
  EXPECT_EQ(got, expect);

  // The teeth of the fix: the primary SERVED the whole snapshot, but the
  // follower never attested an applied position — the quorum watermark
  // must still be zero, or a write durable only here would count as
  // replicated.
  EXPECT_EQ(fx.node->commit_seq(), 0u);

  // Only the follower's re-subscribe — anchored at the base it installed —
  // advances its ack and, with it, the watermark.
  h.seq = sub.base_seq + 1;
  h.last_epoch = sub.base_epoch;
  net::ReplSubscribeResult sub2 = fx.node->handle_subscribe(h);
  ASSERT_EQ(sub2.result, net::ReplSubscribeResult::kStream);
  EXPECT_EQ(fx.node->commit_seq(), writes);
}

// ---------------------------------------------------------------------------
// Concurrent writers racing for the quorum watermark
// ---------------------------------------------------------------------------

// Regression: await_replication used to sample commit_seq_ once after one
// ship attempt, so a writer whose ack was carried by ANOTHER writer's ship
// (the per-peer shipping slot is exclusive) failed Status::busy even though
// its entry replicated fine. Every concurrent write must ack.
TEST(ReplConcurrency, ConcurrentWritersAllReachQuorum) {
  auto make_store = [](Node* n) {
    ShardedConfig scfg;
    scfg.num_shards = 1;
    scfg.shard.max_objects = 256;
    scfg.shard.num_blocks = 2048;
    scfg.shard.engine.log_slots = 256;
    scfg.repl_sink = n;
    auto r = ShardedStore::create(scfg);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    return std::move(r).value();
  };
  NodeConfig c1;
  c1.node_id = 1;
  c1.start_as_primary = true;
  auto n1 = std::make_unique<Node>(c1);
  auto s1 = make_store(n1.get());
  n1->attach_store(s1.get());
  NodeConfig c2;
  c2.node_id = 2;
  c2.initial_primary = 1;
  auto n2 = std::make_unique<Node>(c2);
  auto s2 = make_store(n2.get());
  n2->attach_store(s2.get());

  MemHub hub;
  hub.add_node(1, n1.get(), nullptr);
  hub.add_node(2, n2.get(), nullptr);
  auto p12 = hub.peer(1, 2);
  auto p21 = hub.peer(2, 1);
  n1->add_peer(2, p12.get());
  n2->add_peer(1, p21.get());
  n2->on_tick();  // follower subscribes to the seed primary
  ASSERT_EQ(n1->commit_seq(), 0u);

  constexpr int kThreads = 4, kPerThread = 25;
  std::vector<Status> results(kThreads * kPerThread, Status::ok());
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        std::string key = "t" + std::to_string(t) + "-k" + std::to_string(i);
        std::string val = "v" + std::to_string(t * 1000 + i);
        results[t * kPerThread + i] =
            n1->put(key, val.data(), val.size());
      }
    });
  }
  for (auto& w : writers) w.join();
  for (size_t i = 0; i < results.size(); i++)
    EXPECT_TRUE(results[i].is_ok())
        << "writer " << i << ": " << results[i].to_string();
  EXPECT_EQ(n1->commit_seq(), (uint64_t)(kThreads * kPerThread));
  EXPECT_EQ(n2->applied_seq(), (uint64_t)(kThreads * kPerThread));
}

// ---------------------------------------------------------------------------
// Value checksums: the stream's equals the primary's content CRC
// ---------------------------------------------------------------------------

std::string pattern_value(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string v(n, '\0');
  for (char& c : v) c = (char)rng.next();
  return v;
}

// Forwards to a real link, keeping a copy of every shipped entry.
struct TapPeer : PeerRpc {
  PeerRpc* inner;
  std::vector<net::ReplEntryWire> shipped;
  explicit TapPeer(PeerRpc* p) : inner(p) {}
  Result<net::ReplAck> append(const net::ReplEntryWire& e) override {
    shipped.push_back(e);
    return inner->append(e);
  }
  Result<net::ReplSubscribeResult> subscribe(const net::ReplHello& h) override {
    return inner->subscribe(h);
  }
  Result<net::SnapChunk> snap_pull(const net::ReplHello& h, std::string* storage) override {
    return inner->snap_pull(h, storage);
  }
  Result<net::ReplAck> heartbeat(const net::Heartbeat& hb) override {
    return inner->heartbeat(hb);
  }
  Result<net::PromoteResp> promote(const net::PromoteReq& p) override {
    return inner->promote(p);
  }
};

TEST(ReplValueCrc, ShippedEntryCarriesThePrimarysContentCrc) {
  auto make_store = [](Node* n) {
    ShardedConfig scfg;
    scfg.num_shards = 1;
    scfg.shard.max_objects = 64;
    scfg.shard.num_blocks = 512;
    scfg.shard.engine.log_slots = 64;
    scfg.repl_sink = n;
    auto r = ShardedStore::create(scfg);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    return std::move(r).value();
  };
  NodeConfig c1;
  c1.node_id = 1;
  c1.start_as_primary = true;
  auto n1 = std::make_unique<Node>(c1);
  auto s1 = make_store(n1.get());
  n1->attach_store(s1.get());
  NodeConfig c2;
  c2.node_id = 2;
  c2.initial_primary = 1;
  auto n2 = std::make_unique<Node>(c2);
  auto s2 = make_store(n2.get());
  n2->attach_store(s2.get());

  MemHub hub;
  hub.add_node(1, n1.get(), nullptr);
  hub.add_node(2, n2.get(), nullptr);
  auto p12 = hub.peer(1, 2);
  auto p21 = hub.peer(2, 1);
  TapPeer tap(p12.get());
  n1->add_peer(2, &tap);
  n2->add_peer(1, p21.get());
  n2->on_tick();  // follower subscribes to the seed primary

  std::string value = pattern_value(16384, 5);
  ASSERT_TRUE(n1->put("k", value.data(), value.size()).is_ok());
  ASSERT_EQ(n2->applied_seq(), 1u);
  ASSERT_EQ(tap.shipped.size(), 1u);
  const uint32_t want = crc32c(value.data(), value.size());
  EXPECT_EQ(tap.shipped[0].value_crc, want);
  auto primary = s1->shard(0).content_crc("k");
  ASSERT_TRUE(primary.is_ok()) << primary.status().to_string();
  EXPECT_EQ(primary.value(), want);
  auto follower = s2->shard(0).content_crc("k");
  ASSERT_TRUE(follower.is_ok()) << follower.status().to_string();
  EXPECT_EQ(follower.value(), want);
}

// ---------------------------------------------------------------------------
// TCP smoke: real servers, TcpPeer links, failover under a live client
// ---------------------------------------------------------------------------

struct TcpNode {
  std::unique_ptr<Node> node;
  std::unique_ptr<ShardedStore> store;
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<PeerRpc>> links;

  TcpNode(uint64_t id, bool primary) {
    NodeConfig ncfg;
    ncfg.node_id = id;
    ncfg.start_as_primary = primary;
    ncfg.initial_primary = primary ? 0 : 1;
    node = std::make_unique<Node>(ncfg);
    ShardedConfig scfg;
    scfg.num_shards = 1;
    scfg.shard.max_objects = 64;
    scfg.shard.num_blocks = 512;
    scfg.shard.engine.log_slots = 64;
    scfg.repl_sink = node.get();
    auto r = ShardedStore::create(scfg);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    store = std::move(r).value();
    node->attach_store(store.get());
    auto s = net::Server::start(store.get(), net::ServerConfig{}, nullptr, node.get());
    EXPECT_TRUE(s.is_ok()) << s.status().to_string();
    server = std::move(s).value();
  }
};

TEST(ReplTcpSmoke, FailoverUnderALiveClient) {
  // Dead-peer calls must fail fast, not sit in reconnect backoff: the test
  // pumps ticks synchronously.
  net::ClientConfig link_cfg;
  link_cfg.max_reconnect_attempts = 1;
  link_cfg.reconnect_backoff_ms = 1;
  link_cfg.reconnect_backoff_max_ms = 2;
  link_cfg.call_timeout_ms = 2000;

  std::vector<std::unique_ptr<TcpNode>> fleet;
  for (uint64_t id = 1; id <= 3; id++)
    fleet.push_back(std::make_unique<TcpNode>(id, id == 1));
  for (auto& a : fleet) {
    for (auto& b : fleet) {
      if (a->node->node_id() == b->node->node_id()) continue;
      auto link = std::make_unique<TcpPeer>(
          "127.0.0.1:" + std::to_string(b->server->port()), link_cfg);
      a->node->add_peer(b->node->node_id(), link.get());
      a->links.push_back(std::move(link));
    }
  }
  auto pump = [&](int ticks) {
    for (int t = 0; t < ticks; t++)
      for (auto& n : fleet)
        if (n->server != nullptr) n->node->on_tick();
  };
  pump(2);  // followers subscribe to the seed primary

  // Writes through the primary's server ack only after quorum replication,
  // so the follower can serve them immediately.
  auto c1 = net::Client::connect("127.0.0.1", fleet[0]->server->port());
  ASSERT_TRUE(c1.is_ok());
  auto ns = c1.value()->open_namespace("t");
  ASSERT_TRUE(ns.is_ok()) << ns.status().to_string();
  for (int i = 0; i < 10; i++) {
    std::string key = "k" + std::to_string(i);
    std::string val = "v" + std::to_string(i * 7);
    ASSERT_TRUE(c1.value()->put(ns.value().ns_id, key, val.data(), val.size()).is_ok());
  }

  auto c2 = net::Client::connect("127.0.0.1", fleet[1]->server->port());
  ASSERT_TRUE(c2.is_ok());
  auto ns2 = c2.value()->open_namespace("t");
  ASSERT_TRUE(ns2.is_ok());
  EXPECT_EQ(c2.value()->get(ns2.value().ns_id, "k3").value(), "v21");
  // Followers are READ_ONLY: the write gate bounces it with a leader hint.
  Status ro = c2.value()->put(ns2.value().ns_id, "x", "y", 1);
  EXPECT_EQ(ro.code(), Code::kReadOnly) << ro.to_string();

  // Fail the primary. The highest-id follower campaigns first and wins with
  // the other follower's vote; bounded ticks, not wall-clock luck.
  fleet[0]->server->stop();
  fleet[0]->server.reset();
  int ticks_to_failover = 0;
  while (fleet[2]->node->role() != Role::kPrimary && ticks_to_failover < 64) {
    pump(1);
    ticks_to_failover++;
  }
  ASSERT_EQ(fleet[2]->node->role(), Role::kPrimary) << "no failover within 64 ticks";
  EXPECT_GE(fleet[2]->node->epoch(), 2u);
  pump(2);  // the claim + heartbeats re-point node 2 at the winner

  // The promoted follower serves every acked write and accepts new ones.
  auto c3 = net::Client::connect("127.0.0.1", fleet[2]->server->port());
  ASSERT_TRUE(c3.is_ok());
  auto ns3 = c3.value()->open_namespace("t");
  ASSERT_TRUE(ns3.is_ok());
  for (int i = 0; i < 10; i++) {
    auto got = c3.value()->get(ns3.value().ns_id, "k" + std::to_string(i));
    ASSERT_TRUE(got.is_ok()) << "acked write lost after failover: k" << i;
    EXPECT_EQ(got.value(), "v" + std::to_string(i * 7));
  }
  ASSERT_TRUE(c3.value()->put(ns3.value().ns_id, "post", "failover", 8).is_ok());
  pump(1);
  EXPECT_EQ(c2.value()->get(ns2.value().ns_id, "post").value(), "failover");
}

}  // namespace
}  // namespace dstore::repl
