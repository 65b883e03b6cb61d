// Tests for the network service layer (DESIGN.md §15): the wire codec
// (round-trips, stream reassembly, deterministic garbage fuzz), the epoll
// server + client library end to end (pipelining, out-of-order completion,
// tenant isolation, metrics over the wire), and — under fault injection —
// the server crash rig: a fault plan kills the live server mid-checkpoint
// and recovery is held to a zero-acked-write-loss oracle.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "dipper/log.h"
#include "dstore/sharded.h"
#include "fault/fault.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "pmem/pool.h"
#include "repl/repl.h"

namespace dstore::net {
namespace {

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(WireCodec, FrameRoundTripsThroughParser) {
  std::string stream;
  append_frame(&stream, Op::kPut, 42, 0, "hello body");
  append_frame(&stream, Op::kGet, 43, 3, "");  // status byte rides along

  FrameParser p;
  p.feed(stream.data(), stream.size());
  Frame f;
  ASSERT_EQ(p.next(&f), FrameParser::Next::kFrame);
  EXPECT_EQ(f.hdr.op, Op::kPut);
  EXPECT_EQ(f.hdr.req_id, 42u);
  EXPECT_EQ(f.hdr.status, 0u);
  EXPECT_EQ(f.body, "hello body");
  ASSERT_EQ(p.next(&f), FrameParser::Next::kFrame);
  EXPECT_EQ(f.hdr.op, Op::kGet);
  EXPECT_EQ(f.hdr.req_id, 43u);
  EXPECT_EQ(f.hdr.status, 3u);
  EXPECT_TRUE(f.body.empty());
  EXPECT_EQ(p.next(&f), FrameParser::Next::kNeedMore);
}

TEST(WireCodec, ReassemblesFramesFedOneByteAtATime) {
  std::string stream;
  std::string body(1000, 'x');
  append_frame(&stream, Op::kScrub, 7, 0, body);
  FrameParser p;
  Frame f;
  for (size_t i = 0; i < stream.size(); i++) {
    p.feed(&stream[i], 1);
    if (i + 1 < stream.size()) {
      ASSERT_EQ(p.next(&f), FrameParser::Next::kNeedMore) << "at byte " << i;
    }
  }
  ASSERT_EQ(p.next(&f), FrameParser::Next::kFrame);
  EXPECT_EQ(f.hdr.req_id, 7u);
  EXPECT_EQ(f.body, body);
}

TEST(WireCodec, BodyBuildersRoundTrip) {
  std::string_view name;
  std::string ob = open_ns_body("tenant-a");  // outlives the parsed view
  ASSERT_TRUE(parse_open_ns(ob, &name));
  EXPECT_EQ(name, "tenant-a");

  uint32_t ns = 0;
  std::string_view key, value;
  std::string kb = key_body(9, "obj-1");
  ASSERT_TRUE(parse_key(kb, &ns, &key));
  EXPECT_EQ(ns, 9u);
  EXPECT_EQ(key, "obj-1");

  std::string payload = "\x00\x01payload\xff";
  std::string pb = put_body(3, "k", payload.data(), payload.size());
  ASSERT_TRUE(parse_put(pb, &ns, &key, &value));
  EXPECT_EQ(ns, 3u);
  EXPECT_EQ(key, "k");
  EXPECT_EQ(value, payload);

  uint8_t format = 9;
  ASSERT_TRUE(parse_metrics(metrics_body(1), &format));
  EXPECT_EQ(format, 1u);

  NamespaceInfo info;
  ASSERT_TRUE(parse_open_ns_resp(open_ns_resp_body({12, 2}), &info));
  EXPECT_EQ(info.ns_id, 12u);
  EXPECT_EQ(info.shard, 2u);

  ScrubSummary in{1, 2, 3, 4, 5}, out;
  ASSERT_TRUE(parse_scrub_resp(scrub_resp_body(in), &out));
  EXPECT_EQ(out.objects_scanned, 1u);
  EXPECT_EQ(out.quarantined_pages, 5u);
}

TEST(WireCodec, TruncatedBodiesFailToParseWithoutCrashing) {
  // The value is "rest of body" (its length is implied by the frame's
  // body_len), so the structured prefix is u32 ns + u16 key_len + key:
  // any cut inside it must be rejected; cuts beyond it just shorten the
  // value, which the frame layer has already vouched for.
  std::string pb = put_body(3, "key", "value", 5);
  const size_t structured = 4 + 2 + 3;
  uint32_t ns;
  std::string_view key, value;
  for (size_t cut = 0; cut < structured; cut++) {
    EXPECT_FALSE(parse_put(std::string_view(pb.data(), cut), &ns, &key, &value))
        << "prefix of " << cut << " bytes parsed";
  }
  for (size_t cut = structured; cut <= pb.size(); cut++) {
    ASSERT_TRUE(parse_put(std::string_view(pb.data(), cut), &ns, &key, &value));
    EXPECT_EQ(key, "key");
    EXPECT_EQ(value.size(), cut - structured);
  }

  // key_body has no trailing blob, so there EVERY strict prefix fails.
  std::string kb = key_body(3, "key");
  for (size_t cut = 0; cut < kb.size(); cut++) {
    EXPECT_FALSE(parse_key(std::string_view(kb.data(), cut), &ns, &key))
        << "prefix of " << cut << " bytes parsed";
  }
  ASSERT_TRUE(parse_key(kb, &ns, &key));
}

TEST(WireCodec, GarbageMagicPoisonsParser) {
  FrameParser p;
  std::string junk = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";  // not DSTP
  p.feed(junk.data(), junk.size());
  Frame f;
  ASSERT_EQ(p.next(&f), FrameParser::Next::kError);
  EXPECT_EQ(p.error().code(), Code::kInvalidArgument);
  // Poisoned for good: even a valid frame afterwards stays an error.
  std::string good;
  append_frame(&good, Op::kPut, 1, 0, "");
  p.feed(good.data(), good.size());
  EXPECT_EQ(p.next(&f), FrameParser::Next::kError);
}

TEST(WireCodec, VersionMismatchAndOversizeAreErrors) {
  {
    std::string stream;
    append_frame(&stream, Op::kPut, 1, 0, "");
    stream[4] = (char)(kVersion + 1);
    FrameParser p;
    p.feed(stream.data(), stream.size());
    Frame f;
    ASSERT_EQ(p.next(&f), FrameParser::Next::kError);
    EXPECT_EQ(p.error().code(), Code::kUnsupported);
  }
  {
    // body_len over the limit must error BEFORE any allocation happens.
    std::string hdr;
    append_frame(&hdr, Op::kPut, 1, 0, "");
    uint32_t huge = 64u << 20;
    memcpy(&hdr[16], &huge, sizeof(huge));  // little-endian host assumed in tests
    FrameParser p(1 << 20);
    p.feed(hdr.data(), hdr.size());
    Frame f;
    ASSERT_EQ(p.next(&f), FrameParser::Next::kError);
    EXPECT_EQ(p.error().code(), Code::kInvalidArgument);
  }
}

// Deterministic garbage fuzz: random byte streams (fixed seeds) must never
// crash the parser — every stream ends in kNeedMore or a poisoned error.
TEST(WireCodec, DeterministicGarbageFuzz) {
  for (uint64_t seed = 1; seed <= 64; seed++) {
    uint64_t x = seed * 0x9e3779b97f4a7c15ull;
    auto next_byte = [&x]() {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return (char)(x & 0xff);
    };
    FrameParser p(1 << 16);
    Frame f;
    for (int round = 0; round < 32; round++) {
      char chunk[64];
      for (char& c : chunk) c = next_byte();
      // A quarter of the streams start with valid magic+version, so the
      // fuzz also exercises the header-accepted/body-pending path.
      if (round == 0 && seed % 4 == 0) {
        std::string valid;
        append_frame(&valid, Op::kGet, seed, 0, "seedbody");
        p.feed(valid.data(), valid.size());
      }
      p.feed(chunk, sizeof(chunk));
      for (int drain = 0; drain < 64; drain++) {
        FrameParser::Next n = p.next(&f);
        if (n != FrameParser::Next::kFrame) break;
      }
    }
    // Either outcome is legal; crashing or spinning forever is not.
    SUCCEED();
  }
}

// Truncation fuzz: every prefix of a valid multi-frame stream leaves the
// parser waiting (never poisoned, never inventing a frame early).
TEST(WireCodec, TruncatedStreamsAlwaysNeedMore) {
  std::string stream;
  append_frame(&stream, Op::kPut, 1, 0, "0123456789");
  append_frame(&stream, Op::kDelete, 2, 0, "");
  for (size_t cut = 0; cut < stream.size(); cut++) {
    FrameParser p;
    p.feed(stream.data(), cut);
    Frame f;
    FrameParser::Next n = p.next(&f);
    while (n == FrameParser::Next::kFrame) n = p.next(&f);
    EXPECT_EQ(n, FrameParser::Next::kNeedMore) << "prefix " << cut;
  }
}

// ---------------------------------------------------------------------------
// Replication opcodes (DESIGN.md §16): codec coverage
// ---------------------------------------------------------------------------

TEST(WireCodec, ReplBodiesRoundTrip) {
  Heartbeat hb{7, 3, 42}, hb2;
  ASSERT_TRUE(parse_heartbeat(heartbeat_body(hb), &hb2));
  EXPECT_EQ(hb2.epoch, 7u);
  EXPECT_EQ(hb2.node_id, 3u);
  EXPECT_EQ(hb2.commit_seq, 42u);

  ReplAck a{9, 41, 1}, a2;
  ASSERT_TRUE(parse_repl_ack(repl_ack_body(a), &a2));
  EXPECT_EQ(a2.epoch, 9u);
  EXPECT_EQ(a2.applied_seq, 41u);
  EXPECT_EQ(a2.accepted, 1u);

  ReplHello h{ReplHello::kSnapPull, 2, 5, 100, 1}, h2;
  ASSERT_TRUE(parse_repl_hello(repl_hello_body(h), &h2));
  EXPECT_EQ(h2.kind, ReplHello::kSnapPull);
  EXPECT_EQ(h2.epoch, 2u);
  EXPECT_EQ(h2.node_id, 5u);
  EXPECT_EQ(h2.seq, 100u);
  EXPECT_EQ(h2.last_epoch, 1u);

  ReplSubscribeResult r{ReplSubscribeResult::kResync, 4, 1, 77, 3}, r2;
  ASSERT_TRUE(parse_repl_subscribe_resp(repl_subscribe_resp_body(r), &r2));
  EXPECT_EQ(r2.result, ReplSubscribeResult::kResync);
  EXPECT_EQ(r2.epoch, 4u);
  EXPECT_EQ(r2.primary_id, 1u);
  EXPECT_EQ(r2.base_seq, 77u);
  EXPECT_EQ(r2.base_epoch, 3u);

  PromoteReq p{PromoteReq::kVote, 6, 2, 88, 5}, p2;
  ASSERT_TRUE(parse_promote(promote_body(p), &p2));
  EXPECT_EQ(p2.kind, PromoteReq::kVote);
  EXPECT_EQ(p2.epoch, 6u);
  EXPECT_EQ(p2.node_id, 2u);
  EXPECT_EQ(p2.seq, 88u);
  EXPECT_EQ(p2.seq_epoch, 5u);

  PromoteResp q{1, 11}, q2;
  ASSERT_TRUE(parse_promote_resp(promote_resp_body(q), &q2));
  EXPECT_EQ(q2.granted, 1u);
  EXPECT_EQ(q2.epoch, 11u);

  // Enum-carrying bytes are validated, not trusted.
  std::string bad_kind = repl_hello_body(h);
  bad_kind[0] = 9;
  EXPECT_FALSE(parse_repl_hello(bad_kind, &h2));
  std::string bad_result = repl_subscribe_resp_body(r);
  bad_result[0] = 9;
  EXPECT_FALSE(parse_repl_subscribe_resp(bad_result, &r2));
  std::string bad_vote = promote_body(p);
  bad_vote[0] = 9;
  EXPECT_FALSE(parse_promote(bad_vote, &p2));
}

TEST(WireCodec, ReplAppendRoundTripsWithAndWithoutSlotImage) {
  std::string image(128, '\x5a');
  ReplEntryWire e;
  e.epoch = 3;
  e.seq = 17;
  e.entry_epoch = 2;
  e.op = 4;
  e.eflags = 0;
  e.shard = 1;
  e.slot = 9;
  e.lsn = 1234;
  e.arg0 = 11;
  e.arg1 = 22;
  e.value_crc = 0xdeadbeef;
  std::string val("\x00val\xffue", 7);
  e.key = "some-key";
  e.slot_image = image;
  e.value = val;

  std::string b = repl_append_body(e);
  ReplEntryWire d;
  ASSERT_TRUE(parse_repl_append(b, &d));
  EXPECT_EQ(d.epoch, 3u);
  EXPECT_EQ(d.seq, 17u);
  EXPECT_EQ(d.entry_epoch, 2u);
  EXPECT_EQ(d.op, 4u);
  EXPECT_EQ(d.shard, 1u);
  EXPECT_EQ(d.slot, 9u);
  EXPECT_EQ(d.lsn, 1234u);
  EXPECT_EQ(d.arg0, 11u);
  EXPECT_EQ(d.arg1, 22u);
  EXPECT_EQ(d.value_crc, 0xdeadbeefu);
  EXPECT_EQ(d.key, "some-key");
  EXPECT_EQ(d.slot_image, image);
  EXPECT_EQ(d.value, e.value);

  // Unlogged entry: no slot image, empty value (a delete).
  ReplEntryWire u;
  u.eflags = ReplEntryWire::kUnlogged;
  u.key = "k";
  std::string ub = repl_append_body(u);
  ASSERT_TRUE(parse_repl_append(ub, &u));
  EXPECT_TRUE(u.slot_image.empty());
  EXPECT_TRUE(u.value.empty());

  // The has-image marker only admits 0 or 1.
  std::string bad = repl_append_body(u);
  bad[64 + 1] = 2;  // 64-byte fixed prefix, 1-byte key, then the marker
  ReplEntryWire x;
  EXPECT_FALSE(parse_repl_append(bad, &x));
}

TEST(WireCodec, SnapChunkRoundTripsAndRejectsOverrun) {
  std::vector<SnapItemView> items = {
      {0, "alpha", "value-a"},
      {1, "beta", std::string_view("\x00\x01", 2)},
      {2, "gamma", ""},
      {3, "delta", "tail-piece", 4096},  // continuation piece of a big value
  };
  std::string b = snap_chunk_body(99, false, items);
  SnapChunk c;
  ASSERT_TRUE(parse_snap_chunk(b, &c));
  EXPECT_EQ(c.next_cursor, 99u);
  EXPECT_EQ(c.done, 0u);
  ASSERT_EQ(c.items.size(), 4u);
  EXPECT_EQ(c.items[0].key, "alpha");
  EXPECT_EQ(c.items[0].value, "value-a");
  EXPECT_EQ(c.items[0].offset, 0u);
  EXPECT_EQ(c.items[1].shard, 1u);
  EXPECT_EQ(c.items[1].value.size(), 2u);
  EXPECT_EQ(c.items[2].value, "");
  EXPECT_EQ(c.items[3].key, "delta");
  EXPECT_EQ(c.items[3].value, "tail-piece");
  EXPECT_EQ(c.items[3].offset, 4096u);

  // Exact-length framing: trailing garbage is a parse error, not ignored.
  std::string overrun = b + "x";
  EXPECT_FALSE(parse_snap_chunk(overrun, &c));

  std::string empty = snap_chunk_body(0, true, {});
  ASSERT_TRUE(parse_snap_chunk(empty, &c));
  EXPECT_EQ(c.done, 1u);
  EXPECT_TRUE(c.items.empty());
}

// Every replication body parser is exact-length: ANY strict prefix of a
// valid body must fail — a truncated frame can never half-parse into a
// plausible message.
TEST(WireCodec, TruncatedReplBodiesNeverParse) {
  std::string image(128, 'i');
  ReplEntryWire e;
  e.key = "key";
  e.slot_image = image;
  e.value = "value";
  std::vector<SnapItemView> items = {{0, "k", "v"}};
  struct Case {
    const char* what;
    std::string body;
    std::function<bool(std::string_view)> parse;
  };
  std::vector<Case> cases;
  cases.push_back({"heartbeat", heartbeat_body({1, 2, 3}),
                   [](std::string_view b) { Heartbeat m; return parse_heartbeat(b, &m); }});
  cases.push_back({"repl_ack", repl_ack_body({1, 2, 1}),
                   [](std::string_view b) { ReplAck m; return parse_repl_ack(b, &m); }});
  cases.push_back({"repl_hello", repl_hello_body({0, 1, 2, 3, 4}),
                   [](std::string_view b) { ReplHello m; return parse_repl_hello(b, &m); }});
  cases.push_back({"subscribe_resp", repl_subscribe_resp_body({0, 1, 2, 3, 4}),
                   [](std::string_view b) {
                     ReplSubscribeResult m;
                     return parse_repl_subscribe_resp(b, &m);
                   }});
  cases.push_back({"repl_append", repl_append_body(e),
                   [](std::string_view b) { ReplEntryWire m; return parse_repl_append(b, &m); }});
  cases.push_back({"snap_chunk", snap_chunk_body(5, true, items),
                   [](std::string_view b) { SnapChunk m; return parse_snap_chunk(b, &m); }});
  cases.push_back({"promote", promote_body({0, 1, 2, 3, 4}),
                   [](std::string_view b) { PromoteReq m; return parse_promote(b, &m); }});
  cases.push_back({"promote_resp", promote_resp_body({1, 2}),
                   [](std::string_view b) { PromoteResp m; return parse_promote_resp(b, &m); }});
  for (const Case& c : cases) {
    ASSERT_TRUE(c.parse(c.body)) << c.what;
    for (size_t cut = 0; cut < c.body.size(); cut++) {
      EXPECT_FALSE(c.parse(std::string_view(c.body.data(), cut)))
          << c.what << " parsed a prefix of " << cut << " bytes";
    }
  }
}

// Deterministic byte-flip fuzz over the repl bodies: every single-byte
// mutation either parses (the field was free-form) or fails — never
// crashes, never reads out of bounds (the length checks precede every
// substr).
TEST(WireCodec, ReplBodyMutationFuzzNeverCrashes) {
  std::string image(128, 'z');
  ReplEntryWire e;
  e.key = "mutate-me";
  e.slot_image = image;
  e.value = "some value bytes";
  std::vector<SnapItemView> items = {{3, "kk", "vv"}, {4, "x", "y"}};
  std::vector<std::string> bodies = {repl_append_body(e),
                                     snap_chunk_body(12, false, items)};
  for (const std::string& base : bodies) {
    for (size_t i = 0; i < base.size(); i++) {
      for (uint8_t delta : {0x01, 0x80, 0xff}) {
        std::string mut = base;
        mut[i] = (char)(mut[i] ^ delta);
        ReplEntryWire w;
        SnapChunk c;
        // Either verdict is fine; crashing is not.
        (void)parse_repl_append(mut, &w);
        (void)parse_snap_chunk(mut, &c);
      }
    }
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Server + client end to end
// ---------------------------------------------------------------------------

struct ServerFixture {
  ShardedConfig cfg;
  std::unique_ptr<ShardedStore> store;
  std::unique_ptr<Server> server;

  // Two shards of `objects_per_shard` objects each. The default 256 fits
  // 2048 blocks and a 1 MB arena; larger stores take DStore's own arena
  // estimate.
  explicit ServerFixture(fault::FaultInjector* inj = nullptr,
                         pmem::Pool::Mode mode = pmem::Pool::Mode::kDirect,
                         ServerConfig srv_cfg = {}, uint64_t objects_per_shard = 256) {
    cfg.num_shards = 2;
    cfg.pool_mode = mode;
    cfg.affinity = true;
    cfg.ckpt_workers = 1;
    cfg.shard.max_objects = objects_per_shard;
    cfg.shard.num_blocks = std::max<uint64_t>(2048, 2 * objects_per_shard);
    cfg.shard.engine.log_slots = 64;
    cfg.shard.engine.arena_bytes = objects_per_shard <= 256
                                       ? 1 << 20
                                       : DStoreConfig::suggested_arena_bytes(objects_per_shard);
    cfg.shard.engine.background_checkpointing = true;  // watermark -> pool
    cfg.fault = inj;
    cfg.fault_shard = 0;
    if (inj != nullptr) inj->disarm();  // creation noise must not shift hits
    auto r = ShardedStore::create(cfg);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    store = std::move(r).value();
    auto s = Server::start(store.get(), srv_cfg, inj);
    EXPECT_TRUE(s.is_ok()) << s.status().to_string();
    server = std::move(s).value();
  }

  std::unique_ptr<Client> connect() {
    auto c = Client::connect("127.0.0.1", server->port());
    EXPECT_TRUE(c.is_ok()) << c.status().to_string();
    return std::move(c).value();
  }

  // The `nth` namespace name homed on `shard` (the wire maps a namespace
  // wholly onto shard_of(name)).
  std::string ns_name_on_shard(int shard, int nth = 0) {
    for (int i = 0;; i++) {
      std::string name = "tenant-" + std::to_string(i);
      if (store->shard_of(name) == shard && nth-- == 0) return name;
    }
  }
};

TEST(NetEndToEnd, PutGetDeleteRoundTrip) {
  ServerFixture fx;
  auto client = fx.connect();
  auto ns = client->open_namespace("alpha");
  ASSERT_TRUE(ns.is_ok()) << ns.status().to_string();
  EXPECT_GE(ns.value().ns_id, 1u);

  std::string value(3000, 'v');
  ASSERT_TRUE(client->put(ns.value().ns_id, "obj", value.data(), value.size()).is_ok());
  auto got = client->get(ns.value().ns_id, "obj");
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value(), value);

  // Zero-copy request path (server falls back transparently if the device
  // has no direct mapping) — bytes must be identical either way.
  auto zc = client->get(ns.value().ns_id, "obj", /*zero_copy=*/true);
  ASSERT_TRUE(zc.is_ok()) << zc.status().to_string();
  EXPECT_EQ(zc.value(), value);

  ASSERT_TRUE(client->del(ns.value().ns_id, "obj").is_ok());
  auto gone = client->get(ns.value().ns_id, "obj");
  ASSERT_FALSE(gone.is_ok());
  EXPECT_EQ(gone.status().code(), Code::kNotFound);  // Status round-trips
}

TEST(NetEndToEnd, NamespacesAreIsolatedTenants) {
  ServerFixture fx;
  auto client = fx.connect();
  auto a = client->open_namespace("tenant-a");
  auto b = client->open_namespace("tenant-b");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_NE(a.value().ns_id, b.value().ns_id);

  ASSERT_TRUE(client->put(a.value().ns_id, "k", "from-a", 6).is_ok());
  ASSERT_TRUE(client->put(b.value().ns_id, "k", "from-b", 6).is_ok());
  EXPECT_EQ(client->get(a.value().ns_id, "k").value(), "from-a");
  EXPECT_EQ(client->get(b.value().ns_id, "k").value(), "from-b");

  // Deleting in one tenant never leaks into the other.
  ASSERT_TRUE(client->del(a.value().ns_id, "k").is_ok());
  EXPECT_EQ(client->get(a.value().ns_id, "k").status().code(), Code::kNotFound);
  EXPECT_EQ(client->get(b.value().ns_id, "k").value(), "from-b");

  // Re-opening by name is idempotent and returns the same id + home shard.
  auto a2 = client->open_namespace("tenant-a");
  ASSERT_TRUE(a2.is_ok());
  EXPECT_EQ(a2.value().ns_id, a.value().ns_id);
  EXPECT_EQ(a2.value().shard, a.value().shard);
}

TEST(NetEndToEnd, MalformedNamespaceNamesAreRejected) {
  ServerFixture fx;
  auto client = fx.connect();
  EXPECT_EQ(client->open_namespace("").status().code(), Code::kInvalidArgument);
  EXPECT_EQ(client->open_namespace(std::string("a\x1f") + "b").status().code(),
            Code::kInvalidArgument);
  // The connection survives application-level errors.
  EXPECT_TRUE(client->open_namespace("fine").is_ok());
}

TEST(NetEndToEnd, PipelinedSubmissionsCompleteAndMatchById) {
  ServerFixture fx;
  auto client = fx.connect();
  auto ns = client->open_namespace("pipe");
  ASSERT_TRUE(ns.is_ok());
  uint32_t id = ns.value().ns_id;

  constexpr int kN = 200;
  std::vector<uint64_t> put_ids;
  for (int i = 0; i < kN; i++) {
    std::string key = "k" + std::to_string(i);
    std::string val = "v" + std::to_string(i * i);
    auto r = client->submit_put(id, key, val.data(), val.size());
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    put_ids.push_back(r.value());
  }
  EXPECT_TRUE(client->wait_all().is_ok());
  EXPECT_EQ(client->in_flight(), 0u);

  // Interleave gets and reap them in REVERSE order — completion matching
  // is by req_id, not arrival order.
  std::vector<uint64_t> get_ids;
  for (int i = 0; i < kN; i++) {
    auto r = client->submit_get(id, "k" + std::to_string(i));
    ASSERT_TRUE(r.is_ok());
    get_ids.push_back(r.value());
  }
  for (int i = kN - 1; i >= 0; i--) {
    std::string value;
    ASSERT_TRUE(client->wait(get_ids[(size_t)i], &value).is_ok());
    EXPECT_EQ(value, "v" + std::to_string(i * i));
  }
}

// SCRUB is shipped off-loop; a PUT pipelined BEHIND it must complete first.
// Uses a raw socket: the completion order on the wire is the observable.
TEST(NetEndToEnd, SlowOpsCompleteOutOfOrder) {
  ServerFixture fx;
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.server->port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, (sockaddr*)&addr, sizeof(addr)), 0);

  std::string out;
  append_frame(&out, Op::kOpenNs, 1, 0, open_ns_body("ooo"));
  ASSERT_EQ(::send(fd, out.data(), out.size(), 0), (ssize_t)out.size());

  FrameParser parser;
  Frame f;
  auto read_frame = [&]() {
    for (;;) {
      if (parser.next(&f) == FrameParser::Next::kFrame) return true;
      char buf[4096];
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) return false;
      parser.feed(buf, (size_t)n);
    }
  };
  ASSERT_TRUE(read_frame());
  NamespaceInfo info;
  ASSERT_TRUE(parse_open_ns_resp(f.body, &info));

  // One write, two requests: SCRUB (req 5) then PUT (req 6).
  out.clear();
  append_frame(&out, Op::kScrub, 5, 0, "");
  append_frame(&out, Op::kPut, 6, 0, put_body(info.ns_id, "k", "v", 1));
  ASSERT_EQ(::send(fd, out.data(), out.size(), 0), (ssize_t)out.size());

  ASSERT_TRUE(read_frame());
  EXPECT_EQ(f.hdr.req_id, 6u) << "PUT should complete before the off-loop SCRUB";
  EXPECT_EQ(f.hdr.status, 0u);
  ASSERT_TRUE(read_frame());
  EXPECT_EQ(f.hdr.req_id, 5u);
  ScrubSummary sum;
  ASSERT_TRUE(parse_scrub_resp(f.body, &sum));
  EXPECT_GE(sum.objects_scanned, 0u);
  close(fd);
}

TEST(NetEndToEnd, ThousandConcurrentPipelinedConnections) {
  // From one thread: 1000 connections open at once over 64 tenants, each
  // with 8 puts and then 8 gets in flight. Every connection holds an fd on
  // both ends, so the soft fd limit must cover twice the connections.
  constexpr int kConns = 1000, kTenants = 64, kDepth = 8;
  constexpr rlim_t kFdsNeeded = 2 * kConns + 100;
  rlimit lim{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &lim), 0);
  if (lim.rlim_max < kFdsNeeded) {
    GTEST_SKIP() << "RLIMIT_NOFILE hard limit is " << lim.rlim_max << ", below the "
                 << kFdsNeeded << " fds " << kConns << " loopback connections need";
  }
  lim.rlim_cur = lim.rlim_max;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lim), 0);

  ServerFixture fx(nullptr, pmem::Pool::Mode::kDirect, {}, /*objects_per_shard=*/8192);
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<uint32_t> ns;
  for (int c = 0; c < kConns; c++) {
    clients.push_back(fx.connect());
    ASSERT_NE(clients.back(), nullptr) << "connection " << c;
    auto info = clients.back()->open_namespace("tenant-" + std::to_string(c % kTenants));
    ASSERT_TRUE(info.is_ok()) << "connection " << c << ": " << info.status().to_string();
    ns.push_back(info.value().ns_id);
  }
  EXPECT_GE(fx.server->metrics()
                .gauge("net_connections", "currently open client connections")
                ->value(),
            kConns);

  auto key = [](int c, int i) { return "conn" + std::to_string(c) + "/" + std::to_string(i); };
  auto value = [&](int c, int i) { return key(c, i) + std::string(48, (char)('a' + i)); };
  std::vector<std::vector<uint64_t>> ids(kConns);
  for (int c = 0; c < kConns; c++) {
    for (int i = 0; i < kDepth; i++) {
      std::string v = value(c, i);
      auto id = clients[c]->submit_put(ns[c], key(c, i), v.data(), v.size());
      ASSERT_TRUE(id.is_ok()) << id.status().to_string();
      ids[c].push_back(id.value());
    }
  }
  for (int c = 0; c < kConns; c++) {
    for (uint64_t id : ids[c]) ASSERT_TRUE(clients[c]->wait(id).is_ok()) << "connection " << c;
    ids[c].clear();
  }
  for (int c = 0; c < kConns; c++) {
    for (int i = 0; i < kDepth; i++) {
      auto id = clients[c]->submit_get(ns[c], key(c, i));
      ASSERT_TRUE(id.is_ok()) << id.status().to_string();
      ids[c].push_back(id.value());
    }
  }
  for (int c = 0; c < kConns; c++) {
    for (int i = 0; i < kDepth; i++) {
      std::string got;
      ASSERT_TRUE(clients[c]->wait(ids[c][i], &got).is_ok()) << key(c, i);
      EXPECT_EQ(got, value(c, i));
    }
  }
  EXPECT_EQ(fx.server->metrics()
                .counter("net_frame_errors_total", "connections dropped for protocol errors")
                ->value(),
            0u);
}

TEST(NetEndToEnd, MetricsScrapeOverTheWire) {
  ServerFixture fx;
  auto client = fx.connect();
  auto ns = client->open_namespace("m");
  ASSERT_TRUE(ns.is_ok());
  ASSERT_TRUE(client->put(ns.value().ns_id, "k", "v", 1).is_ok());

  auto json = client->metrics(0);
  ASSERT_TRUE(json.is_ok()) << json.status().to_string();
  // One merged scrape: the server's own net_* series next to the store's.
  EXPECT_NE(json.value().find("net_requests_total"), std::string::npos);
  EXPECT_NE(json.value().find("net_connections"), std::string::npos);
  EXPECT_NE(json.value().find("dstore_puts_total"), std::string::npos);

  auto prom = client->metrics(1);
  ASSERT_TRUE(prom.is_ok());
  EXPECT_NE(prom.value().find("# TYPE"), std::string::npos);

  Result<std::string> bad = client->metrics(7);
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), Code::kInvalidArgument);
}

TEST(NetEndToEnd, ScrubReportsMergedFleetCounters) {
  ServerFixture fx;
  auto client = fx.connect();
  auto ns = client->open_namespace("s");
  ASSERT_TRUE(ns.is_ok());
  for (int i = 0; i < 20; i++) {
    std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(client->put(ns.value().ns_id, key, "x", 1).is_ok());
  }
  auto sum = client->scrub();
  ASSERT_TRUE(sum.is_ok()) << sum.status().to_string();
  EXPECT_GE(sum.value().objects_scanned, 20u);
  EXPECT_EQ(sum.value().checksum_failures, 0u);
}

TEST(NetEndToEnd, ProtocolGarbageGetsErrorFrameThenDisconnect) {
  ServerFixture fx;
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.server->port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, (sockaddr*)&addr, sizeof(addr)), 0);
  std::string junk = "this is not a DSTP frame at all.........";
  ASSERT_GT(::send(fd, junk.data(), junk.size(), 0), 0);

  // The server flushes one error frame (req 0), then closes.
  FrameParser parser;
  Frame f;
  bool got_error_frame = false;
  for (;;) {
    char buf[4096];
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;  // clean EOF after the error frame
    parser.feed(buf, (size_t)n);
    if (parser.next(&f) == FrameParser::Next::kFrame) {
      got_error_frame = true;
      EXPECT_NE(f.hdr.status, 0u);
      EXPECT_EQ(f.hdr.req_id, 0u);
    }
  }
  EXPECT_TRUE(got_error_frame);
  close(fd);
}

TEST(NetEndToEnd, HeartbeatIsAnsweredByAPlainServer) {
  ServerFixture fx;
  auto client = fx.connect();
  Frame resp;
  ASSERT_TRUE(client->call(Op::kHeartbeat, heartbeat_body({}), &resp).is_ok());
  EXPECT_EQ(resp.hdr.op, Op::kHeartbeat);
  EXPECT_EQ(resp.hdr.status, 0u);
  ReplAck ack;
  ASSERT_TRUE(parse_repl_ack(resp.body, &ack));
  EXPECT_EQ(ack.accepted, 1u);
  EXPECT_EQ(ack.epoch, 0u);  // repl-less server echoes zeros

  // The other replication opcodes need an attached node; a malformed
  // heartbeat is a per-request error. The connection survives all three.
  ASSERT_TRUE(client->call(Op::kReplSubscribe, repl_hello_body({}), &resp).is_ok());
  EXPECT_EQ(resp.hdr.status, (uint8_t)Code::kUnsupported);
  ASSERT_TRUE(client->call(Op::kPromote, promote_body({}), &resp).is_ok());
  EXPECT_EQ(resp.hdr.status, (uint8_t)Code::kUnsupported);
  ASSERT_TRUE(client->call(Op::kHeartbeat, "abc", &resp).is_ok());
  EXPECT_EQ(resp.hdr.status, (uint8_t)Code::kInvalidArgument);
  ASSERT_TRUE(client->call(Op::kHeartbeat, heartbeat_body({}), &resp).is_ok());
  EXPECT_EQ(resp.hdr.status, 0u);

  auto json = client->metrics(0);
  ASSERT_TRUE(json.is_ok());
  EXPECT_NE(json.value().find("net_heartbeats_total"), std::string::npos);
}

TEST(NetEndToEnd, IdleReaperDropsSilentConnectionsButHeartbeatsKeepAlive) {
  ServerConfig scfg;
  scfg.idle_timeout_ms = 150;
  ServerFixture fx(nullptr, pmem::Pool::Mode::kDirect, scfg);
  auto chatty = fx.connect();
  auto quiet = fx.connect();
  auto ns = chatty->open_namespace("alive");
  ASSERT_TRUE(ns.is_ok());

  // `quiet` sends nothing; `chatty` heartbeats through four idle windows
  // (HEARTBEAT frames refresh the reaper clock like any other request).
  for (int i = 0; i < 12; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Frame resp;
    ASSERT_TRUE(chatty->call(Op::kHeartbeat, heartbeat_body({}), &resp).is_ok());
  }
  EXPECT_TRUE(chatty->put(ns.value().ns_id, "k", "v", 1).is_ok());
  Status dead = quiet->put(ns.value().ns_id, "k", "v", 1);
  EXPECT_FALSE(dead.is_ok()) << "idle connection survived the reaper";
  EXPECT_GE(fx.server->metrics()
                .counter("net_idle_reaped_total", "connections dropped by the idle reaper")
                ->value(),
            1u);
}

TEST(NetEndToEnd, ClientReconnectsWithBackoffAfterServerRestart) {
  ServerFixture fx;
  obs::MetricsRegistry reg;
  ClientConfig ccfg;
  ccfg.max_reconnect_attempts = 10;
  ccfg.reconnect_backoff_ms = 1;
  ccfg.reconnect_backoff_max_ms = 8;
  ccfg.metrics = &reg;
  auto c = Client::connect("127.0.0.1", fx.server->port(), ccfg);
  ASSERT_TRUE(c.is_ok());
  Client& client = *c.value();
  auto ns = client.open_namespace("re");
  ASSERT_TRUE(ns.is_ok());
  ASSERT_TRUE(client.put(ns.value().ns_id, "k", "v1", 2).is_ok());

  uint16_t port = fx.server->port();
  fx.server->stop();
  fx.server.reset();
  // The call that discovers the dead connection fails — a lost write is
  // ambiguous and must never be silently replayed on a new connection.
  EXPECT_FALSE(client.put(ns.value().ns_id, "k", "v2", 2).is_ok());

  ServerConfig scfg;
  scfg.port = port;
  auto srv2 = Server::start(fx.store.get(), scfg);
  ASSERT_TRUE(srv2.is_ok()) << srv2.status().to_string();
  // The next call re-dials under the backoff policy; state written before
  // the restart is served by the same store.
  auto ns2 = client.open_namespace("re");
  ASSERT_TRUE(ns2.is_ok()) << ns2.status().to_string();
  auto got = client.get(ns2.value().ns_id, "k");
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value(), "v1");
  EXPECT_GE(reg.counter("net_client_reconnects_total", "successful client reconnects")
                ->value(),
            1u);
}

TEST(NetEndToEnd, CallTimeoutKillsTheConnectionAndCountsIt) {
  // A listener that never accepts: the TCP handshake completes via the
  // backlog but no response ever comes back.
  int lfd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(bind(lfd, (sockaddr*)&addr, sizeof(addr)), 0);
  ASSERT_EQ(listen(lfd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(lfd, (sockaddr*)&addr, &len), 0);

  obs::MetricsRegistry reg;
  ClientConfig ccfg;
  ccfg.call_timeout_ms = 80;
  ccfg.metrics = &reg;
  auto c = Client::connect("127.0.0.1", ntohs(addr.sin_port), ccfg);
  ASSERT_TRUE(c.is_ok()) << c.status().to_string();
  auto t0 = std::chrono::steady_clock::now();
  auto got = c.value()->get(1, "k");
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), Code::kIoError);
  EXPECT_GE(elapsed_ms, 80);
  EXPECT_LT(elapsed_ms, 5000);
  EXPECT_EQ(reg.counter("net_client_timeouts_total", "sync calls that hit call_timeout_ms")
                ->value(),
            1u);
  // The timed-out connection is dead by contract (framing abandoned).
  EXPECT_FALSE(c.value()->get(1, "k").is_ok());
  close(lfd);
}

// ---------------------------------------------------------------------------
// One event loop per shard: handoff on OPEN_NS, completion routing, shutdown
// ---------------------------------------------------------------------------

// A raw DSTP connection: the tests below need frames pipelined into one
// write() and the exact order of responses on the wire.
struct RawConn {
  int fd = -1;
  FrameParser parser;

  explicit RawConn(uint16_t port) {
    fd = socket(AF_INET, SOCK_STREAM, 0);
    timeval limit{10, 0};  // a lost response fails the read, not the whole run
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, (sockaddr*)&addr, sizeof(addr)), 0);
  }
  ~RawConn() { close(fd); }

  bool send_all(const std::string& bytes) {
    return ::send(fd, bytes.data(), bytes.size(), 0) == (ssize_t)bytes.size();
  }
  bool read_frame(Frame* f) {
    for (;;) {
      if (parser.next(f) == FrameParser::Next::kFrame) return true;
      char buf[4096];
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) return false;
      parser.feed(buf, (size_t)n);
    }
  }
};

int64_t event_loops(Server& srv) {
  return srv.metrics().gauge("net_event_loops", "epoll event loop threads serving connections")
      ->value();
}

uint64_t handoffs(Server& srv) {
  return srv.metrics()
      .counter("net_handoffs_total", "connections handed to their namespace's home-shard loop")
      ->value();
}

TEST(NetMultiLoop, OneLoopPerShardUpToTheCoreCount) {
  ServerFixture fx;
  const int cores = std::max(1, (int)std::thread::hardware_concurrency());
  EXPECT_EQ(event_loops(*fx.server), std::min(fx.cfg.num_shards, cores));
}

// OPEN_NS and 100 PUTs in one write(): the connection moves to the loop of
// its namespace's home shard carrying the 100 unparsed PUTs, which run
// there in order — no loss, no reordering, responses in request order.
TEST(NetMultiLoop, OpenNsWithPipelinedPutsMigratesWithoutLossOrReordering) {
  ServerFixture fx;
  RawConn conn(fx.server->port());
  constexpr int kPuts = 100;
  std::string out;
  append_frame(&out, Op::kOpenNs, 1, 0, open_ns_body(fx.ns_name_on_shard(1)));
  for (int i = 0; i < kPuts; i++) {
    // Ten keys overwritten ten times each: only in-order execution leaves
    // every key at its last value. A fresh server numbers namespaces from 1.
    std::string v = "v" + std::to_string(i);
    append_frame(&out, Op::kPut, 2 + (uint64_t)i, 0,
                 put_body(1, "k" + std::to_string(i % 10), v.data(), v.size()));
  }
  ASSERT_TRUE(conn.send_all(out));

  Frame f;
  ASSERT_TRUE(conn.read_frame(&f));
  EXPECT_EQ(f.hdr.req_id, 1u);
  NamespaceInfo info;
  ASSERT_TRUE(parse_open_ns_resp(f.body, &info));
  ASSERT_EQ(info.ns_id, 1u);
  EXPECT_EQ(info.shard, 1u);
  for (int i = 0; i < kPuts; i++) {
    ASSERT_TRUE(conn.read_frame(&f)) << "response " << i;
    EXPECT_EQ(f.hdr.req_id, 2 + (uint64_t)i);
    EXPECT_EQ(f.hdr.status, 0u);
  }
  // Read back over the same (migrated) connection.
  out.clear();
  for (int k = 0; k < 10; k++) append_frame(&out, Op::kGet, 500 + (uint64_t)k, 0,
                                            key_body(1, "k" + std::to_string(k)));
  ASSERT_TRUE(conn.send_all(out));
  for (int k = 0; k < 10; k++) {
    ASSERT_TRUE(conn.read_frame(&f));
    EXPECT_EQ(f.hdr.req_id, 500 + (uint64_t)k);
    EXPECT_EQ(f.body, "v" + std::to_string(90 + k));
  }
  if (event_loops(*fx.server) >= 2) {
    EXPECT_EQ(handoffs(*fx.server), 1u);
  }
}

TEST(NetMultiLoop, ConcurrentClientsOnDifferentShardsReadBack) {
  ServerFixture fx(nullptr, pmem::Pool::Mode::kDirect, {}, /*objects_per_shard=*/1024);
  constexpr int kClients = 4, kKeys = 150;
  // Two tenants per shard, so each loop serves two clients at once.
  std::vector<std::string> names;
  for (int t = 0; t < kClients; t++) names.push_back(fx.ns_name_on_shard(t % 2, t / 2));
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; t++) {
    threads.emplace_back([&, t] {
      auto c = Client::connect("127.0.0.1", fx.server->port());
      if (!c.is_ok()) return (void)failures++;
      Client& cl = *c.value();
      auto ns = cl.open_namespace(names[t]);
      if (!ns.is_ok()) return (void)failures++;
      auto value = [&](int k) { return names[t] + "/" + std::to_string(k) + std::string(200, 'x'); };
      std::vector<uint64_t> ids;
      for (int k = 0; k < kKeys; k++) {
        std::string v = value(k);
        auto id = cl.submit_put(ns.value().ns_id, "key" + std::to_string(k), v.data(), v.size());
        if (!id.is_ok()) return (void)failures++;
        ids.push_back(id.value());
      }
      for (uint64_t id : ids)
        if (!cl.wait(id).is_ok()) failures++;
      for (int k = 0; k < kKeys; k++) {
        auto got = cl.get(ns.value().ns_id, "key" + std::to_string(k));
        if (!got.is_ok() || got.value() != value(k)) failures++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // Every tenant's keys landed on its namespace's home shard.
  std::vector<char> buf(512);
  for (const std::string& name : names) {
    auto r = fx.store->get_on(nullptr, fx.store->shard_of(name), name + '\x1f' + "key0",
                              buf.data(), buf.size());
    EXPECT_TRUE(r.is_ok()) << name << ": " << r.status().to_string();
  }
}

// SCRUB queued before OPEN_NS completes after the connection has moved; the
// completion must follow it to its new loop, as must one queued after.
TEST(NetMultiLoop, ScrubCompletionsFollowTheConnectionToItsLoop) {
  ServerFixture fx;
  RawConn conn(fx.server->port());
  std::string out;
  append_frame(&out, Op::kScrub, 1, 0, "");
  append_frame(&out, Op::kOpenNs, 2, 0, open_ns_body(fx.ns_name_on_shard(1)));
  append_frame(&out, Op::kScrub, 3, 0, "");
  append_frame(&out, Op::kPut, 4, 0, put_body(1, "k", "v", 1));
  ASSERT_TRUE(conn.send_all(out));
  std::set<uint64_t> seen;
  Frame f;
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(conn.read_frame(&f)) << "after " << seen.size() << " responses";
    EXPECT_EQ(f.hdr.status, 0u) << "req " << f.hdr.req_id;
    seen.insert(f.hdr.req_id);
  }
  EXPECT_EQ(seen, (std::set<uint64_t>{1, 2, 3, 4}));
}

// A stand-in replication node: every write is "replicated" after a short
// delay on the server's repl worker, so each PUT's ack is deferred.
class DelayedQuorum : public ReplHandler {
 public:
  ReplAck handle_append(const ReplEntryWire&) override { return {}; }
  ReplSubscribeResult handle_subscribe(const ReplHello&) override { return {}; }
  std::string handle_snap_pull(const ReplHello&) override { return ""; }
  ReplAck handle_heartbeat(const Heartbeat&) override { return {}; }
  PromoteResp handle_promote(const PromoteReq&) override { return {}; }
  bool writable() override { return true; }
  Status finish_write() override { return await_ticket(write_ticket()); }
  uint64_t write_ticket() override { return ++tickets; }
  Status await_ticket(uint64_t) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return Status::ok();
  }
  std::atomic<uint64_t> tickets{0};
};

TEST(NetMultiLoop, ReplicatedWriteAcksReachANonZeroLoop) {
  ServerFixture fx;
  fx.server->stop();
  DelayedQuorum quorum;
  auto srv = Server::start(fx.store.get(), ServerConfig{}, nullptr, &quorum);
  ASSERT_TRUE(srv.is_ok()) << srv.status().to_string();
  Server& server = *srv.value();

  // Connection A registers the namespace (id 1, home shard 1). B then
  // pipelines a PUT into it BEFORE its own OPEN_NS: that PUT's ack is
  // deferred while B is still on loop 0, and B moves on OPEN_NS.
  auto a = Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(a.is_ok());
  auto ns = a.value()->open_namespace(fx.ns_name_on_shard(1));
  ASSERT_TRUE(ns.is_ok());
  ASSERT_EQ(ns.value().ns_id, 1u);

  RawConn b(server.port());
  std::string out;
  append_frame(&out, Op::kPut, 1, 0, put_body(1, "early", "e", 1));
  append_frame(&out, Op::kOpenNs, 2, 0, open_ns_body(fx.ns_name_on_shard(1)));
  for (uint64_t r = 3; r < 23; r++) append_frame(&out, Op::kPut, r, 0, put_body(1, "k", "v", 1));
  ASSERT_TRUE(b.send_all(out));
  std::set<uint64_t> seen;
  Frame f;
  for (int i = 0; i < 22; i++) {
    ASSERT_TRUE(b.read_frame(&f)) << "after " << seen.size() << " responses";
    EXPECT_EQ(f.hdr.status, 0u) << "req " << f.hdr.req_id;
    seen.insert(f.hdr.req_id);
  }
  EXPECT_EQ(seen.size(), 22u);
  EXPECT_EQ(quorum.tickets.load(), 21u);
  EXPECT_GE(server.metrics()
                .counter("net_slow_ops_total",
                         "requests completed off-loop (scrub worker, "
                         "replicated-write quorum waits)")
                ->value(),
            21u);
}

// drain_stop flushes every loop's responses, then closes every connection.
TEST(NetMultiLoop, DrainStopClosesConnectionsOnEveryLoop) {
  ServerFixture fx;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<uint32_t> ns;
  std::vector<std::vector<uint64_t>> ids(2);
  for (int shard = 0; shard < 2; shard++) {
    clients.push_back(fx.connect());
    auto info = clients.back()->open_namespace(fx.ns_name_on_shard(shard));
    ASSERT_TRUE(info.is_ok());
    ns.push_back(info.value().ns_id);
  }
  for (int shard = 0; shard < 2; shard++) {
    for (int i = 0; i < 20; i++) {
      auto id = clients[shard]->submit_put(ns[shard], "k" + std::to_string(i), "v", 1);
      ASSERT_TRUE(id.is_ok());
      ids[shard].push_back(id.value());
    }
  }
  // Let the requests reach the server before draining it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fx.server->drain_stop(2000);
  for (int shard = 0; shard < 2; shard++) {
    for (uint64_t id : ids[shard]) EXPECT_TRUE(clients[shard]->wait(id).is_ok()) << shard;
    EXPECT_FALSE(clients[shard]->put(ns[shard], "after", "x", 1).is_ok())
        << "connection on shard " << shard << " survived the drain";
  }
}

// ---------------------------------------------------------------------------
// Replication over the wire: the epoch fence as the divergence oracle
// ---------------------------------------------------------------------------

// A follower node behind a real server must bounce a deposed primary's
// appends — the "split-brain divergence" forbidden outcome — while its
// store keeps serving the pre-fork value, and client writes bounce with
// READ_ONLY (followers are read-only replicas).
TEST(ReplWire, EpochFenceRejectsAStalePrimaryOverTheWire) {
  repl::NodeConfig ncfg;
  ncfg.node_id = 2;
  ncfg.initial_primary = 1;
  auto node = std::make_unique<repl::Node>(ncfg);
  ShardedConfig scfg;
  scfg.num_shards = 1;
  scfg.shard.max_objects = 64;
  scfg.shard.num_blocks = 512;
  scfg.shard.engine.log_slots = 64;
  scfg.repl_sink = node.get();
  auto store = ShardedStore::create(scfg);
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();
  node->attach_store(store.value().get());
  auto srv = Server::start(store.value().get(), ServerConfig{}, nullptr, node.get());
  ASSERT_TRUE(srv.is_ok()) << srv.status().to_string();
  auto c = Client::connect("127.0.0.1", srv.value()->port());
  ASSERT_TRUE(c.is_ok());
  Client& client = *c.value();

  auto append = [&](uint64_t epoch, uint64_t seq, std::string_view key,
                    std::string_view value, ReplAck* ack) {
    ReplEntryWire w;
    w.epoch = epoch;
    w.seq = seq;
    w.entry_epoch = epoch;
    w.op = (uint8_t)dipper::OpType::kPut;
    w.eflags = ReplEntryWire::kUnlogged;
    w.key = key;
    w.value = value;
    w.value_crc = crc32c(value.data(), value.size());
    Frame resp;
    Status s = client.call(Op::kReplAppend, repl_append_body(w), &resp);
    if (s.is_ok()) {
      EXPECT_EQ(resp.hdr.op, Op::kReplAck);
      EXPECT_EQ(resp.hdr.status, 0u);
      EXPECT_TRUE(parse_repl_ack(resp.body, ack));
    }
    return s;
  };
  auto local_read = [&](std::string_view key) {
    char buf[64];
    auto r = node->get(key, buf, sizeof(buf));
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    return std::string(buf, r.is_ok() ? r.value() : 0);
  };

  ReplAck ack;
  ASSERT_TRUE(append(1, 1, "k", "epoch-1-value", &ack).is_ok());
  EXPECT_EQ(ack.accepted, 1u);
  EXPECT_EQ(ack.applied_seq, 1u);
  EXPECT_EQ(local_read("k"), "epoch-1-value");

  // A newer primary (node 9, epoch 3) announces itself by heartbeat.
  Frame resp;
  ASSERT_TRUE(client.call(Op::kHeartbeat, heartbeat_body({3, 9, 1}), &resp).is_ok());
  ReplAck hb_ack;
  ASSERT_TRUE(parse_repl_ack(resp.body, &hb_ack));
  EXPECT_EQ(hb_ack.epoch, 3u);

  // The fence: the deposed epoch-1 primary's append bounces with the
  // higher epoch and the store never forks.
  ASSERT_TRUE(append(1, 2, "k", "stale-fork-value", &ack).is_ok());
  EXPECT_EQ(ack.accepted, 0u);
  EXPECT_EQ(ack.epoch, 3u);
  EXPECT_EQ(local_read("k"), "epoch-1-value");

  // The legitimate epoch-3 primary streams on from seq 2.
  ASSERT_TRUE(append(3, 2, "k", "epoch-3-value", &ack).is_ok());
  EXPECT_EQ(ack.accepted, 1u);
  EXPECT_EQ(local_read("k"), "epoch-3-value");

  // Follower write gating over the wire: reads fine, writes READ_ONLY.
  auto ns = client.open_namespace("t");
  ASSERT_TRUE(ns.is_ok());
  Status w = client.put(ns.value().ns_id, "x", "y", 1);
  EXPECT_EQ(w.code(), Code::kReadOnly);

  // A malformed append body is a per-request error, not a dropped link.
  ASSERT_TRUE(client.call(Op::kReplAppend, "zz", &resp).is_ok());
  EXPECT_EQ(resp.hdr.status, (uint8_t)Code::kInvalidArgument);
  ASSERT_TRUE(client.call(Op::kHeartbeat, heartbeat_body({3, 9, 2}), &resp).is_ok());
}

// ---------------------------------------------------------------------------
// Server crash rig (fault-injection builds only)
// ---------------------------------------------------------------------------
#if !defined(DSTORE_FAULT_INJECTION_DISABLED)

// Kill the live server mid-checkpoint via a fault plan, then hold recovery
// to the oracle: every ACKED write survives (zero acked-write loss); the
// single op in flight at the crash is unknown-by-contract. The old client
// observes a clean connection error (not a hang, not a garbage frame), and
// a new server over the recovered store serves the verified state.
TEST(NetCrashRig, KillMidCheckpointLosesNoAckedWrite) {
  fault::FaultInjector inj;
  ServerFixture fx(&inj, pmem::Pool::Mode::kCrashSim);
  auto client = fx.connect();

  // The tenant must live on the faulted shard for the plan to bite.
  std::string ns_name = fx.ns_name_on_shard(fx.cfg.fault_shard);
  auto ns = client->open_namespace(ns_name);
  ASSERT_TRUE(ns.is_ok());
  uint32_t id = ns.value().ns_id;

  inj.set_plan(fault::FaultPlan::crash_at("engine.ckpt.begin", 1));
  inj.arm();

  // Hammer puts until the crash cuts the connection. Acked => in oracle.
  std::map<std::string, std::string> oracle;
  std::string pending_key;  // the unacked op in flight at the crash
  for (int i = 0; i < 20000; i++) {
    std::string key = "obj-" + std::to_string(i);
    std::string val(1 + (size_t)(i % 700), (char)('a' + i % 26));
    Status s = client->put(id, key, val.data(), val.size());
    if (!s.is_ok()) {
      pending_key = key;
      break;
    }
    oracle[key] = val;
  }
  ASSERT_TRUE(inj.crashed()) << "fault plan never fired — no checkpoint started?";
  ASSERT_FALSE(pending_key.empty()) << "client never observed the crash";

  // The old connection reports a clean error on every later call.
  Status after = client->put(id, "post-crash", "x", 1);
  EXPECT_FALSE(after.is_ok());
  EXPECT_EQ(after.code(), Code::kIoError);

  fx.server->stop();
  EXPECT_TRUE(fx.server->crashed());

  // Power-fail the fleet at the frozen image and recover.
  inj.disarm();
  ASSERT_TRUE(fx.store->crash_and_recover_all().is_ok());

  // Zero acked-write loss: every acked put is present with exact bytes.
  int home = fx.cfg.fault_shard;
  std::vector<char> buf(1 << 12);
  for (const auto& [key, val] : oracle) {
    std::string full = ns_name + '\x1f' + key;
    auto r = fx.store->get_on(nullptr, home, full, buf.data(), buf.size());
    ASSERT_TRUE(r.is_ok()) << "acked write lost: " << key << " — " << r.status().to_string();
    ASSERT_EQ(r.value(), val.size()) << "acked write truncated: " << key;
    EXPECT_EQ(std::string(buf.data(), r.value()), val) << "acked write corrupt: " << key;
  }

  // Reconnect-to-verified-state: a fresh server over the recovered store
  // serves the oracle to a fresh client.
  auto srv2 = Server::start(fx.store.get(), ServerConfig{});
  ASSERT_TRUE(srv2.is_ok());
  auto c2 = Client::connect("127.0.0.1", srv2.value()->port());
  ASSERT_TRUE(c2.is_ok());
  auto ns2 = c2.value()->open_namespace(ns_name);
  ASSERT_TRUE(ns2.is_ok());
  const auto& [first_key, first_val] = *oracle.begin();
  auto got = c2.value()->get(ns2.value().ns_id, first_key);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), first_val);
}

// The ack gate is server-wide: when a crash freezes shard 0, the loop
// serving shard 1 stops too, and its client sees EOF rather than an ack.
TEST(NetCrashRig, CrashShutdownClosesConnectionsOnEveryLoop) {
  fault::FaultInjector inj;
  ServerFixture fx(&inj, pmem::Pool::Mode::kCrashSim);
  auto faulted = fx.connect();
  auto other = fx.connect();
  auto fns = faulted->open_namespace(fx.ns_name_on_shard(fx.cfg.fault_shard));
  auto ons = other->open_namespace(fx.ns_name_on_shard(1 - fx.cfg.fault_shard));
  ASSERT_TRUE(fns.is_ok());
  ASSERT_TRUE(ons.is_ok());
  ASSERT_TRUE(other->put(ons.value().ns_id, "before", "x", 1).is_ok());

  inj.set_plan(fault::FaultPlan::crash_at("engine.ckpt.begin", 1));
  inj.arm();
  bool cut = false;
  for (int i = 0; i < 20000 && !cut; i++) {
    std::string val(1 + (size_t)(i % 700), 'c');
    cut = !faulted->put(fns.value().ns_id, "obj-" + std::to_string(i), val.data(), val.size())
               .is_ok();
  }
  ASSERT_TRUE(cut) << "fault plan never fired";
  ASSERT_TRUE(inj.crashed());
  Status s = other->put(ons.value().ns_id, "after", "x", 1);
  EXPECT_EQ(s.code(), Code::kIoError) << "a loop kept acking after the crash";
  fx.server->stop();
  EXPECT_TRUE(fx.server->crashed());
  inj.disarm();
}

#endif  // !DSTORE_FAULT_INJECTION_DISABLED

}  // namespace
}  // namespace dstore::net
