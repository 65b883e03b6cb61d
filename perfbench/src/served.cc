// served and served-repl: an in-process net::Server fleet driven by one
// open-loop (Poisson) generator thread over four DSTP connections, one
// tenant each. served-repl links three repl::Nodes through a MemHub (the
// real wire codecs, no sockets); writes go to the primary and wait for the
// quorum. Over loopback TcpPeer links every replicated put crossed about
// eight threads, and on a small shared host its latency moved with every
// wake-up delay (put p50 spread 1.07 across ten runs).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench.h"
#include "common/latency_model.h"
#include "common/rng.h"
#include "dstore/sharded.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "repl/mem_hub.h"
#include "repl/repl.h"

namespace perfbench {
namespace {

using dstore::ShardedConfig;
using dstore::ShardedStore;
namespace net = dstore::net;
namespace repl = dstore::repl;

struct ServedSpec {
  int nodes;
  int shards;  // per node
  int tenants;
  uint32_t keys_per_tenant;
  size_t value_bytes;
  double rate;  // fixed offered load, ops/s: about 70% of the knee
};

ServedSpec spec_for(const std::string& workload) {
  if (workload == "served-repl") return {3, 1, 4, 5000, 4096, 2000};
  return {1, 2, 4, 5000, 4096, 28000};  // served
}

// Knee ladder (DESIGN.md): offered rate steps of 0.25x the fixed rate from
// 0.5x, one second each; a step passes while put and get p99 <= 1 ms and
// >= 99% of the offered ops complete within the step plus 100 ms.
constexpr int kLadderSteps = 10;
constexpr uint64_t kLadderStepNs = 1'000'000'000;
constexpr uint64_t kLadderGraceNs = 100'000'000;
constexpr double kLadderP99LimitUs = 1000;
constexpr double kLadderCompletion = 0.99;

// ---- fleet -----------------------------------------------------------------

struct FleetNode {
  std::unique_ptr<repl::Node> node;
  std::unique_ptr<TracedReplHandler> handler;  // traced run, replicated only
  std::unique_ptr<ShardedStore> store;
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<repl::PeerRpc>> peers;
  std::vector<TracedPeer*> traced_peers;
  std::vector<pid_t> server_tids;
};

class Fleet {
 public:
  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    for (auto& n : nodes)
      if (n->node) n->node->stop_ticker();
    for (auto& n : nodes)
      if (n->server) n->server->stop();
  }

  repl::MemHub hub;  // outlives the nodes' peers
  std::vector<std::unique_ptr<FleetNode>> nodes;  // nodes[0] is the primary
  std::atomic<bool> traced{false};

  FleetNode& primary() { return *nodes[0]; }
  void set_traced(bool on) {
    traced = on;
    for (auto& n : nodes)
      if (n->handler) n->handler->active = on;
  }
};

std::unique_ptr<Fleet> make_fleet(const ServedSpec& spec, bool trace) {
  auto fleet = std::make_unique<Fleet>();
  const uint64_t keys = (uint64_t)spec.tenants * spec.keys_per_tenant;
  for (int id = 1; id <= spec.nodes; id++) {
    auto fn = std::make_unique<FleetNode>();
    if (spec.nodes > 1) {
      repl::NodeConfig ncfg;
      ncfg.node_id = (uint64_t)id;
      ncfg.start_as_primary = id == 1;
      ncfg.initial_primary = 1;
      fn->node = std::make_unique<repl::Node>(ncfg);
    }
    ShardedConfig sc;
    sc.num_shards = spec.shards;
    sc.shard.max_objects = keys * 2 / (uint64_t)spec.shards + 1024;
    sc.shard.num_blocks = keys * 5 / 4 / (uint64_t)spec.shards + 1024;
    sc.shard.ssd_qd = 16;
    sc.shard.engine.log_slots = 4096;
    sc.shard.engine.background_checkpointing = true;
    sc.latency = dstore::LatencyModel::calibrated(1.0);
    sc.affinity = true;
    sc.ckpt_workers = 1;  // leave the cores to the loop and the generator
    sc.repl_sink = fn->node.get();
    auto st = ShardedStore::create(sc);
    if (!st.is_ok()) {
      fprintf(stderr, "ShardedStore::create: %s\n", st.status().to_string().c_str());
      return nullptr;
    }
    fn->store = std::move(st).value();
    net::ReplHandler* handler = fn->node.get();
    if (fn->node) {
      fn->node->attach_store(fn->store.get());
      if (trace) {
        fn->handler = std::make_unique<TracedReplHandler>(fn->node.get());
        handler = fn->handler.get();
      }
    }
    std::vector<pid_t> before = list_tids();
    auto sv = net::Server::start(fn->store.get(), net::ServerConfig{}, nullptr, handler);
    if (!sv.is_ok()) {
      fprintf(stderr, "Server::start: %s\n", sv.status().to_string().c_str());
      return nullptr;
    }
    fn->server = std::move(sv).value();
    for (pid_t t : list_tids())
      if (!std::binary_search(before.begin(), before.end(), t)) fn->server_tids.push_back(t);
    fleet->nodes.push_back(std::move(fn));
  }
  if (spec.nodes == 1) return fleet;
  for (auto& n : fleet->nodes) fleet->hub.add_node(n->node->node_id(), n->node.get(), nullptr);
  for (auto& a : fleet->nodes) {
    for (auto& b : fleet->nodes) {
      if (a == b) continue;
      std::unique_ptr<repl::PeerRpc> peer =
          fleet->hub.peer(a->node->node_id(), b->node->node_id());
      if (trace) {
        auto tp = std::make_unique<TracedPeer>(std::move(peer));
        tp->active = &fleet->traced;
        a->traced_peers.push_back(tp.get());
        peer = std::move(tp);
      }
      a->node->add_peer(b->node->node_id(), peer.get());
      a->peers.push_back(std::move(peer));
    }
  }
  for (auto& n : fleet->nodes) n->node->start_ticker(50);
  // Writes ack only at quorum: wait for both followers to subscribe.
  for (int i = 0; i < 200; i++) {
    if (fleet->primary().node->metrics().value("repl_followers_in_sync") >= spec.nodes - 1)
      return fleet;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  fprintf(stderr, "followers never reached in-sync\n");
  return nullptr;
}

// Tenant names whose home shards spread the tenants evenly over the shards.
std::vector<std::string> pick_tenants(const ServedSpec& spec, ShardedStore* store) {
  std::vector<std::string> out;
  std::vector<int> per_shard(spec.shards, 0);
  const int quota = spec.tenants / spec.shards;
  for (int i = 0; (int)out.size() < spec.tenants; i++) {
    std::string name = "tenant-" + std::to_string(i);
    int s = store->shard_of(name);
    if (per_shard[s] < quota) {
      per_shard[s]++;
      out.push_back(name);
    }
  }
  return out;
}

// ---- the open-loop client --------------------------------------------------

struct Pending {
  uint64_t intended = 0;  // scheduled send time: latency counts from here
  uint32_t lag = 0;       // actual send - intended
  uint64_t bound = 0;     // put: its version; get: acked version at send
  uint32_t key = 0;
  uint8_t op = kOpGet;
  uint8_t flags = 0;
  bool live = false;
};

struct Conn {
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) close(fd);
  }

  int fd = -1;
  uint32_t ns = 0;
  uint32_t tenant = 0;
  net::FrameParser parser;
  std::string out;
  size_t out_off = 0;
  uint64_t next_req = 1;
  std::vector<Pending> ring = std::vector<Pending>(1 << 16);  // by req_id
};

int dial(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, (sockaddr*)&addr, sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

struct Phase {
  std::vector<Sample> samples;  // done_ns = intended send time
  uint64_t start = 0, end = 0;
};

class Generator {
 public:
  Generator(const Args& args, const ServedSpec& spec, Oracle* oracle, ShardedStore* primary)
      : args_(args), spec_(spec), oracle_(oracle), primary_(primary), buf_(spec.value_bytes) {}

  bool connect_all(uint16_t port, const std::vector<std::string>& tenants) {
    for (size_t t = 0; t < tenants.size(); t++) {
      auto c = std::make_unique<Conn>();
      c->fd = dial(port);
      c->tenant = (uint32_t)t;
      if (c->fd < 0) return false;
      std::string frame;
      net::append_frame(&frame, net::Op::kOpenNs, 0, 0, net::open_ns_body(tenants[t]));
      if (write(c->fd, frame.data(), frame.size()) != (ssize_t)frame.size()) return false;
      net::Frame resp;
      for (;;) {
        auto n = c->parser.next(&resp);
        if (n == net::FrameParser::Next::kFrame) break;
        if (n == net::FrameParser::Next::kError) return false;
        char tmp[256];
        ssize_t r = read(c->fd, tmp, sizeof(tmp));
        if (r <= 0) return false;
        c->parser.feed(tmp, (size_t)r);
      }
      net::NamespaceInfo info;
      if (resp.hdr.status != 0 || !net::parse_open_ns_resp(resp.body, &info)) return false;
      c->ns = info.ns_id;
      fcntl(c->fd, F_SETFL, fcntl(c->fd, F_GETFL, 0) | O_NONBLOCK);
      conns_.push_back(std::move(c));
    }
    return true;
  }

  // Version 1 of every key, 32 puts in flight per connection.
  bool preload() {
    std::vector<uint32_t> next(conns_.size(), 0);
    size_t done_conns = 0;
    while (done_conns < conns_.size() || inflight_ > 0) {
      done_conns = 0;
      for (size_t i = 0; i < conns_.size(); i++) {
        Conn& c = *conns_[i];
        while (next[i] < spec_.keys_per_tenant && c.next_req - completed_[i] <= 32) {
          uint32_t k = c.tenant * spec_.keys_per_tenant + next[i]++;
          send_put(c, k, 1, 0);
        }
        if (next[i] == spec_.keys_per_tenant) done_conns++;
      }
      if (!pump(clock_ns() + 1'000'000, nullptr)) return false;
    }
    return failed_preload_ == 0;
  }

  // Offer Poisson arrivals at `rate` for `duration_ns`, then wait for the
  // stragglers (up to 2 s). With `phase` set, every op is kept as a sample.
  void run(double rate, uint64_t duration_ns, uint64_t salt, Phase* phase) {
    dstore::Rng rng(args_.seed * 0x9e3779b97f4a7c15ull + salt);
    auto gap = [&] { return (uint64_t)(-std::log(1.0 - rng.next_double()) / rate * 1e9); };
    phase_ = phase;
    const uint64_t start = clock_ns();
    const uint64_t end = start + duration_ns;
    if (phase != nullptr) {
      phase->start = start;
      phase->end = end;
    }
    uint64_t next = start + gap();
    for (;;) {
      uint64_t now = clock_ns();
      while (next <= now && next < end) {
        issue(rng, next);
        next += gap();
      }
      if (next >= end && inflight_ == 0) break;
      if (now > end + 2'000'000'000ull || !pump(next < end ? next : now + 1'000'000, phase)) {
        abandon();
        break;
      }
    }
    phase_ = nullptr;
  }

  uint64_t ops_done() const { return ops_done_; }
  uint64_t abandoned() const { return abandoned_; }

 private:
  void send_put(Conn& c, uint32_t k, uint64_t version, uint64_t intended) {
    encode_value(buf_.data(), buf_.size(), k, version);
    oracle_->issued(k).store(version);
    uint64_t req = c.next_req++;
    Pending& p = c.ring[req & (c.ring.size() - 1)];
    p = {intended, lag_of(intended), version, k, kOpPut, ckpt_flag(), true};
    net::append_frame(&c.out, net::Op::kPut, req, 0,
                      net::put_body(c.ns, key_name(k), buf_.data(), buf_.size()));
    inflight_++;
  }

  void send_get(Conn& c, uint32_t k, uint64_t intended) {
    uint64_t req = c.next_req++;
    Pending& p = c.ring[req & (c.ring.size() - 1)];
    p = {intended, lag_of(intended), oracle_->acked(k).load(), k, kOpGet, ckpt_flag(), true};
    net::append_frame(&c.out, net::Op::kGet, req, 0, net::key_body(c.ns, key_name(k)));
    inflight_++;
  }

  void issue(dstore::Rng& rng, uint64_t intended) {
    Conn& c = *conns_[rng.next_below(conns_.size())];
    const bool is_put = rng.next_double() < 0.5;
    uint32_t k = c.tenant * spec_.keys_per_tenant + (uint32_t)rng.next_below(spec_.keys_per_tenant);
    if (is_put) {
      if (k == dropped_) return;  // a later put would mask the dropped one
      uint64_t v = oracle_->issued(k).load() + 1;
      if (phase_ != nullptr && !injected_ && args_.inject == "drop-put") {
        // Acknowledge a put that was never sent: the read-back must see it.
        injected_ = true;
        dropped_ = k;
        oracle_->issued(k).store(v);
        oracle_->acked(k).store(v);
        return;
      }
      send_put(c, k, v, intended);
    } else {
      send_get(c, k, intended);
    }
  }

  // Preload puts carry intended time 0: no schedule, no lag.
  static uint32_t lag_of(uint64_t intended) {
    return intended == 0 ? 0 : (uint32_t)std::min<uint64_t>(clock_ns() - intended, UINT32_MAX);
  }

  uint8_t ckpt_flag() const {
    for (int s = 0; s < primary_->num_shards(); s++)
      if (primary_->shard(s).engine().checkpoint_running()) return kFlagInCkpt;
    return 0;
  }

  std::string_view key_name(uint32_t k) {
    int n = snprintf(name_, sizeof(name_), "k%08u", k);
    return {name_, (size_t)n};
  }

  // Flush pending output, wait for input until `deadline`, consume every
  // complete response. False when a connection broke.
  bool pump(uint64_t deadline, Phase* phase) {
    pollfd pfds[8];
    size_t n = conns_.size();
    for (size_t i = 0; i < n; i++) {
      Conn& c = *conns_[i];
      flush(c);
      pfds[i] = {c.fd, (short)(POLLIN | (c.out_off < c.out.size() ? POLLOUT : 0)), 0};
    }
    uint64_t now = clock_ns();
    timespec ts{};
    uint64_t wait = deadline > now ? deadline - now : 0;
    ts.tv_sec = (time_t)(wait / 1'000'000'000ull);
    ts.tv_nsec = (long)(wait % 1'000'000'000ull);
    if (ppoll(pfds, n, &ts, nullptr) < 0 && errno != EINTR) return false;
    for (size_t i = 0; i < n; i++) {
      if (!(pfds[i].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      Conn& c = *conns_[i];
      char tmp[1 << 16];
      for (;;) {
        ssize_t r = read(c.fd, tmp, sizeof(tmp));
        if (r > 0) {
          c.parser.feed(tmp, (size_t)r);
          continue;
        }
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (r < 0 && errno == EINTR) continue;
        return false;
      }
      net::Frame f;
      for (;;) {
        auto st = c.parser.next(&f);
        if (st == net::FrameParser::Next::kNeedMore) break;
        if (st == net::FrameParser::Next::kError) return false;
        complete(c, i, f, phase);
      }
    }
    return true;
  }

  void flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      ssize_t w = write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
      if (w > 0) {
        c.out_off += (size_t)w;
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      break;  // EAGAIN: the rest goes out on a later pump
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  }

  void complete(Conn& c, size_t ci, const net::Frame& f, Phase* phase) {
    Pending& p = c.ring[f.hdr.req_id & (c.ring.size() - 1)];
    if (!p.live) return;
    p.live = false;
    inflight_--;
    completed_[ci]++;
    ops_done_++;
    const uint64_t now = clock_ns();
    uint8_t flags = p.flags | ckpt_flag();
    const bool ok = f.hdr.status == 0;
    if (p.op == kOpPut) {
      if (ok) {
        uint64_t prev = oracle_->acked(p.key).load();
        if (p.bound > prev) oracle_->acked(p.key).store(p.bound);
      } else if (phase == nullptr && p.intended == 0) {
        failed_preload_++;
      }
    } else if (ok) {
      const std::string* body = &f.body;
      std::string corrupted;
      if (phase != nullptr && !injected_ && args_.inject == "corrupt-get") {
        corrupted = f.body;
        corrupted[kValueOverhead + 7] ^= 0x20;
        body = &corrupted;
        injected_ = true;
      }
      oracle_->check_read(p.key, body->data(), body->size(), p.bound,
                          oracle_->issued(p.key).load());
    }
    if (!ok) flags |= kFlagFailed;
    if (phase != nullptr) {
      uint32_t lat = ok ? (uint32_t)std::min<uint64_t>(now - p.intended, UINT32_MAX - 1)
                        : kFailedLatencyNs;
      phase->samples.push_back({p.intended, lat, p.lag, p.op, flags});
    }
  }

  // Give up on ops whose responses never came (a dead connection or a 2 s
  // drain timeout): they count as failed.
  void abandon() {
    for (auto& c : conns_) {
      for (Pending& p : c->ring) {
        if (!p.live) continue;
        p.live = false;
        abandoned_++;
        if (phase_ != nullptr)
          phase_->samples.push_back({p.intended, kFailedLatencyNs, p.lag, p.op, kFlagFailed});
      }
    }
    inflight_ = 0;
  }

  const Args& args_;
  ServedSpec spec_;
  Oracle* oracle_;
  ShardedStore* primary_;
  std::vector<char> buf_;
  char name_[16] = {};
  std::vector<std::unique_ptr<Conn>> conns_;
  uint64_t completed_[8] = {};
  uint64_t inflight_ = 0;
  uint64_t ops_done_ = 0;
  uint64_t failed_preload_ = 0;
  uint64_t abandoned_ = 0;
  bool injected_ = false;
  uint32_t dropped_ = UINT32_MAX;
  Phase* phase_ = nullptr;
};

// Every key must read back its last acknowledged version on `port`.
void verify_node(uint16_t port, const std::vector<std::string>& tenants, const ServedSpec& spec,
                 Oracle* oracle, const std::string& who) {
  auto c = net::Client::connect("127.0.0.1", port);
  if (!c.is_ok()) {
    oracle->fail(who + ": connect: " + c.status().to_string());
    return;
  }
  net::Client& cl = *c.value();
  char name[16];
  for (size_t t = 0; t < tenants.size(); t++) {
    auto ns = cl.open_namespace(tenants[t]);
    if (!ns.is_ok()) {
      oracle->fail(who + ": open_namespace: " + ns.status().to_string());
      return;
    }
    for (uint32_t base = 0; base < spec.keys_per_tenant; base += 32) {
      std::vector<std::pair<uint32_t, uint64_t>> batch;
      for (uint32_t i = base; i < std::min(base + 32, spec.keys_per_tenant); i++) {
        uint32_t k = (uint32_t)t * spec.keys_per_tenant + i;
        int n = snprintf(name, sizeof(name), "k%08u", k);
        auto id = cl.submit_get(ns.value().ns_id, std::string_view(name, (size_t)n));
        if (!id.is_ok()) {
          oracle->fail(who + ": submit_get: " + id.status().to_string());
          return;
        }
        batch.push_back({k, id.value()});
      }
      for (auto& [k, id] : batch) {
        std::string v;
        dstore::Status s = cl.wait(id, &v);
        uint64_t want = oracle->acked(k).load();
        if (!s.is_ok()) {
          oracle->fail(who + ": key " + std::to_string(k) + ": " + s.to_string());
        } else {
          oracle->check_read(k, v.data(), v.size(), want, want);
        }
      }
    }
  }
}

// Wait until every follower has applied what the primary committed.
bool await_followers(Fleet& fleet) {
  if (fleet.nodes.size() == 1) return true;
  uint64_t want = fleet.primary().node->commit_seq();
  for (int i = 0; i < 400; i++) {
    bool all = true;
    for (size_t n = 1; n < fleet.nodes.size(); n++)
      all = all && fleet.nodes[n]->node->applied_seq() >= want;
    if (all) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

std::vector<uint32_t> lat_of(const Phase& ph, uint8_t op) {
  std::vector<uint32_t> v;
  for (const Sample& s : ph.samples)
    if (s.op == op) v.push_back(s.lat_ns);
  return v;
}

// The interpolated knee (DESIGN.md): between the last passing step and the
// first failing one, where the first criterion crosses its limit.
struct Step {
  double rate = 0, put_p99 = 0, get_p99 = 0, completion = 0;
  bool pass() const {
    return put_p99 <= kLadderP99LimitUs && get_p99 <= kLadderP99LimitUs &&
           completion >= kLadderCompletion;
  }
};

double interpolate_knee(const Step& a, const Step& b) {
  auto frac = [](double va, double vb, double limit, bool upper) {
    // Fraction of the way from a to b at which the value reaches `limit`.
    bool over_b = upper ? vb > limit : vb < limit;
    if (!over_b) return 1.0;
    if (vb == va) return 0.0;
    return std::clamp((limit - va) / (vb - va), 0.0, 1.0);
  };
  double f = std::min({frac(a.put_p99, b.put_p99, kLadderP99LimitUs, true),
                       frac(a.get_p99, b.get_p99, kLadderP99LimitUs, true),
                       frac(a.completion, b.completion, kLadderCompletion, false)});
  return a.rate + (b.rate - a.rate) * f;
}

// Fleet-level counters the traced phase compares beyond the store itself.
struct FleetSnap {
  Scrape server, server_all, repl_all;
  uint64_t steal = 0;
  std::vector<double> loop_cpu;
  double gen_cpu = 0;
};

FleetSnap fleet_snap(Fleet& fleet) {
  FleetSnap s;
  FleetNode& p = fleet.primary();
  s.server.snaps = p.server->metrics().snapshot();
  std::vector<Scrape> repls, servers;
  for (auto& n : fleet.nodes) {
    servers.push_back({n->server->metrics().snapshot()});
    if (n->node) repls.push_back({n->node->metrics().snapshot()});
  }
  s.server_all = merge_scrapes(servers);
  s.repl_all = merge_scrapes(repls);
  s.steal = p.store->pool().stats().steal_chunks.load();
  for (pid_t t : p.server_tids) s.loop_cpu.push_back(thread_cpu_s(t));
  s.gen_cpu = self_thread_cpu_s();
  return s;
}

std::vector<const dstore::dipper::Engine*> engines_of(ShardedStore* store) {
  std::vector<const dstore::dipper::Engine*> out;
  for (int i = 0; i < store->num_shards(); i++) out.push_back(&store->shard(i).engine());
  return out;
}

}  // namespace

int run_served(const Args& args, Report* rep) {
  const ServedSpec spec = spec_for(args.workload);
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);  // 1 us: a precise send schedule
  rep->note("value_bytes", (uint64_t)spec.value_bytes);
  rep->note("keys", (uint64_t)spec.tenants * spec.keys_per_tenant);
  rep->note("nodes", spec.nodes);
  rep->note("shards_per_node", spec.shards);
  rep->note("connections", spec.tenants);
  rep->note("loop", "open (Poisson)");
  rep->note("offered_ops", spec.rate);

  // ---- fleets: set-up, warm-up, measurement ---------------------------------
  // An untraced run builds args.setups fleets and, after each one's own
  // warm-up, measures an equal share of --seconds on it; the reps of all
  // fleets are pooled. Served latency varied more between fleet instances
  // (runs) than between the reps of one, so pooling fleets steadies the
  // medians. A traced run builds and measures one fleet.
  const int fleets = std::max(1, args.setups);
  const uint64_t measure_ns = (uint64_t)(args.seconds * 1e9);
  const uint32_t keys = (uint32_t)spec.tenants * spec.keys_per_tenant;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<Oracle> oracle;
  std::unique_ptr<Generator> gen;
  std::vector<std::string> tenants;
  std::vector<double> setup_s;
  ShardedStore* pstore = nullptr;
  SpanLog spans;
  uint64_t salt = 1;

  auto probe = [&] {
    WarmupRule::Probe p;
    p.ops = gen->ops_done();
    EngineTotals e = EngineTotals::of(engines_of(pstore));
    p.ckpts = e.ckpts;
    p.ckpt_ns = e.ckpt_ns;
    return p;
  };
  auto build = [&] {
    gen.reset();
    fleet.reset();
    oracle = std::make_unique<Oracle>(keys);
    uint64_t t0 = clock_ns();
    fleet = make_fleet(spec, args.trace);
    if (fleet == nullptr) return false;
    pstore = fleet->primary().store.get();
    tenants = pick_tenants(spec, pstore);
    gen = std::make_unique<Generator>(args, spec, oracle.get(), pstore);
    if (!gen->connect_all(fleet->primary().server->port(), tenants) || !gen->preload())
      return false;
    setup_s.push_back((double)(clock_ns() - t0) / 1e9);
    return true;
  };
  auto warm_up = [&] {
    const uint64_t warm_start = clock_ns();
    int64_t warm_span = spans.begin("warmup");
    WarmupRule rule(pstore->num_shards());
    rule.add(probe());
    do {
      gen->run(spec.rate, WarmupRule::kWindowMs * 1'000'000ull, salt++, nullptr);
    } while (!rule.add(probe()));
    spans.end(warm_span);
    rep->note("warmup_s", (double)(clock_ns() - warm_start) / 1e9);
    rep->note("warmup_windows", rule.windows());
    rep->note("warmup_capped", (int)rule.capped());
    rep->note("warmup_first_ckpt_ms", rule.first_ckpt_ms());
    rep->note("warmup_last_ckpt_ms", rule.last_ckpt_ms());
  };
  // Read-back oracle: the primary, then every follower once caught up.
  auto verify = [&] {
    rep->note("abandoned_ops", gen->abandoned());
    verify_node(fleet->primary().server->port(), tenants, spec, oracle.get(), "primary");
    if (!await_followers(*fleet)) oracle->fail("followers did not catch up with the primary");
    for (size_t n = 1; n < fleet->nodes.size(); n++)
      verify_node(fleet->nodes[n]->server->port(), tenants, spec, oracle.get(),
                  "follower " + std::to_string(n + 1));
    for (const std::string& e : oracle->errors()) rep->errors.push_back(e);
    rep->correct = rep->correct && oracle->ok();
  };

  std::vector<Window> windows;
  std::vector<uint32_t> lag;
  WarmupRule::Probe m0, m1;
  uint64_t measured_ckpts = 0, measured_ckpt_ns = 0;
  for (int i = 0; i < fleets; i++) {
    if (!build()) {
      fprintf(stderr, "served set-up failed\n");
      return 1;
    }
    if (args.trace) break;
    warm_up();
    m0 = probe();
    Phase ph;
    int64_t measure_span = spans.begin("measure");
    gen->run(spec.rate, measure_ns / (uint64_t)fleets, salt++, &ph);
    spans.end(measure_span);
    m1 = probe();
    measured_ckpts += m1.ckpts - m0.ckpts;
    measured_ckpt_ns += m1.ckpt_ns - m0.ckpt_ns;
    windows.push_back(end_to_end(ph.samples, ph.start, ph.end, std::max(1, args.reps / fleets)));
    for (const Sample& x : ph.samples) lag.push_back(x.lag_ns);
    if (i + 1 < fleets) verify();
  }
  rep->set_e2e("setup_s", "s", summarize(setup_s));

  // ---- traced run: untraced half, traced half --------------------------------
  const auto engines = engines_of(pstore);
  Phase untraced, traced;
  StoreTrace trace;
  FleetSnap f0, f1;
  std::vector<uint32_t> apply_lag;
  size_t queue_depth_max = 0;
  if (args.trace) {
    warm_up();
    m0 = probe();
    int64_t measure_span = spans.begin("measure");
    // First half untraced (the overhead baseline), second half traced.
    gen->run(spec.rate, measure_ns / 2, salt++, &untraced);
    trace.a.snaps = pstore->metrics_snapshot();
    trace.e0 = EngineTotals::of(engines);
    f0 = fleet_snap(*fleet);
    const uint64_t traced_t0 = clock_ns();
    fleet->set_traced(true);
    int64_t traced_span = spans.begin("traced", measure_span);
    Sampler sampler(engines, &spans, traced_span, [&] {
      queue_depth_max = std::max(queue_depth_max, pstore->pool().queue_depth());
      if (fleet->nodes.size() == 1) return;
      uint64_t commit = fleet->primary().node->commit_seq();
      for (size_t n = 1; n < fleet->nodes.size(); n++) {
        uint64_t applied = fleet->nodes[n]->node->applied_seq();
        // Scaled by 1000 so quantile_us() reads back whole entries.
        apply_lag.push_back(commit > applied ? (uint32_t)(commit - applied) * 1000u : 0);
      }
    });
    gen->run(spec.rate, measure_ns - measure_ns / 2, salt++, &traced);
    sampler.stop();
    trace.b.snaps = pstore->metrics_snapshot();
    trace.e1 = EngineTotals::of(engines);
    f1 = fleet_snap(*fleet);
    trace.secs = (double)(clock_ns() - traced_t0) / 1e9;
    trace.log_fill_max = sampler.log_fill_max();
    fleet->set_traced(false);
    spans.end(traced_span);
    spans.end(measure_span);
    m1 = probe();
    measured_ckpts = m1.ckpts - m0.ckpts;
    measured_ckpt_ns = m1.ckpt_ns - m0.ckpt_ns;
    uint64_t op_id = 0;
    for (const Sample& s : traced.samples) {
      if ((++op_id & 255) == 0 && s.lat_ns != kFailedLatencyNs)
        spans.add(s.op == kOpPut ? "client.put" : "client.get", s.done_ns, s.done_ns + s.lat_ns,
                  traced_span, op_id);
    }
    windows.push_back(end_to_end(untraced.samples, untraced.start, untraced.end, args.reps));
    for (const Sample& x : untraced.samples) lag.push_back(x.lag_ns);
  }
  rep->note("fleets_measured", (int)windows.size());
  rep->note("measured_checkpoints", measured_ckpts);
  rep->note("measured_ckpt_ms",
            measured_ckpts == 0 ? 0.0 : (double)measured_ckpt_ns / (double)measured_ckpts / 1e6);
  report_window(pool_windows(windows), args.trace, rep);
  rep->note("loadgen_lag_p99_us", quantile_us(lag, 0.99));

  // ---- knee ladder (traced run) ---------------------------------------------
  double knee = 0;
  if (args.trace) {
    int64_t ladder_span = spans.begin("ladder");
    Step prev;
    bool have_prev = false;
    std::string steps_note;
    for (int i = 0; i < kLadderSteps; i++) {
      Step st;
      st.rate = spec.rate * (0.5 + 0.25 * i);
      Phase ph;
      int64_t step_span = spans.begin("ladder.step", ladder_span);
      gen->run(st.rate, kLadderStepNs, 1000 + (uint64_t)i, &ph);
      spans.end(step_span);
      st.put_p99 = quantile_us(lat_of(ph, kOpPut), 0.99);
      st.get_p99 = quantile_us(lat_of(ph, kOpGet), 0.99);
      uint64_t in_time = 0;
      for (const Sample& s : ph.samples)
        if (s.lat_ns != kFailedLatencyNs && s.done_ns + s.lat_ns <= ph.end + kLadderGraceNs)
          in_time++;
      double offered = st.rate * (double)kLadderStepNs / 1e9;
      st.completion = std::min(1.0, (double)in_time / offered);
      steps_note += (steps_note.empty() ? "" : " ") + std::to_string((int)st.rate) + ":" +
                    (st.pass() ? "pass" : "fail");
      if (!st.pass()) {
        knee = have_prev ? interpolate_knee(prev, st) : 0;
        break;
      }
      prev = st;
      have_prev = true;
      knee = st.rate;  // every step passed so far: the knee is at least here
    }
    spans.end(ladder_span);
    rep->note("ladder_steps", steps_note);
    // Let the backlog of the failing step drain before verifying.
    gen->run(spec.rate * 0.1, 200'000'000ull, 999, nullptr);
  }

  // ---- space, then the read-back oracle on the last fleet -------------------
  trace.usage = pstore->space_usage();
  const auto& u = trace.usage;
  const double live = (double)keys * (double)spec.value_bytes;
  rep->set_e2e("space_amp", "ratio",
               summarize({(double)(u.dram_bytes + u.pmem_bytes + u.ssd_bytes) / live}));
  verify();

  if (args.trace) {
    trace.value_bytes = spec.value_bytes;
    trace.objects = keys;
    trace.traced_samples = traced.samples;
    trace.untraced = end_to_end(untraced.samples, untraced.start, untraced.end, 1);
    trace.traced = end_to_end(traced.samples, traced.start, traced.end, 1);
    report_store_layers(trace, rep);
    const double secs = trace.secs;
    const double ops = (double)std::max<size_t>(1, traced.samples.size());

    std::vector<uint32_t> traced_lag;
    for (const Sample& x : traced.samples) traced_lag.push_back(x.lag_ns);
    rep->set_layer("loadgen.lag_p99_us", "us", quantile_us(traced_lag, 0.99));
    rep->set_layer("loadgen.cpu_ratio", "ratio", (f1.gen_cpu - f0.gen_cpu) / secs);
    double loop_cpu = 0;
    for (size_t i = 0; i < f1.loop_cpu.size() && i < f0.loop_cpu.size(); i++)
      loop_cpu = std::max(loop_cpu, f1.loop_cpu[i] - f0.loop_cpu[i]);
    rep->set_layer("net.loop_cpu_ratio", "ratio", loop_cpu / secs);

    std::vector<uint32_t> quorum, rtt;
    if (FleetNode& p = fleet->primary(); p.handler) quorum = p.handler->quorum_ns.take();
    for (TracedPeer* tp : fleet->primary().traced_peers) {
      auto v = tp->rtt_ns.take();
      rtt.insert(rtt.end(), v.begin(), v.end());
    }
    const double quorum_p50 = quantile_us(quorum, 0.5);
    std::vector<uint32_t> client_put = lat_of(traced, kOpPut);
    rep->set_layer("net.overhead_p50_us", "us",
                   quantile_us(client_put, 0.5) - rep->layer["dstore.server_put_p50_us"].value -
                       quorum_p50);
    rep->set_layer("net.bytes_in_per_op", "bytes",
                   delta(f0.server, f1.server, "net_bytes_in_total") / ops);
    rep->set_layer("net.bytes_out_per_op", "bytes",
                   delta(f0.server, f1.server, "net_bytes_out_total") / ops);
    rep->set_layer("net.frame_errors", "count",
                   delta(f0.server_all, f1.server_all, "net_frame_errors_total"));

    rep->set_layer("repl.quorum_wait_p50_us", "us", quorum_p50);
    rep->set_layer("repl.quorum_wait_p99_us", "us", quantile_us(quorum, 0.99));
    rep->set_layer("repl.append_rtt_p50_us", "us", quantile_us(rtt, 0.5));
    const double shipped = delta(f0.repl_all, f1.repl_all, "repl_entries_shipped_total");
    rep->set_layer("repl.entries_per_append", "ratio",
                   rtt.empty() ? 0 : shipped / (double)rtt.size());
    rep->set_layer("repl.append_rejects", "count",
                   delta(f0.repl_all, f1.repl_all, "repl_append_rejects_total"));
    rep->set_layer("repl.resyncs", "count", delta(f0.repl_all, f1.repl_all, "repl_resyncs_total"));
    rep->set_layer("repl.apply_lag_p99_entries", "entries", quantile_us(apply_lag, 0.99));

    rep->set_layer("ckpt_pool.queue_depth_max", "count", (double)queue_depth_max);
    rep->set_layer("ckpt_pool.steal_chunks", "count", (double)(f1.steal - f0.steal));
    rep->set_layer("knee_ops", "ops/s", knee);
    spans.write(args.spans_path());
  }

  return 0;
}

}  // namespace perfbench
