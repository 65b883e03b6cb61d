#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/lockdep.h"

namespace dstore::net {

namespace {

// Tenant keys are "<ns>\x1f<key>": \x1f (ASCII unit separator) cannot
// appear in a namespace name (open_ns rejects it), so prefixes can never
// collide across tenants.
constexpr char kNsSep = '\x1f';

// A connection whose un-drained response backlog exceeds this is closed: it
// bounds server memory against a client that pipelines but never reads.
constexpr size_t kMaxConnBacklogBytes = 64u << 20;

// Namespace registry capacity: kNsChunks chunks of kNsChunk entries. A
// chunk never moves once allocated, so readers index it without a lock.
constexpr size_t kNsChunk = 1024;
constexpr size_t kNsChunks = 4096;

std::string tenant_key(std::string_view ns_name, std::string_view key) {
  std::string k;
  k.reserve(ns_name.size() + 1 + key.size());
  k.append(ns_name.data(), ns_name.size());
  k.push_back(kNsSep);
  k.append(key.data(), key.size());
  return k;
}

void set_nonblocking_opts(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

struct Server::Impl {
  ShardedStore* store = nullptr;
  ServerConfig cfg;
  fault::FaultInjector* fault = nullptr;
  ReplHandler* repl = nullptr;

  int listen_fd = -1;  // polled by loop 0 only
  uint16_t port = 0;

  std::thread slow_thread;
  std::thread repl_thread;  // replicated-write quorum waits (never a loop)
  std::atomic<bool> stopping{false};
  std::atomic<bool> crashed{false};
  std::atomic<bool> draining{false};  // drain_stop: no new conns, flush, exit
  bool stopped = false;  // stop() ran to completion (main thread only)

  struct Loop;

  // ---- connections (owning loop's thread only) ----------------------------
  struct Conn {
    int fd = -1;
    uint64_t id = 0;  // stable identity for off-loop completions
    Loop* loop = nullptr;
    FrameParser parser;
    std::string out;
    size_t out_off = 0;
    bool want_write = false;
    bool closing = false;  // protocol error: flush the error frame, then close
    int move_to = -1;      // set by OPEN_NS: hand the connection to this loop
    ShardedStore::Session* session = nullptr;
    int64_t last_active_ms = 0;  // idle-reaper clock (any inbound bytes)
  };

  // ---- namespace registry (shared by every loop) ---------------------------
  // OPEN_NS registers under ns_mu; per-op lookups read the chunked table
  // without a lock (an entry is written before ns_count publishes it).
  struct NsEntry {
    std::string name;
    int shard = 0;
  };
  Mutex ns_mu{"net.server.ns"};
  std::unordered_map<std::string, uint32_t> ns_by_name;  // ns_mu
  std::unique_ptr<NsEntry[]> ns_chunks[kNsChunks];       // ns_id = index + 1
  std::atomic<uint32_t> ns_count{0};

  // ---- off-loop completion queues: loop -> worker -> owning loop -----------
  // SCRUB runs on the slow worker; a replicated write's quorum wait
  // (synchronous per-follower RPCs with reconnect backoff and timeouts)
  // runs on its own worker so one slow or unreachable follower can never
  // stall a loop — the loop only performs the fast local store op and
  // defers the ack by req_id. A completion goes to whichever loop owns the
  // connection when it is posted.
  struct SlowReq {
    uint64_t conn_id = 0;
    uint64_t req_id = 0;
  };
  struct ReplWait {
    uint64_t conn_id = 0;
    uint64_t req_id = 0;
    Op op = Op::kPut;
    uint64_t ticket = 0;
  };
  struct SlowDone {
    uint64_t conn_id = 0;
    uint64_t req_id = 0;
    Op op = Op::kScrub;
    uint8_t status = 0;
    std::string body;
  };

  // ---- event loops ---------------------------------------------------------
  // One per shard up to the core count; shard s is served by loop s mod N.
  // Loop 0 also accepts. Everything but the inbox belongs to the loop's
  // own thread.
  struct Loop {
    int index = 0;
    int epoll_fd = -1;
    int wake_fd = -1;  // stop, handoff and completion signal
    std::thread thread;
    std::unordered_map<int, std::unique_ptr<Conn>> conns_by_fd;
    std::unordered_map<uint64_t, Conn*> conns_by_id;
    // Inbox (slow_mu): connections handed over on OPEN_NS, and off-loop
    // completions for connections this loop owns.
    std::vector<std::unique_ptr<Conn>> adopt_in;
    std::deque<SlowDone> done_in;
    bool closed = false;  // the loop exited; its inbox takes nothing more
    bool quiet = false;   // draining: nothing buffered, unflushed or queued

    void wake() {
      uint64_t v = 1;
      // lint: allow-discard — wake loss only delays the loop one poll cycle.
      (void)write(wake_fd, &v, sizeof(v));
    }
  };
  std::vector<std::unique_ptr<Loop>> loops;

  Mutex slow_mu{"net.server.slow"};
  CondVar slow_cv;
  CondVar repl_cv;
  std::deque<SlowReq> slow_in;
  std::deque<ReplWait> repl_in;
  uint32_t workers_busy = 0;  // popped but not yet posted (drain gate)
  std::unordered_map<uint64_t, int> conn_owner;  // conn id -> loop index
  uint64_t next_conn_id = 1;                     // loop 0 (the acceptor) only

  // ---- metrics -------------------------------------------------------------
  obs::MetricsRegistry metrics;
  obs::Gauge* m_conns = nullptr;
  obs::Counter* m_accepts = nullptr;
  obs::Counter* m_handoffs = nullptr;
  obs::Counter* m_requests = nullptr;
  obs::Counter* m_bytes_in = nullptr;
  obs::Counter* m_bytes_out = nullptr;
  obs::Counter* m_frame_errors = nullptr;
  obs::Counter* m_slow_ops = nullptr;
  obs::Counter* m_heartbeats = nullptr;
  obs::Counter* m_idle_reaped = nullptr;

  ~Impl() { teardown_fds(); }

  // After every loop thread has joined: close whatever is still open,
  // including connections handed to a loop that exited before adopting them.
  void teardown_fds() {
    for (auto& L : loops) {
      for (auto& [fd, c] : L->conns_by_fd) close_conn(*c);
      for (auto& c : L->adopt_in) close_conn(*c);
      L->conns_by_fd.clear();
      L->conns_by_id.clear();
      L->adopt_in.clear();
      if (L->epoll_fd >= 0) close(L->epoll_fd);
      if (L->wake_fd >= 0) close(L->wake_fd);
      L->epoll_fd = L->wake_fd = -1;
    }
    if (listen_fd >= 0) close(listen_fd);
    listen_fd = -1;
  }

  Status setup() {
    listen_fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) return Status::io_error("socket: " + std::string(strerror(errno)));
    int one = 1;
    setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg.port);
    if (inet_pton(AF_INET, cfg.host.c_str(), &addr.sin_addr) != 1) {
      return Status::invalid_argument("bad listen address " + cfg.host);
    }
    if (bind(listen_fd, (sockaddr*)&addr, sizeof(addr)) != 0) {
      return Status::io_error("bind " + cfg.host + ":" + std::to_string(cfg.port) + ": " +
                              strerror(errno));
    }
    if (listen(listen_fd, cfg.backlog) != 0) {
      return Status::io_error("listen: " + std::string(strerror(errno)));
    }
    socklen_t alen = sizeof(addr);
    if (getsockname(listen_fd, (sockaddr*)&addr, &alen) != 0) {
      return Status::io_error("getsockname: " + std::string(strerror(errno)));
    }
    port = ntohs(addr.sin_port);

    const int cores = std::max(1, (int)std::thread::hardware_concurrency());
    const int nloops = std::max(1, std::min(store->num_shards(), cores));
    for (int i = 0; i < nloops; i++) {
      auto L = std::make_unique<Loop>();
      L->index = i;
      L->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
      if (L->epoll_fd < 0)
        return Status::io_error("epoll_create1: " + std::string(strerror(errno)));
      L->wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (L->wake_fd < 0) return Status::io_error("eventfd: " + std::string(strerror(errno)));
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = L->wake_fd;
      epoll_ctl(L->epoll_fd, EPOLL_CTL_ADD, L->wake_fd, &ev);
      if (i == 0) {
        ev.data.fd = listen_fd;
        epoll_ctl(L->epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev);
      }
      loops.push_back(std::move(L));
    }

    m_conns = metrics.gauge("net_connections", "currently open client connections");
    metrics.gauge("net_event_loops", "epoll event loop threads serving connections")->set(nloops);
    m_accepts = metrics.counter("net_accepts_total", "connections accepted");
    m_handoffs = metrics.counter("net_handoffs_total",
                                 "connections handed to their namespace's home-shard loop");
    m_requests = metrics.counter("net_requests_total", "request frames dispatched");
    m_bytes_in = metrics.counter("net_bytes_in_total", "bytes read from clients");
    m_bytes_out = metrics.counter("net_bytes_out_total", "bytes written to clients");
    m_frame_errors = metrics.counter("net_frame_errors_total",
                                     "connections dropped for protocol errors");
    m_slow_ops = metrics.counter("net_slow_ops_total",
                                 "requests completed off-loop (scrub worker, "
                                 "replicated-write quorum waits)");
    m_heartbeats = metrics.counter("net_heartbeats_total",
                                   "HEARTBEAT frames answered");
    m_idle_reaped = metrics.counter("net_idle_reaped_total",
                                    "connections dropped by the idle reaper");
    return Status::ok();
  }

  void wake_all() {
    for (auto& L : loops) L->wake();
  }

  // ---- crash gate ----------------------------------------------------------
  // The durable image froze under us (fault-plan kCrash): from here on,
  // every completed op ran on borrowed time and must NOT be acknowledged.
  // Drop all pending output and shut down — clients see a disconnect, the
  // contract for "unacked, state unknown". Every loop checks the same
  // injector, and the first to see the trip stops them all.
  bool crash_tripped() { return fault != nullptr && fault->crashed(); }
  void begin_crash_shutdown() {
    crashed.store(true, std::memory_order_release);
    stopping.store(true, std::memory_order_release);
    wake_all();
  }

  // ---- per-connection plumbing (owning loop's thread) ----------------------

  // Close the socket and session of a connection no loop serves any more.
  void close_conn(Conn& c) {
    close(c.fd);
    if (c.session != nullptr) store->close_session(c.session);
    c.session = nullptr;
    m_conns->add(-1);
  }

  // Make `L` the connection's owner: its tables and its epoll set.
  Conn* attach(Loop& L, std::unique_ptr<Conn> owned) {
    Conn* c = owned.get();
    c->loop = &L;
    c->want_write = false;
    L.conns_by_id[c->id] = c;
    L.conns_by_fd[c->fd] = std::move(owned);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = c->fd;
    epoll_ctl(L.epoll_fd, EPOLL_CTL_ADD, c->fd, &ev);
    return c;
  }

  // Remove the connection from its loop without closing it.
  std::unique_ptr<Conn> detach(Conn* c) {
    Loop& L = *c->loop;
    epoll_ctl(L.epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
    L.conns_by_id.erase(c->id);
    auto it = L.conns_by_fd.find(c->fd);
    std::unique_ptr<Conn> owned = std::move(it->second);
    L.conns_by_fd.erase(it);
    return owned;
  }

  void add_conn(Loop& L, int fd) {
    auto c = std::make_unique<Conn>();
    c->fd = fd;
    c->id = next_conn_id++;
    c->parser = FrameParser(cfg.max_frame_bytes);
    c->last_active_ms = now_ms();
    {
      UniqueLock l(slow_mu);
      conn_owner[c->id] = L.index;
    }
    attach(L, std::move(c));
    m_conns->add(1);
    m_accepts->inc();
  }

  void drop_conn(Conn* c) {
    {
      UniqueLock l(slow_mu);
      conn_owner.erase(c->id);
    }
    std::unique_ptr<Conn> owned = detach(c);
    close_conn(*owned);
  }

  // OPEN_NS pinned the connection to a shard another loop serves: move it
  // there with everything it carries — the parser's unprocessed frames and
  // the unflushed OPEN_NS response. The new owner runs those frames next,
  // in order. Completions already posted to this loop follow it through
  // conn_owner (drain_inbox forwards them).
  void hand_off(Conn* c) {
    Loop& to = *loops[(size_t)c->move_to];
    c->move_to = -1;
    std::unique_ptr<Conn> owned = detach(c);
    m_handoffs->inc();
    {
      UniqueLock l(slow_mu);
      if (to.closed) {
        conn_owner.erase(owned->id);
      } else {
        conn_owner[owned->id] = to.index;
        to.adopt_in.push_back(std::move(owned));
      }
    }
    if (owned != nullptr) return close_conn(*owned);  // shutting down
    to.wake();
  }

  void update_write_interest(Conn* c) {
    bool want = c->out_off < c->out.size();
    if (want == c->want_write) return;
    c->want_write = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.fd = c->fd;
    epoll_ctl(c->loop->epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
  }

  // Returns false when the connection died mid-write.
  bool flush_conn(Conn* c) {
    while (c->out_off < c->out.size()) {
      ssize_t n = ::write(c->fd, c->out.data() + c->out_off, c->out.size() - c->out_off);
      if (n > 0) {
        c->out_off += (size_t)n;
        m_bytes_out->add((uint64_t)n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      drop_conn(c);
      return false;
    }
    if (c->out_off == c->out.size()) {
      c->out.clear();
      c->out_off = 0;
      if (c->closing) {
        drop_conn(c);
        return false;
      }
    }
    update_write_interest(c);
    return true;
  }

  void respond(Conn* c, Op op, uint64_t req_id, uint8_t status, std::string_view body) {
    append_frame(&c->out, op, req_id, status, body);
  }

  void respond_status(Conn* c, Op op, uint64_t req_id, const Status& s) {
    respond(c, op, req_id, wire_byte_of(s.code()), s.is_ok() ? "" : s.message());
  }

  // ---- request dispatch ----------------------------------------------------

  const NsEntry* ns_entry(uint32_t ns) const {
    if (ns == 0 || ns > ns_count.load(std::memory_order_acquire)) return nullptr;
    size_t i = ns - 1;
    return &ns_chunks[i / kNsChunk][i % kNsChunk];
  }

  // Look `name` up, registering it on first use; 0 when the table is full.
  uint32_t register_ns(std::string_view name) {
    std::string key(name);
    UniqueLock l(ns_mu);
    auto it = ns_by_name.find(key);
    if (it != ns_by_name.end()) return it->second;
    size_t i = ns_count.load(std::memory_order_relaxed);
    if (i == kNsChunk * kNsChunks) return 0;
    auto& chunk = ns_chunks[i / kNsChunk];
    if (chunk == nullptr) chunk = std::make_unique<NsEntry[]>(kNsChunk);
    chunk[i % kNsChunk] = {key, store->shard_of(key)};
    ns_by_name.emplace(std::move(key), (uint32_t)(i + 1));
    ns_count.store((uint32_t)(i + 1), std::memory_order_release);
    return (uint32_t)(i + 1);
  }

  void handle_open_ns(Conn* c, const Frame& f) {
    std::string_view name;
    if (!parse_open_ns(f.body, &name) || name.empty() ||
        name.find(kNsSep) != std::string_view::npos) {
      respond_status(c, Op::kOpenNs, f.hdr.req_id,
                     Status::invalid_argument("malformed namespace name"));
      return;
    }
    uint32_t id = register_ns(name);
    if (id == 0) {
      respond_status(c, Op::kOpenNs, f.hdr.req_id,
                     Status::out_of_space("namespace table full"));
      return;
    }
    const NsEntry& e = *ns_entry(id);
    // Affinity: pin the connection's session to its first namespace's home
    // shard (no-op routing-wise — ops use explicit placement — but the
    // pinned session reuses that shard's private context; DESIGN.md §14),
    // and move the connection to the loop that serves that shard.
    if (c->session == nullptr) {
      c->session = store->open_session(e.shard);
      int home = e.shard % (int)loops.size();
      if (home != c->loop->index) c->move_to = home;
    }
    respond(c, Op::kOpenNs, f.hdr.req_id, 0, open_ns_resp_body({id, (uint32_t)e.shard}));
  }

  void handle_put(Conn* c, const Frame& f) {
    uint32_t ns;
    std::string_view key, value;
    const NsEntry* e = nullptr;
    if (!parse_put(f.body, &ns, &key, &value) || (e = ns_entry(ns)) == nullptr) {
      respond_status(c, Op::kPut, f.hdr.req_id, Status::invalid_argument("bad put request"));
      return;
    }
    if (repl != nullptr && !repl->writable()) {
      respond_status(c, Op::kPut, f.hdr.req_id,
                     Status::read_only("not the primary"));
      return;
    }
    Status s = store->put_on(c->session, e->shard, tenant_key(e->name, key), value.data(),
                             value.size());
    if (crash_tripped()) return begin_crash_shutdown();  // never ack borrowed time
    // Replicated writes only ack once the entry reaches a quorum — awaited
    // on the repl worker, never here: blocking the loop on follower RPCs
    // would stall every connection behind one slow peer.
    if (s.is_ok() && repl != nullptr)
      return defer_repl_ack(c, Op::kPut, f.hdr.req_id);
    respond_status(c, Op::kPut, f.hdr.req_id, s);
  }

  void handle_delete(Conn* c, const Frame& f) {
    uint32_t ns;
    std::string_view key;
    const NsEntry* e = nullptr;
    if (!parse_key(f.body, &ns, &key) || (e = ns_entry(ns)) == nullptr) {
      respond_status(c, Op::kDelete, f.hdr.req_id,
                     Status::invalid_argument("bad delete request"));
      return;
    }
    if (repl != nullptr && !repl->writable()) {
      respond_status(c, Op::kDelete, f.hdr.req_id,
                     Status::read_only("not the primary"));
      return;
    }
    Status s = store->del_on(c->session, e->shard, tenant_key(e->name, key));
    if (crash_tripped()) return begin_crash_shutdown();
    if (s.is_ok() && repl != nullptr)
      return defer_repl_ack(c, Op::kDelete, f.hdr.req_id);
    respond_status(c, Op::kDelete, f.hdr.req_id, s);
  }

  // Hand a completed store mutation to the repl worker: the ticket is
  // claimed HERE (same thread as the store op — it is thread-local), the
  // quorum wait and the ack happen off-loop, matched back by req_id.
  void defer_repl_ack(Conn* c, Op op, uint64_t req_id) {
    uint64_t ticket = repl->write_ticket();
    UniqueLock l(slow_mu);
    repl_in.push_back({c->id, req_id, op, ticket});
    repl_cv.notify_one();
  }

  // GET and GET_ZC both serve from the device mapping: one index lookup,
  // and the value is framed straight into the connection's output buffer
  // (one copy, onto the wire) while the ReadView's pin holds writers off.
  void handle_get(Conn* c, const Frame& f, bool zero_copy) {
    Op op = zero_copy ? Op::kGetZc : Op::kGet;
    uint32_t ns;
    std::string_view key;
    const NsEntry* e = nullptr;
    if (!parse_key(f.body, &ns, &key) || (e = ns_entry(ns)) == nullptr) {
      respond_status(c, op, f.hdr.req_id, Status::invalid_argument("bad get request"));
      return;
    }
    std::string full = tenant_key(e->name, key);
    auto view = store->get_zc_on(c->session, e->shard, full);
    if (view.is_ok()) {
      if (view.value().size() > cfg.max_frame_bytes) {
        respond_status(c, op, f.hdr.req_id,
                       Status::invalid_argument("value exceeds frame limit"));
        return;
      }
      append_frame_header(&c->out, op, f.hdr.req_id, 0, (uint32_t)view.value().size());
      for (const auto& piece : view.value().pieces()) {
        c->out.append((const char*)piece.data, piece.len);
      }
      return;
    }
    if (view.status().code() != Code::kUnsupported) {
      respond_status(c, op, f.hdr.req_id, view.status());
      return;
    }
    get_copying(c, op, f.hdr.req_id, e->shard, full);
  }

  // Devices without a direct mapping: size the value, then copy it into
  // the output buffer behind its header. A value resized between the two
  // calls is answered with BUSY.
  void get_copying(Conn* c, Op op, uint64_t req_id, int shard, const std::string& full) {
    auto size = store->object_size_on(shard, full);
    if (!size.is_ok()) return respond_status(c, op, req_id, size.status());
    if (size.value() > cfg.max_frame_bytes) {
      return respond_status(c, op, req_id, Status::invalid_argument("value exceeds frame limit"));
    }
    const size_t at = c->out.size();
    const size_t len = (size_t)size.value();
    append_frame_header(&c->out, op, req_id, 0, (uint32_t)len);
    c->out.resize(at + kHeaderBytes + len);
    auto got = store->get_on(c->session, shard, full, c->out.data() + at + kHeaderBytes, len);
    if (got.is_ok() && got.value() == len) return;
    c->out.resize(at);
    respond_status(c, op, req_id,
                   got.is_ok() ? Status::busy("object resized during read") : got.status());
  }

  void handle_metrics(Conn* c, const Frame& f) {
    uint8_t format;
    if (!parse_metrics(f.body, &format) || format > 1) {
      respond_status(c, Op::kMetrics, f.hdr.req_id,
                     Status::invalid_argument("bad metrics format"));
      return;
    }
    // One scrape: the store's per-shard rollup merged with net_*.
    std::vector<std::vector<obs::MetricSnapshot>> scrapes;
    scrapes.push_back(store->metrics_snapshot());
    scrapes.push_back(metrics.snapshot());
    auto merged = obs::MetricsRegistry::merge(scrapes);
    std::string out = format == 0 ? obs::MetricsRegistry::to_json(merged)
                                  : obs::MetricsRegistry::to_prometheus(merged);
    respond(c, Op::kMetrics, f.hdr.req_id, 0, out);
  }

  // ---- replication opcodes (DESIGN.md §16) --------------------------------

  void handle_heartbeat_op(Conn* c, const Frame& f) {
    Heartbeat hb;
    if (!parse_heartbeat(f.body, &hb)) {
      respond_status(c, Op::kHeartbeat, f.hdr.req_id,
                     Status::invalid_argument("bad heartbeat"));
      return;
    }
    m_heartbeats->inc();
    ReplAck ack;
    if (repl != nullptr) {
      ack = repl->handle_heartbeat(hb);
    } else {
      ack.accepted = 1;  // plain keepalive: echo zeros, refresh idle clock
    }
    respond(c, Op::kHeartbeat, f.hdr.req_id, 0, repl_ack_body(ack));
  }

  void handle_repl_subscribe(Conn* c, const Frame& f) {
    ReplHello h;
    if (!parse_repl_hello(f.body, &h)) {
      respond_status(c, Op::kReplSubscribe, f.hdr.req_id,
                     Status::invalid_argument("bad repl hello"));
      return;
    }
    if (repl == nullptr) {
      respond_status(c, Op::kReplSubscribe, f.hdr.req_id,
                     Status::unsupported("no replication attached"));
      return;
    }
    if (h.kind == ReplHello::kSnapPull) {
      std::string body = repl->handle_snap_pull(h);
      if (body.empty()) {
        respond_status(c, Op::kReplSubscribe, f.hdr.req_id,
                       Status::busy("no snapshot pending"));
      } else {
        respond(c, Op::kReplSubscribe, f.hdr.req_id, 0, body);
      }
      return;
    }
    respond(c, Op::kReplSubscribe, f.hdr.req_id, 0,
            repl_subscribe_resp_body(repl->handle_subscribe(h)));
  }

  void handle_repl_append(Conn* c, const Frame& f) {
    ReplEntryWire e;
    if (!parse_repl_append(f.body, &e)) {
      respond_status(c, Op::kReplAck, f.hdr.req_id,
                     Status::invalid_argument("bad repl append"));
      return;
    }
    if (repl == nullptr) {
      respond_status(c, Op::kReplAck, f.hdr.req_id,
                     Status::unsupported("no replication attached"));
      return;
    }
    ReplAck a = repl->handle_append(e);
    // Same borrowed-time gate as client writes: an apply that ran after
    // the durable image froze must not be acknowledged to the primary.
    if (crash_tripped()) return begin_crash_shutdown();
    respond(c, Op::kReplAck, f.hdr.req_id, 0, repl_ack_body(a));
  }

  void handle_promote_op(Conn* c, const Frame& f) {
    PromoteReq p;
    if (!parse_promote(f.body, &p)) {
      respond_status(c, Op::kPromote, f.hdr.req_id,
                     Status::invalid_argument("bad promote request"));
      return;
    }
    if (repl == nullptr) {
      respond_status(c, Op::kPromote, f.hdr.req_id,
                     Status::unsupported("no replication attached"));
      return;
    }
    PromoteResp r = repl->handle_promote(p);
    if (crash_tripped()) return begin_crash_shutdown();  // votes are promises
    respond(c, Op::kPromote, f.hdr.req_id, 0, promote_resp_body(r));
  }

  void dispatch(Conn* c, const Frame& f) {
    m_requests->inc();
    switch (f.hdr.op) {
      case Op::kOpenNs: return handle_open_ns(c, f);
      case Op::kPut: return handle_put(c, f);
      case Op::kGet: return handle_get(c, f, false);
      case Op::kGetZc: return handle_get(c, f, true);
      case Op::kDelete: return handle_delete(c, f);
      case Op::kMetrics: return handle_metrics(c, f);
      case Op::kHeartbeat: return handle_heartbeat_op(c, f);
      case Op::kReplSubscribe: return handle_repl_subscribe(c, f);
      case Op::kReplAppend: return handle_repl_append(c, f);
      case Op::kPromote: return handle_promote_op(c, f);
      case Op::kScrub: {
        // Slow op: runs a full integrity pass over every shard — shipped
        // to the worker so the loop keeps serving; its completion lands
        // whenever it lands (out-of-order by design).
        UniqueLock l(slow_mu);
        slow_in.push_back({c->id, f.hdr.req_id});
        slow_cv.notify_one();
        return;
      }
      case Op::kReplAck:  // a response opcode; never a request
        break;
    }
    respond_status(c, f.hdr.op, f.hdr.req_id,
                   Status::unsupported("opcode " + std::to_string((int)f.hdr.op)));
  }

  // Drain every complete frame the parser holds. Returns false if the
  // connection was dropped or handed to another loop.
  bool process_frames(Conn* c) {
    for (;;) {
      Frame f;
      FrameParser::Next n = c->parser.next(&f);
      if (n == FrameParser::Next::kNeedMore) break;
      if (n == FrameParser::Next::kError) {
        // Framing is lost: report once on req_id 0, flush, close.
        m_frame_errors->inc();
        respond(c, Op::kPut, 0, wire_byte_of(c->parser.error().code()),
                c->parser.error().message());
        c->closing = true;
        break;
      }
      dispatch(c, f);
      if (stopping.load(std::memory_order_acquire)) return false;
      if (c->move_to >= 0) {
        hand_off(c);
        return false;
      }
      if (c->out.size() - c->out_off > kMaxConnBacklogBytes) {
        m_frame_errors->inc();
        c->closing = true;  // client pipelines but never reads; cut it off
        break;
      }
    }
    return flush_conn(c);
  }

  void on_readable(Conn* c) {
    char buf[64 * 1024];
    for (;;) {
      ssize_t n = ::read(c->fd, buf, sizeof(buf));
      if (n > 0) {
        m_bytes_in->add((uint64_t)n);
        c->last_active_ms = now_ms();
        c->parser.feed(buf, (size_t)n);
        if ((size_t)n < sizeof(buf)) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      drop_conn(c);  // EOF or hard error
      return;
    }
    process_frames(c);
  }

  void accept_loop(Loop& L) {
    for (;;) {
      int fd = accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN / transient
      set_nonblocking_opts(fd);
      add_conn(L, fd);
    }
  }

  // Queue a completion on the loop that owns its connection (slow_mu held).
  // Returns that loop, to be woken once the lock is released; null when
  // the connection is gone.
  Loop* post_locked(SlowDone d) {
    auto it = conn_owner.find(d.conn_id);
    if (it == conn_owner.end()) return nullptr;  // connection died meanwhile
    Loop* L = loops[(size_t)it->second].get();
    if (L->closed) return nullptr;
    L->done_in.push_back(std::move(d));
    return L;
  }

  // The loop's inbox: adopt handed-over connections first (running the
  // frames they carried), then deliver completions. A completion for a
  // connection that moved on is forwarded to its current owner.
  void drain_inbox(Loop& L) {
    std::vector<std::unique_ptr<Conn>> adopt;
    std::deque<SlowDone> done;
    {
      UniqueLock l(slow_mu);
      adopt.swap(L.adopt_in);
      done.swap(L.done_in);
      if (!adopt.empty() || !done.empty()) L.quiet = false;
    }
    for (auto& owned : adopt) {
      Conn* c = attach(L, std::move(owned));
      if (!stopping.load(std::memory_order_acquire)) process_frames(c);
    }
    if (done.empty() || stopping.load(std::memory_order_acquire)) return;
    // Same borrowed-time gate as inline ops: a completion computed after
    // the durable image froze must not be acknowledged.
    if (crash_tripped()) return begin_crash_shutdown();
    for (SlowDone& d : done) {
      auto it = L.conns_by_id.find(d.conn_id);
      if (it == L.conns_by_id.end()) {
        Loop* owner;
        {
          UniqueLock l(slow_mu);
          owner = post_locked(std::move(d));
        }
        if (owner != nullptr) owner->wake();
        continue;
      }
      Conn* c = it->second;
      m_slow_ops->inc();
      respond(c, d.op, d.req_id, d.status, d.body);
      flush_conn(c);
    }
  }

  // Drop connections that sent nothing for cfg.idle_timeout_ms (runs at
  // most once per poll cycle).
  void reap_idle(Loop& L) {
    if (cfg.idle_timeout_ms == 0) return;
    int64_t cutoff = now_ms() - (int64_t)cfg.idle_timeout_ms;
    std::vector<Conn*> idle;
    for (auto& [fd, c] : L.conns_by_fd) {
      if (c->last_active_ms < cutoff) idle.push_back(c.get());
    }
    for (Conn* c : idle) {
      m_idle_reaped->inc();
      drop_conn(c);
    }
  }

  // Drain bookkeeping, per loop: quiet once nothing this loop owns is
  // buffered, unflushed or waiting in its inbox. drain_complete() reads
  // every loop's flag together with the shared queues.
  void update_quiet(Loop& L) {
    bool quiet = true;
    for (auto& [fd, c] : L.conns_by_fd) {
      if (c->out_off < c->out.size() || c->parser.buffered() > 0) quiet = false;
    }
    UniqueLock l(slow_mu);
    L.quiet = quiet && L.adopt_in.empty() && L.done_in.empty();
  }

  bool drain_complete() {
    UniqueLock l(slow_mu);
    if (!slow_in.empty() || !repl_in.empty() || workers_busy != 0) return false;
    for (auto& L : loops) {
      if (!L->quiet || !L->adopt_in.empty() || !L->done_in.empty()) return false;
    }
    return true;
  }

  void run_loop(Loop& L) {
    epoll_event events[256];
    bool accepting = L.index == 0;
    while (!stopping.load(std::memory_order_acquire)) {
      int n = epoll_wait(L.epoll_fd, events, 256, 100);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      // A background pool worker may have hit the crash point between
      // polls; stop acking immediately, not on the next mutating op.
      if (crash_tripped() && !crashed.load(std::memory_order_acquire)) {
        begin_crash_shutdown();
        break;
      }
      reap_idle(L);
      const bool drain = draining.load(std::memory_order_acquire);
      if (drain) {
        if (accepting) {
          epoll_ctl(L.epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
          accepting = false;
        }
        if (n > 0) {  // busy until this batch is done
          UniqueLock l(slow_mu);
          L.quiet = false;
        }
      }
      for (int i = 0; i < n && !stopping.load(std::memory_order_acquire); i++) {
        int fd = events[i].data.fd;
        if (fd == listen_fd) {
          if (accepting) accept_loop(L);
          continue;
        }
        if (fd == L.wake_fd) {
          uint64_t v;
          // lint: allow-discard — the wakeup itself is the payload.
          (void)read(L.wake_fd, &v, sizeof(v));
          drain_inbox(L);
          continue;
        }
        auto it = L.conns_by_fd.find(fd);
        if (it == L.conns_by_fd.end()) continue;  // closed or moved earlier this batch
        Conn* c = it->second.get();
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          drop_conn(c);
          continue;
        }
        if (events[i].events & EPOLLOUT) {
          if (!flush_conn(c)) continue;
        }
        if (events[i].events & EPOLLIN) on_readable(c);
      }
      if (drain) update_quiet(L);
    }
    // Close every connection before the loop thread exits — on a crash
    // shutdown nothing will serve these fds again, and a client blocked on
    // its ack must observe EOF ("unacked, unknown") rather than hang until
    // stop(). Connections handed to this loop but not yet adopted are
    // closed too, and `closed` turns away any handed over later.
    std::vector<std::unique_ptr<Conn>> orphans;
    {
      UniqueLock l(slow_mu);
      L.closed = true;
      orphans.swap(L.adopt_in);
      L.done_in.clear();
      for (auto& c : orphans) conn_owner.erase(c->id);
    }
    for (auto& c : orphans) close_conn(*c);
    while (!L.conns_by_fd.empty()) drop_conn(L.conns_by_fd.begin()->second.get());
  }

  // One off-loop worker: pop a job from `in`, run it unlocked, post its
  // completion to the owning loop and wake it. SCRUB and the
  // replicated-write quorum waits each get their own worker and queue, so
  // a scrub never delays an ack. The repl queue is FIFO per server, so one
  // round-trip typically covers every write queued behind it (shipping
  // drains the whole decided backlog and the watermark is monotone).
  template <typename Job>
  void worker_loop(std::deque<Job>& in, CondVar& cv, SlowDone (Impl::*run)(const Job&)) {
    for (;;) {
      Job job;
      {
        UniqueLock l(slow_mu);
        cv.wait(l, [&] { return stopping.load(std::memory_order_acquire) || !in.empty(); });
        if (stopping.load(std::memory_order_acquire)) return;
        job = in.front();
        in.pop_front();
        workers_busy++;
      }
      SlowDone done = (this->*run)(job);
      Loop* owner;
      {
        UniqueLock l(slow_mu);
        workers_busy--;
        owner = post_locked(std::move(done));
      }
      if (owner != nullptr) owner->wake();
    }
  }

  SlowDone run_scrub(const SlowReq& req) {
    DStore::ScrubReport report;
    Status s = store->scrub_all(&report);
    ScrubSummary sum;
    sum.objects_scanned = report.objects_scanned;
    sum.pages_verified = report.pages_verified;
    sum.checksum_failures = report.checksum_failures;
    sum.repaired = report.repaired;
    sum.quarantined_pages = report.quarantined_pages;
    return {req.conn_id, req.req_id, Op::kScrub, wire_byte_of(s.code()),
            s.is_ok() ? scrub_resp_body(sum) : s.message()};
  }

  SlowDone await_quorum(const ReplWait& w) {
    Status s = repl->await_ticket(w.ticket);
    return {w.conn_id, w.req_id, w.op, wire_byte_of(s.code()),
            s.is_ok() ? std::string() : s.message()};
  }
};

Server::Server() : impl_(new Impl) {}

Server::~Server() { stop(); }

Result<std::unique_ptr<Server>> Server::start(ShardedStore* store, ServerConfig cfg,
                                              fault::FaultInjector* fault,
                                              ReplHandler* repl) {
  if (store == nullptr) return Status::invalid_argument("null store");
  auto srv = std::unique_ptr<Server>(new Server());
  Impl& im = *srv->impl_;
  im.store = store;
  im.cfg = cfg;
  im.fault = fault;
  im.repl = repl;
  Status s = im.setup();
  if (!s.is_ok()) return s;
  for (auto& L : im.loops) {
    Impl::Loop* lp = L.get();
    L->thread = std::thread([&im, lp] { im.run_loop(*lp); });
  }
  im.slow_thread = std::thread([&im] { im.worker_loop(im.slow_in, im.slow_cv, &Impl::run_scrub); });
  if (repl != nullptr) {
    im.repl_thread =
        std::thread([&im] { im.worker_loop(im.repl_in, im.repl_cv, &Impl::await_quorum); });
  }
  return srv;
}

void Server::drain_stop(uint32_t timeout_ms) {
  Impl& im = *impl_;
  if (im.stopped) return;
  im.draining.store(true, std::memory_order_release);
  im.wake_all();
  int64_t deadline = now_ms() + (int64_t)timeout_ms;
  while (!im.stopping.load(std::memory_order_acquire) && !im.drain_complete() &&
         now_ms() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop();
}

void Server::stop() {
  Impl& im = *impl_;
  if (im.stopped) return;
  im.stopped = true;
  im.stopping.store(true, std::memory_order_release);
  im.wake_all();
  {
    UniqueLock l(im.slow_mu);
    im.slow_cv.notify_all();
    im.repl_cv.notify_all();
  }
  for (auto& L : im.loops) {
    if (L->thread.joinable()) L->thread.join();
  }
  if (im.slow_thread.joinable()) im.slow_thread.join();
  if (im.repl_thread.joinable()) im.repl_thread.join();
  im.teardown_fds();
}

uint16_t Server::port() const { return impl_->port; }

bool Server::crashed() const { return impl_->crashed.load(std::memory_order_acquire); }

obs::MetricsRegistry& Server::metrics() { return impl_->metrics; }

}  // namespace dstore::net
