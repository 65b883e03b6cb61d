// net_loadgen — concurrency/latency loadgen for dstore_serverd
// (DESIGN.md §15).
//
// Drives N concurrent connections (default 1000), each pipelining up to
// --depth requests over the DSTP wire protocol, from a small pool of epoll
// worker threads — the client side mirrors the server's own event-loop
// idiom, so neither side needs thread-per-connection. Each connection
// opens a tenant namespace (64 tenants spread over the shards) and runs a
// 50/50 put/get mix; every request is timed submit->completion and folded
// into put/get histograms.
//
// Output: one line per op with throughput + p50/p99/p999, and
// BENCH_net_latency.json (bench_common.h's schema) for bench/results/.
//
// Usage:
//   net_loadgen [--conns N] [--depth D] [--ops N] [--threads T]
//               [--value-size B] [--addr HOST:PORT] [--scrape-metrics]
//
// Without --addr the loadgen self-hosts a ShardedStore + Server in-process
// and talks to it over real loopback sockets (the CI path); --addr points
// it at an external dstore_serverd. --scrape-metrics fetches the merged
// metrics JSON over the wire after the run and prints it to stdout (CI
// pipes it into tools/check_metrics_schema.py).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "common/histogram.h"
#include "dstore/sharded.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"

using namespace dstore;
using namespace dstore::net;

namespace {

uint64_t mono_ns() {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  int conns = (int)bench::env_u64("DSTORE_NET_CONNS", 1000);
  int depth = (int)bench::env_u64("DSTORE_NET_DEPTH", 16);
  uint64_t ops_per_conn = bench::env_u64("DSTORE_NET_OPS", 100);
  int threads = (int)bench::env_u64("DSTORE_NET_THREADS", 8);
  size_t value_size = (size_t)bench::env_u64("DSTORE_NET_VALUE", 256);
  std::string addr;  // empty = self-host
  bool scrape = false;
};

// One pipelined connection driven by a worker's epoll loop.
struct Conn {
  int fd = -1;
  int idx = 0;
  FrameParser parser;
  std::string out;
  size_t out_off = 0;
  bool want_write = false;
  bool ns_open = false;
  uint32_t ns_id = 0;
  uint64_t next_id = 1;
  uint64_t submitted = 0;  // data ops submitted (excludes OPEN_NS)
  uint64_t completed = 0;
  struct Pending {
    uint64_t sent_ns;
    bool is_get;
  };
  std::unordered_map<uint64_t, Pending> inflight;
  bool done = false;
};

struct Worker {
  const Options* opt;
  uint16_t port;
  std::vector<std::unique_ptr<Conn>> conns;
  int epoll_fd = -1;
  LatencyHistogram put_hist, get_hist;
  uint64_t errors = 0;
  uint64_t done_conns = 0;

  std::string value;  // shared payload

  bool connect_all() {
    epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd < 0) return false;
    value.assign(opt->value_size, 'x');
    for (auto& c : conns) {
      c->fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (c->fd < 0) return false;
      sockaddr_in a{};
      a.sin_family = AF_INET;
      a.sin_port = htons(port);
      inet_pton(AF_INET, "127.0.0.1", &a.sin_addr);
      if (::connect(c->fd, (sockaddr*)&a, sizeof(a)) != 0) {
        fprintf(stderr, "connect %d: %s\n", c->idx, strerror(errno));
        return false;
      }
      int one = 1;
      setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fcntl(c->fd, F_SETFL, O_NONBLOCK);
      // First frame: open this connection's tenant (64 tenants fleet-wide).
      append_frame(&c->out, Op::kOpenNs, c->next_id++, 0,
                   open_ns_body("bench-t" + std::to_string(c->idx % 64)));
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLOUT;
      ev.data.ptr = c.get();
      epoll_ctl(epoll_fd, EPOLL_CTL_ADD, c->fd, &ev);
      c->want_write = true;
    }
    return true;
  }

  void update_interest(Conn* c) {
    bool want = c->out_off < c->out.size();
    if (want == c->want_write) return;
    c->want_write = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.ptr = c;
    epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
  }

  void finish(Conn* c) {
    if (c->done) return;
    c->done = true;
    epoll_ctl(epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
    close(c->fd);
    c->fd = -1;
    done_conns++;
  }

  void fail(Conn* c, const char* why) {
    if (!c->done) {
      fprintf(stderr, "conn %d failed: %s\n", c->idx, why);
      errors++;
      finish(c);
    }
  }

  // Keep the pipeline full: up to `depth` data ops on the wire.
  void pump(Conn* c) {
    while (!c->done && c->ns_open && c->submitted < opt->ops_per_conn &&
           c->inflight.size() < (size_t)opt->depth) {
      uint64_t i = c->submitted++;
      uint64_t id = c->next_id++;
      std::string key = "k" + std::to_string(c->idx) + "-" + std::to_string(i % 32);
      bool is_get = (i & 1) != 0 && i > 1;  // 50/50, after a first put exists
      if (is_get) {
        append_frame(&c->out, Op::kGet, id, 0, key_body(c->ns_id, key));
      } else {
        append_frame(&c->out, Op::kPut, id, 0,
                     put_body(c->ns_id, key, value.data(), value.size()));
      }
      c->inflight.emplace(id, Conn::Pending{mono_ns(), is_get});
    }
  }

  void on_frame(Conn* c, const Frame& f) {
    if (!c->ns_open) {
      NamespaceInfo info;
      if (f.hdr.status != 0 || !parse_open_ns_resp(f.body, &info)) {
        return fail(c, "open_ns rejected");
      }
      c->ns_open = true;
      c->ns_id = info.ns_id;
      return;
    }
    auto it = c->inflight.find(f.hdr.req_id);
    if (it == c->inflight.end()) return fail(c, "unknown req_id");
    uint64_t lat = mono_ns() - it->second.sent_ns;
    bool is_get = it->second.is_get;
    c->inflight.erase(it);
    c->completed++;
    if (f.hdr.status != 0 && !(is_get && code_from_wire(f.hdr.status) == Code::kNotFound)) {
      errors++;  // NotFound on a racing get of a just-rotated key is benign
    }
    (is_get ? get_hist : put_hist).record(lat);
    if (c->completed == opt->ops_per_conn) finish(c);
  }

  void flush(Conn* c) {
    while (c->out_off < c->out.size()) {
      ssize_t n = ::write(c->fd, c->out.data() + c->out_off, c->out.size() - c->out_off);
      if (n > 0) {
        c->out_off += (size_t)n;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      return fail(c, "write error");
    }
    if (c->out_off == c->out.size()) {
      c->out.clear();
      c->out_off = 0;
    }
    update_interest(c);
  }

  void on_readable(Conn* c) {
    char buf[64 * 1024];
    for (;;) {
      ssize_t n = ::read(c->fd, buf, sizeof(buf));
      if (n > 0) {
        c->parser.feed(buf, (size_t)n);
        if ((size_t)n < sizeof(buf)) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      return fail(c, "server closed connection");
    }
    Frame f;
    while (!c->done) {
      FrameParser::Next nx = c->parser.next(&f);
      if (nx == FrameParser::Next::kNeedMore) break;
      if (nx == FrameParser::Next::kError) return fail(c, "protocol error");
      on_frame(c, f);
    }
    if (!c->done) {
      pump(c);
      flush(c);
    }
  }

  void run() {
    if (!connect_all()) {
      errors += conns.size();
      return;
    }
    epoll_event events[256];
    while (done_conns < conns.size()) {
      int n = epoll_wait(epoll_fd, events, 256, 1000);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; i++) {
        Conn* c = (Conn*)events[i].data.ptr;
        if (c->done) continue;
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          fail(c, "hup/err");
          continue;
        }
        if (events[i].events & EPOLLOUT) flush(c);
        if (c->done) continue;
        if (events[i].events & EPOLLIN) on_readable(c);
      }
    }
    close(epoll_fd);
  }
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        fprintf(stderr, "%s needs a value\n", flag);
        exit(2);
      }
      return argv[++i];
    };
    if (a == "--conns") {
      opt.conns = atoi(next("--conns"));
    } else if (a == "--depth") {
      opt.depth = atoi(next("--depth"));
    } else if (a == "--ops") {
      opt.ops_per_conn = strtoull(next("--ops"), nullptr, 10);
    } else if (a == "--threads") {
      opt.threads = atoi(next("--threads"));
    } else if (a == "--value-size") {
      opt.value_size = (size_t)strtoull(next("--value-size"), nullptr, 10);
    } else if (a == "--addr") {
      opt.addr = next("--addr");
    } else if (a == "--scrape-metrics") {
      opt.scrape = true;
    } else {
      fprintf(stderr,
              "usage: net_loadgen [--conns N] [--depth D] [--ops N] [--threads T]\n"
              "                   [--value-size B] [--addr HOST:PORT] [--scrape-metrics]\n");
      return 2;
    }
  }
  // The report's provenance records the values in effect, flags included.
  bench::note_knob("DSTORE_NET_CONNS", std::to_string(opt.conns));
  bench::note_knob("DSTORE_NET_DEPTH", std::to_string(opt.depth));
  bench::note_knob("DSTORE_NET_OPS", std::to_string(opt.ops_per_conn));
  bench::note_knob("DSTORE_NET_THREADS", std::to_string(opt.threads));
  bench::note_knob("DSTORE_NET_VALUE", std::to_string(opt.value_size));
  if (const char* addr = std::getenv("DSTORE_REMOTE_ADDR"); addr && opt.addr.empty()) {
    opt.addr = addr;
  }

  // Self-host unless pointed at an external server.
  std::unique_ptr<ShardedStore> store;
  std::unique_ptr<Server> server;
  uint16_t port = 0;
  if (opt.addr.empty()) {
    ShardedConfig cfg;
    cfg.num_shards = 4;
    uint64_t keyspace = (uint64_t)opt.conns * 32 * 2;
    cfg.shard.max_objects = keyspace / (uint64_t)cfg.num_shards * 2;
    cfg.shard.num_blocks = cfg.shard.max_objects * 4;
    cfg.shard.engine.log_slots = 16384;
    cfg.shard.engine.arena_bytes = 0;  // auto-size
    cfg.shard.engine.background_checkpointing = true;
    cfg.affinity = true;
    auto s = ShardedStore::create(cfg);
    if (!s.is_ok()) {
      fprintf(stderr, "store create failed: %s\n", s.status().to_string().c_str());
      return 1;
    }
    store = std::move(s).value();
    auto srv = Server::start(store.get(), ServerConfig{});
    if (!srv.is_ok()) {
      fprintf(stderr, "server start failed: %s\n", srv.status().to_string().c_str());
      return 1;
    }
    server = std::move(srv).value();
    port = server->port();
  } else {
    size_t colon = opt.addr.rfind(':');
    if (colon == std::string::npos) {
      fprintf(stderr, "--addr must be HOST:PORT\n");
      return 2;
    }
    port = (uint16_t)atoi(opt.addr.c_str() + colon + 1);
    if (opt.addr.compare(0, colon, "127.0.0.1") != 0 &&
        opt.addr.compare(0, colon, "localhost") != 0) {
      fprintf(stderr, "net_loadgen only targets loopback addresses\n");
      return 2;
    }
  }

  printf("# net_loadgen  conns=%d depth=%d ops/conn=%llu threads=%d value=%zuB target=%s\n",
         opt.conns, opt.depth, (unsigned long long)opt.ops_per_conn, opt.threads,
         opt.value_size, opt.addr.empty() ? "self-hosted" : opt.addr.c_str());

  // Shard connections across the worker pool.
  std::vector<Worker> workers((size_t)opt.threads);
  for (int w = 0; w < opt.threads; w++) {
    workers[(size_t)w].opt = &opt;
    workers[(size_t)w].port = port;
  }
  for (int i = 0; i < opt.conns; i++) {
    auto c = std::make_unique<Conn>();
    c->idx = i;
    workers[(size_t)(i % opt.threads)].conns.push_back(std::move(c));
  }

  uint64_t t0 = mono_ns();
  std::vector<std::thread> pool;
  for (auto& w : workers) pool.emplace_back([&w] { w.run(); });
  for (auto& t : pool) t.join();
  double wall_s = (double)(mono_ns() - t0) / 1e9;

  LatencyHistogram put_hist, get_hist;
  uint64_t errors = 0;
  for (auto& w : workers) {
    put_hist.merge(w.put_hist);
    get_hist.merge(w.get_hist);
    errors += w.errors;
  }
  uint64_t total_ops = put_hist.count() + get_hist.count();
  double iops = wall_s > 0 ? (double)total_ops / wall_s : 0;

  printf("completed %llu ops over %d connections in %.2fs (%.0f op/s, %llu errors)\n",
         (unsigned long long)total_ops, opt.conns, wall_s, iops,
         (unsigned long long)errors);
  printf("put  %s\n", put_hist.summary_us().c_str());
  printf("get  %s\n", get_hist.summary_us().c_str());

  // Latency scale 0: the self-hosted store injects no device latency (an
  // external server's model is not visible from here).
  bench::Report report("net_latency", /*latency_scale=*/0);
  double put_share = total_ops > 0 ? (double)put_hist.count() / (double)total_ops : 0;
  auto row = [&](const char* op, double throughput) -> bench::Report::Row& {
    return report.row().str("op", op).str("system", "serverd").num("qd", opt.depth)
        .num("threads", opt.threads).num("value_size", (double)opt.value_size)
        .num("throughput_iops", throughput);
  };
  row("put", iops * put_share).percentiles(put_hist);
  row("get", iops * (1.0 - put_share)).percentiles(get_hist);
  row("mixed", iops);
  if (!report.write()) return 1;

  if (opt.scrape) {
    auto client = opt.addr.empty() ? Client::connect("127.0.0.1", port)
                                   : Client::connect(opt.addr, ClientConfig{});
    if (!client.is_ok()) {
      fprintf(stderr, "scrape connect failed: %s\n", client.status().to_string().c_str());
      return 1;
    }
    auto json = client.value()->metrics(0);
    if (!json.is_ok()) {
      fprintf(stderr, "scrape failed: %s\n", json.status().to_string().c_str());
      return 1;
    }
    printf("%s", json.value().c_str());
  }

  if (server) server->stop();
  return errors == 0 ? 0 : 1;
}
