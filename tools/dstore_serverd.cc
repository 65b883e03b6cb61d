// dstore_serverd — the DStore network daemon (DESIGN.md §15, §16).
//
// Hosts a ShardedStore fleet behind the DSTP wire protocol: one epoll
// event loop per shard (up to the core count; a connection moves to its
// namespace's home-shard loop on OPEN_NS), per-connection state machines,
// pipelined out-of-order completion, per-tenant namespaces mapped onto
// shards. Clients are the
// C++ library (net::Client), the v3 C API (ds_session_open("host:port")),
// ycsb_runner --backend=remote, and bench/failover.
//
// Usage:
//   dstore_serverd [--host H] [--port P] [--shards N] [--objects N]
//                  [--ckpt-workers N] [--max-frame BYTES]
//                  [--idle-timeout-ms N]
//                  [--repl-node-id N [--repl-primary]
//                   [--repl-primary-id N] [--repl-peer ID=HOST:PORT]...
//                   [--repl-tick-ms N]]
//
// --port 0 (the default) binds an ephemeral port; the daemon prints
// "listening on H:P" on stdout either way (scripts scrape that line). A
// malformed number, a --port above 65535 or an unknown flag exits 64.
//
// Replication (DESIGN.md §16): --repl-node-id attaches a repl::Node and
// dispatches the replication opcodes. Exactly one node in a fleet starts
// with --repl-primary; every node lists every OTHER node once via
// --repl-peer (ids are cluster-wide and nonzero). Followers serve reads
// and bounce writes with READ_ONLY + a leader hint; on primary failure
// the fleet elects deterministically (highest replicated position, ties
// to the highest id).
//
// SIGINT/SIGTERM drain the daemon: stop accepting, flush buffered
// responses, then stop. The store is in-memory emulated PMEM + RAM block
// device — the daemon exists to serve the wire, not to manage persistent
// files (see dstore_cli for file-backed stores).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "bench_common.h"
#include "dstore/sharded.h"
#include "net/server.h"
#include "repl/repl.h"
#include "repl/tcp_peer.h"

namespace {

// Signal flag + self-pipe so the main thread sleeps in poll(), not a busy
// loop, and still wakes promptly on SIGINT/SIGTERM.
volatile sig_atomic_t g_stop = 0;
int g_wake_pipe[2] = {-1, -1};

void on_signal(int) {
  g_stop = 1;
  char b = 1;
  // lint: allow-discard — failing to wake just delays exit to the timeout.
  (void)write(g_wake_pipe[1], &b, 1);
}

using dstore::bench::kExitUsage;
using dstore::bench::parse_u64;

// A flag's number; a missing or malformed value exits 64. With zero_ok, 0
// is accepted (ephemeral, auto or off).
uint64_t arg_u64(int argc, char** argv, int* i, const char* flag, bool zero_ok = false) {
  if (*i + 1 >= argc) {
    fprintf(stderr, "%s needs a value\n", flag);
    exit(kExitUsage);
  }
  return parse_u64(flag, argv[++*i], zero_ok);
}

int usage() {
  fprintf(stderr,
          "usage: dstore_serverd [--host H] [--port P] [--shards N]\n"
          "                      [--objects N] [--ckpt-workers N] [--max-frame B]\n"
          "                      [--idle-timeout-ms N]\n"
          "                      [--repl-node-id N [--repl-primary]\n"
          "                       [--repl-primary-id N] [--repl-peer ID=HOST:PORT]...\n"
          "                       [--repl-tick-ms N]]\n");
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int shards = 4;
  uint64_t objects = 100000;
  int ckpt_workers = 0;
  size_t max_frame = dstore::net::kDefaultMaxFrame;
  uint32_t idle_timeout_ms = 0;

  uint64_t repl_node_id = 0;  // 0 = replication off
  bool repl_primary = false;
  uint64_t repl_primary_id = 0;
  uint32_t repl_tick_ms = 50;
  std::vector<std::pair<uint64_t, std::string>> repl_peers;  // (id, host:port)

  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    if (a == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (a == "--port") {
      uint64_t p = arg_u64(argc, argv, &i, "--port", /*zero_ok=*/true);  // 0 = ephemeral
      if (p > 65535) {
        fprintf(stderr, "--port: %llu is above 65535\n", (unsigned long long)p);
        return kExitUsage;
      }
      port = (uint16_t)p;
    } else if (a == "--shards") {
      shards = (int)arg_u64(argc, argv, &i, "--shards");
    } else if (a == "--objects") {
      objects = arg_u64(argc, argv, &i, "--objects");
    } else if (a == "--ckpt-workers") {
      ckpt_workers = (int)arg_u64(argc, argv, &i, "--ckpt-workers", /*zero_ok=*/true);  // 0 = auto
    } else if (a == "--max-frame") {
      max_frame = (size_t)arg_u64(argc, argv, &i, "--max-frame");
    } else if (a == "--idle-timeout-ms") {
      idle_timeout_ms =
          (uint32_t)arg_u64(argc, argv, &i, "--idle-timeout-ms", /*zero_ok=*/true);  // 0 = off
    } else if (a == "--repl-node-id") {
      repl_node_id = arg_u64(argc, argv, &i, "--repl-node-id", /*zero_ok=*/true);  // 0 = off
    } else if (a == "--repl-primary") {
      repl_primary = true;
    } else if (a == "--repl-primary-id") {
      // 0 = no leader hint
      repl_primary_id = arg_u64(argc, argv, &i, "--repl-primary-id", /*zero_ok=*/true);
    } else if (a == "--repl-tick-ms") {
      repl_tick_ms = (uint32_t)arg_u64(argc, argv, &i, "--repl-tick-ms");
    } else if (a == "--repl-peer" && i + 1 < argc) {
      std::string spec = argv[++i];
      size_t eq = spec.find('=');
      if (eq == std::string::npos || eq + 1 >= spec.size()) {
        fprintf(stderr, "--repl-peer wants ID=HOST:PORT with a nonzero id\n");
        return kExitUsage;
      }
      repl_peers.emplace_back(parse_u64("--repl-peer", spec.substr(0, eq).c_str()),
                              spec.substr(eq + 1));
    } else {
      return usage();
    }
  }
  if (repl_node_id == 0 && (repl_primary || !repl_peers.empty())) {
    fprintf(stderr, "replication flags need --repl-node-id\n");
    return kExitUsage;
  }

  // The Node is constructed before the store so the store can replicate
  // through it from its first write (ShardedConfig::repl_sink).
  std::unique_ptr<dstore::repl::Node> node;
  std::vector<std::unique_ptr<dstore::repl::TcpPeer>> peers;
  if (repl_node_id != 0) {
    dstore::repl::NodeConfig ncfg;
    ncfg.node_id = repl_node_id;
    ncfg.start_as_primary = repl_primary;
    ncfg.initial_primary = repl_primary ? repl_node_id : repl_primary_id;
    node = std::make_unique<dstore::repl::Node>(ncfg);
  }

  dstore::ShardedConfig cfg;
  cfg.num_shards = shards > 0 ? shards : 1;
  uint64_t ns = (uint64_t)cfg.num_shards;
  cfg.shard.max_objects = (objects * 2 + ns - 1) / ns * 2;
  cfg.shard.num_blocks = (objects * 6 + ns - 1) / ns * 2;
  cfg.shard.engine.background_checkpointing = true;  // watermark -> pool
  cfg.ckpt_workers = ckpt_workers;
  cfg.affinity = true;  // connections pin to their namespace's home shard
  cfg.repl_sink = node.get();
  auto store = dstore::ShardedStore::create(cfg);
  if (!store.is_ok()) {
    fprintf(stderr, "store create failed: %s\n", store.status().to_string().c_str());
    return 1;
  }

  dstore::net::ServerConfig scfg;
  scfg.host = host;
  scfg.port = port;
  scfg.max_frame_bytes = max_frame;
  scfg.idle_timeout_ms = idle_timeout_ms;
  if (node != nullptr) {
    node->attach_store(store.value().get());
    for (auto& [id, hostport] : repl_peers) {
      peers.push_back(std::make_unique<dstore::repl::TcpPeer>(hostport));
      node->add_peer(id, peers.back().get());
    }
  }
  auto server =
      dstore::net::Server::start(store.value().get(), scfg, nullptr, node.get());
  if (!server.is_ok()) {
    fprintf(stderr, "server start failed: %s\n", server.status().to_string().c_str());
    return 1;
  }
  printf("listening on %s:%u\n", host.c_str(), server.value()->port());
  if (node != nullptr) {
    printf("replication: node %llu %s, %zu peers\n",
           (unsigned long long)repl_node_id, repl_primary ? "PRIMARY" : "follower",
           repl_peers.size());
    node->start_ticker(repl_tick_ms);
  }
  fflush(stdout);

  if (pipe(g_wake_pipe) != 0) {
    fprintf(stderr, "pipe: %s\n", strerror(errno));
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  while (!g_stop) {
    struct pollfd pfd{g_wake_pipe[0], POLLIN, 0};
    poll(&pfd, 1, 1000);
  }
  printf("draining\n");
  // Stop ticking first — a mid-drain election could revoke writability
  // under requests the drain is trying to finish.
  if (node != nullptr) node->stop_ticker();
  server.value()->drain_stop(2000);
  return 0;
}
