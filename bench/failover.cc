// failover — availability under primary failure (DESIGN.md §16).
//
// Two modes, one measurement: a client drives a steady put load against a
// 3-node replicated fleet while the primary dies, and the bench records
// how long writes were unavailable (the gap between the last pre-failure
// ack and the first post-failover ack), plus the put latency distribution
// before and after, plus the zero-acked-write-loss verdict — every acked
// write must be served by the promoted follower.
//
//   failover                         in-process fleet: three repl::Nodes
//                                    behind real net::Servers on loopback
//                                    TCP; the primary's server is stopped
//                                    mid-run (default --kill-at-ms 1500)
//   failover --targets a,b,c        drive an EXTERNAL fleet (dstore_serverd
//                                    processes); something else kills the
//                                    primary mid-run (CI's repl-smoke job)
//
// Flags: --duration-ms N (default 4000), --kill-at-ms N (in-process only),
// --keys N (default 256), --value-bytes N (default 256).
//
// Output: BENCH_failover.json in $DSTORE_BENCH_JSON_DIR (default cwd,
// bench_common.h's schema): a summary row with the failover verdict plus
// the put latency rows; exit 1 on lost acked writes or an unbounded outage,
// 64 on a usage error (an unknown flag, or a number that is malformed or 0).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "dstore/sharded.h"
#include "net/client.h"
#include "net/server.h"
#include "repl/repl.h"
#include "repl/tcp_peer.h"

namespace dstore {
namespace {

int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One in-process fleet member: Node + store + server, linked over real TCP.
struct FleetNode {
  std::unique_ptr<repl::Node> node;
  std::unique_ptr<ShardedStore> store;
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<repl::TcpPeer>> peers;
};

std::unique_ptr<FleetNode> make_node(uint64_t id, bool primary, uint64_t keys) {
  auto f = std::make_unique<FleetNode>();
  repl::NodeConfig ncfg;
  ncfg.node_id = id;
  ncfg.start_as_primary = primary;
  ncfg.initial_primary = 1;
  f->node = std::make_unique<repl::Node>(ncfg);
  ShardedConfig scfg;
  scfg.num_shards = 1;
  scfg.shard.max_objects = keys * 4;
  scfg.shard.num_blocks = keys * 16;
  scfg.shard.engine.log_slots = 256;
  scfg.shard.engine.background_checkpointing = true;
  scfg.repl_sink = f->node.get();
  auto st = ShardedStore::create(scfg);
  if (!st.is_ok()) {
    fprintf(stderr, "store: %s\n", st.status().to_string().c_str());
    exit(1);
  }
  f->store = std::move(st).value();
  f->node->attach_store(f->store.get());
  auto sv = net::Server::start(f->store.get(), net::ServerConfig{}, nullptr,
                               f->node.get());
  if (!sv.is_ok()) {
    fprintf(stderr, "server: %s\n", sv.status().to_string().c_str());
    exit(1);
  }
  f->server = std::move(sv).value();
  return f;
}

// The client side: writes round-robin keys against whichever target is
// primary, hopping targets on failure. Tracks the acked map (the oracle),
// the per-key ambiguous tail (sent, no ack — either outcome acceptable),
// and the largest ack-to-ack gap (the unavailability window).
struct Driver {
  std::vector<std::string> targets;
  uint64_t keys = 256;
  size_t value_bytes = 256;

  std::map<std::string, std::string> acked;
  std::map<std::string, std::set<std::string>> ambiguous;
  obs::Histogram before, after;  // put latency (ns) around the outage
  uint64_t ok_ops = 0, failed_ops = 0;
  int64_t worst_gap_ms = 0;
  int64_t kill_seen_ms = 0;  // first failure after a success (outage start)

  std::unique_ptr<net::Client> client;
  size_t target_idx = 0;
  uint32_t ns_id = 0;

  bool connect_next() {
    target_idx = (target_idx + 1) % targets.size();
    net::ClientConfig ccfg;
    ccfg.max_reconnect_attempts = 1;
    ccfg.reconnect_backoff_ms = 1;
    ccfg.call_timeout_ms = 500;
    auto c = net::Client::connect(targets[target_idx], ccfg);
    if (!c.is_ok()) return false;
    client = std::move(c).value();
    auto ns = client->open_namespace("bench");
    if (!ns.is_ok()) return false;
    ns_id = ns.value().ns_id;
    return true;
  }

  void run(int64_t duration_ms) {
    int64_t start = now_ms(), last_ok = 0;
    uint64_t op = 0;
    while (now_ms() - start < duration_ms) {
      std::string key = "k" + std::to_string(op % keys);
      std::string val = "v" + std::to_string(op);
      val.resize(value_bytes, 'x');
      op++;
      if (client == nullptr && !connect_next()) {
        failed_ops++;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      auto tp0 = std::chrono::steady_clock::now();
      Status s = client->put(ns_id, key, val.data(), val.size());
      auto lat_ns = (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - tp0)
                        .count();
      int64_t t1 = now_ms();
      if (s.is_ok()) {
        if (last_ok != 0 && t1 - last_ok > worst_gap_ms) worst_gap_ms = t1 - last_ok;
        last_ok = t1;
        acked[key] = val;
        ambiguous[key].clear();
        (kill_seen_ms == 0 ? before : after).record(lat_ns);
        ok_ops++;
      } else {
        // Sent but unacked — an ambiguous write until the next ack lands.
        ambiguous[key].insert(val);
        failed_ops++;
        if (last_ok != 0 && kill_seen_ms == 0) kill_seen_ms = t1;
        client.reset();  // READ_ONLY, timeout, dead conn: re-dial elsewhere
      }
    }
  }

  // Every acked write must be served, byte-exact or superseded only by an
  // ambiguous later attempt, by the node at `target`.
  bool verify(const std::string& target, bool* reachable) {
    *reachable = false;
    net::ClientConfig ccfg;
    ccfg.call_timeout_ms = 2000;
    auto c = net::Client::connect(target, ccfg);
    if (!c.is_ok()) return true;  // dead node: nothing to hold to the oracle
    auto ns = c.value()->open_namespace("bench");
    if (!ns.is_ok()) return true;
    *reachable = true;
    for (const auto& [key, val] : acked) {
      auto got = c.value()->get(ns.value().ns_id, key);
      if (!got.is_ok()) {
        fprintf(stderr, "LOST acked write %s on %s: %s\n", key.c_str(),
                target.c_str(), got.status().to_string().c_str());
        return false;
      }
      if (got.value() != val && ambiguous[key].count(got.value()) == 0) {
        fprintf(stderr, "CORRUPT acked write %s on %s\n", key.c_str(), target.c_str());
        return false;
      }
    }
    return true;
  }
};

int main(int argc, char** argv) {
  int64_t duration_ms = 4000, kill_at_ms = 1500;
  uint64_t keys = 256;
  size_t value_bytes = 256;
  std::string targets_text;
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    auto val = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        fprintf(stderr, "%s needs a value\n", flag);
        exit(bench::kExitUsage);
      }
      return argv[++i];
    };
    if (a == "--duration-ms") {
      duration_ms = (int64_t)bench::parse_u64("--duration-ms", val("--duration-ms"));
    } else if (a == "--kill-at-ms") {
      kill_at_ms = (int64_t)bench::parse_u64("--kill-at-ms", val("--kill-at-ms"));
    } else if (a == "--keys") {
      keys = bench::parse_u64("--keys", val("--keys"));
    } else if (a == "--value-bytes") {
      value_bytes = bench::parse_u64("--value-bytes", val("--value-bytes"));
    } else if (a == "--targets") {
      targets_text = val("--targets");
    } else {
      fprintf(stderr,
              "usage: failover [--targets h:p,h:p,...] [--duration-ms N]\n"
              "                [--kill-at-ms N] [--keys N] [--value-bytes N]\n");
      return bench::kExitUsage;
    }
  }

  Driver drv;
  drv.keys = keys;
  drv.value_bytes = value_bytes;

  std::vector<std::unique_ptr<FleetNode>> fleet;
  std::thread killer;
  if (targets_text.empty()) {
    // In-process fleet on loopback TCP; node 1 starts primary.
    for (uint64_t id = 1; id <= 3; id++)
      fleet.push_back(make_node(id, id == 1, keys));
    for (auto& a : fleet) {
      for (auto& b : fleet) {
        if (a == b) continue;
        a->peers.push_back(std::make_unique<repl::TcpPeer>(
            "127.0.0.1:" + std::to_string(b->server->port())));
        a->node->add_peer(b->node->node_id(), a->peers.back().get());
      }
    }
    for (auto& f : fleet) f->node->start_ticker(10);
    for (auto& f : fleet)
      drv.targets.push_back("127.0.0.1:" + std::to_string(f->server->port()));
    printf("# in-process fleet: %s %s %s\n", drv.targets[0].c_str(),
           drv.targets[1].c_str(), drv.targets[2].c_str());
    killer = std::thread([&fleet, kill_at_ms]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(kill_at_ms));
      printf("# killing primary (node 1)\n");
      fleet[0]->node->stop_ticker();
      fleet[0]->server->stop();
    });
  } else {
    size_t pos = 0;
    while (pos <= targets_text.size()) {
      size_t comma = targets_text.find(',', pos);
      if (comma == std::string::npos) comma = targets_text.size();
      if (comma > pos) drv.targets.push_back(targets_text.substr(pos, comma - pos));
      pos = comma + 1;
    }
    if (drv.targets.empty()) {
      fprintf(stderr, "--targets wants h:p[,h:p...]\n");
      return bench::kExitUsage;
    }
  }

  drv.run(duration_ms);
  if (killer.joinable()) killer.join();

  // Verification: every reachable node must serve the full acked map.
  bool ok = true;
  size_t reachable = 0;
  for (const std::string& t : drv.targets) {
    bool r = false;
    ok = drv.verify(t, &r) && ok;
    reachable += r ? 1 : 0;
  }
  if (reachable == 0) {
    fprintf(stderr, "no node reachable for verification\n");
    ok = false;
  }

  printf("# acked=%llu failed=%llu worst_ack_gap_ms=%lld verified_nodes=%zu %s\n",
         (unsigned long long)drv.ok_ops, (unsigned long long)drv.failed_ops,
         (long long)drv.worst_gap_ms, reachable, ok ? "OK" : "FAILED");
  const obs::MetricSnapshot before = drv.before.snapshot();
  const obs::MetricSnapshot after = drv.after.snapshot();
  printf("# before-kill put %s\n", bench::summary_us(before).c_str());
  printf("# after-failover put %s\n", bench::summary_us(after).c_str());

  // Unavailability = the worst ack-to-ack gap while the primary was killed
  // under live load.
  bench::Report report("failover", /*latency_scale=*/0);
  report.row().str("op", "summary").str("system", "repl-3x")
      .num("acked_writes", (double)drv.ok_ops).num("failed_calls", (double)drv.failed_ops)
      .num("unavailability_ms", (double)drv.worst_gap_ms).num("acked_writes_lost", ok ? 0 : 1);
  for (bool is_after : {false, true}) {
    const obs::MetricSnapshot& h = is_after ? after : before;
    report.row().str("op", "put")
        .str("system", is_after ? "repl-3x-after-failover" : "repl-3x-before-kill")
        .num("qd", 1).num("threads", 1).num("value_size", (double)value_bytes).percentiles(h)
        .num("throughput_iops",
             duration_ms > 0 ? (double)h.count * 1000.0 / (double)duration_ms : 0.0);
  }
  report.write();

  for (auto& fn : fleet) {
    fn->node->stop_ticker();
    if (fn->server != nullptr) fn->server->stop();
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dstore

int main(int argc, char** argv) { return dstore::main(argc, argv); }
