// Async RPC server for DStore (DESIGN.md §15): one epoll event loop per
// shard, a per-connection state machine, no thread-per-connection.
// Connection handling mirrors the ssd::IoQueue submit/complete idiom —
// requests are submissions tagged with req_id, responses are completions,
// and they may finish out of order: fast data ops execute inline on the
// connection's loop (emulated PMEM/SSD ops are microseconds), slow ops
// (SCRUB, replicated-write quorum waits) are shipped to background workers
// and their completions posted back to the connection's loop through its
// eventfd.
//
// Loops: N = min(store->num_shards(), hardware_concurrency) threads, each
// with its own epoll set, eventfd, connection tables and idle reaper;
// shard s is served by loop s mod N, so a one-shard store runs one loop.
// Loop 0 accepts. A connection's first OPEN_NS pins it to its namespace's
// home shard and hands it to that shard's loop — socket, unparsed
// pipelined frames and unflushed output together — and the new loop runs
// the frames that followed OPEN_NS, in order. Off-loop completions are
// routed to whichever loop owns the connection when they finish.
//
// Tenancy: each namespace lives wholly on ONE ShardedStore shard — its
// home is shard_of(ns_name), recomputable after any restart, so the
// mapping needs no persistence. Tenant objects are stored under
// "<ns>\x1f<key>" via the explicit-placement session ops; each connection
// carries an affinity Session, pinned to its first namespace's home shard
// (the common one-tenant-per-connection case routes every op through that
// shard's private context, on that shard's loop, with no per-op hashing).
// The namespace registry is shared by every loop: OPEN_NS registers under
// a mutex, per-op lookups read it without one.
//
// Crash discipline: when a FaultInjector is wired, every loop re-checks
// injector->crashed() after executing every mutating op and BEFORE
// queueing the ack. Once the durable image is frozen, nothing further is
// acknowledged and the server shuts down — every loop closes its
// connections — so "acked" always implies "committed before the crash",
// the invariant the server crash rig verifies (tests/net_test.cc).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "common/status.h"
#include "dstore/sharded.h"
#include "fault/fault.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace dstore::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = kernel-assigned; read back via Server::port()
  int backlog = 1024;
  size_t max_frame_bytes = kDefaultMaxFrame;
  // Idle-connection reaper (0 = off): a connection that sends no bytes for
  // this long is dropped. HEARTBEAT frames count as activity — they are
  // the keepalive clients send to stay under the reaper.
  uint32_t idle_timeout_ms = 0;
};

class Server {
 public:
  // Binds, listens, and starts the loop and worker threads. The
  // store must outlive the server. `fault` (optional) is the injector
  // wired into the store's crash-sim shard — the ack gate above. `repl`
  // (optional) attaches a replication node (DESIGN.md §16): the four
  // replication opcodes dispatch through it, and client writes are gated
  // on its role + quorum (followers serve reads in READ_ONLY mode).
  static Result<std::unique_ptr<Server>> start(ShardedStore* store, ServerConfig cfg,
                                               fault::FaultInjector* fault = nullptr,
                                               ReplHandler* repl = nullptr);
  ~Server();

  // Idempotent; joins every thread and closes every connection.
  void stop();

  // Graceful shutdown: stop accepting, finish dispatching what's already
  // buffered, flush every response on every loop (including queued
  // slow-op completions), then stop. Falls back to a hard stop() at the
  // deadline.
  void drain_stop(uint32_t timeout_ms = 1000);

  uint16_t port() const;
  // True once the ack gate tripped: the durable image froze mid-run and
  // the server shut itself down without acknowledging anything further.
  bool crashed() const;

  // The server's own net_* registry (scraped merged with the store's
  // metrics by the METRICS op).
  obs::MetricsRegistry& metrics();

 private:
  Server();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dstore::net
