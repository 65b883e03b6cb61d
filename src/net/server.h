// Async RPC server for DStore (DESIGN.md §15): one epoll event loop, a
// per-connection state machine, no thread-per-connection. Connection
// handling mirrors the ssd::IoQueue submit/complete idiom — requests are
// submissions tagged with req_id, responses are completions, and they may
// finish out of order: fast data ops execute inline on the loop (emulated
// PMEM/SSD ops are microseconds), slow ops (SCRUB) are shipped to a
// background worker and their completions posted back through an eventfd.
//
// Tenancy: each namespace lives wholly on ONE ShardedStore shard — its
// home is shard_of(ns_name), recomputable after any restart, so the
// mapping needs no persistence. Tenant objects are stored under
// "<ns>\x1f<key>" via the explicit-placement session ops; each connection
// carries an affinity Session, pinned to its first namespace's home shard
// (the common one-tenant-per-connection case routes every op through that
// shard's private context with no per-op hashing).
//
// Crash discipline: when a FaultInjector is wired, the loop re-checks
// injector->crashed() after executing every mutating op and BEFORE
// queueing the ack. Once the durable image is frozen, nothing further is
// acknowledged and the server shuts down — so "acked" always implies
// "committed before the crash", the invariant the server crash rig
// verifies (tests/net_test.cc).
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
  // Binds, listens, and starts the loop + slow-op worker threads. The
  // store must outlive the server. `fault` (optional) is the injector
  // wired into the store's crash-sim shard — the ack gate above. `repl`
  // (optional) attaches a replication node (DESIGN.md §16): the four
  // replication opcodes dispatch through it, and client writes are gated
  // on its role + quorum (followers serve reads in READ_ONLY mode).
  static Result<std::unique_ptr<Server>> start(ShardedStore* store, ServerConfig cfg,
                                               fault::FaultInjector* fault = nullptr,
                                               ReplHandler* repl = nullptr);
  ~Server();

  // Idempotent; joins both threads and closes every connection.
  void stop();

  // Graceful shutdown: stop accepting, finish dispatching what's already
  // buffered, flush every response (including queued slow-op completions),
  // then stop. Falls back to a hard stop() at the deadline.
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
