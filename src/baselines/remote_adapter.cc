#include "baselines/remote_adapter.h"

#include <cstdlib>
#include <cstring>

namespace dstore::baselines {

struct RemoteAdapter::Ctx {
  std::unique_ptr<net::Client> client;
  uint32_t ns_id = 0;
};

RemoteAdapter::~RemoteAdapter() {
  if (own_server_) own_server_->stop();
}

Result<std::unique_ptr<RemoteAdapter>> RemoteAdapter::make(ShardedConfig cfg,
                                                           std::string ns) {
  auto a = std::unique_ptr<RemoteAdapter>(new RemoteAdapter());
  a->ns_ = std::move(ns);
  // lint: allow-getenv the server address is a deployment fact, not a code path
  if (const char* addr = std::getenv("DSTORE_REMOTE_ADDR")) {
    a->target_ = addr;
  } else {
    cfg.affinity = true;  // connections pin to their namespace's home shard
    auto store = ShardedStore::create(cfg);
    if (!store.is_ok()) return store.status();
    a->own_store_ = std::move(store).value();
    auto server = net::Server::start(a->own_store_.get(), net::ServerConfig{});
    if (!server.is_ok()) return server.status();
    a->own_server_ = std::move(server).value();
    a->target_ = "127.0.0.1:" + std::to_string(a->own_server_->port());
  }
  // Probe the target now so a bad address fails at construction, not on
  // the first measured op.
  auto probe = a->connect();
  if (!probe.is_ok()) return probe.status();
  return a;
}

Result<std::unique_ptr<net::Client>> RemoteAdapter::connect() const {
  return net::Client::connect(target_, net::ClientConfig{});
}

void* RemoteAdapter::open_ctx() {
  auto client = connect();
  if (!client.is_ok()) return nullptr;
  auto info = client.value()->open_namespace(ns_);
  if (!info.is_ok()) return nullptr;
  auto* ctx = new Ctx;
  ctx->client = std::move(client).value();
  ctx->ns_id = info.value().ns_id;
  return ctx;
}

void RemoteAdapter::close_ctx(void* ctx) { delete static_cast<Ctx*>(ctx); }

Status RemoteAdapter::put(void* ctx, std::string_view key, const void* value,
                          size_t size) {
  if (ctx == nullptr) return Status::io_error("remote ctx failed to connect");
  Ctx* c = static_cast<Ctx*>(ctx);
  return c->client->put(c->ns_id, key, value, size);
}

Result<size_t> RemoteAdapter::get(void* ctx, std::string_view key, void* buf,
                                  size_t cap) {
  if (ctx == nullptr) return Status::io_error("remote ctx failed to connect");
  Ctx* c = static_cast<Ctx*>(ctx);
  auto r = c->client->get(c->ns_id, key);
  if (!r.is_ok()) return r.status();
  size_t n = r.value().size() < cap ? r.value().size() : cap;
  if (n > 0) memcpy(buf, r.value().data(), n);
  return r.value().size();  // full size, like DStore::oget
}

Status RemoteAdapter::del(void* ctx, std::string_view key) {
  if (ctx == nullptr) return Status::io_error("remote ctx failed to connect");
  Ctx* c = static_cast<Ctx*>(ctx);
  return c->client->del(c->ns_id, key);
}

std::string RemoteAdapter::scrape(uint8_t format) {
  auto client = connect();
  if (!client.is_ok()) return "";
  auto r = client.value()->metrics(format);
  return r.is_ok() ? std::move(r).value() : "";
}

std::string RemoteAdapter::metrics_json() {
  std::string s = scrape(0);
  return s.empty() ? KVStore::metrics_json() : s;
}

std::string RemoteAdapter::metrics_prometheus() { return scrape(1); }

}  // namespace dstore::baselines
