#include "dstore/dstore_c.h"

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/lockdep.h"
#include "dstore/store_dir.h"
#include "dstore/tenant_key.h"
#include "net/client.h"

// A session: either an embedded store (pool + device + store) or a remote
// client, plus the per-session error slot. The slot has its own lock so
// ds_session_last_error*() can be called while another thread still runs
// the session's last op — the rest of a session is single-threaded by
// contract.
struct ds_session {
  // Embedded ("mem:", "dir:"); declared so the store is destroyed before
  // the pool and device it sits on.
  std::unique_ptr<dstore::pmem::Pool> pool;
  std::unique_ptr<dstore::ssd::BlockDevice> device;
  std::unique_ptr<dstore::DStore> store;
  std::unique_ptr<dstore::net::Client> client; // remote ("host:port")

  mutable dstore::SpinLock err_mu{"capi.session_err"};
  int err_code = DS_OK;
  std::string err_msg;
};

// A tenant keyspace. Embedded namespaces hold a private engine context and
// prefix keys exactly like the server does (dstore/tenant_key.h), so embedded
// and remote sessions are observationally identical; remote ones hold the
// server-assigned namespace id.
struct ds_namespace {
  ds_session_t* owner = nullptr;
  std::string name;
  dstore::ds_ctx_t* ctx = nullptr;  // embedded
  uint32_t ns_id = 0;               // remote
};

struct ds_object {
  ds_session_t* owner;
  dstore::Object* obj;
};

namespace {

using dstore::tenant_key;
using dstore::valid_namespace_name;

// ds_open_error state: one slot per thread, written by ds_session_open.
thread_local std::string tls_open_error;

void open_failed(const dstore::Status& s) { tls_open_error = s.to_string(); }

int srecord(ds_session_t* s, const dstore::Status& st) {
  int code = dstore::errno_of(st.code());
  dstore::LockGuard<dstore::SpinLock> g(s->err_mu);
  s->err_code = code;
  if (st.is_ok()) {
    s->err_msg.clear();
  } else {
    s->err_msg = st.to_string();
  }
  return code;
}

int srecord_errno(ds_session_t* s, int code, const char* msg) {
  dstore::LockGuard<dstore::SpinLock> g(s->err_mu);
  s->err_code = code;
  s->err_msg = msg;
  return code;
}

dstore::DStoreConfig config_from(const dstore_options* o) {
  dstore::DStoreConfig cfg;
  cfg.max_objects = (o != nullptr && o->max_objects != 0) ? o->max_objects : (1 << 14);
  cfg.num_blocks = (o != nullptr && o->num_blocks != 0) ? o->num_blocks : (1 << 16);
  cfg.engine.log_slots = (o != nullptr && o->log_slots != 0) ? o->log_slots : 8192;
  cfg.engine.arena_bytes = dstore::DStoreConfig::suggested_arena_bytes(cfg.max_objects);
  cfg.engine.background_checkpointing =
      o != nullptr && o->background_checkpointing != 0;
  return cfg;
}

// Brings up an embedded store on `s`: RAM-backed when `dir` is null, else
// file-backed under `dir` (open_store_dir: its manifest's sizing wins on
// reopen).
dstore::Status open_store(ds_session* s, const dstore_options* options, const char* dir,
                          bool create) {
  dstore::DStoreConfig cfg = config_from(options);
  if (dir != nullptr) {
    auto d = dstore::open_store_dir(dir, cfg, create);
    if (!d.is_ok()) return d.status();
    s->pool = std::move(d.value().pool);
    s->device = std::move(d.value().device);
    s->store = std::move(d.value().store);
    return dstore::Status::ok();
  }
  dstore::ssd::DeviceConfig dc;
  dc.num_blocks = cfg.num_blocks;
  s->pool = std::make_unique<dstore::pmem::Pool>(dstore::DStoreConfig::required_pool_bytes(cfg),
                                                 dstore::pmem::Pool::Mode::kDirect);
  s->device = std::make_unique<dstore::ssd::RamBlockDevice>(dc);
  auto store = dstore::DStore::create(s->pool.get(), s->device.get(), cfg);
  if (!store.is_ok()) return store.status();
  s->store = std::move(store).value();
  return dstore::Status::ok();
}

dstore::Status embedded_only(const char* what) {
  return dstore::Status::unsupported(std::string(what) + " needs an embedded session");
}

}  // namespace

extern "C" {

uint32_t ds_api_version(void) {
  return ((uint32_t)DS_API_VERSION_MAJOR << 16) | (uint32_t)DS_API_VERSION_MINOR;
}

ds_session_t* ds_session_open(const char* target, const ds_session_options* options) {
  if (target == nullptr) {
    open_failed(dstore::Status::invalid_argument("null target"));
    return nullptr;
  }
  std::string t = target;
  auto session = std::make_unique<ds_session>();
  const dstore_options* store_opts = options != nullptr ? &options->store : nullptr;
  dstore::Status st;
  if (t == "mem:" || t == "mem") {
    st = open_store(session.get(), store_opts, nullptr, true);
  } else if (t.rfind("dir:", 0) == 0) {
    std::string dir = t.substr(4);
    st = dir.empty() ? dstore::Status::invalid_argument("dir: target needs a path")
                     : open_store(session.get(), store_opts, dir.c_str(),
                                  options == nullptr || options->create != 0);
  } else {
    // Remote: "tcp:host:port" or bare "host:port".
    std::string hostport = t.rfind("tcp:", 0) == 0 ? t.substr(4) : t;
    dstore::net::ClientConfig cfg;
    if (options != nullptr && options->pipeline_depth != 0) {
      cfg.pipeline_depth = options->pipeline_depth;
    }
    auto client = dstore::net::Client::connect(hostport, cfg);
    if (client.is_ok()) {
      session->client = std::move(client).value();
    } else {
      st = client.status();
    }
  }
  if (!st.is_ok()) {
    open_failed(st);
    return nullptr;
  }
  tls_open_error.clear();
  return session.release();
}

void ds_session_close(ds_session_t* session) { delete session; }

const char* ds_open_error(void) { return tls_open_error.c_str(); }

ds_namespace_t* ds_namespace_open(ds_session_t* session, const char* name) {
  if (session == nullptr) return nullptr;
  if (name == nullptr || !valid_namespace_name(name)) {
    srecord_errno(session, DS_EINVAL, "malformed namespace name");
    return nullptr;
  }
  auto ns = std::make_unique<ds_namespace>();
  ns->owner = session;
  ns->name = name;
  if (session->client) {
    auto info = session->client->open_namespace(name);
    if (!info.is_ok()) {
      srecord(session, info.status());
      return nullptr;
    }
    ns->ns_id = info.value().ns_id;
  } else {
    ns->ctx = session->store->ds_init();
  }
  srecord(session, dstore::Status::ok());
  return ns.release();
}

void ds_namespace_close(ds_namespace_t* ns) {
  if (ns == nullptr) return;
  if (ns->ctx != nullptr) ns->owner->store->ds_finalize(ns->ctx);
  delete ns;
}

ssize_t ds_put(ds_namespace_t* ns, const char* key, const void* value, size_t size) {
  if (ns == nullptr) return DS_EINVAL;
  if (key == nullptr) return srecord_errno(ns->owner, DS_EINVAL, "null key");
  ds_session_t* s = ns->owner;
  dstore::Status st = s->client
                          ? s->client->put(ns->ns_id, key, value, size)
                          : s->store->oput(ns->ctx, tenant_key(ns->name, key), value, size);
  int code = srecord(s, st);
  return st.is_ok() ? (ssize_t)size : code;
}

ssize_t ds_get(ds_namespace_t* ns, const char* key, void* value, size_t value_cap) {
  if (ns == nullptr) return DS_EINVAL;
  if (key == nullptr) return srecord_errno(ns->owner, DS_EINVAL, "null key");
  ds_session_t* s = ns->owner;
  if (s->client) {
    auto r = s->client->get(ns->ns_id, key);
    if (!r.is_ok()) return srecord(s, r.status());
    size_t n = r.value().size() < value_cap ? r.value().size() : value_cap;
    if (n > 0) memcpy(value, r.value().data(), n);
    srecord(s, dstore::Status::ok());
    return (ssize_t)r.value().size();
  }
  auto r = s->store->oget(ns->ctx, tenant_key(ns->name, key), value, value_cap);
  if (!r.is_ok()) return srecord(s, r.status());
  srecord(s, dstore::Status::ok());
  return (ssize_t)r.value();
}

int ds_delete(ds_namespace_t* ns, const char* key) {
  if (ns == nullptr) return DS_EINVAL;
  if (key == nullptr) return srecord_errno(ns->owner, DS_EINVAL, "null key");
  ds_session_t* s = ns->owner;
  return srecord(s, s->client ? s->client->del(ns->ns_id, key)
                              : s->store->odelete(ns->ctx, tenant_key(ns->name, key)));
}

ds_object_t* ds_object_open(ds_namespace_t* ns, const char* name, size_t size_hint,
                            uint32_t flags) {
  if (ns == nullptr) return nullptr;
  ds_session_t* s = ns->owner;
  if (name == nullptr) {
    srecord_errno(s, DS_EINVAL, "null name");
    return nullptr;
  }
  if (s->client) {
    srecord(s, embedded_only("ds_object_open"));
    return nullptr;
  }
  uint32_t mode = 0;
  if (flags & DS_O_READ) mode |= dstore::kRead;
  if (flags & DS_O_WRITE) mode |= dstore::kWrite;
  if (flags & DS_O_CREATE) mode |= dstore::kCreate;
  auto r = s->store->oopen(ns->ctx, tenant_key(ns->name, name), size_hint, mode);
  if (!r.is_ok()) {
    srecord(s, r.status());
    return nullptr;
  }
  srecord(s, dstore::Status::ok());
  return new ds_object{s, r.value()};
}

void ds_object_close(ds_object_t* obj) {
  if (obj == nullptr) return;
  obj->owner->store->oclose(obj->obj);
  delete obj;
}

ssize_t ds_object_read(ds_object_t* obj, void* buf, size_t size, off_t offset) {
  if (obj == nullptr) return DS_EINVAL;
  if (offset < 0) return srecord_errno(obj->owner, DS_EINVAL, "negative offset");
  auto r = obj->owner->store->oread(obj->obj, buf, size, (uint64_t)offset);
  if (!r.is_ok()) return srecord(obj->owner, r.status());
  srecord(obj->owner, dstore::Status::ok());
  return (ssize_t)r.value();
}

ssize_t ds_object_write(ds_object_t* obj, const void* buf, size_t size, off_t offset) {
  if (obj == nullptr) return DS_EINVAL;
  if (offset < 0) return srecord_errno(obj->owner, DS_EINVAL, "negative offset");
  auto r = obj->owner->store->owrite(obj->obj, buf, size, (uint64_t)offset);
  if (!r.is_ok()) return srecord(obj->owner, r.status());
  srecord(obj->owner, dstore::Status::ok());
  return (ssize_t)r.value();
}

int ds_lock(ds_namespace_t* ns, const char* name) {
  if (ns == nullptr) return DS_EINVAL;
  ds_session_t* s = ns->owner;
  if (name == nullptr) return srecord_errno(s, DS_EINVAL, "null name");
  if (s->client) return srecord(s, embedded_only("ds_lock"));
  return srecord(s, s->store->olock(ns->ctx, tenant_key(ns->name, name)));
}

int ds_unlock(ds_namespace_t* ns, const char* name) {
  if (ns == nullptr) return DS_EINVAL;
  ds_session_t* s = ns->owner;
  if (name == nullptr) return srecord_errno(s, DS_EINVAL, "null name");
  if (s->client) return srecord(s, embedded_only("ds_unlock"));
  return srecord(s, s->store->ounlock(ns->ctx, tenant_key(ns->name, name)));
}

int ds_scrub(ds_session_t* session) {
  if (session == nullptr) return DS_EINVAL;
  if (session->client) {
    auto r = session->client->scrub();
    return srecord(session, r.is_ok() ? dstore::Status::ok() : r.status());
  }
  return srecord(session, session->store->scrub_now());
}

int ds_checkpoint(ds_session_t* session) {
  if (session == nullptr) return DS_EINVAL;
  if (session->client) {
    return srecord(session, dstore::Status::unsupported(
                                "remote servers checkpoint at the log watermark"));
  }
  return srecord(session, session->store->checkpoint_now());
}

char* ds_session_metrics(ds_session_t* session, int format) {
  if (session == nullptr) return nullptr;
  if (format != DS_METRICS_JSON && format != DS_METRICS_PROMETHEUS) {
    srecord_errno(session, DS_EINVAL, "bad metrics format");
    return nullptr;
  }
  std::string out;
  if (session->client) {
    auto r = session->client->metrics((uint8_t)format);
    if (!r.is_ok()) {
      srecord(session, r.status());
      return nullptr;
    }
    out = std::move(r).value();
  } else {
    out = format == DS_METRICS_JSON ? session->store->metrics_json()
                                    : session->store->metrics_prometheus();
  }
  char* buf = static_cast<char*>(malloc(out.size() + 1));
  if (buf == nullptr) {
    srecord_errno(session, DS_EINTERNAL, "out of memory");
    return nullptr;
  }
  memcpy(buf, out.data(), out.size());
  buf[out.size()] = '\0';
  srecord(session, dstore::Status::ok());
  return buf;
}

int ds_session_last_error_code(const ds_session_t* session) {
  if (session == nullptr) return DS_EINVAL;
  dstore::LockGuard<dstore::SpinLock> g(session->err_mu);
  return session->err_code;
}

const char* ds_session_last_error(const ds_session_t* session) {
  if (session == nullptr) return "null session";
  dstore::LockGuard<dstore::SpinLock> g(session->err_mu);
  return session->err_msg.c_str();
}

}  // extern "C"
