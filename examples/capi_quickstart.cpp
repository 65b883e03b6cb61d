// C API v3 quickstart: sessions and namespaces (DESIGN.md §15.4).
//
// One surface for both deployments — the target string decides:
//
//   ./build/examples/capi_quickstart                # embedded "mem:" store
//   ./build/examples/capi_quickstart 127.0.0.1:4242 # remote dstore_serverd
//
// Shows: ds_session_open, per-tenant namespaces, put/get/delete,
// per-session error reporting and metrics (the Table-2 call map is in
// DESIGN.md §15.4).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "dstore/dstore_c.h"

int main(int argc, char** argv) {
  const char* target = argc > 1 ? argv[1] : "mem:";
  uint32_t v = ds_api_version();
  printf("C API v%u.%u, target %s\n", v >> 16, v & 0xffff, target);

  // 1. Open a session. "mem:" / "dir:PATH" embed a store in-process;
  //    "host:port" connects to a dstore_serverd over the wire.
  ds_session_options opts{};
  opts.create = 1;
  ds_session_t* sess = ds_session_open(target, &opts);
  if (sess == nullptr) {
    fprintf(stderr, "session open failed: %s\n", ds_open_error());
    return 1;
  }

  // 2. Namespaces are tenants: isolated key spaces, each pinned to its
  //    home shard on sharded/remote deployments.
  ds_namespace_t* app = ds_namespace_open(sess, "app");
  ds_namespace_t* audit = ds_namespace_open(sess, "audit");
  if (app == nullptr || audit == nullptr) {
    fprintf(stderr, "namespace open failed: %s\n", ds_session_last_error(sess));
    ds_session_close(sess);
    return 1;
  }

  // 3. Key-value ops take the namespace handle. ds_put/ds_get return byte
  //    counts, negative DS_E* on failure.
  const char payload[] = "hello from v3";
  if (ds_put(app, "greeting", payload, sizeof(payload)) < 0) {
    fprintf(stderr, "put failed: %s\n", ds_session_last_error(sess));
    ds_session_close(sess);
    return 1;
  }

  char buf[64];
  ssize_t n = ds_get(app, "greeting", buf, sizeof(buf));
  printf("app/greeting: %zd bytes: %s\n", n, n > 0 ? buf : "-");

  // Same key, different tenant: not visible.
  n = ds_get(audit, "greeting", buf, sizeof(buf));
  printf("audit/greeting: %s (expected NOT_FOUND)\n",
         n < 0 ? ds_session_last_error(sess) : "unexpectedly present");

  // 4. Errors are per-session — concurrent sessions never clobber each
  //    other's last-error slot.
  printf("session last error code: %d\n", ds_session_last_error_code(sess));

  // 5. Housekeeping: scrub runs everywhere; checkpoint is embedded-only
  //    (remote servers checkpoint themselves on the log watermark), so
  //    DS_ENOTSUP here is expected for remote targets.
  printf("scrub: %d, checkpoint: %d\n", ds_scrub(sess), ds_checkpoint(sess));

  char* metrics = ds_session_metrics(sess, DS_METRICS_JSON);
  if (metrics != nullptr) {
    printf("metrics scrape: %zu bytes of JSON\n", strlen(metrics));
    free(metrics);
  }

  if (ds_delete(app, "greeting") != DS_OK) {
    fprintf(stderr, "delete failed: %s\n", ds_session_last_error(sess));
  }
  ds_namespace_close(app);
  ds_namespace_close(audit);
  ds_session_close(sess);
  printf("capi_quickstart OK\n");
  return 0;
}
