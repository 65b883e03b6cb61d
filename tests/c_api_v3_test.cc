// C binding tests (dstore/dstore_c.h). CApi.* cover the paper's Table-2
// calls as namespace operations — objects, locks, capacity and corruption
// errors, metrics, argument checks; CApiV3.* cover the session/namespace
// surface itself: one open call for embedded and remote stores, tenant
// isolation, and the per-session error slots (the regression for the old
// thread-local slot, where concurrent sessions clobbered each other's
// errors).
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "dstore/dstore_c.h"
#include "dstore/sharded.h"
#include "net/server.h"

namespace {

ds_session_options small_opts(uint64_t max_objects = 1024) {
  ds_session_options o{};
  o.store.max_objects = max_objects;
  o.store.num_blocks = 4096;
  o.store.log_slots = 512;
  o.create = 1;
  return o;
}

TEST(CApi, ApiVersionMatchesHeader) {
  uint32_t v = ds_api_version();
  EXPECT_EQ(v >> 16, (uint32_t)DS_API_VERSION_MAJOR);
  EXPECT_EQ(v & 0xffffu, (uint32_t)DS_API_VERSION_MINOR);
  EXPECT_EQ(DS_API_VERSION_MAJOR, 4);  // v2 flat surface removed in 4.0
  EXPECT_EQ(DS_API_VERSION_MINOR, 0);
}

TEST(CApiV3, EmbeddedMemSessionRoundTrip) {
  ds_session_t* s = ds_session_open("mem:", nullptr);
  ASSERT_NE(s, nullptr);
  ds_namespace_t* ns = ds_namespace_open(s, "tenant");
  ASSERT_NE(ns, nullptr);

  const char payload[] = "hello from v3";
  ASSERT_EQ(ds_put(ns, "greeting", payload, sizeof(payload)), (ssize_t)sizeof(payload));
  char buf[64];
  ASSERT_EQ(ds_get(ns, "greeting", buf, sizeof(buf)), (ssize_t)sizeof(payload));
  EXPECT_STREQ(buf, payload);
  EXPECT_EQ(ds_session_last_error_code(s), DS_OK);

  // Short buffer: full size returned, cap bytes copied.
  char tiny[4];
  ASSERT_EQ(ds_get(ns, "greeting", tiny, sizeof(tiny)), (ssize_t)sizeof(payload));
  EXPECT_EQ(memcmp(tiny, payload, sizeof(tiny)), 0);

  ASSERT_EQ(ds_delete(ns, "greeting"), DS_OK);
  EXPECT_EQ(ds_get(ns, "greeting", buf, sizeof(buf)), DS_ENOTFOUND);
  EXPECT_EQ(ds_session_last_error_code(s), DS_ENOTFOUND);
  EXPECT_EQ(ds_delete(ns, "greeting"), DS_ENOTFOUND);

  EXPECT_EQ(ds_checkpoint(s), DS_OK);  // embedded: forces one
  EXPECT_EQ(ds_scrub(s), DS_OK);

  ds_namespace_close(ns);
  ds_session_close(s);
}

TEST(CApiV3, EmbeddedNamespacesAreIsolated) {
  ds_session_t* s = ds_session_open("mem:", nullptr);
  ASSERT_NE(s, nullptr);
  ds_namespace_t* a = ds_namespace_open(s, "a");
  ds_namespace_t* b = ds_namespace_open(s, "b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(ds_put(a, "k", "AAA", 3), 3);
  ASSERT_EQ(ds_put(b, "k", "BB", 2), 2);
  char buf[8];
  ASSERT_EQ(ds_get(a, "k", buf, sizeof(buf)), 3);
  EXPECT_EQ(memcmp(buf, "AAA", 3), 0);
  ASSERT_EQ(ds_get(b, "k", buf, sizeof(buf)), 2);
  EXPECT_EQ(memcmp(buf, "BB", 2), 0);
  ASSERT_EQ(ds_delete(a, "k"), DS_OK);
  EXPECT_EQ(ds_get(a, "k", buf, sizeof(buf)), DS_ENOTFOUND);
  EXPECT_EQ(ds_get(b, "k", buf, sizeof(buf)), 2);
  ds_namespace_close(a);
  ds_namespace_close(b);
  ds_session_close(s);
}

TEST(CApi, FilesystemStyle) {
  ds_session_options o = small_opts();
  ds_session_t* s = ds_session_open("mem:", &o);
  ASSERT_NE(s, nullptr);
  ds_namespace_t* ns = ds_namespace_open(s, "fs");
  ASSERT_NE(ns, nullptr);

  EXPECT_EQ(ds_object_open(ns, "missing", 0, DS_O_READ), nullptr);
  EXPECT_EQ(ds_session_last_error_code(s), DS_ENOTFOUND);
  ds_object_t* f = ds_object_open(ns, "log.txt", 0, DS_O_READ | DS_O_WRITE | DS_O_CREATE);
  ASSERT_NE(f, nullptr);
  const std::string line1 = "first line\n";
  const std::string line2 = "second line\n";
  EXPECT_EQ(ds_object_write(f, line1.data(), line1.size(), 0), (ssize_t)line1.size());
  EXPECT_EQ(ds_object_write(f, line2.data(), line2.size(), (off_t)line1.size()),
            (ssize_t)line2.size());
  char buf[64] = {};
  ssize_t n = ds_object_read(f, buf, sizeof(buf), 0);
  ASSERT_EQ(n, (ssize_t)(line1.size() + line2.size()));
  EXPECT_EQ(std::string(buf, (size_t)n), line1 + line2);
  EXPECT_EQ(ds_object_read(f, buf, 10, 1000), 0);  // past EOF
  EXPECT_EQ(ds_object_read(f, buf, 1, -1), DS_EINVAL);
  EXPECT_EQ(ds_object_write(f, "x", 1, -1), DS_EINVAL);
  ds_object_close(f);

  // Objects and keys share the namespace's keyspace.
  EXPECT_EQ(ds_get(ns, "log.txt", buf, sizeof(buf)), n);

  ds_object_t* ro = ds_object_open(ns, "log.txt", 0, DS_O_READ);
  ASSERT_NE(ro, nullptr);
  EXPECT_EQ(ds_object_write(ro, "x", 1, 0), DS_EINVAL);
  ds_object_close(ro);

  ds_namespace_close(ns);
  ds_session_close(s);
}

TEST(CApi, LocksViaC) {
  ds_session_t* s = ds_session_open("mem:", nullptr);
  ASSERT_NE(s, nullptr);
  ds_namespace_t* ns = ds_namespace_open(s, "locks");
  ASSERT_NE(ns, nullptr);
  EXPECT_EQ(ds_lock(ns, "dir"), DS_OK);
  EXPECT_EQ(ds_lock(ns, "dir"), DS_EBUSY);  // no recursive locks
  char v[8] = {};
  EXPECT_EQ(ds_put(ns, "dir", v, sizeof(v)), (ssize_t)sizeof(v));  // holder writes
  EXPECT_EQ(ds_unlock(ns, "dir"), DS_OK);
  EXPECT_EQ(ds_unlock(ns, "dir"), DS_ENOTFOUND);
  ds_namespace_close(ns);
  ds_session_close(s);
}

TEST(CApi, CheckpointAndCapacityErrors) {
  ds_session_options o = small_opts(/*max_objects=*/4);
  ds_session_t* s = ds_session_open("mem:", &o);
  ASSERT_NE(s, nullptr);
  ds_namespace_t* ns = ds_namespace_open(s, "full");
  ASSERT_NE(ns, nullptr);
  char v[16] = {};
  for (int i = 0; i < 4; i++) {
    EXPECT_EQ(ds_put(ns, ("k" + std::to_string(i)).c_str(), v, sizeof(v)),
              (ssize_t)sizeof(v));
  }
  EXPECT_EQ(ds_put(ns, "k5", v, sizeof(v)), DS_ENOSPC);
  EXPECT_EQ(ds_checkpoint(s), DS_OK);
  ds_namespace_close(ns);
  ds_session_close(s);
}

TEST(CApiV3, MalformedTargetsAndNamesFailCleanly) {
  EXPECT_EQ(ds_session_open("dir:", nullptr), nullptr);
  EXPECT_NE(ds_open_error()[0], '\0');

  ds_session_t* s = ds_session_open("mem:", nullptr);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(ds_namespace_open(s, ""), nullptr);
  EXPECT_EQ(ds_namespace_open(s, "bad\x1fname"), nullptr);
  EXPECT_EQ(ds_session_last_error_code(s), DS_EINVAL);
  ds_session_close(s);
}

TEST(CApi, NullArgumentsRejected) {
  EXPECT_EQ(ds_session_open(nullptr, nullptr), nullptr);
  EXPECT_EQ(ds_namespace_open(nullptr, "x"), nullptr);
  EXPECT_EQ(ds_put(nullptr, "k", "v", 1), DS_EINVAL);
  EXPECT_EQ(ds_get(nullptr, "k", nullptr, 0), DS_EINVAL);
  EXPECT_EQ(ds_delete(nullptr, "k"), DS_EINVAL);
  EXPECT_EQ(ds_object_open(nullptr, "k", 0, DS_O_READ), nullptr);
  EXPECT_EQ(ds_object_read(nullptr, nullptr, 0, 0), DS_EINVAL);
  EXPECT_EQ(ds_object_write(nullptr, nullptr, 0, 0), DS_EINVAL);
  EXPECT_EQ(ds_lock(nullptr, "k"), DS_EINVAL);
  EXPECT_EQ(ds_unlock(nullptr, "k"), DS_EINVAL);
  EXPECT_EQ(ds_scrub(nullptr), DS_EINVAL);
  EXPECT_EQ(ds_checkpoint(nullptr), DS_EINVAL);
  EXPECT_EQ(ds_session_metrics(nullptr, DS_METRICS_JSON), nullptr);
  EXPECT_EQ(ds_session_last_error_code(nullptr), DS_EINVAL);
  EXPECT_STRNE(ds_session_last_error(nullptr), "");
  ds_session_close(nullptr);    // no-op
  ds_namespace_close(nullptr);  // no-op
  ds_object_close(nullptr);     // no-op

  // Null names on a live namespace land on the session's slot.
  ds_session_t* s = ds_session_open("mem:", nullptr);
  ASSERT_NE(s, nullptr);
  ds_namespace_t* ns = ds_namespace_open(s, "t");
  ASSERT_NE(ns, nullptr);
  EXPECT_EQ(ds_put(ns, nullptr, "v", 1), DS_EINVAL);
  EXPECT_EQ(ds_object_open(ns, nullptr, 0, DS_O_READ), nullptr);
  EXPECT_EQ(ds_lock(ns, nullptr), DS_EINVAL);
  EXPECT_EQ(ds_session_last_error_code(s), DS_EINVAL);
  ds_namespace_close(ns);
  ds_session_close(s);
}

TEST(CApiV3, DirSessionPersistsAcrossReopen) {
  std::string dir = ::testing::TempDir() + "ds_v3_dir_test";
  std::filesystem::remove_all(dir);

  ds_session_options opt{};
  opt.create = 1;
  std::string target = "dir:" + dir;
  ds_session_t* s = ds_session_open(target.c_str(), &opt);
  ASSERT_NE(s, nullptr) << ds_open_error();
  ds_namespace_t* ns = ds_namespace_open(s, "kept");
  ASSERT_NE(ns, nullptr);
  ASSERT_EQ(ds_put(ns, "durable", "stays", 5), 5);
  ds_namespace_close(ns);
  ds_session_close(s);

  opt.create = 0;  // recover
  s = ds_session_open(target.c_str(), &opt);
  ASSERT_NE(s, nullptr) << ds_open_error();
  ns = ds_namespace_open(s, "kept");
  ASSERT_NE(ns, nullptr);
  char buf[16];
  ASSERT_EQ(ds_get(ns, "durable", buf, sizeof(buf)), 5);
  EXPECT_EQ(memcmp(buf, "stays", 5), 0);
  ds_namespace_close(ns);
  ds_session_close(s);
  std::filesystem::remove_all(dir);
}

TEST(CApi, CorruptionSurfacesAsEcorrupt) {
  std::string dir = ::testing::TempDir() + "ds_capi_corrupt";
  std::filesystem::remove_all(dir);
  std::string target = "dir:" + dir;
  ds_session_options o = small_opts();
  const char v[] = "bytes that are about to rot on the device";
  {
    ds_session_t* s = ds_session_open(target.c_str(), &o);
    ASSERT_NE(s, nullptr) << ds_open_error();
    ds_namespace_t* ns = ds_namespace_open(s, "t");
    ASSERT_EQ(ds_put(ns, "victim", v, sizeof(v)), (ssize_t)sizeof(v));
    ds_namespace_close(ns);
    ds_session_close(s);
  }
  // Hex-edit the data image behind the store's back — silent media rot.
  // The page-checksum sidecar (data.img.crc) is left intact, so the edit
  // is exactly the mismatch the integrity layer exists to catch.
  {
    std::fstream img(dir + "/data.img", std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(img.is_open());
    std::string blob((std::istreambuf_iterator<char>(img)), {});
    size_t pos = blob.find("about to rot");
    ASSERT_NE(pos, std::string::npos);
    img.clear();
    img.seekp((std::streamoff)pos);
    char flipped = (char)(blob[pos] ^ 0x01);
    img.write(&flipped, 1);
  }
  o.create = 0;  // recover
  ds_session_t* s = ds_session_open(target.c_str(), &o);
  ASSERT_NE(s, nullptr) << ds_open_error();
  ds_namespace_t* ns = ds_namespace_open(s, "t");
  char buf[64] = {};
  // The read must never return the rotten bytes as OK: the device-level
  // checksum fails, repair has no log copy to heal from, and the error
  // propagates through the C bindings as DS_ECORRUPT.
  EXPECT_EQ(ds_get(ns, "victim", buf, sizeof(buf)), (ssize_t)DS_ECORRUPT);
  EXPECT_EQ(ds_session_last_error_code(s), DS_ECORRUPT);
  EXPECT_STRNE(ds_session_last_error(s), "");
  ds_namespace_close(ns);
  ds_session_close(s);
  std::filesystem::remove_all(dir);
}

TEST(CApi, LastErrorTracksMostRecentCall) {
  ds_session_t* s = ds_session_open("mem:", nullptr);
  ASSERT_NE(s, nullptr);
  EXPECT_STREQ(ds_open_error(), "");  // a successful open clears the slot
  EXPECT_EQ(ds_session_last_error_code(s), DS_OK);
  EXPECT_STREQ(ds_session_last_error(s), "");
  ds_namespace_t* ns = ds_namespace_open(s, "t");
  ASSERT_NE(ns, nullptr);

  char buf[16] = {};
  EXPECT_EQ(ds_get(ns, "nope", buf, sizeof(buf)), DS_ENOTFOUND);
  EXPECT_EQ(ds_session_last_error_code(s), DS_ENOTFOUND);
  EXPECT_NE(std::string(ds_session_last_error(s)).find("nope"), std::string::npos);

  EXPECT_EQ(ds_put(ns, "k", "v", 1), 1);
  EXPECT_EQ(ds_session_last_error_code(s), DS_OK);  // success clears the slot
  EXPECT_STREQ(ds_session_last_error(s), "");

  ds_namespace_close(ns);
  ds_session_close(s);
}

TEST(CApi, MetricsDumpBothFormats) {
  ds_session_t* s = ds_session_open("mem:", nullptr);
  ASSERT_NE(s, nullptr);
  ds_namespace_t* ns = ds_namespace_open(s, "m");
  ASSERT_NE(ns, nullptr);
  ASSERT_EQ(ds_put(ns, "k", "value", 5), 5);

  char* json = ds_session_metrics(s, DS_METRICS_JSON);
  ASSERT_NE(json, nullptr);
  EXPECT_NE(strstr(json, "\"version\": 1"), nullptr);
  EXPECT_NE(strstr(json, "dstore_puts_total"), nullptr);
  free(json);

  char* prom = ds_session_metrics(s, DS_METRICS_PROMETHEUS);
  ASSERT_NE(prom, nullptr);
  EXPECT_NE(strstr(prom, "# TYPE dstore_puts_total counter"), nullptr);
  free(prom);

  EXPECT_EQ(ds_session_metrics(s, 99), nullptr);
  EXPECT_EQ(ds_session_last_error_code(s), DS_EINVAL);

  ds_namespace_close(ns);
  ds_session_close(s);
}

// The small-fix regression: error state lives on the session, so
// concurrent sessions (one per thread, as documented) observe their own
// last error and never each other's.
TEST(CApiV3, ConcurrentSessionsKeepIndependentErrors) {
  ds_session_t* ok_s = ds_session_open("mem:", nullptr);
  ds_session_t* err_s = ds_session_open("mem:", nullptr);
  ASSERT_NE(ok_s, nullptr);
  ASSERT_NE(err_s, nullptr);
  ds_namespace_t* ok_ns = ds_namespace_open(ok_s, "t");
  ds_namespace_t* err_ns = ds_namespace_open(err_s, "t");
  ASSERT_NE(ok_ns, nullptr);
  ASSERT_NE(err_ns, nullptr);

  constexpr int kOps = 500;
  std::thread ok_thread([&] {
    char buf[16];
    for (int i = 0; i < kOps; i++) {
      ASSERT_EQ(ds_put(ok_ns, "k", "v", 1), 1);
      ASSERT_EQ(ds_get(ok_ns, "k", buf, sizeof(buf)), 1);
    }
  });
  std::thread err_thread([&] {
    char buf[16];
    for (int i = 0; i < kOps; i++) {
      ASSERT_EQ(ds_get(err_ns, "missing", buf, sizeof(buf)), DS_ENOTFOUND);
    }
  });
  ok_thread.join();
  err_thread.join();

  // Each session's slot reflects ITS last call. Under the old thread-local
  // slot this held only by the accident of one-thread-per-session; two
  // sessions sharing a thread clobbered each other, which is the bug the
  // per-session slot fixes.
  EXPECT_EQ(ds_session_last_error_code(ok_s), DS_OK);
  EXPECT_EQ(ds_session_last_error_code(err_s), DS_ENOTFOUND);
  EXPECT_NE(std::string(ds_session_last_error(err_s)).find("NOT_FOUND"),
            std::string::npos);
  EXPECT_STREQ(ds_session_last_error(ok_s), "");

  ds_namespace_close(ok_ns);
  ds_namespace_close(err_ns);
  ds_session_close(ok_s);
  ds_session_close(err_s);
}

// One surface, two transports: the same calls drive dstore_serverd
// remotely. The server + store live in-process for the test.
TEST(CApiV3, RemoteSessionOverLiveServer) {
  dstore::ShardedConfig cfg;
  cfg.num_shards = 2;
  cfg.affinity = true;
  cfg.shard.max_objects = 256;
  cfg.shard.num_blocks = 2048;
  cfg.shard.engine.log_slots = 256;
  cfg.shard.engine.arena_bytes = 1 << 20;
  auto store = dstore::ShardedStore::create(cfg);
  ASSERT_TRUE(store.is_ok());
  auto server = dstore::net::Server::start(store.value().get(), {});
  ASSERT_TRUE(server.is_ok());

  std::string target = "127.0.0.1:" + std::to_string(server.value()->port());
  ds_session_t* s = ds_session_open(target.c_str(), nullptr);
  ASSERT_NE(s, nullptr) << ds_open_error();
  ds_namespace_t* ns = ds_namespace_open(s, "remote-tenant");
  ASSERT_NE(ns, nullptr) << ds_session_last_error(s);

  ASSERT_EQ(ds_put(ns, "k", "remote-value", 12), 12);
  char buf[32];
  ASSERT_EQ(ds_get(ns, "k", buf, sizeof(buf)), 12);
  EXPECT_EQ(memcmp(buf, "remote-value", 12), 0);
  // Short buffer on the remote path: same full-size contract as embedded.
  char tiny[4];
  ASSERT_EQ(ds_get(ns, "k", tiny, sizeof(tiny)), 12);
  EXPECT_EQ(memcmp(tiny, "remo", 4), 0);
  ASSERT_EQ(ds_delete(ns, "k"), DS_OK);
  EXPECT_EQ(ds_get(ns, "k", buf, sizeof(buf)), DS_ENOTFOUND);
  EXPECT_EQ(ds_session_last_error_code(s), DS_ENOTFOUND);

  EXPECT_EQ(ds_scrub(s), DS_OK);
  EXPECT_EQ(ds_checkpoint(s), DS_ENOTSUP);  // servers checkpoint themselves
  // Objects and locks are embedded-only.
  EXPECT_EQ(ds_object_open(ns, "obj", 0, DS_O_READ | DS_O_WRITE | DS_O_CREATE), nullptr);
  EXPECT_EQ(ds_session_last_error_code(s), DS_ENOTSUP);
  EXPECT_EQ(ds_lock(ns, "obj"), DS_ENOTSUP);
  EXPECT_EQ(ds_unlock(ns, "obj"), DS_ENOTSUP);

  char* metrics = ds_session_metrics(s, DS_METRICS_JSON);
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(strstr(metrics, "net_requests_total"), nullptr);  // server series
  free(metrics);

  ds_namespace_close(ns);
  ds_session_close(s);

  // Connecting to a dead port fails with the reason in the open slot (no
  // session exists to carry it).
  server.value()->stop();
  EXPECT_EQ(ds_session_open(target.c_str(), nullptr), nullptr);
  EXPECT_STRNE(ds_open_error(), "");
}

}  // namespace
