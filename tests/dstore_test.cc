// Tests for the DStore public API (Table 2): key-value and filesystem
// styles, concurrency control, capacity limits, introspection, and
// multi-threaded operation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dstore/dstore.h"

namespace dstore {
namespace {

struct TestStore {
  DStoreConfig cfg;
  std::unique_ptr<pmem::Pool> pool;
  std::unique_ptr<ssd::RamBlockDevice> device;
  std::unique_ptr<DStore> store;
  ds_ctx_t* ctx = nullptr;

  explicit TestStore(bool background_ckpt = false, uint32_t log_slots = 512,
                     uint64_t max_objects = 1024, uint64_t num_blocks = 4096,
                     bool early_ack = false) {
    cfg.max_objects = max_objects;
    cfg.num_blocks = num_blocks;
    cfg.early_ack = early_ack;
    cfg.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(max_objects);
    cfg.engine.log_slots = log_slots;
    cfg.engine.background_checkpointing = background_ckpt;
    pool = std::make_unique<pmem::Pool>(dipper::Engine::required_pool_bytes(cfg.engine),
                                        pmem::Pool::Mode::kCrashSim);
    ssd::DeviceConfig dc;
    dc.num_blocks = num_blocks;
    device = std::make_unique<ssd::RamBlockDevice>(dc);
    auto r = DStore::create(pool.get(), device.get(), cfg);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    store = std::move(r).value();
    ctx = store->ds_init();
  }

  ~TestStore() {
    if (store && ctx != nullptr) store->ds_finalize(ctx);
  }

  void crash_and_recover() {
    store->engine().stop_background();
    store.reset();  // destroys engine threads
    // Process death reclaims the context without draining it — parked
    // early-ack queues are dropped mid-flight, which is the point.
    delete ctx;
    ctx = nullptr;
    pool->crash();
    device->crash();
    auto r = DStore::recover(pool.get(), device.get(), cfg);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    store = std::move(r).value();
    ctx = store->ds_init();
  }
};

std::string value_of(size_t size, char seed) { return std::string(size, seed); }

TEST(DStoreApi, PutGetRoundTrip) {
  TestStore t;
  std::string v = value_of(4096, 'a');
  ASSERT_TRUE(t.store->oput(t.ctx, "obj1", v.data(), v.size()).is_ok());
  std::string out(4096, 0);
  auto r = t.store->oget(t.ctx, "obj1", out.data(), out.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 4096u);
  EXPECT_EQ(out, v);
}

TEST(DStoreApi, GetMissingReturnsNotFound) {
  TestStore t;
  char buf[16];
  auto r = t.store->oget(t.ctx, "ghost", buf, sizeof(buf));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Code::kNotFound);
}

TEST(DStoreApi, OverwriteReplacesValue) {
  TestStore t;
  std::string v1 = value_of(4096, 'x');
  std::string v2 = value_of(8192, 'y');
  ASSERT_TRUE(t.store->oput(t.ctx, "obj", v1.data(), v1.size()).is_ok());
  ASSERT_TRUE(t.store->oput(t.ctx, "obj", v2.data(), v2.size()).is_ok());
  std::string out(8192, 0);
  auto r = t.store->oget(t.ctx, "obj", out.data(), out.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 8192u);
  EXPECT_EQ(out, v2);
  EXPECT_TRUE(t.store->validate().is_ok());
}

TEST(DStoreApi, ShrinkingOverwriteFreesBlocks) {
  TestStore t;
  std::string big = value_of(16384, 'b');
  std::string small = value_of(100, 's');
  ASSERT_TRUE(t.store->oput(t.ctx, "obj", big.data(), big.size()).is_ok());
  uint64_t ssd_after_big = t.store->space_usage().ssd_bytes;
  ASSERT_TRUE(t.store->oput(t.ctx, "obj", small.data(), small.size()).is_ok());
  EXPECT_LT(t.store->space_usage().ssd_bytes, ssd_after_big);
  EXPECT_TRUE(t.store->validate().is_ok());
}

TEST(DStoreApi, DeleteRemovesAndFrees) {
  TestStore t;
  std::string v = value_of(4096, 'd');
  ASSERT_TRUE(t.store->oput(t.ctx, "gone", v.data(), v.size()).is_ok());
  ASSERT_TRUE(t.store->odelete(t.ctx, "gone").is_ok());
  char buf[8];
  EXPECT_EQ(t.store->oget(t.ctx, "gone", buf, sizeof(buf)).status().code(), Code::kNotFound);
  EXPECT_EQ(t.store->odelete(t.ctx, "gone").code(), Code::kNotFound);
  EXPECT_EQ(t.store->object_count(), 0u);
  EXPECT_EQ(t.store->space_usage().ssd_bytes, 0u);
  EXPECT_TRUE(t.store->validate().is_ok());
}

TEST(DStoreApi, EmptyValueSupported) {
  TestStore t;
  ASSERT_TRUE(t.store->oput(t.ctx, "empty", nullptr, 0).is_ok());
  char buf[8];
  auto r = t.store->oget(t.ctx, "empty", buf, sizeof(buf));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 0u);
}

TEST(DStoreApi, SmallBufferGetsTruncatedCopyFullSize) {
  TestStore t;
  std::string v = value_of(4096, 'z');
  ASSERT_TRUE(t.store->oput(t.ctx, "obj", v.data(), v.size()).is_ok());
  char buf[128];
  auto r = t.store->oget(t.ctx, "obj", buf, sizeof(buf));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 4096u);  // true size reported
  EXPECT_EQ(std::memcmp(buf, v.data(), sizeof(buf)), 0);
}

std::string flatten(const DStore::ReadView& view) {
  std::string out;
  for (const auto& p : view.pieces()) {
    out.append(static_cast<const char*>(p.data), p.len);
  }
  return out;
}

TEST(DStoreZeroCopy, GetReturnsExactBytesWithoutCopy) {
  TestStore t;
  // 3.5 blocks, so the view spans multiple pieces unless runs coalesce.
  std::string v = value_of(14336, 'q');
  v[0] = 'A';
  v[14335] = 'Z';
  ASSERT_TRUE(t.store->oput(t.ctx, "obj", v.data(), v.size()).is_ok());
  auto r = t.store->oget_zc(t.ctx, "obj");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  DStore::ReadView view = std::move(r).value();
  EXPECT_EQ(view.size(), v.size());
  EXPECT_EQ(flatten(view), v);
  // The pieces alias device memory — nothing was copied into a test buffer.
  ASSERT_FALSE(view.pieces().empty());
  const char* media_begin = static_cast<const char*>(t.device->direct_read_map(0));
  const char* media_end = media_begin + t.device->config().capacity();
  for (const auto& p : view.pieces()) {
    const char* d = static_cast<const char*>(p.data);
    EXPECT_TRUE(d >= media_begin && d + p.len <= media_end);
  }
}

TEST(DStoreZeroCopy, EmptyAndMissingObjects) {
  TestStore t;
  ASSERT_TRUE(t.store->oput(t.ctx, "empty", nullptr, 0).is_ok());
  auto r = t.store->oget_zc(t.ctx, "empty");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().size(), 0u);
  EXPECT_TRUE(r.value().pieces().empty());
  EXPECT_EQ(t.store->oget_zc(t.ctx, "ghost").status().code(), Code::kNotFound);
}

TEST(DStoreZeroCopy, ViewPinsObjectAgainstWriters) {
  TestStore t;
  std::string v1 = value_of(4096, '1');
  std::string v2 = value_of(4096, '2');
  ASSERT_TRUE(t.store->oput(t.ctx, "pinned", v1.data(), v1.size()).is_ok());
  std::atomic<bool> wrote{false};
  std::thread writer;
  {
    auto r = t.store->oget_zc(t.ctx, "pinned");
    ASSERT_TRUE(r.is_ok());
    DStore::ReadView view = std::move(r).value();
    writer = std::thread([&] {
      ds_ctx_t* ctx2 = t.store->ds_init();
      ASSERT_TRUE(t.store->oput(ctx2, "pinned", v2.data(), v2.size()).is_ok());
      wrote.store(true, std::memory_order_release);
      t.store->ds_finalize(ctx2);
    });
    // The writer must wait for the view's read exclusion: the mapped bytes
    // stay the old value for the entire time we hold the pin.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(wrote.load(std::memory_order_acquire));
    EXPECT_EQ(flatten(view), v1);
  }
  writer.join();
  EXPECT_TRUE(wrote.load(std::memory_order_acquire));
  std::string out(4096, 0);
  ASSERT_TRUE(t.store->oget(t.ctx, "pinned", out.data(), out.size()).is_ok());
  EXPECT_EQ(out, v2);
}

TEST(DStoreZeroCopy, UnsupportedWithoutDirectMapping) {
  // A !PLP device dual-buffers its cache under a lock — no stable pointer
  // exists, so zero-copy must refuse and the caller falls back to oget().
  DStoreConfig cfg;
  cfg.max_objects = 64;
  cfg.num_blocks = 256;
  cfg.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(64);
  cfg.engine.log_slots = 64;
  pmem::Pool pool(dipper::Engine::required_pool_bytes(cfg.engine), pmem::Pool::Mode::kCrashSim);
  ssd::DeviceConfig dc;
  dc.num_blocks = 256;
  dc.power_loss_protection = false;
  ssd::RamBlockDevice device(dc);
  auto r = DStore::create(&pool, &device, cfg);
  ASSERT_TRUE(r.is_ok());
  auto store = std::move(r).value();
  ds_ctx_t* ctx = store->ds_init();
  std::string v = value_of(4096, 'n');
  ASSERT_TRUE(store->oput(ctx, "obj", v.data(), v.size()).is_ok());
  EXPECT_EQ(store->oget_zc(ctx, "obj").status().code(), Code::kUnsupported);
  // The copying path still works.
  std::string out(4096, 0);
  ASSERT_TRUE(store->oget(ctx, "obj", out.data(), out.size()).is_ok());
  EXPECT_EQ(out, v);
  store->ds_finalize(ctx);
}

TEST(DStoreZeroCopy, DetectsSilentMediaCorruption) {
  TestStore t;
  std::string v = value_of(4096, 'c');
  ASSERT_TRUE(t.store->oput(t.ctx, "obj", v.data(), v.size()).is_ok());
  {
    auto ok = t.store->oget_zc(t.ctx, "obj");
    ASSERT_TRUE(ok.is_ok());
  }
  // Rot a bit of the object's first page behind the sidecar's back; the
  // mapped read must fail its checksum, never serve silently wrong bytes.
  uint64_t pos = 0;
  {
    auto r0 = t.store->oget_zc(t.ctx, "obj");
    ASSERT_TRUE(r0.is_ok());
    pos = (uint64_t)(static_cast<const char*>(r0.value().pieces().front().data) -
                     static_cast<const char*>(t.device->direct_read_map(0)));
  }  // view (and its pin) dropped before mutating media
  t.device->flip_media_bit(pos + 100, 3);
  auto r = t.store->oget_zc(t.ctx, "obj");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Code::kCorruption);
}

TEST(DStoreEarlyAck, PutsRoundTripAndSourceBufferIsFreeAfterAck) {
  TestStore t(false, 512, 1024, 4096, /*early_ack=*/true);
  for (int i = 0; i < 32; i++) {
    std::string v = value_of(8192, (char)('a' + i % 26));
    std::string name = "obj" + std::to_string(i);
    ASSERT_TRUE(t.store->oput(t.ctx, name, v.data(), v.size()).is_ok());
    // The ack transfers nothing to the background: scribbling over the
    // source buffer now must not affect the stored value.
    std::memset(v.data(), 0, v.size());
  }
  for (int i = 0; i < 32; i++) {
    std::string want = value_of(8192, (char)('a' + i % 26));
    std::string out(8192, 0);
    auto r = t.store->oget(t.ctx, "obj" + std::to_string(i), out.data(), out.size());
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(out, want);
  }
  EXPECT_TRUE(t.store->validate().is_ok());
}

TEST(DStoreEarlyAck, AckedPutsSurviveCrash) {
  TestStore t(false, 512, 1024, 4096, /*early_ack=*/true);
  std::string v = value_of(12288, 'k');
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(
        t.store->oput(t.ctx, "crashkey" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  // Crash immediately — parked queues still spinning out emulated latency.
  // Acknowledged == durable under PLP: everything must recover.
  t.crash_and_recover();
  for (int i = 0; i < 8; i++) {
    std::string out(12288, 0);
    auto r = t.store->oget(t.ctx, "crashkey" + std::to_string(i), out.data(), out.size());
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(out, v);
  }
  EXPECT_TRUE(t.store->validate().is_ok());
}

TEST(DStoreApi, NameTooLongRejected) {
  TestStore t;
  std::string long_name(kMaxNameLen + 1, 'n');
  char buf[8] = {};
  EXPECT_EQ(t.store->oput(t.ctx, long_name, buf, 8).code(), Code::kInvalidArgument);
  EXPECT_EQ(t.store->oget(t.ctx, long_name, buf, 8).status().code(), Code::kInvalidArgument);
}

TEST(DStoreApi, ValuesOfManySizes) {
  TestStore t;
  Rng rng(3);
  for (int i = 0; i < 50; i++) {
    size_t size = 1 + rng.next_below(20000);
    std::string v((size_t)size, (char)('a' + i % 26));
    std::string name = "sz" + std::to_string(i);
    ASSERT_TRUE(t.store->oput(t.ctx, name, v.data(), v.size()).is_ok()) << i;
    std::string out(size, 0);
    auto r = t.store->oget(t.ctx, name, out.data(), out.size());
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), size);
    EXPECT_EQ(out, v);
  }
  EXPECT_TRUE(t.store->validate().is_ok());
}

TEST(DStoreApi, MetadataPoolExhaustion) {
  TestStore t(false, 512, /*max_objects=*/8, /*num_blocks=*/64);
  char buf[16] = {};
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(t.store->oput(t.ctx, "o" + std::to_string(i), buf, sizeof(buf)).is_ok()) << i;
  }
  EXPECT_EQ(t.store->oput(t.ctx, "one-too-many", buf, sizeof(buf)).code(), Code::kOutOfSpace);
  // Overwrites still work (no new metadata entry needed).
  EXPECT_TRUE(t.store->oput(t.ctx, "o3", buf, sizeof(buf)).is_ok());
  // Deleting frees an entry.
  ASSERT_TRUE(t.store->odelete(t.ctx, "o0").is_ok());
  EXPECT_TRUE(t.store->oput(t.ctx, "one-too-many", buf, sizeof(buf)).is_ok());
  EXPECT_TRUE(t.store->validate().is_ok());
}

TEST(DStoreApi, BlockPoolExhaustion) {
  TestStore t(false, 512, /*max_objects=*/64, /*num_blocks=*/8);
  std::string big = value_of(9 * 4096, 'b');  // needs 9 blocks > 8
  EXPECT_EQ(t.store->oput(t.ctx, "big", big.data(), big.size()).code(), Code::kOutOfSpace);
  std::string ok = value_of(8 * 4096, 'k');
  EXPECT_TRUE(t.store->oput(t.ctx, "fits", ok.data(), ok.size()).is_ok());
  // Pool is empty now; even a 1-block object fails.
  char small[16] = {};
  EXPECT_EQ(t.store->oput(t.ctx, "small", small, sizeof(small)).code(), Code::kOutOfSpace);
  // Overwriting the big object with something smaller succeeds (blocks
  // freed by the same op).
  EXPECT_TRUE(t.store->oput(t.ctx, "fits", small, sizeof(small)).is_ok());
  EXPECT_TRUE(t.store->validate().is_ok());
}

// ---------------------------------------------------------------------------
// Filesystem API
// ---------------------------------------------------------------------------

TEST(DStoreFs, CreateWriteRead) {
  TestStore t;
  auto obj = t.store->oopen(t.ctx, "file1", 0, kRead | kWrite | kCreate);
  ASSERT_TRUE(obj.is_ok()) << obj.status().to_string();
  std::string data = value_of(10000, 'f');
  auto w = t.store->owrite(obj.value(), data.data(), data.size(), 0);
  ASSERT_TRUE(w.is_ok());
  EXPECT_EQ(w.value(), 10000u);
  std::string out(10000, 0);
  auto r = t.store->oread(obj.value(), out.data(), out.size(), 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 10000u);
  EXPECT_EQ(out, data);
  t.store->oclose(obj.value());
}

TEST(DStoreFs, OpenMissingWithoutCreateFails) {
  TestStore t;
  auto obj = t.store->oopen(t.ctx, "missing", 0, kRead);
  ASSERT_FALSE(obj.is_ok());
  EXPECT_EQ(obj.status().code(), Code::kNotFound);
}

TEST(DStoreFs, ModeEnforcement) {
  TestStore t;
  auto w = t.store->oopen(t.ctx, "f", 0, kWrite | kCreate);
  ASSERT_TRUE(w.is_ok());
  char buf[8] = {};
  EXPECT_EQ(t.store->oread(w.value(), buf, 8, 0).status().code(), Code::kInvalidArgument);
  t.store->oclose(w.value());
  auto r = t.store->oopen(t.ctx, "f", 0, kRead);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(t.store->owrite(r.value(), buf, 8, 0).status().code(), Code::kInvalidArgument);
  t.store->oclose(r.value());
  EXPECT_EQ(t.store->oopen(t.ctx, "g", 0, kCreate).status().code(), Code::kInvalidArgument);
  EXPECT_EQ(t.store->oopen(t.ctx, "g", 0, 0).status().code(), Code::kInvalidArgument);
}

TEST(DStoreFs, PartialReadsAndWritesAtOffsets) {
  TestStore t;
  auto obj = t.store->oopen(t.ctx, "partial", 0, kRead | kWrite | kCreate);
  ASSERT_TRUE(obj.is_ok());
  // Write 3 chunks at growing offsets, including one spanning a block edge.
  std::string a(4096, 'A'), b(2000, 'B'), c(3000, 'C');
  ASSERT_TRUE(t.store->owrite(obj.value(), a.data(), a.size(), 0).is_ok());
  ASSERT_TRUE(t.store->owrite(obj.value(), b.data(), b.size(), 3000).is_ok());
  ASSERT_TRUE(t.store->owrite(obj.value(), c.data(), c.size(), 8000).is_ok());
  auto sz = t.store->object_size("partial");
  ASSERT_TRUE(sz.is_ok());
  EXPECT_EQ(sz.value(), 11000u);
  std::string out(11000, 0);
  auto r = t.store->oread(obj.value(), out.data(), out.size(), 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 11000u);
  EXPECT_EQ(out.substr(0, 3000), a.substr(0, 3000));
  EXPECT_EQ(out.substr(3000, 2000), b);
  EXPECT_EQ(out.substr(8000, 3000), c);
  // Read past EOF clamps.
  auto tail = t.store->oread(obj.value(), out.data(), 5000, 10000);
  ASSERT_TRUE(tail.is_ok());
  EXPECT_EQ(tail.value(), 1000u);
  // Read at EOF returns 0.
  auto eof = t.store->oread(obj.value(), out.data(), 10, 11000);
  ASSERT_TRUE(eof.is_ok());
  EXPECT_EQ(eof.value(), 0u);
  t.store->oclose(obj.value());
  EXPECT_TRUE(t.store->validate().is_ok());
}

TEST(DStoreFs, InPlaceOverwriteNeedsNoLogRecord) {
  TestStore t;
  auto obj = t.store->oopen(t.ctx, "inplace", 0, kRead | kWrite | kCreate);
  ASSERT_TRUE(obj.is_ok());
  std::string data(4096, '1');
  ASSERT_TRUE(t.store->owrite(obj.value(), data.data(), data.size(), 0).is_ok());
  uint64_t appended = t.store->engine().stats().records_appended.load();
  // Same-size overwrite: §4.3, no metadata change => no record.
  std::string data2(4096, '2');
  ASSERT_TRUE(t.store->owrite(obj.value(), data2.data(), data2.size(), 0).is_ok());
  EXPECT_EQ(t.store->engine().stats().records_appended.load(), appended);
  std::string out(4096, 0);
  ASSERT_TRUE(t.store->oread(obj.value(), out.data(), out.size(), 0).is_ok());
  EXPECT_EQ(out, data2);
  t.store->oclose(obj.value());
}

TEST(DStoreFs, KvAndFsApisSeeSameObjects) {
  TestStore t;
  std::string v = value_of(5000, 'm');
  ASSERT_TRUE(t.store->oput(t.ctx, "mixed", v.data(), v.size()).is_ok());
  auto obj = t.store->oopen(t.ctx, "mixed", 0, kRead);
  ASSERT_TRUE(obj.is_ok());
  std::string out(5000, 0);
  auto r = t.store->oread(obj.value(), out.data(), out.size(), 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(out, v);
  t.store->oclose(obj.value());
}

// ---------------------------------------------------------------------------
// olock / ounlock
// ---------------------------------------------------------------------------

TEST(DStoreLock, LockBlocksOtherWriters) {
  TestStore t;
  char buf[16] = {};
  ASSERT_TRUE(t.store->oput(t.ctx, "shared", buf, sizeof(buf)).is_ok());
  ASSERT_TRUE(t.store->olock(t.ctx, "shared").is_ok());

  std::atomic<bool> other_done{false};
  std::thread other([&] {
    ds_ctx_t* ctx2 = t.store->ds_init();
    char b2[16] = {};
    EXPECT_TRUE(t.store->oput(ctx2, "shared", b2, sizeof(b2)).is_ok());
    other_done = true;
    t.store->ds_finalize(ctx2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(other_done.load());  // blocked on the NOOP record
  ASSERT_TRUE(t.store->ounlock(t.ctx, "shared").is_ok());
  other.join();
  EXPECT_TRUE(other_done.load());
}

// The olock holder's own writes and reads tolerate its lock record (§4.5),
// through the key-value and the filesystem API alike.
TEST(DStoreLock, HolderCanStillWrite) {
  TestStore t;
  char buf[16] = {};
  ASSERT_TRUE(t.store->olock(t.ctx, "mine").is_ok());
  // Each op runs on its own thread with a bounded wait, so a self-deadlock
  // fails the case instead of hanging the test: on a timeout the lock is
  // dropped, which frees the stuck op, and then retaken for the next case.
  auto completes = [&](const char* what, auto op) {
    auto f = std::async(std::launch::async, op);
    if (f.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
      ADD_FAILURE() << what << " by the lock holder did not finish";
      EXPECT_TRUE(t.store->ounlock(t.ctx, "mine").is_ok());
      f.wait();
      EXPECT_TRUE(t.store->olock(t.ctx, "mine").is_ok());
      return false;
    }
    return f.get();
  };
  EXPECT_TRUE(completes("oput", [&] {
    return t.store->oput(t.ctx, "mine", buf, sizeof(buf)).is_ok();
  }));
  auto obj = t.store->oopen(t.ctx, "mine", 0, kRead | kWrite);
  ASSERT_TRUE(obj.is_ok());
  EXPECT_TRUE(completes("pure-overwrite owrite", [&] {
    return t.store->owrite(obj.value(), buf, 8, 0).is_ok();
  }));
  EXPECT_TRUE(completes("extending owrite", [&] {
    return t.store->owrite(obj.value(), buf, sizeof(buf), 8).is_ok();
  }));
  EXPECT_TRUE(completes("oread", [&] {
    char out[32];
    auto r = t.store->oread(obj.value(), out, sizeof(out), 0);
    return r.is_ok() && r.value() == 24;
  }));
  t.store->oclose(obj.value());
  EXPECT_TRUE(completes("oget", [&] {
    char out[32];
    auto r = t.store->oget(t.ctx, "mine", out, sizeof(out));
    return r.is_ok() && r.value() == 24;
  }));
  EXPECT_TRUE(completes("oget_zc", [&] {
    auto r = t.store->oget_zc(t.ctx, "mine");
    return r.is_ok() && r.value().size() == 24;
  }));
  EXPECT_TRUE(completes("odelete", [&] { return t.store->odelete(t.ctx, "mine").is_ok(); }));
  EXPECT_TRUE(completes("oopen(kCreate)", [&] {
    auto r = t.store->oopen(t.ctx, "mine", 0, kWrite | kCreate);
    if (!r.is_ok()) return false;
    t.store->oclose(r.value());
    return true;
  }));
  EXPECT_TRUE(t.store->ounlock(t.ctx, "mine").is_ok());
}

TEST(DStoreLock, DoubleLockAndForeignUnlockRejected) {
  TestStore t;
  ASSERT_TRUE(t.store->olock(t.ctx, "obj").is_ok());
  EXPECT_EQ(t.store->olock(t.ctx, "obj").code(), Code::kBusy);
  ds_ctx_t* ctx2 = t.store->ds_init();
  EXPECT_EQ(t.store->ounlock(ctx2, "obj").code(), Code::kNotFound);
  t.store->ds_finalize(ctx2);
  EXPECT_TRUE(t.store->ounlock(t.ctx, "obj").is_ok());
  EXPECT_EQ(t.store->ounlock(t.ctx, "obj").code(), Code::kNotFound);
}

TEST(DStoreLock, LockSurvivesCheckpoint) {
  TestStore t;
  ASSERT_TRUE(t.store->olock(t.ctx, "held").is_ok());
  char buf[16] = {};
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(t.store->oput(t.ctx, "fill" + std::to_string(i), buf, sizeof(buf)).is_ok());
  }
  ASSERT_TRUE(t.store->checkpoint_now().is_ok());
  EXPECT_GT(t.store->engine().inflight_count(Key::from("held")), 0);
  EXPECT_TRUE(t.store->ounlock(t.ctx, "held").is_ok());
}

// ---------------------------------------------------------------------------
// Introspection & checkpoint interaction
// ---------------------------------------------------------------------------

TEST(DStoreSpace, UsageTracksAllTiers) {
  TestStore t;
  auto before = t.store->space_usage();
  std::string v = value_of(8192, 'u');
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(t.store->oput(t.ctx, "s" + std::to_string(i), v.data(), v.size()).is_ok());
  }
  auto after = t.store->space_usage();
  EXPECT_GT(after.dram_bytes, 0u);
  EXPECT_GT(after.pmem_bytes, before.pmem_bytes);  // log records
  EXPECT_EQ(after.ssd_bytes, 20u * 8192);
  ASSERT_TRUE(t.store->checkpoint_now().is_ok());
  auto post_ckpt = t.store->space_usage();
  EXPECT_GT(post_ckpt.pmem_bytes, after.dram_bytes);  // shadow copies counted
}

TEST(DStoreCkpt, StateIntactAcrossManyCheckpoints) {
  TestStore t;
  Rng rng(9);
  std::map<std::string, char> model;
  for (int round = 0; round < 10; round++) {
    for (int i = 0; i < 30; i++) {
      std::string name = "obj" + std::to_string(rng.next_below(60));
      char seed = (char)('a' + rng.next_below(26));
      std::string v((size_t)(1 + rng.next_below(6000)), seed);
      ASSERT_TRUE(t.store->oput(t.ctx, name, v.data(), v.size()).is_ok());
      model[name] = seed;
    }
    ASSERT_TRUE(t.store->checkpoint_now().is_ok());
    ASSERT_TRUE(t.store->validate().is_ok()) << "round " << round;
  }
  for (const auto& [name, seed] : model) {
    char buf[1];
    auto r = t.store->oget(t.ctx, name, buf, 1);
    ASSERT_TRUE(r.is_ok()) << name;
    EXPECT_EQ(buf[0], seed) << name;
  }
}

// ---------------------------------------------------------------------------
// Multi-threaded smoke: concurrent writers+readers with background
// checkpointing, then full validation.
// ---------------------------------------------------------------------------

TEST(DStoreConcurrent, ParallelMixedWorkloadStaysConsistent) {
  TestStore t(/*background_ckpt=*/true, /*log_slots=*/256);
  const int kThreads = 4;
  const int kOpsPerThread = 300;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int w = 0; w < kThreads; w++) {
    threads.emplace_back([&, w] {
      ds_ctx_t* ctx = t.store->ds_init();
      Rng rng(1000 + w);
      char buf[4096];
      for (int i = 0; i < kOpsPerThread; i++) {
        std::string name = "obj" + std::to_string(rng.next_below(40));
        if (rng.next_bool(0.5)) {
          std::memset(buf, 'a' + w, sizeof(buf));
          if (!t.store->oput(ctx, name, buf, sizeof(buf)).is_ok()) failures++;
        } else if (rng.next_bool(0.2)) {
          Status s = t.store->odelete(ctx, name);
          if (!s.is_ok() && s.code() != Code::kNotFound) failures++;
        } else {
          auto r = t.store->oget(ctx, name, buf, sizeof(buf));
          if (!r.is_ok() && r.status().code() != Code::kNotFound) failures++;
        }
      }
      t.store->ds_finalize(ctx);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  t.store->engine().stop_background();
  EXPECT_TRUE(t.store->validate().is_ok());
}

}  // namespace
}  // namespace dstore
