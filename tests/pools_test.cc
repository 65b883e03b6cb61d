// Tests for CircularPool (FIFO determinism — the DIPPER replay invariant),
// MetadataZone, and the NameCountTable CC primitive.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "ds/circular_pool.h"
#include "ds/metadata_zone.h"
#include "ds/name_count_table.h"

namespace dstore {
namespace {

class PoolTest : public ::testing::Test {
 protected:
  static constexpr size_t kArenaSize = 16 << 20;
  void SetUp() override {
    buf_ = std::make_unique<char[]>(kArenaSize);
    arena_ = Arena(buf_.get(), kArenaSize);
    sp_ = SlabAllocator::format(arena_);
  }
  std::unique_ptr<char[]> buf_;
  Arena arena_;
  SlabAllocator sp_;
};

TEST_F(PoolTest, StartsFullWithAllIds) {
  auto h = CircularPool::create(sp_, 100);
  ASSERT_TRUE(h.is_ok());
  CircularPool pool(sp_, h.value());
  EXPECT_EQ(pool.free_count(), 100u);
  EXPECT_EQ(pool.capacity(), 100u);
}

TEST_F(PoolTest, FifoOrder) {
  auto h = CircularPool::create(sp_, 10);
  ASSERT_TRUE(h.is_ok());
  CircularPool pool(sp_, h.value());
  for (uint64_t i = 0; i < 10; i++) EXPECT_EQ(pool.alloc().value(), i);
  EXPECT_FALSE(pool.alloc().has_value());
  ASSERT_TRUE(pool.free(7).is_ok());
  ASSERT_TRUE(pool.free(3).is_ok());
  EXPECT_EQ(pool.alloc().value(), 7u);  // freed first, popped first
  EXPECT_EQ(pool.alloc().value(), 3u);
}

TEST_F(PoolTest, ExhaustionAndRefill) {
  auto h = CircularPool::create(sp_, 4);
  ASSERT_TRUE(h.is_ok());
  CircularPool pool(sp_, h.value());
  for (int i = 0; i < 4; i++) ASSERT_TRUE(pool.alloc().has_value());
  EXPECT_EQ(pool.free_count(), 0u);
  EXPECT_FALSE(pool.alloc().has_value());
  ASSERT_TRUE(pool.free(2).is_ok());
  EXPECT_EQ(pool.free_count(), 1u);
  EXPECT_EQ(pool.alloc().value(), 2u);
}

TEST_F(PoolTest, OverflowRejected) {
  auto h = CircularPool::create(sp_, 4);
  ASSERT_TRUE(h.is_ok());
  CircularPool pool(sp_, h.value());
  // Pool already holds capacity ids; freeing one more must fail loudly.
  EXPECT_EQ(pool.free(0).code(), Code::kInternal);
}

TEST_F(PoolTest, WrapAroundManyCycles) {
  auto h = CircularPool::create(sp_, 8);
  ASSERT_TRUE(h.is_ok());
  CircularPool pool(sp_, h.value());
  // Cycle allocations through the ring many times to cross the wrap point.
  for (int round = 0; round < 1000; round++) {
    auto id = pool.alloc();
    ASSERT_TRUE(id.has_value());
    ASSERT_TRUE(pool.free(*id).is_ok());
  }
  EXPECT_EQ(pool.free_count(), 8u);
}

TEST_F(PoolTest, DeterministicReplayAfterClone) {
  auto h = CircularPool::create(sp_, 64);
  ASSERT_TRUE(h.is_ok());
  CircularPool pool(sp_, h.value());
  // Mixed traffic prologue.
  Rng rng(5);
  std::vector<uint64_t> live;
  for (int i = 0; i < 200; i++) {
    if (!live.empty() && rng.next_bool(0.5)) {
      ASSERT_TRUE(pool.free(live.back()).is_ok());
      live.pop_back();
    } else if (auto id = pool.alloc()) {
      live.push_back(*id);
    }
  }
  // Clone the arena; identical op suffix must yield identical ids.
  auto dst_buf = std::make_unique<char[]>(kArenaSize);
  Arena dst(dst_buf.get(), kArenaSize);
  auto clone_sp = sp_.clone_into(dst);
  ASSERT_TRUE(clone_sp.is_ok());
  CircularPool clone(clone_sp.value(), h.value());
  for (int i = 0; i < 50; i++) {
    auto a = pool.alloc();
    auto b = clone.alloc();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) {
      EXPECT_EQ(*a, *b);
    }
  }
}

TEST_F(PoolTest, MetadataZoneInitAndRelease) {
  auto h = MetadataZone::create(sp_, 64);
  ASSERT_TRUE(h.is_ok());
  MetadataZone zone(sp_, h.value());
  EXPECT_EQ(zone.num_entries(), 64u);

  ASSERT_TRUE(zone.init_entry(3, Key::from("hello")).is_ok());
  MetaEntry* e = zone.entry(3);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->in_use);
  EXPECT_EQ(e->name.str(), "hello");
  EXPECT_EQ(e->nblocks, 0u);

  ASSERT_TRUE(zone.release_entry(3).is_ok());
  EXPECT_FALSE(zone.entry(3)->in_use);
}

TEST_F(PoolTest, MetadataZoneRejectsDoubleInit) {
  auto h = MetadataZone::create(sp_, 8);
  ASSERT_TRUE(h.is_ok());
  MetadataZone zone(sp_, h.value());
  ASSERT_TRUE(zone.init_entry(0, Key::from("a")).is_ok());
  EXPECT_EQ(zone.init_entry(0, Key::from("b")).code(), Code::kInternal);
}

TEST_F(PoolTest, MetadataZoneOutOfRange) {
  auto h = MetadataZone::create(sp_, 8);
  ASSERT_TRUE(h.is_ok());
  MetadataZone zone(sp_, h.value());
  EXPECT_EQ(zone.entry(8), nullptr);
  EXPECT_EQ(zone.init_entry(99, Key::from("x")).code(), Code::kInvalidArgument);
}

TEST_F(PoolTest, MetadataBlockListGrows) {
  auto h = MetadataZone::create(sp_, 8);
  ASSERT_TRUE(h.is_ok());
  MetadataZone zone(sp_, h.value());
  ASSERT_TRUE(zone.init_entry(0, Key::from("big")).is_ok());
  for (uint64_t b = 0; b < 100; b++) ASSERT_TRUE(zone.append_block(0, 1000 + b).is_ok());
  MetaEntry* e = zone.entry(0);
  EXPECT_EQ(e->nblocks, 100u);
  EXPECT_GE(e->cap, 100u);
  const uint64_t* blocks = zone.blocks(*e);
  for (uint64_t b = 0; b < 100; b++) EXPECT_EQ(blocks[b], 1000 + b);
}

TEST_F(PoolTest, MetadataSurvivesClone) {
  auto h = MetadataZone::create(sp_, 8);
  ASSERT_TRUE(h.is_ok());
  MetadataZone zone(sp_, h.value());
  ASSERT_TRUE(zone.init_entry(1, Key::from("persist-me")).is_ok());
  ASSERT_TRUE(zone.append_block(1, 42).is_ok());
  zone.entry(1)->size = 4096;

  auto dst_buf = std::make_unique<char[]>(kArenaSize);
  Arena dst(dst_buf.get(), kArenaSize);
  auto clone_sp = sp_.clone_into(dst);
  ASSERT_TRUE(clone_sp.is_ok());
  MetadataZone czone(clone_sp.value(), h.value());
  MetaEntry* e = czone.entry(1);
  EXPECT_EQ(e->name.str(), "persist-me");
  EXPECT_EQ(e->size, 4096u);
  EXPECT_EQ(czone.blocks(*e)[0], 42u);
}

TEST(ReadCount, IncDecLoad) {
  NameCountTable t(1024);
  Key k = Key::from("obj");
  EXPECT_EQ(t.load(k), 0);
  t.inc(k);
  t.inc(k);
  EXPECT_EQ(t.load(k), 2);
  t.dec(k);
  t.dec(k);
  EXPECT_EQ(t.load(k), 0);
}

TEST(ReadCount, DistinctNamesIndependent) {
  NameCountTable t(1024);
  t.inc(Key::from("a"));
  EXPECT_EQ(t.load(Key::from("b")), 0);
  t.dec(Key::from("a"));
}

TEST(ReadCount, FullProbeWindowFallsBackToTheHomeSlot) {
  // kMaxProbe + 1 names with one home slot, on a table four windows wide:
  // the first kMaxProbe fill the window, the last finds it full and shares
  // the home slot, although slots past the window are still free.
  constexpr size_t kWindow = NameCountTable::kMaxProbe;
  constexpr size_t kCap = 4 * kWindow;
  NameCountTable t(kCap);
  auto home = [](const Key& k) {
    uint64_t h = k.hash();
    return (h == 0 ? 1 : h) & (kCap - 1);
  };
  const size_t target = home(Key::from("n0"));
  std::vector<Key> mates;
  for (int i = 0; mates.size() < kWindow + 1; i++) {
    Key k = Key::from("n" + std::to_string(i));
    if (home(k) == target) mates.push_back(k);
  }
  std::vector<NameCountTable::Slot*> window;
  for (size_t i = 0; i < kWindow; i++) window.push_back(&t.slot(mates[i]));
  for (size_t i = 0; i < kWindow; i++) {
    for (size_t j = i + 1; j < kWindow; j++) ASSERT_NE(window[i], window[j]);
  }
  NameCountTable::Slot& last = t.slot(mates[kWindow]);
  EXPECT_EQ(&last, window[0]);                // the home slot, shared
  EXPECT_EQ(&t.slot(mates[kWindow]), &last);  // and for good
  EXPECT_EQ(&t.slot(mates[1]), window[1]);    // window names keep theirs
  // The slot just past the window was free all along: a name homed there
  // claims it.
  Key beyond;
  for (int i = 0;; i++) {
    beyond = Key::from("b" + std::to_string(i));
    if (home(beyond) == ((target + kWindow) & (kCap - 1))) break;
  }
  NameCountTable::Slot& own = t.slot(beyond);
  for (NameCountTable::Slot* s : window) EXPECT_NE(&own, s);
  t.inc(mates[kWindow]);
  EXPECT_EQ(t.load(mates[0]), 1);
  EXPECT_EQ(t.load(beyond), 0);
  t.dec(mates[kWindow]);
}

TEST_F(PoolTest, SlotHintOnSaturatedTable) {
  // Three names on two slots: the third collapses onto its home slot and
  // shares it, count and hint, with the name that claimed it.
  NameCountTable t(2);
  const Key a = Key::from("a");
  const Key b = Key::from("b");
  const Key c = Key::from("c");
  NameCountTable::Slot& sa = t.slot(a);
  NameCountTable::Slot& sb = t.slot(b);
  NameCountTable::Slot& sc = t.slot(c);
  ASSERT_NE(&sa, &sb);
  ASSERT_TRUE(&sc == &sa || &sc == &sb);
  const Key& sharer = &sc == &sa ? a : b;  // c's slot-mate
  const Key& alone = &sc == &sa ? b : a;

  // Set, read and clear; 0 is an index, not "none"; an index past the
  // 32-bit field is never remembered.
  NameCountTable::Slot& own = t.slot(alone);
  EXPECT_FALSE(own.hint().has_value());
  own.set_hint(0);
  EXPECT_EQ(own.hint(), std::optional<uint64_t>(0));
  own.set_hint(UINT32_MAX - 1);
  EXPECT_EQ(own.hint(), std::optional<uint64_t>(UINT32_MAX - 1));
  own.set_hint(UINT32_MAX);
  EXPECT_FALSE(own.hint().has_value());
  own.set_hint(5);
  own.set_hint(std::nullopt);
  EXPECT_FALSE(own.hint().has_value());

  // Counts: the slot-mates share one counter (conservative), the other
  // name's stays its own, and every count returns to zero.
  t.inc(sharer);
  t.inc(c);
  t.inc(alone);
  EXPECT_EQ(t.load(sharer), 2);
  EXPECT_EQ(t.load(c), 2);
  EXPECT_EQ(t.load(alone), 1);
  t.dec(c);
  EXPECT_EQ(t.load(sharer), 1);
  t.dec(sharer);
  t.dec(alone);
  EXPECT_EQ(t.load(sharer), 0);
  EXPECT_EQ(t.load(c), 0);
  EXPECT_EQ(t.load(alone), 0);

  // A hint c leaves is what its slot-mate reads next, so the binding check
  // against the metadata zone is what keeps it from being taken for the
  // slot-mate's entry.
  auto h = MetadataZone::create(sp_, 8);
  ASSERT_TRUE(h.is_ok());
  MetadataZone zone(sp_, h.value());
  ASSERT_TRUE(zone.init_entry(2, sharer).is_ok());
  ASSERT_TRUE(zone.init_entry(6, c).is_ok());
  t.slot(c).set_hint(6);
  std::optional<uint64_t> seen = t.slot(sharer).hint();
  ASSERT_EQ(seen, std::optional<uint64_t>(6));
  EXPECT_FALSE(zone.bound_to(*seen, sharer));
  EXPECT_TRUE(zone.bound_to(*seen, c));
  EXPECT_TRUE(zone.bound_to(2, sharer));
  // Released, then reused by another name: the old binding fails too.
  ASSERT_TRUE(zone.release_entry(6).is_ok());
  EXPECT_FALSE(zone.bound_to(6, c));
  ASSERT_TRUE(zone.init_entry(6, alone).is_ok());
  EXPECT_FALSE(zone.bound_to(6, c));
  EXPECT_TRUE(zone.bound_to(6, alone));
  EXPECT_FALSE(zone.bound_to(8, c));  // out of range
}

TEST(ReadCount, WaitUntilUnreadBlocksWriter) {
  NameCountTable t(1024);
  Key k = Key::from("contended");
  t.inc(k);
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    t.wait_at_most(k, 0);
    writer_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer_done.load());
  t.dec(k);
  writer.join();
  EXPECT_TRUE(writer_done.load());
}

TEST(ReadCount, ConcurrentReadersBalance) {
  NameCountTable t(4096);
  std::vector<std::thread> ts;
  for (int w = 0; w < 4; w++) {
    ts.emplace_back([&t, w] {
      char name[16];
      for (int i = 0; i < 10000; i++) {
        snprintf(name, sizeof(name), "o%d", (w * 10000 + i) % 64);
        Key k = Key::from(name);
        t.inc(k);
        t.dec(k);
      }
    });
  }
  for (auto& th : ts) th.join();
  for (int i = 0; i < 64; i++) {
    char name[16];
    snprintf(name, sizeof(name), "o%d", i);
    EXPECT_EQ(t.load(Key::from(name)), 0);
  }
}

TEST(KeyType, CompareAndHash) {
  Key a = Key::from("alpha");
  Key b = Key::from("beta");
  EXPECT_LT(a.compare(b), 0);
  EXPECT_GT(b.compare(a), 0);
  EXPECT_EQ(a.compare(Key::from("alpha")), 0);
  EXPECT_EQ(a.hash(), Key::from("alpha").hash());
  EXPECT_NE(a.hash(), b.hash());
}

TEST(KeyType, TruncationBoundary) {
  std::string long_name(kMaxNameLen + 10, 'z');
  EXPECT_FALSE(Key::fits(long_name));
  Key k = Key::from(long_name);  // truncates defensively
  EXPECT_EQ(k.len, kMaxNameLen);
}

}  // namespace
}  // namespace dstore
