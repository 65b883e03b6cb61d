// Unit tests for src/common: status, cacheline math, fnv, zipf, rng,
// spinlocks, latency model, timeseries, the CRC32C kernel.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/bandwidth.h"
#include "common/cacheline.h"
#include "common/clock.h"
#include "common/crc32c.h"
#include "common/fnv.h"
#include "common/latency_model.h"
#include "common/rng.h"
#include "common/lockdep.h"
#include "common/status.h"
#include "common/timeseries.h"
#include "common/zipf.h"

namespace dstore {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), Code::kOk);
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::not_found("missing-object");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), Code::kNotFound);
  EXPECT_EQ(s.message(), "missing-object");
  EXPECT_EQ(s.to_string(), "NOT_FOUND: missing-object");
}

TEST(Status, AllCodesHaveNames) {
  for (uint8_t c = 0; c <= (uint8_t)Code::kInternal; c++) {
    EXPECT_STRNE(code_name((Code)c), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = Status::out_of_space("log");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Code::kOutOfSpace);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(CacheLine, Rounding) {
  EXPECT_EQ(line_down(0), 0u);
  EXPECT_EQ(line_down(63), 0u);
  EXPECT_EQ(line_down(64), 64u);
  EXPECT_EQ(line_up(0), 0u);
  EXPECT_EQ(line_up(1), 64u);
  EXPECT_EQ(line_up(64), 64u);
  EXPECT_EQ(line_up(65), 128u);
}

TEST(CacheLine, LinesSpanned) {
  EXPECT_EQ(lines_spanned(0, 0), 0u);
  EXPECT_EQ(lines_spanned(0, 1), 1u);
  EXPECT_EQ(lines_spanned(0, 64), 1u);
  EXPECT_EQ(lines_spanned(0, 65), 2u);
  EXPECT_EQ(lines_spanned(63, 2), 2u);  // straddles a boundary
  EXPECT_EQ(lines_spanned(32, 64), 2u);
}

TEST(CacheLine, AlignUp) {
  EXPECT_EQ(align_up(0, 8), 0u);
  EXPECT_EQ(align_up(1, 8), 8u);
  EXPECT_EQ(align_up(8, 8), 8u);
  EXPECT_EQ(align_up(100, 64), 128u);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundsRespected) {
  Rng r(3);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(r.next_below(17), 17u);
    uint64_t v = r.next_in(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Zipf, RanksWithinRange) {
  ZipfianGenerator z(1000);
  Rng r(11);
  for (int i = 0; i < 10000; i++) EXPECT_LT(z.next(r), 1000u);
}

TEST(Zipf, SkewFavorsLowRanks) {
  ZipfianGenerator z(1000, 0.99);
  Rng r(12);
  int head = 0;
  const int n = 20000;
  for (int i = 0; i < n; i++) head += (z.next(r) < 10);
  // With theta=0.99 the top-10 ranks draw a large share of accesses.
  EXPECT_GT(head, n / 10);
}

TEST(Zipf, ScrambledSpreadsHotKeys) {
  ScrambledZipfianGenerator z(1000);
  Rng r(13);
  std::set<uint64_t> seen;
  for (int i = 0; i < 5000; i++) {
    uint64_t v = z.next(r);
    EXPECT_LT(v, 1000u);
    seen.insert(v);
  }
  // Scrambling should hit a broad set of distinct keys.
  EXPECT_GT(seen.size(), 200u);
}

// The published 64-bit FNV-1a test vectors.
TEST(Fnv, ReferenceVectors) {
  EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ull);
}

TEST(SpinLock, MutualExclusion) {
  SpinLock mu{"test.spin"};
  int counter = 0;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; t++) {
    ts.emplace_back([&] {
      for (int i = 0; i < 20000; i++) {
        LockGuard<SpinLock> g(mu);
        counter++;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, 80000);
}

TEST(SpinLock, TryLock) {
  SpinLock mu{"test.spin_try"};
  EXPECT_TRUE(mu.try_lock());
  EXPECT_FALSE(mu.try_lock());
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(SharedSpinLock, ReadersShareWritersExclude) {
  SharedSpinLock mu{"test.shared_spin"};
  std::atomic<int> readers{0};
  std::atomic<int> writer_active{0};
  std::atomic<bool> violation{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < 3; t++) {
    ts.emplace_back([&] {
      for (int i = 0; i < 5000; i++) {
        mu.lock_shared();
        readers.fetch_add(1);
        if (writer_active.load() != 0) violation = true;
        readers.fetch_sub(1);
        mu.unlock_shared();
      }
    });
  }
  ts.emplace_back([&] {
    for (int i = 0; i < 2000; i++) {
      mu.lock();
      writer_active.store(1);
      if (readers.load() != 0) violation = true;
      writer_active.store(0);
      mu.unlock();
    }
  });
  for (auto& t : ts) t.join();
  EXPECT_FALSE(violation.load());
}

TEST(LatencyModel, NoneInjectsNothing) {
  LatencyModel m = LatencyModel::none();
  EXPECT_EQ(m.ssd_write_ns(4096), 0u);
  EXPECT_EQ(m.pmem_write_ns(4096), 0u);
}

TEST(LatencyModel, CalibratedShape) {
  LatencyModel m = LatencyModel::calibrated();
  // NVMe 4KB write must dominate a single-line PMEM flush by ~an order of
  // magnitude — the property behind Table 3's 88% NVMe share.
  EXPECT_GT(m.ssd_write_ns(4096), 10 * m.pmem_flush_line_ns);
  // PMEM reads are faster than writes.
  EXPECT_LT(m.pmem_read_ns(4096), m.pmem_write_ns(4096));
  // Scale=0 disables everything.
  LatencyModel z = LatencyModel::calibrated(0.0);
  EXPECT_EQ(z.ssd_write_ns(4096), 0u);
}

TEST(TimeSeries, BucketsAccumulate) {
  TimeSeries ts(10, 1000000000ull);  // 10 bins of 1s
  ts.add(5);
  ts.add(7);
  EXPECT_EQ(ts.bin(0), 12u);
  EXPECT_DOUBLE_EQ(ts.rate_per_sec(0), 12.0);
}

TEST(TimeSeries, MinMaxRates) {
  TimeSeries ts(4, 1000000000ull);
  ts.add(8);
  EXPECT_DOUBLE_EQ(ts.max_rate(), 8.0);
  EXPECT_DOUBLE_EQ(ts.min_rate(), 0.0);  // later bins empty
}

TEST(Bandwidth, ZeroCostIsFree) {
  BandwidthChannel ch;
  uint64_t start = now_ns();
  ch.transfer(0);
  EXPECT_LT(now_ns() - start, 1000000u);
}

TEST(Bandwidth, SingleTransferTakesCost) {
  BandwidthChannel ch;
  uint64_t start = now_ns();
  ch.transfer(300000);  // 300us
  EXPECT_GE(now_ns() - start, 300000u);
}

TEST(Bandwidth, ConcurrentTransfersSerialize) {
  // Two 2ms transfers on one channel must take ~4ms wall-clock total:
  // the channel models a shared medium, not parallel lanes.
  BandwidthChannel ch;
  uint64_t start = now_ns();
  std::thread a([&] { ch.transfer(2000000); });
  std::thread b([&] { ch.transfer(2000000); });
  a.join();
  b.join();
  EXPECT_GE(now_ns() - start, 3800000u);
}

TEST(Bandwidth, ReserveReturnsMonotonicDeadlines) {
  BandwidthChannel ch;
  uint64_t d1 = ch.reserve(100000);
  uint64_t d2 = ch.reserve(100000);
  EXPECT_GT(d2, d1);
  EXPECT_GE(d2 - d1, 100000u);
}

TEST(Clock, Monotonic) {
  uint64_t a = now_ns();
  uint64_t b = now_ns();
  EXPECT_LE(a, b);
}

TEST(Clock, SpinForWaits) {
  uint64_t start = now_ns();
  spin_for_ns(200000);  // 200us
  EXPECT_GE(now_ns() - start, 200000u);
}

TEST(StopWatchTest, MeasuresElapsed) {
  StopWatch w;
  spin_for_ns(100000);
  EXPECT_GE(w.elapsed_ns(), 100000u);
  w.reset();
  EXPECT_LT(w.elapsed_ns(), 100000u);
}

// ---- CRC32C ----------------------------------------------------------------

// The standard (RFC 3720) CRC32C: pre- and post-inverted, no location seed.
uint32_t standard_crc32c(const void* data, size_t n) {
  return crc32c_extend(0xffffffffu, data, n) ^ 0xffffffffu;
}

TEST(Crc32c, Rfc3720KnownAnswers) {
  EXPECT_EQ(standard_crc32c("123456789", 9), 0xE3069283u);
  unsigned char buf[32];
  std::memset(buf, 0, sizeof(buf));
  EXPECT_EQ(standard_crc32c(buf, sizeof(buf)), 0x8A9136AAu);
  std::memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(standard_crc32c(buf, sizeof(buf)), 0x62A8AB43u);
  for (int i = 0; i < 32; i++) buf[i] = (unsigned char)i;
  EXPECT_EQ(standard_crc32c(buf, sizeof(buf)), 0x46DD794Eu);
  // The software path answers the same, whichever one dispatch picked.
  EXPECT_EQ(crc32c_detail::extend_sw(0xffffffffu, "123456789", 9) ^ 0xffffffffu,
            0xE3069283u);
}

// Every length through the single chain, one 3-way round and its tails, at
// every misalignment, from a random state: bit-identical to slice-by-8.
TEST(Crc32c, HardwareMatchesSliceBy8) {
  if (!crc32c_detail::have_hw_crc()) GTEST_SKIP() << "no SSE4.2";
  constexpr size_t kMaxLen = 3 * crc32c_detail::kBlock + 64;
  Rng rng(42);
  std::string buf(kMaxLen + 8, '\0');
  for (char& c : buf) c = (char)rng.next();
  for (size_t align = 0; align < 8; align++) {
    for (size_t n = 0; n <= kMaxLen; n++) {
      uint32_t init = (uint32_t)rng.next();
      const char* p = buf.data() + align;
      ASSERT_EQ(crc32c_detail::extend_hw(init, p, n), crc32c_detail::extend_sw(init, p, n))
          << "len " << n << " misalignment " << align;
    }
  }
  for (int i = 0; i < 64; i++) {
    uint32_t init = (uint32_t)rng.next();
    uint64_t v = rng.next();
    EXPECT_EQ(crc32c_detail::extend_hw_u64(init, v), crc32c_detail::extend_sw(init, &v, 8));
  }
}

// crc_over_pieces' composition: chaining crc32c_extend over any split of a
// buffer, wrapped in crc32c()'s seed and finish, equals the one-shot call.
TEST(Crc32c, ChainedExtendMatchesOneShot) {
  Rng rng(7);
  std::string buf(20000, '\0');
  for (char& c : buf) c = (char)rng.next();
  for (int trial = 0; trial < 200; trial++) {
    size_t n = rng.next_below(buf.size() + 1);
    uint32_t c = crc32c_extend_u64(0xffffffffu, 0);
    for (size_t done = 0; done < n;) {
      size_t piece = std::min<size_t>(n - done, rng.next_below(5000) + 1);
      c = crc32c_extend(c, buf.data() + done, piece);
      done += piece;
    }
    c ^= 0xffffffffu;
    if (c == 0) c = 1;
    ASSERT_EQ(c, crc32c(buf.data(), n)) << "len " << n;
  }
}

// Undo 32 zero-bit steps of the reflected CRC: the state that feeding four
// zero bytes carries to `target`.
uint32_t unshift_zero_word(uint32_t target) {
  uint32_t c = target;
  for (int i = 0; i < 32; i++) {
    c = (c & 0x80000000u) != 0 ? ((c ^ 0x82F63B78u) << 1) | 1u : c << 1;
  }
  return c;
}

TEST(Crc32c, ComputedZeroIsRemappedToOne) {
  // Append a forcing word so the finished checksum is exactly 0: feeding
  // word w from state s equals feeding four zero bytes from s ^ w.
  std::string data = "payload whose checksum is forced to zero";
  uint32_t s = crc32c_extend(crc32c_extend_u64(0xffffffffu, 0), data.data(), data.size());
  uint32_t w = unshift_zero_word(0xffffffffu) ^ s;
  data.append(reinterpret_cast<const char*>(&w), sizeof(w));
  uint32_t raw = crc32c_extend(crc32c_extend_u64(0xffffffffu, 0), data.data(), data.size());
  ASSERT_EQ(raw ^ 0xffffffffu, 0u);
  EXPECT_EQ(crc32c(data.data(), data.size()), 1u);
}

}  // namespace
}  // namespace dstore
