#include "pmem/pool.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "common/clock.h"

namespace dstore::pmem {

namespace {
// Registry of pools with an attached checker, for checked_pool_covering().
// Quiescence-exempt: PmemCheck bookkeeping (kCrashSim only).
Mutex g_checked_pools_mu{"pmem.checked_pools", lockdep::kQuiesceExempt};
std::vector<Pool*> g_checked_pools;

// Small stable per-thread id for staged-line ownership tracking.
uint64_t checker_thread_id() {
  static std::atomic<uint64_t> next{1};
  thread_local uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}
}  // namespace

Pool::Pool(size_t size, Mode mode, LatencyModel lat)
    : size_(align_up(size, kCacheLineSize)), mode_(mode), lat_(lat) {
  void* p = mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  region_ = static_cast<char*>(p);
  if (mode_ == Mode::kCrashSim) {
    image_ = std::make_unique<char[]>(size_);
    std::memset(image_.get(), 0, size_);
  }
}

Pool::~Pool() {
  if (checker() != nullptr) detach_checker();
  if (region_ != nullptr) munmap(region_, size_);
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<Pool>> Pool::open_file(const std::string& path, size_t size,
                                              LatencyModel lat, bool create) {
  size = align_up(size, kCacheLineSize);
  int flags = O_RDWR | (create ? O_CREAT | O_TRUNC : 0);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return Status::io_error("open " + path + " failed");
  if (create && ftruncate(fd, (off_t)size) != 0) {
    ::close(fd);
    return Status::io_error("ftruncate " + path + " failed");
  }
  void* p = mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (p == MAP_FAILED) {
    ::close(fd);
    return Status::io_error("mmap " + path + " failed");
  }
  auto pool = std::unique_ptr<Pool>(new Pool());
  pool->region_ = static_cast<char*>(p);
  pool->size_ = size;
  pool->mode_ = Mode::kDirect;
  pool->lat_ = lat;
  pool->fd_ = fd;
  return pool;
}

uint64_t Pool::next_pool_gen() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Pool::ThreadState& Pool::tls() {
  // Staged flushes are per-(thread, pool): a fence only retires the lines
  // this thread flushed, which matches x86 semantics closely enough for the
  // single-writer log/checkpoint protocols we verify.
  thread_local std::unordered_map<uint64_t, ThreadState> states;
  // Most threads work on one pool: remember the last lookup (map elements
  // never move, and a generation is never reused).
  thread_local uint64_t last_gen = 0;
  thread_local ThreadState* last = nullptr;
  if (last_gen != pool_gen_) {
    last = &states[pool_gen_];
    last_gen = pool_gen_;
  }
  return *last;
}

void Pool::flush(const void* addr, size_t len, bool deferred) {
  if (len == 0) return;
  fault::Outcome fo = fault::hit(fault_, "pmem.flush");
  apply_fault_outcome(fo);
  auto a = reinterpret_cast<uintptr_t>(addr);
  auto b = reinterpret_cast<uintptr_t>(region_);
  assert(a >= b && a + len <= b + size_ && "flush outside pool");
  // Silent media corruption: the flushed line goes bad in place, so both
  // the DRAM view and (via the normal staging below) the persistent image
  // carry the flipped bit. No error, no crash — detection is up to the
  // checksums layered above.
  if (fo.type == fault::FaultType::kBitFlipPmemLine) corrupt_bit(a - b, len, fo.arg);
  uint64_t lo = line_down(a) - b;
  uint64_t hi = line_up(a + len) - b;
  ThreadState& st = tls();
  st.lines += (hi - lo) / kCacheLineSize;
  st.flushes_total += (hi - lo) / kCacheLineSize;
  if (mode_ == Mode::kCrashSim && !image_frozen()) {
    st.ranges.push_back({lo, hi - lo});
    if (PersistChecker* c = checker()) {
      uint64_t tid = checker_thread_id();
      MutexGuard g(image_mu_);
      for (uint64_t l = lo; l < hi; l += kCacheLineSize) {
        c->on_flush(l, region_ + l, image_.get() + l, tid, deferred);
      }
    }
  }
}

void Pool::fence() {
  apply_fault_outcome(fault::hit(fault_, "pmem.fence"));
  ThreadState& st = tls();
  stats_.fences.fetch_add(1, std::memory_order_relaxed);
  st.fences_total++;
  if (st.lines > 0) {
    uint64_t bytes = st.lines * kCacheLineSize;
    stats_.bytes_flushed.fetch_add(bytes, std::memory_order_relaxed);
    stats_.lines_flushed.fetch_add(st.lines, std::memory_order_relaxed);
    if (bw_series_ != nullptr) bw_series_->add(bytes);
    // The first line pays its full latency; subsequent lines overlap in the
    // write-pending queue and add a small incremental cost.
    if (lat_.pmem_flush_line_ns > 0) {
      spin_for_ns(lat_.pmem_flush_line_ns + (st.lines - 1) * (lat_.pmem_flush_line_ns / 12));
    }
  }
  if (mode_ == Mode::kCrashSim && !st.ranges.empty() && !image_frozen()) {
    MutexGuard g(image_mu_);
    if (PersistChecker* c = checker()) {
      // Retire this thread's staged lines: compare against the flush-time
      // snapshots (defect class 3) before they become persistent.
      uint64_t tid = checker_thread_id();
      for (const Range& r : st.ranges) {
        for (uint64_t l = r.off; l < r.off + r.len; l += kCacheLineSize) {
          c->on_fence_line(l, region_ + l, tid);
        }
      }
    }
    for (const Range& r : st.ranges) apply_to_image(r.off, r.len);
  }
  st.ranges.clear();
  st.lines = 0;
}

void Pool::persist_bulk(const void* addr, size_t len) {
  if (len == 0) return;
  fault::Outcome fo = fault::hit(fault_, "pmem.bulk");
  auto a = reinterpret_cast<uintptr_t>(addr);
  auto b = reinterpret_cast<uintptr_t>(region_);
  assert(a >= b && a + len <= b + size_ && "persist_bulk outside pool");
  stats_.bytes_flushed.fetch_add(len, std::memory_order_relaxed);
  stats_.fences.fetch_add(1, std::memory_order_relaxed);
  stats_.lines_flushed.fetch_add((len + kCacheLineSize - 1) / kCacheLineSize,
                                 std::memory_order_relaxed);
  if (bw_series_ != nullptr) bw_series_->add(len);
  // A bulk persist pays the fixed flush+fence latency (device-parallel) and
  // queues its bandwidth share on the shared media channel — concurrent
  // bulk writers (e.g. a CoW copier vs faulting clients) serialize here.
  if (lat_.pmem_flush_line_ns > 0) spin_for_ns(lat_.pmem_flush_line_ns);
  bw_channel_.transfer(lat_.pmem_write_ns(len));
  if (fo.type == fault::FaultType::kBitFlipPmemLine) corrupt_bit(a - b, len, fo.arg);
  if (mode_ == Mode::kCrashSim) {
    if (fo.type == fault::FaultType::kTorn && !image_frozen()) {
      // Power fails mid-writeback: only the first `arg` bytes of this bulk
      // range reach media, then everything freezes.
      {
        MutexGuard g(image_mu_);
        apply_to_image(a - b, std::min<uint64_t>(len, fo.arg));
      }
      fault_->trigger_crash();
      return;
    }
    apply_fault_outcome(fo);
    if (image_frozen()) return;
    uint64_t lo = line_down(a) - b;
    uint64_t hi = line_up(a + len) - b;
    MutexGuard g(image_mu_);
    apply_to_image(lo, hi - lo);
  }
}

void Pool::charge_read(size_t len) {
  stats_.bytes_read.fetch_add(len, std::memory_order_relaxed);
  bw_channel_.transfer(lat_.pmem_read_ns(len));
}

void Pool::apply_to_image(uint64_t off, uint64_t len) {
  assert(mode_ == Mode::kCrashSim);
  std::memcpy(image_.get() + off, region_ + off, len);
}

void Pool::evict_random_lines(Rng& rng, size_t count) {
  if (mode_ != Mode::kCrashSim || image_frozen()) return;
  MutexGuard g(image_mu_);
  size_t nlines = size_ / kCacheLineSize;
  for (size_t i = 0; i < count; i++) {
    uint64_t line = rng.next_below(nlines);
    apply_to_image(line * kCacheLineSize, kCacheLineSize);
  }
}

void Pool::crash() {
  assert(mode_ == Mode::kCrashSim && "crash() requires kCrashSim");
  MutexGuard g(image_mu_);
  if (PersistChecker* c = checker()) c->on_crash();
  std::memcpy(region_, image_.get(), size_);
  frozen_.store(false, std::memory_order_release);
  // Note: staged-but-unfenced flushes in other threads' TLS are
  // intentionally NOT discarded here; crash tests quiesce worker threads
  // before crashing, as a real restart would.
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

void Pool::set_fault_injector(fault::FaultInjector* inj) {
  assert(mode_ == Mode::kCrashSim && "fault injection needs the persistent image");
  fault_ = inj;
  if (inj != nullptr) {
    inj->add_crash_sink([this] { freeze_image(); });
  }
}

void Pool::apply_fault_outcome(const fault::Outcome& o) {
  // kCrash froze us inside on_hit (via the crash sink) and kDelay already
  // spun; spurious eviction is the only outcome the pool applies itself.
  if (o.type == fault::FaultType::kEvict && fault_ != nullptr) {
    evict_random_lines(fault_->rng(), o.arg);
  }
}

void Pool::corrupt_bit(uint64_t off, uint64_t len, uint64_t bit) {
  if (len == 0) return;
  uint64_t target = bit % (len * 8);
  region_[off + target / 8] ^= static_cast<char>(1u << (target % 8));
}

void Pool::evict_lines(const void* addr, size_t len) {
  if (mode_ != Mode::kCrashSim || image_frozen() || len == 0) return;
  auto a = reinterpret_cast<uintptr_t>(addr);
  auto b = reinterpret_cast<uintptr_t>(region_);
  assert(a >= b && a + len <= b + size_ && "evict_lines outside pool");
  uint64_t lo = line_down(a) - b;
  uint64_t hi = line_up(a + len) - b;
  MutexGuard g(image_mu_);
  apply_to_image(lo, hi - lo);
}

void Pool::tear_image(const void* addr, size_t keep, size_t len) {
  assert(mode_ == Mode::kCrashSim && "tear_image requires kCrashSim");
  assert(keep <= len);
  auto a = reinterpret_cast<uintptr_t>(addr);
  auto b = reinterpret_cast<uintptr_t>(region_);
  assert(a >= b && a + len <= b + size_ && "tear_image outside pool");
  uint64_t off = a - b;
  MutexGuard g(image_mu_);
  std::memcpy(image_.get() + off, region_ + off, keep);
  std::memset(image_.get() + off + keep, 0, len - keep);
}

// ---------------------------------------------------------------------------
// PmemCheck integration
// ---------------------------------------------------------------------------

void Pool::attach_checker(PersistChecker* checker) {
  assert(mode_ == Mode::kCrashSim && "PmemCheck needs the persistent image (kCrashSim)");
  assert(checker_.load(std::memory_order_acquire) == nullptr && "checker already attached");
  {
    MutexGuard g(g_checked_pools_mu);
    g_checked_pools.push_back(this);
  }
  checker_.store(checker, std::memory_order_release);
  detail::checker_global_activate();
}

void Pool::detach_checker() {
  PersistChecker* c = checker_.exchange(nullptr, std::memory_order_acq_rel);
  if (c == nullptr) return;
  {
    MutexGuard g(image_mu_);
    c->on_teardown();
  }
  {
    MutexGuard g(g_checked_pools_mu);
    g_checked_pools.erase(std::remove(g_checked_pools.begin(), g_checked_pools.end(), this),
                          g_checked_pools.end());
  }
  detail::checker_global_deactivate();
}

Pool* Pool::checked_pool_covering(const void* p) {
  auto a = reinterpret_cast<uintptr_t>(p);
  MutexGuard g(g_checked_pools_mu);
  for (Pool* pool : g_checked_pools) {
    auto b = reinterpret_cast<uintptr_t>(pool->region_);
    if (a >= b && a < b + pool->size_) return pool;
  }
  return nullptr;
}

void Pool::check_durable(const void* addr, size_t len, const char* site) {
  PersistChecker* c = checker();
  if (c == nullptr || len == 0) return;
  uint64_t off = reinterpret_cast<uintptr_t>(addr) - reinterpret_cast<uintptr_t>(region_);
  MutexGuard g(image_mu_);
  c->check_durable(off, len, region_, image_.get(), site);
}

void Pool::check_recovery_read(const void* addr, size_t len, const char* site) {
  PersistChecker* c = checker();
  if (c == nullptr || len == 0) return;
  uint64_t off = reinterpret_cast<uintptr_t>(addr) - reinterpret_cast<uintptr_t>(region_);
  MutexGuard g(image_mu_);
  c->check_recovery_read(off, len, region_, image_.get(), site);
}

void Pool::note_obligation(const void* addr, size_t len, const char* site) {
  PersistChecker* c = checker();
  if (c == nullptr || len == 0) return;
  uint64_t off = reinterpret_cast<uintptr_t>(addr) - reinterpret_cast<uintptr_t>(region_);
  MutexGuard g(image_mu_);
  c->note_obligation(off, len, site);
}

void Pool::check_obligations(const char* site) {
  PersistChecker* c = checker();
  if (c == nullptr) return;
  MutexGuard g(image_mu_);
  c->check_obligations(region_, image_.get(), site);
}

bool Pool::is_persisted(const void* addr, size_t len) const {
  if (mode_ != Mode::kCrashSim) return true;
  auto a = reinterpret_cast<uintptr_t>(addr);
  auto b = reinterpret_cast<uintptr_t>(region_);
  uint64_t off = a - b;
  MutexGuard g(image_mu_);
  return std::memcmp(image_.get() + off, region_ + off, len) == 0;
}

}  // namespace dstore::pmem
