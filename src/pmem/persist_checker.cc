#include "pmem/persist_checker.h"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace dstore::pmem {

namespace {
// Process-wide count of attached checkers; gates the annotation fast path.
std::atomic<int> g_active_checkers{0};
thread_local std::vector<const char*> t_site_stack;

// Stable small ids for threads, for staged-line ownership.
uint64_t line_count(uint64_t off, uint64_t len) {
  return (line_up(off + len) - line_down(off)) / kCacheLineSize;
}
}  // namespace

void PersistChecker::push_site(const char* site) { t_site_stack.push_back(site); }
void PersistChecker::pop_site() { t_site_stack.pop_back(); }
const char* PersistChecker::current_site() {
  return t_site_stack.empty() ? "<unscoped>" : t_site_stack.back();
}
bool PersistChecker::any_active() {
  return g_active_checkers.load(std::memory_order_relaxed) > 0;
}

// Pool calls these (as a friend) on attach/detach.
namespace detail {
void checker_global_activate() { g_active_checkers.fetch_add(1, std::memory_order_relaxed); }
void checker_global_deactivate() { g_active_checkers.fetch_sub(1, std::memory_order_relaxed); }
}  // namespace detail

void PersistChecker::on_flush(uint64_t line_off, const char* line, const char* image_line,
                              uint64_t tid, bool deferred) {
  auto it = staged_.find(line_off);
  if (it != staged_.end()) {
    if (std::memcmp(line, it->second.snapshot.data(), kCacheLineSize) == 0) {
      report_.add({CheckKind::kRedundantFlush, line_off, 1, current_site(),
                   "line already staged with identical contents"});
    }
    // A re-flush after a store is the legitimate fix for a store into the
    // staged window: re-stage with the new contents (and new owner).
    std::memcpy(it->second.snapshot.data(), line, kCacheLineSize);
    it->second.tid = tid;
    it->second.site = current_site();
    it->second.deferred = deferred;
    return;
  }
  if (std::memcmp(line, image_line, kCacheLineSize) == 0) {
    report_.add({CheckKind::kRedundantFlush, line_off, 1, current_site(),
                 "line is clean (already matches the persistent image)"});
  }
  StagedLine st;
  std::memcpy(st.snapshot.data(), line, kCacheLineSize);
  st.tid = tid;
  st.site = current_site();
  st.deferred = deferred;
  staged_.emplace(line_off, st);
}

void PersistChecker::on_fence_line(uint64_t line_off, const char* line, uint64_t tid) {
  auto it = staged_.find(line_off);
  // Absent: a duplicate range in the same fence already retired it. Foreign
  // owner: another thread re-staged the line; its own fence retires it.
  if (it == staged_.end() || it->second.tid != tid) return;
  if (std::memcmp(line, it->second.snapshot.data(), kCacheLineSize) != 0) {
    report_.add({CheckKind::kStoreAfterFlush, line_off, 1, it->second.site,
                 "line contents changed between flush and fence without a re-flush"});
  }
  staged_.erase(it);
}

void PersistChecker::on_crash() {
  // Power failure: staged write-backs and pending obligations die with the
  // caches/DRAM; recovery starts from the image alone.
  staged_.clear();
  obligations_.clear();
}

void PersistChecker::on_teardown() {
  if (staged_.empty()) return;
  std::vector<std::pair<uint64_t, const char*>> lines;
  lines.reserve(staged_.size());
  for (const auto& [off, st] : staged_) {
    if (!st.deferred) lines.push_back({off, st.site});
  }
  std::sort(lines.begin(), lines.end());
  // Coalesce contiguous lines with the same flushing site into one entry.
  for (size_t i = 0; i < lines.size();) {
    size_t j = i + 1;
    while (j < lines.size() && lines[j].first == lines[j - 1].first + kCacheLineSize &&
           lines[j].second == lines[i].second) {
      j++;
    }
    report_.add({CheckKind::kMissingFlush, lines[i].first, j - i, lines[i].second,
                 "line flushed but never fenced before pool teardown"});
    i = j;
  }
  staged_.clear();
}

void PersistChecker::check_durable(uint64_t off, uint64_t len, const char* region,
                                   const char* image, const char* site) {
  if (len == 0) return;
  uint64_t lo = line_down(off);
  uint64_t n = line_count(off, len);
  // Classify each non-persistent line, then coalesce runs of equal class.
  enum Class : uint8_t { kOk = 0, kDirty, kStaged };
  uint64_t run_start = 0, run_len = 0;
  Class run_class = kOk;
  const char* run_site = site;
  auto emit = [&] {
    if (run_len == 0 || run_class == kOk) return;
    if (run_class == kStaged) {
      std::string d = "line staged by flush but not yet fenced at durability point";
      report_.add({CheckKind::kMissingFlush, run_start, run_len, run_site, d});
    } else {
      report_.add({CheckKind::kMissingFlush, run_start, run_len, site,
                   "dirty line reachable from durability point was never flushed"});
    }
  };
  for (uint64_t i = 0; i < n; i++) {
    uint64_t l = lo + i * kCacheLineSize;
    Class c = kOk;
    const char* csite = site;
    if (std::memcmp(region + l, image + l, kCacheLineSize) != 0) {
      auto it = staged_.find(l);
      c = it != staged_.end() ? kStaged : kDirty;
      if (it != staged_.end()) csite = it->second.site;
    }
    if (c == run_class && (c != kStaged || csite == run_site) && run_len > 0 &&
        l == run_start + run_len * kCacheLineSize) {
      run_len++;
    } else {
      emit();
      run_start = l;
      run_len = 1;
      run_class = c;
      run_site = csite;
    }
  }
  emit();
}

void PersistChecker::check_recovery_read(uint64_t off, uint64_t len, const char* region,
                                         const char* image, const char* site) {
  if (len == 0 || std::memcmp(region + off, image + off, len) == 0) return;
  // Report the differing extent line-coalesced for readability.
  uint64_t first = 0, nbad = 0;
  uint64_t lo = line_down(off);
  uint64_t n = line_count(off, len);
  for (uint64_t i = 0; i < n; i++) {
    uint64_t l = lo + i * kCacheLineSize;
    uint64_t a = std::max(l, off);
    uint64_t b = std::min(l + kCacheLineSize, off + len);
    if (std::memcmp(region + a, image + a, b - a) != 0) {
      if (nbad == 0) first = l;
      nbad++;
    }
  }
  report_.add({CheckKind::kUnpersistedRead, first, nbad, site,
               "recovery/replay consumed bytes that differ from the persistent image"});
}

void PersistChecker::note_obligation(uint64_t off, uint64_t len, const char* site) {
  if (len == 0) return;
  // Merge with the previous note when contiguous from the same site (the
  // common pattern: a writer annotating field after field of one object).
  if (!obligations_.empty()) {
    Obligation& b = obligations_.back();
    if (b.site == site && off >= b.off && off <= b.off + b.len) {
      b.len = std::max(b.len, off + len - b.off);
      return;
    }
  }
  obligations_.push_back({off, len, site});
}

void PersistChecker::check_obligations(const char* region, const char* image, const char* site) {
  for (const Obligation& o : obligations_) {
    uint64_t lo = line_down(o.off);
    uint64_t n = line_count(o.off, o.len);
    uint64_t first = 0, nbad = 0;
    for (uint64_t i = 0; i < n; i++) {
      uint64_t l = lo + i * kCacheLineSize;
      if (std::memcmp(region + l, image + l, kCacheLineSize) != 0) {
        if (nbad == 0) first = l;
        nbad++;
      }
    }
    if (nbad != 0) {
      std::string d = "write was never covered by a flush or bulk persist (checked at ";
      d += site;
      d += ")";
      report_.add({CheckKind::kMissingFlush, first, nbad, o.site, d});
    }
  }
  obligations_.clear();
}

}  // namespace dstore::pmem
