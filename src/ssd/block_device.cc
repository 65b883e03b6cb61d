#include "ssd/block_device.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <new>

#include "common/clock.h"
#include "common/crc32c.h"
#include "common/fnv.h"

namespace dstore::ssd {

namespace {
// Sidecar tag encoding: 0 = page never written (unverifiable), otherwise
// the high marker bit plus the page's location-seeded CRC32C.
constexpr uint64_t kTagKnown = 1ull << 32;

inline uint64_t make_tag(const char* page, size_t page_size, uint64_t seed_page) {
  return kTagKnown | crc32c(page, page_size, seed_page);
}

// Where a misdirected write actually lands: the whole transfer shifts
// `max(arg,1)` blocks, wrapped so the span still fits the device (and never
// back onto the intended block — that would be a correct write).
uint64_t misdirect_block(const DeviceConfig& cfg, uint64_t block, size_t offset, size_t len,
                         uint64_t arg) {
  size_t span = (offset + len + cfg.block_size() - 1) / cfg.block_size();
  if (span == 0) span = 1;
  if (span >= cfg.num_blocks) return block;  // nowhere else to land
  uint64_t slots = cfg.num_blocks - span + 1;
  uint64_t wrong = (block + std::max<uint64_t>(arg, 1)) % slots;
  if (wrong == block) wrong = (wrong + 1) % slots;
  return wrong;
}

Status check_io(const DeviceConfig& cfg, uint64_t block, size_t offset, size_t len) {
  if (block >= cfg.num_blocks) return Status::invalid_argument("block out of range");
  if (offset + len > cfg.block_size()) return Status::invalid_argument("IO crosses block end");
  return Status::ok();
}

// An async descriptor may span contiguous blocks; only the linear media
// range has to fit (plus exactly one direction buffer must be set).
Status check_desc(const DeviceConfig& cfg, const IoDesc& d) {
  if ((d.wbuf != nullptr) == (d.rbuf != nullptr)) {
    return Status::invalid_argument("exactly one of wbuf/rbuf must be set");
  }
  if (d.block >= cfg.num_blocks || d.offset > cfg.block_size() ||
      d.block * cfg.block_size() + d.offset + d.len > cfg.capacity()) {
    return Status::invalid_argument("IO out of device range");
  }
  return Status::ok();
}

// Mark every page of a read's IoDesc::page_crcs unknown.
void clear_page_crcs(const DeviceConfig& cfg, const IoDesc& d) {
  if (d.page_crcs != nullptr) {
    std::fill_n(d.page_crcs, (d.len + cfg.page_size - 1) / cfg.page_size, 0u);
  }
}

// A read's IoDesc::page_crcs, cleared; returned for the sidecar check to
// fill only when the transfer starts on a page boundary.
uint32_t* page_crcs_to_fill(const DeviceConfig& cfg, const IoDesc& d, uint64_t pos) {
  clear_page_crcs(cfg, d);
  return cfg.checksum_pages && pos % cfg.page_size == 0 ? d.page_crcs : nullptr;
}

// A verified page CRC as IoDesc::page_crcs reports it: a stored 1 may be a
// remapped 0, so it vouches for nothing.
inline uint32_t reportable(uint32_t crc) { return crc == 1 ? 0 : crc; }
}  // namespace

// ---------------------------------------------------------------------------
// BlockDevice (base): synchronous fallback for devices without async IO
// ---------------------------------------------------------------------------

Result<uint64_t> BlockDevice::submit_io(const IoDesc& d) {
  DSTORE_RETURN_IF_ERROR(check_desc(config(), d));
  // No sidecar CRCs come back through read(): every page is unknown.
  if (!d.is_write()) clear_page_crcs(config(), d);
  size_t bs = config().block_size();
  uint64_t block = d.block;
  size_t off = d.offset;
  size_t done = 0;
  while (done < d.len) {
    size_t n = std::min(bs - off, d.len - done);
    Status s = d.is_write()
                   ? write(block, off, static_cast<const char*>(d.wbuf) + done, n)
                   : read(block, off, static_cast<char*>(d.rbuf) + done, n);
    DSTORE_RETURN_IF_ERROR(s);
    done += n;
    off = 0;
    block++;
  }
  return now_ns();  // fully synchronous: already complete
}

// ---------------------------------------------------------------------------
// RamBlockDevice
// ---------------------------------------------------------------------------

RamBlockDevice::ZeroedBytes RamBlockDevice::zeroed_bytes(size_t n) {
  char* p = static_cast<char*>(std::calloc(n, 1));
  if (p == nullptr) throw std::bad_alloc();
  return ZeroedBytes(p);
}

RamBlockDevice::RamBlockDevice(DeviceConfig cfg) : cfg_(cfg) {
  media_ = zeroed_bytes(cfg_.capacity());
  if (!cfg_.power_loss_protection) cache_view_ = zeroed_bytes(cfg_.capacity());
  if (cfg_.checksum_pages) {
    size_t npages = cfg_.capacity() / cfg_.page_size;
    tags_media_.assign(npages, 0);  // fresh media: every page unknown
    if (!cfg_.power_loss_protection) tags_cache_.assign(npages, 0);
  }
}

void RamBlockDevice::retag_pages(const char* view, std::vector<uint64_t>& tags, uint64_t pos,
                                 size_t len, int64_t seed_delta) {
  if (!cfg_.checksum_pages || len == 0) return;
  size_t ps = cfg_.page_size;
  uint64_t first = pos / ps;
  uint64_t last = (pos + len - 1) / ps;
  for (uint64_t p = first; p <= last; p++) {
    tags[p] = make_tag(view + p * ps, ps, static_cast<uint64_t>(static_cast<int64_t>(p) + seed_delta));
  }
}

Status RamBlockDevice::verify_view(const char* view, const std::vector<uint64_t>& tags,
                                   uint64_t pos, size_t len, std::vector<uint64_t>* bad,
                                   uint32_t* crcs) const {
  if (!cfg_.checksum_pages || len == 0) return Status::ok();
  size_t ps = cfg_.page_size;
  uint64_t first = pos / ps;
  uint64_t last = (pos + len - 1) / ps;
  Status s = Status::ok();
  for (uint64_t p = first; p <= last; p++) {
    uint64_t tag = tags[p];
    if (tag == 0) continue;  // never written: nothing to hold it to
    uint32_t crc = crc32c(view + p * ps, ps, p);
    if (crc == static_cast<uint32_t>(tag)) {
      if (crcs != nullptr && (p + 1) * ps <= pos + len) crcs[p - first] = reportable(crc);
      continue;
    }
    stats_.read_crc_failures.fetch_add(1, std::memory_order_relaxed);
    s = Status::corruption("ssd page " + std::to_string(p) + " checksum mismatch");
    if (bad == nullptr) return s;  // read path: fail fast
    bad->push_back(p);             // scrub path: report every bad page
  }
  return s;
}

Status RamBlockDevice::write(uint64_t block, size_t offset, const void* data, size_t len) {
  DSTORE_RETURN_IF_ERROR(check_io(cfg_, block, offset, len));
  auto r = submit_io(IoDesc{block, offset, len, data, nullptr});
  if (!r.is_ok()) return r.status();
  spin_until_ns(r.value());
  return Status::ok();
}

Status RamBlockDevice::read(uint64_t block, size_t offset, void* out, size_t len) const {
  DSTORE_RETURN_IF_ERROR(check_io(cfg_, block, offset, len));
  auto r = const_cast<RamBlockDevice*>(this)->submit_io(IoDesc{block, offset, len, nullptr, out});
  if (!r.is_ok()) return r.status();
  spin_until_ns(r.value());
  return Status::ok();
}

Result<uint64_t> RamBlockDevice::submit_io(const IoDesc& d) {
  DSTORE_RETURN_IF_ERROR(check_desc(cfg_, d));
  size_t pos = d.block * cfg_.block_size() + d.offset;
  if (d.is_write()) {
    fault::Outcome fo = fault::hit(fault_, "ssd.write");
    if (fo.type == fault::FaultType::kError) return fo.status;
    uint64_t t0 = now_ns();  // after the hit, so an injected delay extends the IO
    if (fo.type == fault::FaultType::kTorn && !frozen()) {
      // Power fails while the page is being written: only the first `arg`
      // bytes reach non-volatile media, in both cache modes (the tear models
      // the media program itself being interrupted).
      size_t keep = std::min<size_t>(d.len, fo.arg);
      {
        MutexGuard g(mu_);
        std::memcpy(media_.get() + pos, d.wbuf, keep);
      }
      fault_->trigger_crash();
      return Status::io_error("injected power failure tore ssd write at block " +
                              std::to_string(d.block));
    }
    if (frozen()) return t0;  // acked into the void; host is dead too
    // Silent-corruption injection. A misdirected write lands the whole
    // transfer at the wrong LBA but carries the tags of the LBA the host
    // *claimed* (T10-DIF style), so the clobbered pages fail their
    // location-seeded check on read while the intended LBA silently keeps
    // its old contents. A write-side bit flip lands after the page is
    // checksummed: tag and media disagree from then on.
    uint64_t land = pos;
    int64_t seed_delta = 0;
    if (fo.type == fault::FaultType::kMisdirectedWrite) {
      uint64_t wrong = misdirect_block(cfg_, d.block, d.offset, d.len, fo.arg);
      land = wrong * cfg_.block_size() + d.offset;
      size_t ps = cfg_.page_size;
      seed_delta = static_cast<int64_t>(pos / ps) - static_cast<int64_t>(land / ps);
    }
    if (cfg_.power_loss_protection) {
      // Capacitor-backed cache: acknowledged == durable; a single buffer
      // suffices. Concurrent writers target disjoint blocks (the block pool
      // hands each block to one owner), so no lock is needed.
      std::memcpy(media_.get() + land, d.wbuf, d.len);
      retag_pages(media_.get(), tags_media_, land, d.len, seed_delta);
      if (fo.type == fault::FaultType::kBitFlipSsdPage) {
        uint64_t bit = fo.arg % (cfg_.page_size * 8);
        media_[(land / cfg_.page_size) * cfg_.page_size + bit / 8] ^=
            static_cast<char>(1u << (bit % 8));
      }
    } else {
      MutexGuard g(mu_);
      std::memcpy(cache_view_.get() + land, d.wbuf, d.len);
      retag_pages(cache_view_.get(), tags_cache_, land, d.len, seed_delta);
      if (fo.type == fault::FaultType::kBitFlipSsdPage) {
        uint64_t bit = fo.arg % (cfg_.page_size * 8);
        cache_view_[(land / cfg_.page_size) * cfg_.page_size + bit / 8] ^=
            static_cast<char>(1u << (bit % 8));
      }
    }
    stats_.bytes_written.fetch_add(d.len, std::memory_order_relaxed);
    stats_.write_ios.fetch_add(1, std::memory_order_relaxed);
    if (bw_series_ != nullptr) bw_series_->add(d.len);
    // Fixed device latency runs in parallel (internal queue depth); the
    // bandwidth share queues on the shared media channel once the base
    // latency has elapsed, so background streams (compaction, checkpoint
    // flushes) contend with the frontend but concurrent in-flight IOs
    // hide each other's fixed cost.
    return bw_channel_.reserve_from(t0 + cfg_.latency.ssd_write_base_ns,
                                    cfg_.latency.ssd_per_kb_ns * (d.len / 1024));
  }
  fault::Outcome fo = fault::hit(fault_, "ssd.read");
  if (fo.type == fault::FaultType::kError) return fo.status;
  uint64_t t0 = now_ns();
  char* src = cfg_.power_loss_protection ? media_.get() : cache_view_.get();
  std::vector<uint64_t>& tags = cfg_.power_loss_protection ? tags_media_ : tags_cache_;
  uint32_t* crcs = page_crcs_to_fill(cfg_, d, pos);
  Status verdict = Status::ok();
  {
    UniqueLock g(mu_, std::defer_lock);
    if (!cfg_.power_loss_protection) g.lock();
    if (fo.type == fault::FaultType::kBitFlipSsdPage) {
      // At-rest rot on the page the read touches first: flip it on media,
      // behind the sidecar's back, before the copy-out.
      uint64_t bit = fo.arg % (cfg_.page_size * 8);
      src[(pos / cfg_.page_size) * cfg_.page_size + bit / 8] ^=
          static_cast<char>(1u << (bit % 8));
    }
    std::memcpy(d.rbuf, src + pos, d.len);
    // Verify every page the transfer overlaps (full pages from media, so a
    // flip outside the requested byte range is still caught).
    verdict = verify_view(src, tags, pos, d.len, nullptr, crcs);
  }
  if (!verdict.is_ok()) return verdict;
  stats_.bytes_read.fetch_add(d.len, std::memory_order_relaxed);
  stats_.read_ios.fetch_add(1, std::memory_order_relaxed);
  return bw_channel_.reserve_from(t0 + cfg_.latency.ssd_read_base_ns,
                                  cfg_.latency.ssd_per_kb_ns * (d.len / 1024));
}

Status RamBlockDevice::verify_pages(uint64_t block, size_t offset, size_t len,
                                    std::vector<uint64_t>* bad_pages) {
  if (block >= cfg_.num_blocks ||
      block * cfg_.block_size() + offset + len > cfg_.capacity()) {
    return Status::invalid_argument("verify_pages out of device range");
  }
  if (!cfg_.checksum_pages || len == 0) return Status::ok();
  uint64_t pos = block * cfg_.block_size() + offset;
  uint64_t t0 = now_ns();
  Status s;
  {
    UniqueLock g(mu_, std::defer_lock);
    if (!cfg_.power_loss_protection) g.lock();
    const char* view = cfg_.power_loss_protection ? media_.get() : cache_view_.get();
    const std::vector<uint64_t>& tags =
        cfg_.power_loss_protection ? tags_media_ : tags_cache_;
    s = verify_view(view, tags, pos, len, bad_pages);
  }
  stats_.bytes_read.fetch_add(len, std::memory_order_relaxed);
  stats_.read_ios.fetch_add(1, std::memory_order_relaxed);
  // A scrub pass is a media read: queue its bandwidth share on the shared
  // channel and wait it out, so scrubbing self-limits against frontend IO.
  spin_until_ns(bw_channel_.reserve_from(t0 + cfg_.latency.ssd_read_base_ns,
                                         cfg_.latency.ssd_per_kb_ns * (len / 1024)));
  return s;
}

void RamBlockDevice::flip_media_bit(uint64_t byte_off, uint32_t bit) {
  MutexGuard g(mu_);
  char mask = static_cast<char>(1u << (bit % 8));
  media_[byte_off] ^= mask;
  if (cache_view_ != nullptr) cache_view_[byte_off] ^= mask;
}

Status RamBlockDevice::flush_cache() {
  fault::Outcome fo = fault::hit(fault_, "ssd.flush");
  if (fo.type == fault::FaultType::kError) return fo.status;
  if (frozen()) return Status::ok();
  if (!cfg_.power_loss_protection) {
    MutexGuard g(mu_);
    std::memcpy(media_.get(), cache_view_.get(), cfg_.capacity());
    tags_media_ = tags_cache_;  // sidecar flushes with the data it covers
  }
  return Status::ok();
}

void RamBlockDevice::crash() {
  frozen_.store(false, std::memory_order_release);
  if (cfg_.power_loss_protection) return;  // capacitors flush the cache
  MutexGuard g(mu_);
  std::memcpy(cache_view_.get(), media_.get(), cfg_.capacity());
  tags_cache_ = tags_media_;  // cached-but-unflushed tags die with the cache
}

void RamBlockDevice::set_fault_injector(fault::FaultInjector* inj) {
  fault_ = inj;
  if (inj != nullptr) {
    inj->add_crash_sink([this] { freeze(); });
  }
}

uint64_t RamBlockDevice::media_fingerprint() const {
  MutexGuard g(mu_);
  return fnv1a(media_.get(), cfg_.capacity());
}

// ---------------------------------------------------------------------------
// FileBlockDevice
// ---------------------------------------------------------------------------

namespace {
// Sidecar file layout: header + one uint64 tag per page.
struct SidecarHeader {
  uint64_t magic;
  uint64_t page_size;
  uint64_t npages;
};
constexpr uint64_t kSidecarMagic = 0x3143524354534444ull;  // "DDSTCRC1"
}  // namespace

Result<std::unique_ptr<FileBlockDevice>> FileBlockDevice::open(const std::string& path,
                                                               DeviceConfig cfg, bool create) {
  int flags = O_RDWR | (create ? O_CREAT | O_TRUNC : 0);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return Status::io_error("open " + path + " failed");
  if (create && ftruncate(fd, (off_t)cfg.capacity()) != 0) {
    ::close(fd);
    return Status::io_error("ftruncate " + path + " failed");
  }
  auto dev = std::unique_ptr<FileBlockDevice>(new FileBlockDevice(fd, path, cfg));
  if (cfg.checksum_pages) {
    dev->tags_.assign(cfg.capacity() / cfg.page_size, 0);
    if (!create) dev->load_sidecar();
  }
  return dev;
}

void FileBlockDevice::load_sidecar() {
  int fd = ::open((path_ + ".crc").c_str(), O_RDONLY);
  if (fd < 0) return;  // no sidecar: legacy store, every page unknown
  SidecarHeader h{};
  bool ok = pread(fd, &h, sizeof(h), 0) == (ssize_t)sizeof(h) && h.magic == kSidecarMagic &&
            h.page_size == cfg_.page_size && h.npages == tags_.size();
  if (ok) {
    size_t bytes = tags_.size() * sizeof(uint64_t);
    ok = pread(fd, tags_.data(), bytes, sizeof(h)) == (ssize_t)bytes;
    if (!ok) std::fill(tags_.begin(), tags_.end(), 0);
  }
  ::close(fd);
}

void FileBlockDevice::save_sidecar() {
  if (!cfg_.checksum_pages || !tags_dirty_) return;
  std::string tmp = path_ + ".crc";
  int fd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  SidecarHeader h{kSidecarMagic, cfg_.page_size, tags_.size()};
  bool ok = pwrite(fd, &h, sizeof(h), 0) == (ssize_t)sizeof(h);
  size_t bytes = tags_.size() * sizeof(uint64_t);
  ok = ok && pwrite(fd, tags_.data(), bytes, sizeof(h)) == (ssize_t)bytes;
  if (ok) tags_dirty_ = false;
  ::close(fd);
}

FileBlockDevice::~FileBlockDevice() {
  save_sidecar();
  if (fd_ >= 0) ::close(fd_);
}

void FileBlockDevice::retag_range(uint64_t pos, size_t len, const char* buf, int64_t seed_delta) {
  if (!cfg_.checksum_pages || len == 0) return;
  size_t ps = cfg_.page_size;
  uint64_t first = pos / ps;
  uint64_t last = (pos + len - 1) / ps;
  std::vector<char> tmp;
  for (uint64_t p = first; p <= last; p++) {
    uint64_t seed = static_cast<uint64_t>(static_cast<int64_t>(p) + seed_delta);
    const char* page;
    if (p * ps >= pos && (p + 1) * ps <= pos + len) {
      page = buf + (p * ps - pos);  // fully covered by the caller's buffer
    } else {
      // Boundary page: the result on media mixes old and new bytes.
      tmp.resize(ps);
      if (pread(fd_, tmp.data(), ps, (off_t)(p * ps)) != (ssize_t)ps) continue;
      page = tmp.data();
    }
    tags_[p] = make_tag(page, ps, seed);
  }
  tags_dirty_ = true;
}

Status FileBlockDevice::verify_range(uint64_t pos, size_t len, const char* buf,
                                     std::vector<uint64_t>* bad, uint32_t* crcs) const {
  if (!cfg_.checksum_pages || len == 0) return Status::ok();
  size_t ps = cfg_.page_size;
  uint64_t first = pos / ps;
  uint64_t last = (pos + len - 1) / ps;
  std::vector<char> tmp;
  Status s = Status::ok();
  for (uint64_t p = first; p <= last; p++) {
    uint64_t tag = tags_[p];
    if (tag == 0) continue;
    const char* page;
    const bool whole = p * ps >= pos && (p + 1) * ps <= pos + len;
    if (buf != nullptr && whole) {
      page = buf + (p * ps - pos);
    } else {
      tmp.resize(ps);
      if (pread(fd_, tmp.data(), ps, (off_t)(p * ps)) != (ssize_t)ps) {
        return Status::io_error("pread for page verification failed");
      }
      page = tmp.data();
    }
    uint32_t crc = crc32c(page, ps, p);
    if (crc == static_cast<uint32_t>(tag)) {
      if (crcs != nullptr && whole) crcs[p - first] = reportable(crc);
      continue;
    }
    stats_.read_crc_failures.fetch_add(1, std::memory_order_relaxed);
    s = Status::corruption("ssd page " + std::to_string(p) + " checksum mismatch");
    if (bad == nullptr) return s;
    bad->push_back(p);
  }
  return s;
}

Status FileBlockDevice::do_write(uint64_t block, size_t offset, const void* data, size_t len,
                                 const fault::Outcome& fo) {
  size_t ps = cfg_.page_size;
  uint64_t pos = block * cfg_.block_size() + offset;
  uint64_t land = pos;
  int64_t seed_delta = 0;
  if (fo.type == fault::FaultType::kMisdirectedWrite) {
    uint64_t wrong = misdirect_block(cfg_, block, offset, len, fo.arg);
    land = wrong * cfg_.block_size() + offset;
    seed_delta = static_cast<int64_t>(pos / ps) - static_cast<int64_t>(land / ps);
  }
  ssize_t n = pwrite(fd_, data, len, (off_t)land);
  if (n != (ssize_t)len) return Status::io_error("pwrite short/failed");
  retag_range(land, len, static_cast<const char*>(data), seed_delta);
  if (fo.type == fault::FaultType::kBitFlipSsdPage) {
    uint64_t bit = fo.arg % (ps * 8);
    off_t bpos = (off_t)((land / ps) * ps + bit / 8);
    char c;
    if (pread(fd_, &c, 1, bpos) == 1) {
      c ^= static_cast<char>(1u << (bit % 8));
      (void)!pwrite(fd_, &c, 1, bpos);
    }
  }
  stats_.bytes_written.fetch_add(len, std::memory_order_relaxed);
  stats_.write_ios.fetch_add(1, std::memory_order_relaxed);
  if (bw_series_ != nullptr) bw_series_->add(len);
  return Status::ok();
}

Status FileBlockDevice::write(uint64_t block, size_t offset, const void* data, size_t len) {
  DSTORE_RETURN_IF_ERROR(check_io(cfg_, block, offset, len));
  fault::Outcome fo = fault::hit(fault_, "ssd.write");
  if (fo.type == fault::FaultType::kError) return fo.status;
  return do_write(block, offset, data, len, fo);
}

Status FileBlockDevice::read(uint64_t block, size_t offset, void* out, size_t len) const {
  DSTORE_RETURN_IF_ERROR(check_io(cfg_, block, offset, len));
  fault::Outcome fo = fault::hit(fault_, "ssd.read");
  if (fo.type == fault::FaultType::kError) return fo.status;
  uint64_t pos = block * cfg_.block_size() + offset;
  if (fo.type == fault::FaultType::kBitFlipSsdPage) {
    // At-rest rot: flip on disk, behind the sidecar, before the copy-out.
    uint64_t bit = fo.arg % (cfg_.page_size * 8);
    off_t bpos = (off_t)((pos / cfg_.page_size) * cfg_.page_size + bit / 8);
    char c;
    if (pread(fd_, &c, 1, bpos) == 1) {
      c ^= static_cast<char>(1u << (bit % 8));
      (void)!pwrite(fd_, &c, 1, bpos);
    }
  }
  ssize_t n = pread(fd_, out, len, (off_t)pos);
  if (n != (ssize_t)len) return Status::io_error("pread short/failed");
  DSTORE_RETURN_IF_ERROR(verify_range(pos, len, static_cast<const char*>(out), nullptr));
  stats_.bytes_read.fetch_add(len, std::memory_order_relaxed);
  stats_.read_ios.fetch_add(1, std::memory_order_relaxed);
  return Status::ok();
}

Result<uint64_t> FileBlockDevice::submit_io(const IoDesc& d) {
  DSTORE_RETURN_IF_ERROR(check_desc(cfg_, d));
  if (d.is_write()) {
    fault::Outcome fo = fault::hit(fault_, "ssd.write");
    if (fo.type == fault::FaultType::kError) return fo.status;
    DSTORE_RETURN_IF_ERROR(do_write(d.block, d.offset, d.wbuf, d.len, fo));
  } else {
    fault::Outcome fo = fault::hit(fault_, "ssd.read");
    if (fo.type == fault::FaultType::kError) return fo.status;
    uint64_t pos = d.block * cfg_.block_size() + d.offset;
    if (fo.type == fault::FaultType::kBitFlipSsdPage) {
      uint64_t bit = fo.arg % (cfg_.page_size * 8);
      off_t bpos = (off_t)((pos / cfg_.page_size) * cfg_.page_size + bit / 8);
      char c;
      if (pread(fd_, &c, 1, bpos) == 1) {
        c ^= static_cast<char>(1u << (bit % 8));
        (void)!pwrite(fd_, &c, 1, bpos);
      }
    }
    uint32_t* crcs = page_crcs_to_fill(cfg_, d, pos);
    ssize_t n = pread(fd_, d.rbuf, d.len, (off_t)pos);
    if (n != (ssize_t)d.len) return Status::io_error("pread short/failed");
    DSTORE_RETURN_IF_ERROR(
        verify_range(pos, d.len, static_cast<const char*>(d.rbuf), nullptr, crcs));
    stats_.bytes_read.fetch_add(d.len, std::memory_order_relaxed);
    stats_.read_ios.fetch_add(1, std::memory_order_relaxed);
  }
  return now_ns();  // real pread/pwrite: complete on return
}

Status FileBlockDevice::verify_pages(uint64_t block, size_t offset, size_t len,
                                     std::vector<uint64_t>* bad_pages) {
  if (block >= cfg_.num_blocks ||
      block * cfg_.block_size() + offset + len > cfg_.capacity()) {
    return Status::invalid_argument("verify_pages out of device range");
  }
  if (!cfg_.checksum_pages || len == 0) return Status::ok();
  uint64_t pos = block * cfg_.block_size() + offset;
  Status s = verify_range(pos, len, nullptr, bad_pages);
  stats_.bytes_read.fetch_add(len, std::memory_order_relaxed);
  stats_.read_ios.fetch_add(1, std::memory_order_relaxed);
  return s;
}

Status FileBlockDevice::flush_cache() {
  if (fdatasync(fd_) != 0) return Status::io_error("fdatasync failed");
  save_sidecar();
  return Status::ok();
}

}  // namespace dstore::ssd
