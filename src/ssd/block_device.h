// Emulated NVMe block device — DStore's data plane (§4.2).
//
// DStore stores object data purely on SSD; pages are grouped into blocks,
// the unit of data allocation. The paper's testbed used an Intel P4800X;
// we emulate the properties DStore depends on:
//
//  * block-granular read/write with NVMe-like injected latency
//    (~9 us for a 4 KB write, Table 3);
//  * a device-internal DRAM write cache with enhanced power-loss data
//    protection (§4.2/§4.5): an acknowledged write is durable because
//    device capacitors flush the cache on power failure. DStore
//    transparently leverages this, so with PLP enabled an acknowledged
//    write survives `crash()`. With PLP disabled, un-flushed writes are
//    lost on crash — used by tests to show why DStore requires the
//    capacitor-backed cache (or an explicit device flush) for its
//    commit-implies-durable invariant.
//
// Implementations: RamBlockDevice (memory-backed, crash-simulating,
// used by tests and benches) and FileBlockDevice (file-backed, for the
// examples that want real persistence across process restarts).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/bandwidth.h"
#include "common/lockdep.h"
#include "common/latency_model.h"
#include "common/status.h"
#include "common/timeseries.h"
#include "fault/fault.h"

namespace dstore::ssd {

struct DeviceStats {
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> write_ios{0};
  std::atomic<uint64_t> read_ios{0};
  // Pages whose sidecar checksum failed verification (read path + scrub).
  std::atomic<uint64_t> read_crc_failures{0};
};

// One element of an async submission queue: an IO of `len` bytes starting
// at byte `offset` within `block`. Exactly one of wbuf/rbuf is set. A
// descriptor may span several *physically contiguous* blocks (a coalesced
// run produced by the data plane) — media addressing is linear, so the
// span is one device transfer paying one per-IO base latency.
struct IoDesc {
  uint64_t block = 0;
  size_t offset = 0;
  size_t len = 0;
  const void* wbuf = nullptr;  // write source; write iff non-null
  void* rbuf = nullptr;        // read destination
  // Reads only, optional: ceil(len / page_size) entries, one per page of
  // the transfer. A read that succeeds sets entry i to the sidecar CRC the
  // device verified for the transfer's i-th page — crc32c(page, page_size,
  // absolute page number), the protection information a real NVMe read
  // hands the host with the data — or to 0 ("unknown") when it vouches for
  // none: the transfer does not start on a page boundary, the page is a
  // partial tail, it was never written, its stored CRC is 1 (possibly a
  // remapped 0), or the device keeps no sidecar.
  uint32_t* page_crcs = nullptr;

  bool is_write() const { return wbuf != nullptr; }
};

struct DeviceConfig {
  size_t page_size = 4096;       // hardware page (IO granularity)
  size_t pages_per_block = 1;    // allocation unit = block
  size_t num_blocks = 16384;
  bool power_loss_protection = true;
  // Per-page CRC32C sidecar (the emulation analogue of T10-DIF protection
  // information): every write records a location-seeded page checksum,
  // every read verifies it, so bit rot and misdirected writes surface as
  // Status::corruption instead of silently wrong bytes.
  bool checksum_pages = true;
  LatencyModel latency = LatencyModel::none();

  size_t block_size() const { return page_size * pages_per_block; }
  size_t capacity() const { return block_size() * num_blocks; }
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  // Write [offset, offset+len) within `block`. Acknowledged once the data
  // reaches the device write cache (durable iff PLP).
  virtual Status write(uint64_t block, size_t offset, const void* data, size_t len) = 0;
  virtual Status read(uint64_t block, size_t offset, void* out, size_t len) const = 0;

  // Force the device cache to non-volatile media (no-op with PLP).
  virtual Status flush_cache() = 0;

  // Async submission entry point (the NVMe queue-pair model, driven by
  // ssd::IoQueue). The media effect of the IO — data movement, the
  // ssd.write/ssd.read fault point, stats — happens immediately, but no
  // latency is charged inline; instead the returned value is the absolute
  // now_ns()-clock deadline at which the transfer completes on the
  // emulated device: the fixed per-IO base latency runs in parallel
  // across in-flight IOs, while the bandwidth share queues on the shared
  // media channel *after* that base latency. The caller (IoQueue) waits
  // out deadlines, which is what makes overlapped submissions cheaper
  // than back-to-back synchronous calls. An injected transient error
  // completes the IO immediately with that status. The base
  // implementation degrades to per-block synchronous write()/read()
  // calls for devices without a native async path.
  virtual Result<uint64_t> submit_io(const IoDesc& d);

  virtual const DeviceConfig& config() const = 0;
  virtual const DeviceStats& stats() const = 0;

  // Optional bandwidth time-series (bytes written per bin) for Figure 7.
  virtual void set_bandwidth_series(TimeSeries* ts) = 0;

  // Attach a deterministic fault injector: every IO becomes a fault point
  // ("ssd.write" / "ssd.read" / "ssd.flush") supporting transient errors,
  // latency spikes, silent corruption (bit flips, misdirected writes) and
  // — on RamBlockDevice — torn pages on power loss.
  virtual void set_fault_injector(fault::FaultInjector* inj) { (void)inj; }

  // True when the device maintains a page-checksum sidecar (and therefore
  // verifies reads itself). The scrubber and fsck use verify_pages() to
  // check at-rest data without copying it out.
  virtual bool has_page_checksums() const { return false; }

  // Zero-copy read support: a stable pointer to `block`'s current durable
  // contents, or nullptr when the device cannot hand one out (file-backed
  // media, or a dual-buffered !PLP cache whose view moves under a lock).
  // The pointer stays valid for the device's lifetime; the CALLER must hold
  // the object-level read exclusion for as long as it dereferences it —
  // the device does not snapshot. Consecutive blocks of linear media map
  // to consecutive addresses, which is what lets the data plane coalesce
  // pieces. No latency is charged here; callers account the read through
  // verify_pages() (bandwidth-charged) or their own model.
  virtual const void* direct_read_map(uint64_t block) const {
    (void)block;
    return nullptr;
  }

  // Verify the sidecar checksums of every page overlapping
  // [block*block_size+offset, +len) against current media contents. Appends
  // the absolute index of each failing page to `bad_pages` (when non-null)
  // and keeps scanning, so one call reports every bad page in the range.
  // Charged like a media read: the scrubber is rate-limited through the
  // same bandwidth channel as frontend IO. Default: no sidecar, trivially
  // clean.
  virtual Status verify_pages(uint64_t block, size_t offset, size_t len,
                              std::vector<uint64_t>* bad_pages) {
    (void)block, (void)offset, (void)len, (void)bad_pages;
    return Status::ok();
  }
};

// Memory-backed device with crash simulation.
class RamBlockDevice final : public BlockDevice {
 public:
  explicit RamBlockDevice(DeviceConfig cfg);

  Status write(uint64_t block, size_t offset, const void* data, size_t len) override;
  Status read(uint64_t block, size_t offset, void* out, size_t len) const override;
  Status flush_cache() override;
  Result<uint64_t> submit_io(const IoDesc& d) override;
  const DeviceConfig& config() const override { return cfg_; }
  const DeviceStats& stats() const override { return stats_; }
  void set_bandwidth_series(TimeSeries* ts) override { bw_series_ = ts; }

  // Simulate power failure: with PLP the capacitors flush the write cache
  // (nothing is lost); without PLP, writes since the last flush_cache()
  // revert to their previous contents. Unfreezes a device frozen by an
  // injected power failure.
  void crash();

  // Registers this device's freeze() as a crash sink on `inj`.
  void set_fault_injector(fault::FaultInjector* inj) override;

  // Power is gone: later writes/flushes no longer reach the device (they
  // still return OK — the host that issued them is also dead; the harness
  // stops the workload once it observes the injected crash).
  void freeze() { frozen_.store(true, std::memory_order_release); }
  bool frozen() const { return frozen_.load(std::memory_order_acquire); }

  // FNV-1a over the durable contents — byte-identical media images compare
  // equal; used by the seed-determinism harness check.
  uint64_t media_fingerprint() const;

  bool has_page_checksums() const override { return cfg_.checksum_pages; }
  Status verify_pages(uint64_t block, size_t offset, size_t len,
                      std::vector<uint64_t>* bad_pages) override;

  // With PLP there is exactly one buffer and writes to a block are
  // single-owner (the block pool), so handing out the backing pointer is
  // safe under the caller's read exclusion. The !PLP dual-buffer mode
  // mutates cache_view_ under mu_ — no stable pointer exists there.
  const void* direct_read_map(uint64_t block) const override {
    if (!cfg_.power_loss_protection || block >= cfg_.num_blocks) return nullptr;
    return media_.get() + block * cfg_.block_size();
  }

  // Tamper helper for integrity tests: flip bit `bit` of media byte
  // `byte_off` behind the sidecar's back (both buffers in !PLP mode), as
  // silent media rot would. The next read or scrub of that page must fail.
  void flip_media_bit(uint64_t byte_off, uint32_t bit);

 private:
  // Recompute the sidecar tags of every page overlapping [pos, pos+len) of
  // `view`. `seed_delta` shifts the location seed: 0 for a correct write,
  // intended_page - landed_page for a misdirected one (the device checksums
  // the LBA the host *claimed*, so the misplaced pages verify against the
  // wrong location and fail on read).
  void retag_pages(const char* view, std::vector<uint64_t>& tags, uint64_t pos,
                   size_t len, int64_t seed_delta);
  // Verify tags over [pos, pos+len) of `view`. With `bad` set, collects
  // every failing page and keeps going; otherwise fails fast. With `crcs`
  // set (a read's IoDesc::page_crcs, zeroed, `pos` page-aligned), records
  // the verified CRC of every whole page.
  Status verify_view(const char* view, const std::vector<uint64_t>& tags, uint64_t pos,
                     size_t len, std::vector<uint64_t>* bad, uint32_t* crcs = nullptr) const;

  // A calloc'd buffer: large ones arrive as the kernel's zero pages, so the
  // device writes nothing at construction and each page is first touched
  // by the IO that lands on it.
  struct FreeDeleter {
    void operator()(char* p) const { std::free(p); }
  };
  using ZeroedBytes = std::unique_ptr<char[], FreeDeleter>;
  static ZeroedBytes zeroed_bytes(size_t n);

  DeviceConfig cfg_;
  ZeroedBytes media_;       // durable contents
  ZeroedBytes cache_view_;  // current contents incl. cached writes (!plp only)
  // Page-checksum sidecar, one tag per page mirroring media_/cache_view_.
  // 0 = never written (unverifiable); else (1<<32) | crc32c(page, page_idx).
  std::vector<uint64_t> tags_media_;
  std::vector<uint64_t> tags_cache_;  // !plp only
  mutable DeviceStats stats_;
  TimeSeries* bw_series_ = nullptr;
  mutable BandwidthChannel bw_channel_;  // shared media bandwidth queue
  fault::FaultInjector* fault_ = nullptr;
  std::atomic<bool> frozen_{false};  // power failed; media no longer updates
  // Quiescence-exempt: guards only the simulated !PLP dual-buffer (cache vs
  // media) bookkeeping — a real NVMe device has no such host-side lock.
  mutable Mutex mu_{"ssd.device", lockdep::kQuiesceExempt};  // !PLP dual-buffer bookkeeping
};

// File-backed device (pread/pwrite on a regular file). The page-checksum
// sidecar persists next to the image as `<path>.crc` (saved on flush_cache
// and close, loaded on open), so an offline hex edit of the image is caught
// on the next read or `dstore_fsck --deep` pass. A store whose sidecar is
// missing or stale opens with every page unknown: legacy data is served
// unverified, new writes regain protection.
class FileBlockDevice final : public BlockDevice {
 public:
  // Creates/truncates the file when `create` is true; otherwise opens it.
  static Result<std::unique_ptr<FileBlockDevice>> open(const std::string& path, DeviceConfig cfg,
                                                       bool create);
  ~FileBlockDevice() override;

  Status write(uint64_t block, size_t offset, const void* data, size_t len) override;
  Status read(uint64_t block, size_t offset, void* out, size_t len) const override;
  Status flush_cache() override;
  // One pread/pwrite per descriptor (coalesced spans stay one syscall);
  // no latency model, so the deadline is simply "now".
  Result<uint64_t> submit_io(const IoDesc& d) override;
  const DeviceConfig& config() const override { return cfg_; }
  const DeviceStats& stats() const override { return stats_; }
  void set_bandwidth_series(TimeSeries* ts) override { bw_series_ = ts; }
  // Error/delay/corruption injection; torn pages and freeze need the RAM
  // device.
  void set_fault_injector(fault::FaultInjector* inj) override { fault_ = inj; }

  bool has_page_checksums() const override { return cfg_.checksum_pages; }
  Status verify_pages(uint64_t block, size_t offset, size_t len,
                      std::vector<uint64_t>* bad_pages) override;

 private:
  FileBlockDevice(int fd, std::string path, DeviceConfig cfg)
      : fd_(fd), path_(std::move(path)), cfg_(cfg) {}

  // Shared write path: applies misdirect/bit-flip outcomes, performs the
  // pwrite, recomputes sidecar tags of the touched pages.
  Status do_write(uint64_t block, size_t offset, const void* data, size_t len,
                  const fault::Outcome& fo);
  // Verify tags over [pos, pos+len); pages fully inside the caller's buffer
  // are checksummed from it, boundary pages are re-read from the file.
  // `crcs` as in RamBlockDevice::verify_view.
  Status verify_range(uint64_t pos, size_t len, const char* buf, std::vector<uint64_t>* bad,
                      uint32_t* crcs = nullptr) const;
  void retag_range(uint64_t pos, size_t len, const char* buf, int64_t seed_delta);
  void load_sidecar();
  void save_sidecar();

  int fd_;
  std::string path_;
  DeviceConfig cfg_;
  std::vector<uint64_t> tags_;  // sidecar; same encoding as RamBlockDevice
  bool tags_dirty_ = false;
  mutable DeviceStats stats_;
  TimeSeries* bw_series_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
};

}  // namespace dstore::ssd
