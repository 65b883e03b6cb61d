// Device latency-injection model.
//
// The original testbed measured real Optane DCPMM and a P4800X NVMe drive.
// We emulate both in memory; to reproduce the paper's latency *shape*
// (e.g. Table 3's 88%-of-write-time-in-NVMe, Figure 5's ratios) the
// emulated devices inject calibrated delays. Delays default to published
// device characteristics and are globally scalable (including to zero for
// unit tests, where only functional behaviour matters).
#pragma once

#include <cstdint>

namespace dstore {

struct LatencyModel {
  // Per-operation fixed costs in nanoseconds.
  uint64_t pmem_flush_line_ns = 0;   // clwb+fence of one 64B line
  uint64_t pmem_read_per_kb_ns = 0;  // sequential read bandwidth model
  uint64_t pmem_write_per_kb_ns = 0; // sequential write bandwidth model
  uint64_t ssd_write_base_ns = 0;    // NVMe 4KB write (device-RAM ack)
  uint64_t ssd_read_base_ns = 0;     // NVMe 4KB read
  uint64_t ssd_per_kb_ns = 0;        // incremental per-KB transfer cost

  // Calibrated to the paper's testbed: log flush of one line ~615ns
  // (Table 3), NVMe 4KB write ~8.9us (Table 3), PMEM BW ~10GB/s write /
  // ~30GB/s read, NVMe ~2GB/s. `scale` stretches or shrinks everything
  // uniformly (scale=0 disables injection).
  static LatencyModel calibrated(double scale = 1.0) {
    LatencyModel m;
    m.pmem_flush_line_ns = scaled(600, scale);
    m.pmem_read_per_kb_ns = scaled(33, scale);    // ~30 GB/s
    m.pmem_write_per_kb_ns = scaled(100, scale);  // ~10 GB/s
    m.ssd_write_base_ns = scaled(8400, scale);
    m.ssd_read_base_ns = scaled(7000, scale);
    m.ssd_per_kb_ns = scaled(125, scale);  // ~2 GB/s past the base cost
    return m;
  }

  static LatencyModel none() { return LatencyModel{}; }

  uint64_t ssd_write_ns(size_t bytes) const {
    return ssd_write_base_ns + ssd_per_kb_ns * (bytes / 1024);
  }
  uint64_t pmem_write_ns(size_t bytes) const { return pmem_write_per_kb_ns * (bytes / 1024); }
  uint64_t pmem_read_ns(size_t bytes) const { return pmem_read_per_kb_ns * (bytes / 1024); }

 private:
  static uint64_t scaled(uint64_t ns, double scale) { return (uint64_t)((double)ns * scale); }
};

}  // namespace dstore
