// The on-disk layout of a persistent store directory, shared by
// dstore_cli, dstore_fsck and the C API's "dir:" sessions:
//
//   DIR/pmem.img   the file-backed PMEM pool (control plane)
//   DIR/data.img   the file-backed block device (data plane), with its
//                  page-checksum sidecar data.img.crc
//   DIR/manifest   "max_objects num_blocks log_slots": the sizing the pool
//                  was formatted with, so every later open lays the same
//                  configuration over it
#pragma once

#include <memory>
#include <string>

#include "dstore/dstore.h"

namespace dstore {

struct StoreDir {
  // Declared so the store is destroyed before the pool and device under it.
  std::unique_ptr<pmem::Pool> pool;
  std::unique_ptr<ssd::FileBlockDevice> device;
  std::unique_ptr<DStore> store;
};

// With `create`, makes `dir` if needed, formats a fresh store sized by
// cfg.max_objects, cfg.num_blocks and cfg.engine.log_slots, and writes the
// manifest. Otherwise reads the manifest, takes the sizing from it and
// recovers. Without a manifest (a C-API store made before manifests
// existed) it recovers with cfg's sizing if both images have exactly the
// sizes that sizing gives, then writes the manifest; else not_found. Either way the arena is sized from
// max_objects (suggested_arena_bytes); every other knob of `cfg` applies as
// given.
Result<StoreDir> open_store_dir(const std::string& dir, DStoreConfig cfg, bool create);

}  // namespace dstore
