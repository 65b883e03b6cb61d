#include "dstore/store_dir.h"

#include <filesystem>
#include <fstream>

#include "common/cacheline.h"

namespace dstore {

namespace {

// True when both images exist with exactly the sizes `cfg`'s sizing gives
// them, so recovering with that sizing maps neither past its file's end.
bool images_match(const std::string& dir, DStoreConfig cfg) {
  cfg.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(cfg.max_objects);
  std::error_code ec1, ec2;
  uint64_t pool = std::filesystem::file_size(dir + "/pmem.img", ec1);
  uint64_t data = std::filesystem::file_size(dir + "/data.img", ec2);
  ssd::DeviceConfig dc;
  dc.num_blocks = cfg.num_blocks;
  return !ec1 && !ec2 &&
         pool == align_up(DStoreConfig::required_pool_bytes(cfg), kCacheLineSize) &&
         data == dc.capacity();
}

}  // namespace

Result<StoreDir> open_store_dir(const std::string& dir, DStoreConfig cfg, bool create) {
  const std::string manifest = dir + "/manifest";
  bool write_manifest = create;
  if (create) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
  } else {
    std::ifstream in(manifest);
    if (!(in >> cfg.max_objects >> cfg.num_blocks >> cfg.engine.log_slots)) {
      // C-API "dir:" stores made before the manifest existed have none:
      // adopt one with the caller's sizing when its images fit it exactly.
      if (!images_match(dir, cfg)) return Status::not_found("no store manifest at " + manifest);
      write_manifest = true;
    }
  }
  cfg.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(cfg.max_objects);
  StoreDir d;
  auto pool = pmem::Pool::open_file(dir + "/pmem.img", DStoreConfig::required_pool_bytes(cfg),
                                    LatencyModel::none(), create);
  if (!pool.is_ok()) return pool.status();
  d.pool = std::move(pool).value();
  ssd::DeviceConfig dc;
  dc.num_blocks = cfg.num_blocks;
  auto dev = ssd::FileBlockDevice::open(dir + "/data.img", dc, create);
  if (!dev.is_ok()) return dev.status();
  d.device = std::move(dev).value();
  auto store = create ? DStore::create(d.pool.get(), d.device.get(), cfg)
                      : DStore::recover(d.pool.get(), d.device.get(), cfg);
  if (!store.is_ok()) return store.status();
  d.store = std::move(store).value();
  if (write_manifest) {
    std::ofstream out(manifest);
    out << cfg.max_objects << " " << cfg.num_blocks << " " << cfg.engine.log_slots << "\n";
    if (!out) return Status::io_error("cannot write " + manifest);
  }
  return d;
}

}  // namespace dstore
