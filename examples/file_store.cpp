// Filesystem-style API walkthrough: open/create objects, partial reads and
// writes at offsets, inter-object dependencies with olock/ounlock —
// modelled on the paper's directory-and-file example (§4.5) — with the
// data plane on a real file-backed block device.
//
//   ./build/examples/file_store [path]
#include <cstdio>
#include <filesystem>
#include <string>

#include "dstore/dstore.h"

using namespace dstore;

int main(int argc, char** argv) {
  std::string path = argc > 1 ? argv[1]
                              : (std::filesystem::temp_directory_path() / "dstore_data.bin")
                                    .string();

  DStoreConfig cfg;
  cfg.max_objects = 1024;
  cfg.num_blocks = 8192;
  cfg.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(cfg.max_objects);
  cfg.engine.log_slots = 1024;

  pmem::Pool pmem(DStoreConfig::required_pool_bytes(cfg), pmem::Pool::Mode::kDirect);
  ssd::DeviceConfig dev_cfg;
  dev_cfg.num_blocks = cfg.num_blocks;
  auto dev = ssd::FileBlockDevice::open(path, dev_cfg, /*create=*/true);
  if (!dev.is_ok()) {
    fprintf(stderr, "device open failed: %s\n", dev.status().to_string().c_str());
    return 1;
  }
  printf("data plane: %s (%zu MB)\n", path.c_str(), dev_cfg.capacity() >> 20);

  auto store_r = DStore::create(&pmem, dev.value().get(), cfg);
  if (!store_r.is_ok()) return 1;
  auto store = std::move(store_r).value();
  ds_ctx_t* ctx = store->ds_init();

  // A "directory" object and a "file" inside it, with the directory locked
  // while the file is created — the §4.5 inter-object dependency pattern.
  if (!store->olock(ctx, "dir:/logs").is_ok()) return 1;
  printf("locked dir:/logs (NOOP record in the DIPPER log)\n");

  auto file = store->oopen(ctx, "file:/logs/app.log", 0, kRead | kWrite | kCreate);
  if (!file.is_ok()) {
    fprintf(stderr, "oopen failed: %s\n", file.status().to_string().c_str());
    return 1;
  }
  // Append-style writes at growing offsets.
  uint64_t off = 0;
  for (int i = 0; i < 5; i++) {
    char line[128];
    int n = snprintf(line, sizeof(line), "log line %d: everything is fine\n", i);
    auto w = store->owrite(file.value(), line, (size_t)n, off);
    if (!w.is_ok()) {
      fprintf(stderr, "owrite failed: %s\n", w.status().to_string().c_str());
      return 1;
    }
    off += w.value();
  }
  if (!store->ounlock(ctx, "dir:/logs").is_ok()) return 1;
  printf("wrote %llu bytes into file:/logs/app.log, unlocked directory\n",
         (unsigned long long)off);

  // Read it back in one partial read from offset 0.
  std::string out(off, 0);
  auto r = store->oread(file.value(), out.data(), out.size(), 0);
  printf("oread: %zu bytes:\n%s", r.is_ok() ? r.value() : 0, out.c_str());

  // Random access: overwrite the middle in place (no metadata change, so
  // this write produces NO log record — pure data-plane traffic).
  const char patch[] = "PATCHED!";
  auto before = store->engine().stats().records_appended.load();
  (void)store->owrite(file.value(), patch, sizeof(patch) - 1, 10);
  auto after = store->engine().stats().records_appended.load();
  printf("in-place patch appended %llu log records (expected 0)\n",
         (unsigned long long)(after - before));

  store->oclose(file.value());
  store->ds_finalize(ctx);
  std::filesystem::remove(path);
  printf("file_store OK\n");
  return 0;
}
