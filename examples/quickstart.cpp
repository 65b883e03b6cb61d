// Quickstart: create a DStore, put/get/delete objects with the key-value
// API, watch a background checkpoint happen, and inspect space usage.
//
//   ./build/examples/quickstart
#include <cstdio>
#include <string>

#include "dstore/dstore.h"

using namespace dstore;

int main() {
  // 1. Devices. DStore needs byte-addressable persistent memory for its
  //    control plane (here: the emulated pool) and a block device for its
  //    data plane (here: a RAM-backed device).
  DStoreConfig cfg;
  cfg.max_objects = 10000;
  cfg.num_blocks = 40000;
  cfg.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(cfg.max_objects);
  cfg.engine.log_slots = 4096;

  pmem::Pool pmem(DStoreConfig::required_pool_bytes(cfg), pmem::Pool::Mode::kDirect);
  ssd::DeviceConfig dev_cfg;
  dev_cfg.num_blocks = cfg.num_blocks;
  ssd::RamBlockDevice ssd(dev_cfg);

  // 2. Create the store.
  auto store_r = DStore::create(&pmem, &ssd, cfg);
  if (!store_r.is_ok()) {
    fprintf(stderr, "create failed: %s\n", store_r.status().to_string().c_str());
    return 1;
  }
  auto store = std::move(store_r).value();

  // 3. Every IO thread gets a context (Table 2: ds_init).
  ds_ctx_t* ctx = store->ds_init();

  // 4. Key-value operations.
  std::string value(4096, 'd');
  Status s = store->oput(ctx, "hello-object", value.data(), value.size());
  printf("oput(hello-object, 4KB): %s\n", s.to_string().c_str());

  std::string out(4096, 0);
  auto got = store->oget(ctx, "hello-object", out.data(), out.size());
  printf("oget(hello-object): %zu bytes, contents %s\n", got.is_ok() ? got.value() : 0,
         out == value ? "intact" : "CORRUPT");

  // 5. Write a burst to trigger a background DIPPER checkpoint; the
  //    frontend never stalls while it runs.
  for (int i = 0; i < 3000; i++) {
    std::string name = "obj-" + std::to_string(i);
    if (!store->oput(ctx, name, value.data(), value.size()).is_ok()) {
      fprintf(stderr, "put %d failed\n", i);
      return 1;
    }
  }
  printf("3000 objects written; checkpoints taken so far: %llu\n",
         (unsigned long long)store->engine().stats().checkpoints.load());

  // 6. Delete and confirm.
  s = store->odelete(ctx, "hello-object");
  printf("odelete(hello-object): %s\n", s.to_string().c_str());
  got = store->oget(ctx, "hello-object", out.data(), out.size());
  printf("oget after delete: %s\n", got.status().to_string().c_str());

  // 7. Space accounting across the three tiers.
  auto u = store->space_usage();
  printf("space: DRAM %.1f MB, PMEM %.1f MB, SSD %.1f MB (objects: %llu)\n",
         u.dram_bytes / 1e6, u.pmem_bytes / 1e6, u.ssd_bytes / 1e6,
         (unsigned long long)store->object_count());

  store->ds_finalize(ctx);
  printf("quickstart OK\n");
  return 0;
}
