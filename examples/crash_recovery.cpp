// Crash-consistency demonstration: write objects, power-fail the emulated
// PMEM mid-checkpoint, recover, and verify every acknowledged operation
// survived — the paper's §3.6 idempotent recovery, live.
//
//   ./build/examples/crash_recovery
#include <cstdio>
#include <map>
#include <string>

#include "dstore/dstore.h"

using namespace dstore;

int main() {
  DStoreConfig cfg;
  cfg.max_objects = 2048;
  cfg.num_blocks = 8192;
  cfg.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(cfg.max_objects);
  cfg.engine.log_slots = 256;
  cfg.engine.background_checkpointing = false;  // drive checkpoints by hand

  // Crash-simulating PMEM: unflushed cache lines are LOST on crash().
  pmem::Pool pmem(DStoreConfig::required_pool_bytes(cfg), pmem::Pool::Mode::kCrashSim);
  ssd::DeviceConfig dev_cfg;
  dev_cfg.num_blocks = cfg.num_blocks;
  ssd::RamBlockDevice ssd(dev_cfg);

  std::map<std::string, char> acked;  // our model of acknowledged writes
  {
    auto store_r = DStore::create(&pmem, &ssd, cfg);
    if (!store_r.is_ok()) return 1;
    auto store = std::move(store_r).value();
    ds_ctx_t* ctx = store->ds_init();

    // Phase 1: writes, then a completed checkpoint.
    std::string v(4096, 'a');
    for (int i = 0; i < 150; i++) {
      std::string name = "pre-ckpt-" + std::to_string(i);
      if (store->oput(ctx, name, v.data(), v.size()).is_ok()) acked[name] = 'a';
    }
    if (!store->checkpoint_now().is_ok()) return 1;
    printf("phase 1: 150 objects written, checkpoint completed\n");

    // Phase 2: more writes that only live in the log + volatile frontend.
    std::string w(4096, 'b');
    for (int i = 0; i < 100; i++) {
      std::string name = "post-ckpt-" + std::to_string(i);
      if (store->oput(ctx, name, w.data(), w.size()).is_ok()) acked[name] = 'b';
    }
    printf("phase 2: 100 more objects acknowledged (in log, not yet checkpointed)\n");
    store->ds_finalize(ctx);
    store->engine().stop_background();
  }  // the process "dies": all DRAM state is gone

  printf("*** POWER FAILURE ***\n");
  pmem.crash();  // every unflushed PMEM line reverts
  ssd.crash();   // device capacitors flush its write cache (PLP)

  // Recovery (§3.6): finish any interrupted checkpoint, rebuild the
  // volatile space from the shadow copies, replay the active log.
  auto recovered_r = DStore::recover(&pmem, &ssd, cfg);
  if (!recovered_r.is_ok()) {
    fprintf(stderr, "recover failed: %s\n", recovered_r.status().to_string().c_str());
    return 1;
  }
  auto store = std::move(recovered_r).value();
  ds_ctx_t* ctx = store->ds_init();

  size_t verified = 0;
  std::string out(4096, 0);
  for (const auto& [name, seed] : acked) {
    auto r = store->oget(ctx, name, out.data(), out.size());
    if (!r.is_ok() || out[0] != seed || out[4095] != seed) {
      fprintf(stderr, "LOST OR CORRUPT: %s\n", name.c_str());
      return 1;
    }
    verified++;
  }
  printf("recovery verified: %zu/%zu acknowledged objects intact\n", verified, acked.size());
  if (!store->validate().is_ok()) {
    fprintf(stderr, "structural validation failed\n");
    return 1;
  }
  printf("structural invariants hold (btree/metadata/pool cross-check)\n");

  store->ds_finalize(ctx);
  printf("crash_recovery OK\n");
  return 0;
}
