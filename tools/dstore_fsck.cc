// dstore_fsck — offline consistency checker for a persistent DStore
// directory (as created by dstore_cli or a C API "dir:" session).
//
// Opens the store read-only-in-spirit (it runs recovery, which is
// idempotent and only completes work that a crash interrupted), then
// cross-checks every invariant the engine maintains:
//
//   * root object magic + configuration fingerprint;
//   * btree structure (ordering, fill factors, uniform depth);
//   * btree <-> metadata-zone agreement (names, liveness, block counts);
//   * block/metadata pool accounting (free + in-use == capacity);
//   * with --deep, full checksum verification (DESIGN.md §11): metadata
//     entry CRCs, the per-page SSD checksum sidecar over every object's
//     used bytes, whole-object content CRCs, and per-object data-plane
//     readability — a hex-edited image is flagged here.
//
// Exit code 0 = clean; 1 = open/recovery failed; 2 = invariant violations;
// 64 = usage error (EX_USAGE, so scripts can tell "bad invocation" from
// "bad store").
//
//   dstore_fsck --dir DIR [--deep]
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "dstore/dstore.h"

using namespace dstore;
namespace fs = std::filesystem;

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  fs::path dir;
  bool deep = false;
  for (size_t i = 0; i < args.size(); i++) {
    if (args[i] == "--dir" && i + 1 < args.size()) {
      dir = args[++i];
    } else if (args[i] == "--deep") {
      deep = true;
    }
  }
  if (dir.empty()) {
    fprintf(stderr, "usage: dstore_fsck --dir DIR [--deep]\n");
    return 64;  // EX_USAGE
  }

  // Manifest (written by dstore_cli).
  uint64_t max_objects = 0, num_blocks = 0;
  uint32_t log_slots = 0;
  {
    std::ifstream in(dir / "manifest");
    if (!(in >> max_objects >> num_blocks >> log_slots)) {
      fprintf(stderr, "fsck: cannot read %s/manifest\n", dir.c_str());
      return 1;
    }
  }
  DStoreConfig cfg;
  cfg.max_objects = max_objects;
  cfg.num_blocks = num_blocks;
  cfg.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(max_objects);
  cfg.engine.log_slots = log_slots;
  cfg.engine.background_checkpointing = false;

  auto pool = pmem::Pool::open_file((dir / "pmem.img").string(),
                                    DStoreConfig::required_pool_bytes(cfg),
                                    LatencyModel::none(), false);
  if (!pool.is_ok()) {
    fprintf(stderr, "fsck: pmem image: %s\n", pool.status().to_string().c_str());
    return 1;
  }
  ssd::DeviceConfig dc;
  dc.num_blocks = num_blocks;
  auto dev = ssd::FileBlockDevice::open((dir / "data.img").string(), dc, false);
  if (!dev.is_ok()) {
    fprintf(stderr, "fsck: data image: %s\n", dev.status().to_string().c_str());
    return 1;
  }
  printf("fsck: opening store (recovery is idempotent)...\n");
  auto store = DStore::recover(pool.value().get(), dev.value().get(), cfg);
  if (!store.is_ok()) {
    fprintf(stderr, "fsck: RECOVERY FAILED: %s\n", store.status().to_string().c_str());
    return 1;
  }

  int problems = 0;
  printf("fsck: structural cross-check (btree/zone/pools)...\n");
  Status v = store.value()->validate();
  if (!v.is_ok()) {
    fprintf(stderr, "fsck: INVARIANT VIOLATION: %s\n", v.to_string().c_str());
    problems++;
  }

  uint64_t objects = store.value()->object_count();
  auto usage = store.value()->space_usage();
  printf("fsck: %llu objects; DRAM %.2f MB, PMEM %.2f MB, SSD %.2f MB\n",
         (unsigned long long)objects, usage.dram_bytes / 1e6, usage.pmem_bytes / 1e6,
         usage.ssd_bytes / 1e6);

  if (deep) {
    printf("fsck: deep scan — full checksum verification (meta CRCs, page\n");
    printf("fsck: sidecar, content CRCs)...\n");
    DStore::ScrubReport rep;
    Status sc = store.value()->scrub_now(&rep);
    printf("fsck: scrubbed %llu objects, %llu pages verified, %llu checksum "
           "failure(s), %llu repaired, %llu page(s) quarantined\n",
           (unsigned long long)rep.objects_scanned, (unsigned long long)rep.pages_verified,
           (unsigned long long)rep.checksum_failures, (unsigned long long)rep.repaired,
           (unsigned long long)rep.quarantined_pages);
    for (const std::string& name : rep.corrupt_objects) {
      fprintf(stderr, "fsck: CORRUPT OBJECT %s\n", name.c_str());
      problems++;
    }
    if (!sc.is_ok() && rep.corrupt_objects.empty()) {
      fprintf(stderr, "fsck: SCRUB FAILED: %s\n", sc.to_string().c_str());
      problems++;
    }
    uint64_t quarantined = store.value()->bad_pages().count();
    if (quarantined > 0) {
      fprintf(stderr, "fsck: %llu page(s) in the quarantine table\n",
              (unsigned long long)quarantined);
    }

    printf("fsck: deep scan — reading every object's data...\n");
    ds_ctx_t* ctx = store.value()->ds_init();
    std::vector<std::string> names;
    store.value()->list([&](std::string_view name, uint64_t) {
      names.emplace_back(name);
      return true;
    });
    std::string buf;
    uint64_t read_ok = 0;
    for (const std::string& name : names) {
      auto size = store.value()->object_size(name);
      if (!size.is_ok()) {
        fprintf(stderr, "fsck: cannot stat %s\n", name.c_str());
        problems++;
        continue;
      }
      buf.assign(size.value(), 0);
      auto r = store.value()->oget(ctx, name, buf.data(), buf.size());
      if (!r.is_ok() || r.value() != size.value()) {
        fprintf(stderr, "fsck: UNREADABLE OBJECT %s\n", name.c_str());
        problems++;
      } else {
        read_ok++;
      }
    }
    store.value()->ds_finalize(ctx);
    printf("fsck: deep scan read %llu/%zu objects\n", (unsigned long long)read_ok,
           names.size());
  }

  if (problems == 0) {
    printf("fsck: CLEAN\n");
    return 0;
  }
  fprintf(stderr, "fsck: %d problem(s) found\n", problems);
  return 2;
}
