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
#include <memory>
#include <string>
#include <vector>

#include "dstore/store_dir.h"

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

  printf("fsck: opening store (recovery is idempotent)...\n");
  DStoreConfig cfg;
  cfg.engine.background_checkpointing = false;
  auto opened = open_store_dir(dir.string(), cfg, /*create=*/false);
  if (!opened.is_ok()) {
    fprintf(stderr, "fsck: RECOVERY FAILED: %s\n", opened.status().to_string().c_str());
    return 1;
  }
  std::unique_ptr<DStore>& store = opened.value().store;

  int problems = 0;
  printf("fsck: structural cross-check (btree/zone/pools)...\n");
  Status v = store->validate();
  if (!v.is_ok()) {
    fprintf(stderr, "fsck: INVARIANT VIOLATION: %s\n", v.to_string().c_str());
    problems++;
  }

  uint64_t objects = store->object_count();
  auto usage = store->space_usage();
  printf("fsck: %llu objects; DRAM %.2f MB, PMEM %.2f MB, SSD %.2f MB\n",
         (unsigned long long)objects, usage.dram_bytes / 1e6, usage.pmem_bytes / 1e6,
         usage.ssd_bytes / 1e6);

  if (deep) {
    printf("fsck: deep scan — full checksum verification (meta CRCs, page\n");
    printf("fsck: sidecar, content CRCs)...\n");
    DStore::ScrubReport rep;
    Status sc = store->scrub_now(&rep);
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
    uint64_t quarantined = store->bad_pages().count();
    if (quarantined > 0) {
      fprintf(stderr, "fsck: %llu page(s) in the quarantine table\n",
              (unsigned long long)quarantined);
    }

    printf("fsck: deep scan — reading every object's data...\n");
    ds_ctx_t* ctx = store->ds_init();
    std::vector<std::string> names;
    store->list([&](std::string_view name, uint64_t) {
      names.emplace_back(name);
      return true;
    });
    std::string buf;
    uint64_t read_ok = 0;
    for (const std::string& name : names) {
      auto size = store->object_size(name);
      if (!size.is_ok()) {
        fprintf(stderr, "fsck: cannot stat %s\n", name.c_str());
        problems++;
        continue;
      }
      buf.assign(size.value(), 0);
      auto r = store->oget(ctx, name, buf.data(), buf.size());
      if (!r.is_ok() || r.value() != size.value()) {
        fprintf(stderr, "fsck: UNREADABLE OBJECT %s\n", name.c_str());
        problems++;
      } else {
        read_ok++;
      }
    }
    store->ds_finalize(ctx);
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
