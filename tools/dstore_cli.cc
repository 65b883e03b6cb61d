// dstore_cli — a small command-line front end over a persistent DStore.
//
// The control plane lives in a file-backed emulated-PMEM pool and the data
// plane in a file-backed block device, so the store survives across
// invocations: every command opens the store (recovering if it exists),
// performs its work, and exits. This is the "embedded storage sub-system"
// usage the paper targets (§4.1), driven interactively.
//
// Usage:
//   dstore_cli --dir DIR init [--objects N] [--blocks N]
//   dstore_cli --dir DIR put NAME VALUE          (VALUE=@file reads a file)
//   dstore_cli --dir DIR get NAME [@outfile]
//   dstore_cli --dir DIR del NAME
//   dstore_cli --dir DIR ls
//   dstore_cli --dir DIR stat
//   dstore_cli --dir DIR checkpoint
//   dstore_cli --dir DIR scrub
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "dstore/store_dir.h"

using namespace dstore;
using bench::kExitUsage;
using bench::parse_u64;
namespace fs = std::filesystem;

namespace {

// Opens the store in `dir` (formatting it with `sizing` on `create`); the
// directory layout and its manifest belong to open_store_dir.
int open_store(const fs::path& dir, bool create, const DStoreConfig& sizing, StoreDir* out) {
  DStoreConfig cfg = sizing;
  cfg.engine.background_checkpointing = false;  // short-lived process
  auto s = open_store_dir(dir.string(), cfg, create);
  if (!s.is_ok()) {
    if (s.status().code() == Code::kNotFound) {
      fprintf(stderr, "no store at %s (run `init` first)\n", dir.c_str());
    } else {
      fprintf(stderr, "store %s failed: %s\n", create ? "create" : "open",
              s.status().to_string().c_str());
    }
    return 1;
  }
  *out = std::move(s).value();
  return 0;
}

// On exit, fold the log into a checkpoint so the next invocation recovers
// from a compact state (optional but keeps recovery fast).
void close_store(StoreDir& s) {
  (void)s.store->checkpoint_now();
  s.store.reset();
}

std::string read_value_arg(const std::string& arg, bool* ok) {
  *ok = true;
  if (!arg.empty() && arg[0] == '@') {
    std::ifstream in(arg.substr(1), std::ios::binary);
    if (!in) {
      *ok = false;
      return {};
    }
    return std::string(std::istreambuf_iterator<char>(in), {});
  }
  return arg;
}

int usage() {
  fprintf(stderr,
          "usage: dstore_cli --dir DIR COMMAND ...\n"
          "  init [--objects N] [--blocks N]   format a new store\n"
          "  put NAME VALUE|@file              store an object\n"
          "  get NAME [@outfile]               fetch an object\n"
          "  del NAME                          delete an object\n"
          "  ls                                list objects\n"
          "  stat                              space usage & engine stats\n"
          "  checkpoint                        force a checkpoint\n"
          "  scrub                             one full integrity pass\n");
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  fs::path dir;
  std::vector<std::string> rest;
  for (size_t i = 0; i < args.size(); i++) {
    if (args[i] == "--dir" && i + 1 < args.size()) {
      dir = args[++i];
    } else {
      rest.push_back(args[i]);
    }
  }
  if (dir.empty() || rest.empty()) return usage();
  const std::string& cmd = rest[0];

  if (cmd == "init") {
    DStoreConfig sizing;
    sizing.max_objects = 1 << 14;
    sizing.num_blocks = 1 << 15;
    sizing.engine.log_slots = 8192;
    for (size_t i = 1; i < rest.size(); i += 2) {
      if (i + 1 == rest.size()) return usage();
      const char* v = rest[i + 1].c_str();
      if (rest[i] == "--objects") {
        sizing.max_objects = parse_u64("--objects", v);
      } else if (rest[i] == "--blocks") {
        sizing.num_blocks = parse_u64("--blocks", v);
      } else {
        return usage();
      }
    }
    StoreDir s;
    if (int rc = open_store(dir, /*create=*/true, sizing, &s)) return rc;
    printf("initialized store in %s (max %llu objects, %llu blocks)\n", dir.c_str(),
           (unsigned long long)sizing.max_objects, (unsigned long long)sizing.num_blocks);
    close_store(s);
    return 0;
  }

  StoreDir s;
  if (int rc = open_store(dir, /*create=*/false, DStoreConfig{}, &s)) return rc;
  ds_ctx_t* ctx = s.store->ds_init();
  int rc = 0;

  if (cmd == "put" && rest.size() >= 3) {
    bool ok;
    std::string value = read_value_arg(rest[2], &ok);
    if (!ok) {
      fprintf(stderr, "cannot read %s\n", rest[2].c_str());
      rc = 1;
    } else {
      Status st = s.store->oput(ctx, rest[1], value.data(), value.size());
      if (!st.is_ok()) {
        fprintf(stderr, "put failed: %s\n", st.to_string().c_str());
        rc = 1;
      } else {
        printf("put %s (%zu bytes)\n", rest[1].c_str(), value.size());
      }
    }
  } else if (cmd == "get" && rest.size() >= 2) {
    auto size = s.store->object_size(rest[1]);
    if (!size.is_ok()) {
      fprintf(stderr, "get failed: %s\n", size.status().to_string().c_str());
      rc = 1;
    } else {
      std::string buf(size.value(), 0);
      auto r = s.store->oget(ctx, rest[1], buf.data(), buf.size());
      if (!r.is_ok()) {
        fprintf(stderr, "get failed: %s\n", r.status().to_string().c_str());
        rc = 1;
      } else if (rest.size() >= 3 && rest[2][0] == '@') {
        std::ofstream out(rest[2].substr(1), std::ios::binary);
        out.write(buf.data(), (std::streamsize)buf.size());
        printf("wrote %zu bytes to %s\n", buf.size(), rest[2].c_str() + 1);
      } else {
        fwrite(buf.data(), 1, buf.size(), stdout);
        if (buf.empty() || buf.back() != '\n') printf("\n");
      }
    }
  } else if (cmd == "del" && rest.size() >= 2) {
    Status st = s.store->odelete(ctx, rest[1]);
    if (!st.is_ok()) {
      fprintf(stderr, "del failed: %s\n", st.to_string().c_str());
      rc = 1;
    } else {
      printf("deleted %s\n", rest[1].c_str());
    }
  } else if (cmd == "ls") {
    uint64_t count = 0;
    s.store->list([&](std::string_view name, uint64_t size) {
      printf("%10llu  %.*s\n", (unsigned long long)size, (int)name.size(), name.data());
      count++;
      return true;
    });
    printf("(%llu objects)\n", (unsigned long long)count);
  } else if (cmd == "stat") {
    auto u = s.store->space_usage();
    const auto& es = s.store->engine().stats();
    printf("objects:       %llu\n", (unsigned long long)s.store->object_count());
    printf("DRAM in use:   %.2f MB\n", u.dram_bytes / 1e6);
    printf("PMEM in use:   %.2f MB\n", u.pmem_bytes / 1e6);
    printf("SSD in use:    %.2f MB\n", u.ssd_bytes / 1e6);
    printf("log fill:      %.0f%%\n", s.store->engine().log_fill() * 100);
    printf("checkpoints:   %llu\n", (unsigned long long)es.checkpoints.load());
    printf("records ever:  %llu appended, %llu replayed\n",
           (unsigned long long)es.records_appended.load(),
           (unsigned long long)es.records_replayed.load());
  } else if (cmd == "checkpoint") {
    Status st = s.store->checkpoint_now();
    printf("checkpoint: %s\n", st.to_string().c_str());
    rc = st.is_ok() ? 0 : 1;
  } else if (cmd == "scrub") {
    // One full verification pass: metadata CRCs, the SSD page checksum
    // sidecar, and whole-object content CRCs; detected corruption runs the
    // repair/quarantine ladder just like a foreground read would.
    DStore::ScrubReport rep;
    Status st = s.store->scrub_now(&rep);
    printf("scrub: %llu objects scanned, %llu pages verified\n",
           (unsigned long long)rep.objects_scanned, (unsigned long long)rep.pages_verified);
    printf("scrub: %llu checksum failure(s), %llu repaired, %llu page(s) quarantined\n",
           (unsigned long long)rep.checksum_failures, (unsigned long long)rep.repaired,
           (unsigned long long)rep.quarantined_pages);
    for (const std::string& name : rep.corrupt_objects) {
      fprintf(stderr, "scrub: CORRUPT OBJECT %s (unrepairable)\n", name.c_str());
    }
    if (!st.is_ok()) {
      fprintf(stderr, "scrub: FAILED: %s\n", st.to_string().c_str());
      rc = 1;
    }
  } else {
    s.store->ds_finalize(ctx);
    return usage();
  }

  s.store->ds_finalize(ctx);
  close_store(s);
  return rc;
}
