// pmemlint: run a DIPPER workload under PmemCheck and pretty-print every
// persistence-order violation (DESIGN.md §PmemCheck).
//
// Scenarios drive the real engine/log code paths against a kCrashSim pool
// with a PersistChecker attached:
//
//   engine  — puts/deletes/locks + checkpoints + crash recovery (default)
//   log     — raw PmemLog record writes, single- and multi-line
//   all     — both
//
// `--break=<class>` deliberately violates one protocol rule so a defect
// class can be demonstrated end-to-end:
//
//   missing-flush     redundant-flush     store-after-flush     unpersisted-read
//
// Exit status: 0 if no hard violations (redundant flushes are reported but
// soft), 1 otherwise — so the tool slots into CI after any workload.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "common/rng.h"
#include "dipper/engine.h"
#include "ds/btree.h"
#include "pmem/persist_checker.h"
#include "pmem/pool.h"

namespace {

using namespace dstore;          // NOLINT(google-build-using-namespace): small CLI tool
using namespace dstore::dipper;  // NOLINT(google-build-using-namespace)

struct Options {
  std::string scenario = "engine";
  std::string break_rule = "none";
  uint64_t ops = 2000;
  uint64_t seed = 42;
};

class KvClient : public SpaceClient {
 public:
  Status format(SlabAllocator& space) override {
    auto h = BTree::create(space);
    if (!h.is_ok()) return h.status();
    space.set_user_root(h.value().off);
    return Status::ok();
  }
  Status replay(SlabAllocator& space, std::span<const LogRecordView> records) override {
    BTree tree(space, OffPtr<BTree::Header>(space.user_root()));
    for (const auto& rec : records) {
      if (rec.op == OpType::kPut) {
        DSTORE_RETURN_IF_ERROR(tree.upsert(rec.name, rec.arg0));
      } else if (rec.op == OpType::kDelete) {
        Status s = tree.erase(rec.name);
        if (!s.is_ok() && s.code() != Code::kNotFound) return s;
      }
    }
    return Status::ok();
  }
};

int run_engine_scenario(pmem::Pool& pool, const Options& opt) {
  KvClient client;
  EngineConfig cfg;
  cfg.arena_bytes = 8 << 20;
  cfg.log_slots = 512;
  cfg.background_checkpointing = false;
  if (pool.size() < Engine::required_pool_bytes(cfg)) {
    std::cerr << "pool too small for engine scenario\n";
    return 2;
  }
  auto engine = std::make_unique<Engine>(&pool, &client, cfg);
  if (!engine->init_fresh().is_ok()) return 2;
  Rng rng(opt.seed);
  for (uint64_t i = 0; i < opt.ops; i++) {
    std::string name = (i % 5 == 0 ? std::string(48, 'x') : "obj") + std::to_string(rng.next_below(200));
    Key k = Key::from(name);
    bool del = rng.next_below(10) == 0;
    auto h = engine->append(del ? OpType::kDelete : OpType::kPut, k, i, 0);
    if (!h.is_ok()) {
      if (!engine->checkpoint_now().is_ok()) return 2;
      h = engine->append(del ? OpType::kDelete : OpType::kPut, k, i, 0);
      if (!h.is_ok()) return 2;
    }
    BTree tree(engine->space(), OffPtr<BTree::Header>(engine->space().user_root()));
    if (del) {
      (void)tree.erase(k);
    } else if (!tree.upsert(k, i).is_ok()) {
      return 2;
    }
    engine->commit(h.value());
    if (i % 400 == 399 && !engine->checkpoint_now().is_ok()) return 2;
  }
  // Crash + recover, the paths defect class 4 watches.
  engine->stop_background();
  pool.crash();
  engine = std::make_unique<Engine>(&pool, &client, cfg);
  if (!engine->recover().is_ok()) return 2;
  engine->stop_background();
  return 0;
}

int run_log_scenario(pmem::Pool& pool, const Options& opt) {
  PmemLog log(&pool, 0, 256);
  log.format();
  Rng rng(opt.seed);
  for (uint32_t s = 0; s < 256; s++) {
    size_t len = 1 + rng.next_below(60);  // spans the 1-line/2-line boundary
    std::string name(len, 'a' + (char)(s % 26));
    log.write_record(s, s + 1, OpType::kPut, Key::from(name), s, 0, false);
    if (s % 3 != 0) log.commit(s);
  }
  LogRecordView rec;
  for (uint32_t s = 0; s < 256; s++) (void)log.read(s, &rec);
  return 0;
}

// Deliberate protocol breaks, driving pool primitives the way a buggy
// subsystem would.
int run_break(pmem::Pool& pool, const std::string& rule) {
  char* p = pool.base();
  if (rule == "missing-flush") {
    std::memset(p, 0xec, 192);
    pool.persist(p + 128, 64);  // first two lines never flushed
    pool.check_durable(p, 192, "pmemlint:break");
  } else if (rule == "redundant-flush") {
    std::memset(p, 0xed, 64);
    pool.persist(p, 64);
    pool.persist(p, 64);
  } else if (rule == "store-after-flush") {
    std::memset(p, 0xee, 64);
    pool.flush(p, 64);
    p[1] ^= 0x1;  // store inside the staged window
    pool.fence();
  } else if (rule == "unpersisted-read") {
    std::memset(p, 0xef, 64);  // never flushed
    pool.check_recovery_read(p, 64, "pmemlint:break");
  } else {
    std::cerr << "unknown --break rule: " << rule << "\n";
    return 2;
  }
  return 0;
}

void usage() {
  std::cout <<
      "usage: pmemlint [--scenario=engine|log|all] [--ops=N] [--seed=N]\n"
      "                [--break=missing-flush|redundant-flush|store-after-flush|unpersisted-read]\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto val = [&arg](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = val("--scenario=")) {
      opt.scenario = v;
    } else if (const char* v = val("--ops=")) {
      opt.ops = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--seed=")) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--break=")) {
      opt.break_rule = v;
    } else {
      usage();
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }

  pmem::PersistChecker checker;
  int rc = 0;
  {
    pmem::Pool pool(64ull << 20, pmem::Pool::Mode::kCrashSim);
    pool.attach_checker(&checker);
    if (opt.break_rule != "none") {
      rc = run_break(pool, opt.break_rule);
    } else if (opt.scenario == "engine") {
      rc = run_engine_scenario(pool, opt);
    } else if (opt.scenario == "log") {
      rc = run_log_scenario(pool, opt);
    } else if (opt.scenario == "all") {
      rc = run_log_scenario(pool, opt);
      if (rc == 0) {
        pmem::Pool pool2(64ull << 20, pmem::Pool::Mode::kCrashSim);
        pool2.attach_checker(&checker);
        rc = run_engine_scenario(pool2, opt);
        pool2.detach_checker();
      }
    } else {
      usage();
      return 2;
    }
    pool.detach_checker();
  }
  if (rc != 0) {
    std::cerr << "scenario failed to run (rc=" << rc << ")\n";
    return rc;
  }
  checker.report().print(std::cout);
  if (checker.report().hard_count() != 0) return 1;
  std::cout << "pmemlint: OK"
            << (checker.report().count(dstore::CheckKind::kRedundantFlush) != 0
                    ? " (with redundant flushes)"
                    : "")
            << "\n";
  return 0;
}
