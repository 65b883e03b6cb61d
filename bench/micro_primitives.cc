// Google-benchmark microbenchmarks for DStore's building blocks: log
// append/commit, btree ops, slab allocation, PMEM persistence primitives,
// circular-pool ops. These are not paper figures; they are the
// engineering-level numbers behind Table 3's sub-microsecond software path.
//
// `micro_primitives --persist-budget` switches to a different job: emit the
// measured per-op PMEM fence/flush budgets as JSON (the machine-readable
// twin of tests/persist_budget_test.cc). CI diffs the output against the
// committed bench/results/BENCH_persist_budget.json and fails on any fence
// regression, so an ordering-point creep can never merge silently.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc/slab_allocator.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "dipper/log.h"
#include "ds/btree.h"
#include "ds/circular_pool.h"
#include "dstore/store_rig.h"
#include "pmem/pool.h"
#include "ssd/block_device.h"
#include "ssd/io_retry.h"

using namespace dstore;

static void BM_PmemPersistLine(benchmark::State& state) {
  pmem::Pool pool(1 << 20, pmem::Pool::Mode::kDirect);
  char* p = pool.base();
  uint64_t v = 0;
  for (auto _ : state) {
    *reinterpret_cast<uint64_t*>(p) = v++;
    pool.persist(p, 8);
  }
}
BENCHMARK(BM_PmemPersistLine);

static void BM_PmemPersistBulk4K(benchmark::State& state) {
  pmem::Pool pool(1 << 20, pmem::Pool::Mode::kDirect);
  char* p = pool.base();
  for (auto _ : state) {
    pool.persist_bulk(p, 4096);
  }
  state.SetBytesProcessed((int64_t)state.iterations() * 4096);
}
BENCHMARK(BM_PmemPersistBulk4K);

// The integrity checksum at the sizes it runs on: 64 B log records and
// metadata entries (single-chain path), a 4 KB device page, a 16 KB value;
// 128 B to 1 KB bracket the fold threshold (crc32c_detail::kFoldMin). The
// context header names the kernel dispatch picked on this CPU.
static void BM_Crc32c(benchmark::State& state) {
  std::string buf((size_t)state.range(0), '\0');
  for (size_t i = 0; i < buf.size(); i++) buf[i] = (char)(i * 131 + 7);
  for (auto _ : state) {
    uint32_t c = crc32c(buf.data(), buf.size());
    benchmark::DoNotOptimize(c);
  }
  state.SetBytesProcessed((int64_t)state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(128)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

// A value's content CRC composed from its pages' verified, location-seeded
// CRCs (crc32c_compose_pages), the content tier of a whole-page get: 4
// pages is the 16 KB value BM_Crc32c/16384 hashes.
static void BM_Crc32cComposePages(benchmark::State& state) {
  const size_t n = (size_t)state.range(0);
  std::string buf(n * kCrc32cComposePage, '\0');
  for (size_t i = 0; i < buf.size(); i++) buf[i] = (char)(i * 131 + 7);
  const uint64_t first_page = 1234;
  std::vector<uint32_t> crcs(n);
  for (size_t i = 0; i < n; i++) {
    crcs[i] = crc32c(buf.data() + i * kCrc32cComposePage, kCrc32cComposePage, first_page + i);
  }
  if (crc32c_compose_pages(crcs.data(), n, [&](size_t i) { return first_page + i; }) !=
      crc32c(buf.data(), buf.size())) {
    state.SkipWithError("composed CRC differs from the one-shot CRC");
    return;
  }
  for (auto _ : state) {
    uint32_t c = crc32c_compose_pages(crcs.data(), n, [&](size_t i) { return first_page + i; });
    benchmark::DoNotOptimize(c);
  }
  state.SetBytesProcessed((int64_t)(state.iterations() * buf.size()));
}
BENCHMARK(BM_Crc32cComposePages)->Arg(4)->Arg(16);

static void BM_LogAppendCommit(benchmark::State& state) {
  pmem::Pool pool(dipper::PmemLog::region_bytes(1 << 16), pmem::Pool::Mode::kDirect);
  dipper::PmemLog log(&pool, 0, 1 << 16);
  log.format();
  Key k = Key::from("bench-object-name");
  uint32_t slot = 0;
  uint64_t lsn = 1;
  for (auto _ : state) {
    log.write_record(slot, lsn++, dipper::OpType::kPut, k, 4096, 0, false);
    log.commit(slot);
    slot = (slot + 1) & 0xffff;
    if (slot == 0) {
      state.PauseTiming();
      log.format();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_LogAppendCommit);

static void BM_BTreeInsert(benchmark::State& state) {
  size_t arena_size = 512 << 20;
  auto buf = std::make_unique<char[]>(arena_size);
  Arena arena(buf.get(), arena_size);
  SlabAllocator sp = SlabAllocator::format(arena);
  auto h = BTree::create(sp);
  BTree tree(sp, h.value());
  uint64_t i = 0;
  char name[32];
  for (auto _ : state) {
    snprintf(name, sizeof(name), "obj-%012llu", (unsigned long long)i++);
    benchmark::DoNotOptimize(tree.insert(Key::from(name), i));
  }
}
BENCHMARK(BM_BTreeInsert);

static void BM_BTreeFind(benchmark::State& state) {
  size_t arena_size = 64 << 20;
  auto buf = std::make_unique<char[]>(arena_size);
  Arena arena(buf.get(), arena_size);
  SlabAllocator sp = SlabAllocator::format(arena);
  auto h = BTree::create(sp);
  BTree tree(sp, h.value());
  const int n = 100000;
  char name[32];
  for (int i = 0; i < n; i++) {
    snprintf(name, sizeof(name), "obj-%012d", i);
    (void)tree.insert(Key::from(name), i);
  }
  Rng rng(1);
  for (auto _ : state) {
    snprintf(name, sizeof(name), "obj-%012llu", (unsigned long long)rng.next_below(n));
    benchmark::DoNotOptimize(tree.find(Key::from(name)));
  }
}
BENCHMARK(BM_BTreeFind);

static void BM_SlabAllocFree(benchmark::State& state) {
  size_t arena_size = 64 << 20;
  auto buf = std::make_unique<char[]>(arena_size);
  Arena arena(buf.get(), arena_size);
  SlabAllocator sp = SlabAllocator::format(arena);
  for (auto _ : state) {
    offset_t o = sp.alloc(256);
    benchmark::DoNotOptimize(o);
    benchmark::DoNotOptimize(sp.free(o));
  }
}
BENCHMARK(BM_SlabAllocFree);

static void BM_CircularPoolCycle(benchmark::State& state) {
  size_t arena_size = 16 << 20;
  auto buf = std::make_unique<char[]>(arena_size);
  Arena arena(buf.get(), arena_size);
  SlabAllocator sp = SlabAllocator::format(arena);
  auto h = CircularPool::create(sp, 1 << 16);
  CircularPool pool(sp, h.value());
  for (auto _ : state) {
    auto id = pool.alloc();
    benchmark::DoNotOptimize(id);
    (void)pool.free(*id);
  }
}
BENCHMARK(BM_CircularPoolCycle);

static void BM_ArenaClone(benchmark::State& state) {
  size_t arena_size = (size_t)state.range(0) << 20;
  auto buf = std::make_unique<char[]>(arena_size);
  auto dst_buf = std::make_unique<char[]>(arena_size);
  Arena arena(buf.get(), arena_size);
  Arena dst(dst_buf.get(), arena_size);
  SlabAllocator sp = SlabAllocator::format(arena);
  // Fill half the arena.
  while (sp.used_bytes() < arena_size / 2) {
    if (sp.alloc(4096) == 0) break;
  }
  for (auto _ : state) {
    auto c = sp.clone_into(dst);
    benchmark::DoNotOptimize(c);
  }
  state.SetBytesProcessed((int64_t)state.iterations() * (int64_t)sp.used_bytes());
}
BENCHMARK(BM_ArenaClone)->Arg(16)->Arg(64);

// The retry wrapper on the data-plane hot path: the historical
// std::function-based version heap-allocates the capturing closure on
// every 4 KB IO; the templated ssd::retry_transient keeps it on the stack.
// Run both against the same zero-latency device write to see the delta.

static void BM_RetryIoStdFunction(benchmark::State& state) {
  ssd::DeviceConfig cfg;
  cfg.num_blocks = 16;
  ssd::RamBlockDevice dev(cfg);
  char buf[4096] = {};
  auto retry_fn = [&](const std::function<Status()>& io) {
    Status s = io();
    for (int attempt = 0; !s.is_ok() && ssd::is_transient(s) && attempt < 3; attempt++) {
      s = io();
    }
    return s;
  };
  for (auto _ : state) {
    Status s = retry_fn([&] { return dev.write(0, 0, buf, sizeof(buf)); });
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_RetryIoStdFunction);

static void BM_RetryIoTemplate(benchmark::State& state) {
  ssd::DeviceConfig cfg;
  cfg.num_blocks = 16;
  ssd::RamBlockDevice dev(cfg);
  char buf[4096] = {};
  ssd::RetryPolicy policy;
  policy.backoff_ns = 0;
  for (auto _ : state) {
    Status s = ssd::retry_transient([&] { return dev.write(0, 0, buf, sizeof(buf)); }, policy);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_RetryIoTemplate);

// ---- --persist-budget: measured per-op fence/flush budgets as JSON -------

namespace {

struct OpBudget {
  uint64_t flushed_lines = 0;
  uint64_t fences = 0;
};

// A minimal single-threaded store on a kDirect StoreRig with foreground
// checkpoints: the same sizing as persist_budget_test's budget_cfg.
StoreRig budget_store() {
  DStoreConfig cfg;
  cfg.max_objects = 256;
  cfg.num_blocks = 1024;
  cfg.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(256);
  cfg.engine.log_slots = 128;
  cfg.engine.background_checkpointing = false;
  StoreRig rig(cfg, pmem::Pool::Mode::kDirect);
  if (!rig.status().is_ok()) {
    fprintf(stderr, "persist-budget: store creation failed: %s\n",
            rig.status().to_string().c_str());
    exit(2);
  }
  return rig;
}

template <typename Fn>
OpBudget measure(StoreRig& rig, Fn&& fn) {
  pmem::Pool::ThreadIoCounts before = rig.pool->thread_io_counts();
  fn();
  pmem::Pool::ThreadIoCounts after = rig.pool->thread_io_counts();
  return {after.flushes - before.flushes, after.fences - before.fences};
}

int run_persist_budget() {
  std::string v(4096, 'p');
  StoreRig rig = budget_store();
  OpBudget put = measure(rig, [&] {
    (void)rig.store->oput(rig.ctx, "obj", v.data(), v.size());  // lint: allow-discard measured op; budgets are the output
  });
  std::string out(4096, 0);
  OpBudget get = measure(rig, [&] {
    (void)rig.store->oget(rig.ctx, "obj", out.data(), out.size());  // lint: allow-discard measured op
  });
  OpBudget del = measure(rig, [&] {
    (void)rig.store->odelete(rig.ctx, "obj");  // lint: allow-discard measured op
  });
  for (int i = 0; i < 8; i++) {
    std::string name = "obj" + std::to_string(i);
    (void)rig.store->oput(rig.ctx, name, v.data(), v.size());  // lint: allow-discard warmup
  }
  OpBudget ckpt = measure(rig, [&] {
    (void)rig.store->checkpoint_now();  // lint: allow-discard measured op
  });

  auto row = [](const char* name, const OpBudget& b, const char* trailing) {
    printf("    \"%s\": {\"flushed_lines\": %llu, \"fences\": %llu}%s\n", name,
           (unsigned long long)b.flushed_lines, (unsigned long long)b.fences, trailing);
  };
  printf("{\n");
  printf("  \"bench\": \"persist_budget\",\n");
  printf("  \"unit\": \"per 4KB op, single thread\",\n");
  printf("  \"budgets\": {\n");
  row("put", put, ",");
  row("get", get, ",");
  row("delete", del, ",");
  row("checkpoint", ckpt, "");
  printf("  }\n");
  printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--persist-budget") == 0) return run_persist_budget();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::AddCustomContext("crc32c_kernel", crc32c_detail::kernel_name());
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
