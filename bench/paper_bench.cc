// paper_bench — the paper's evaluation (§5) from one table of experiments:
// every figure and table, DStore's design-parameter ablation, and the
// partitioned engine's shard-scaling curve.
//
//   paper_bench --exp <id>[,<id>...]|all [--reps N]
//
// Each experiment prints the paper's rows/series and writes
// BENCH_<id>.json in the schema of bench_common.h. --reps runs every cell N
// times in place of each experiment's own count (recorded as the report's
// provenance.reps). An unknown id prints the id list and exits 64. Knobs
// are bench_common.h's, with these per-experiment differences:
//   table3         DSTORE_BENCH_OPS defaults to 5000 (single-thread puts),
//                  3 reps per cell
//   table4         DSTORE_BENCH_RECOVERY_OBJECTS keyspace (default OBJECTS)
//   ablation       OBJECTS capped at 10000, OPS at 5000
//   shard_scaling  THREADS/OBJECTS/OPS default to 8/2000/400;
//                  DSTORE_BENCH_MAX_SHARDS sweep ceiling (default 8),
//                  DSTORE_BENCH_RECOVERY_OBJECTS recovery keyspace (default 4000)
//
// The emulated devices inject latencies calibrated to the paper's testbed
// (LatencyModel::calibrated), so who wins, by roughly what factor and where
// crossovers fall are comparable to the paper; absolute numbers are not.
#include <algorithm>
#include <climits>
#include <string_view>

#include "baselines/dstore_adapter.h"
#include "baselines/sharded_adapter.h"
#include "bench_common.h"
#include "common/clock.h"
#include "dstore/dstore.h"
#include "fsmeta/fsmeta.h"

namespace dstore::bench {
namespace {

using workload::KVStore;
using workload::WorkloadSpec;

// One measured op class of one cell: named values, in print order.
struct Sample {
  std::string op;
  std::vector<std::pair<std::string, double>> v;
  double operator[](std::string_view key) const {
    for (const auto& [k, x] : v) {
      if (k == key) return x;
    }
    return 0;
  }
};
using Samples = std::vector<Sample>;

const Sample& op_of(const Samples& s, std::string_view op) {
  for (const Sample& x : s) {
    if (x.op == op) return x;
  }
  return s.front();
}

// A column of an experiment grid: a workload mix, plus a switch whose
// meaning is the experiment's (Fig 1: checkpoints off; Table 4: crash just
// before a checkpoint completes).
struct Case {
  const char* label;
  double read_fraction = 0.5;
  bool alt = false;
  const char* skip = nullptr;  // the one system this case does not apply to
};

struct Exp;

struct Ctx {
  Ctx(const Exp& e, int reps_override);
  const Exp& exp;
  int reps;  // runs per cell: --reps, else the experiment's own
  BenchParams p;
  Report report;
  Samples prev;             // the previous cell's medians (Fig 9's step deltas)
  uint64_t failed_ops = 0;  // across every run; nonzero fails the experiment
};

using CellFn = bool (*)(Ctx&, const char* sys, const Case&, uint64_t seed, Samples*);

// A numeric column of a grid's printed table: value `key` of the sample for
// `op` (null: the op of the printed line).
struct Col {
  const char* head;
  const char* op;
  const char* key;
  int width;
  int prec = 1;
};

// One experiment. A grid runs every system × case cell `reps` times (seeds
// 1..reps; --reps overrides the count), records each sample as a report row
// and prints the medians as one table line per cell (per op with
// `line_ops`): the label column, an optional text column (the op, else the
// case), then `cols`. An experiment with `run` set is a bespoke sweep
// instead.
struct Exp {
  const char* id;
  const char* title;  // printed with the parameters; null: `run` prints its own
  int reps = 1;
  std::vector<const char*> systems = {};
  std::vector<const char*> labels = {};  // printed in place of the systems
  std::vector<Case> cases = {{"-"}};
  const char* case_key = nullptr;  // report field naming the case; null: omitted
  bool by_case = false;            // cases outer, one table per case
  CellFn cell = nullptr;
  const char* label_head = "system";
  int label_width = 14;
  int text_width = 0;  // 0: no text column
  std::vector<const char*> line_ops = {};
  std::vector<Col> cols = {};
  void (*banner)(Ctx&, const Case&) = nullptr;  // lines above the column heads
  void (*suffix)(Ctx&, const Samples&) = nullptr;  // appended to a cell's line
  void (*print)(Ctx&, const char* sys, const Samples&) = nullptr;  // replaces the table
  const char* footer = "";
  int (*run)(Ctx&) = nullptr;
  BenchParams (*params)() = [] { return BenchParams(); };
};

Ctx::Ctx(const Exp& e, int reps_override)
    : exp(e),
      reps(reps_override > 0 ? reps_override : e.reps),
      p(e.params()),
      report(e.id, p.scale, reps) {}

WorkloadSpec spec_for(const BenchParams& p, double read_fraction, uint64_t seed = 1) {
  WorkloadSpec s;
  s.num_objects = p.objects;
  s.value_size = 4096;
  s.read_fraction = read_fraction;
  s.threads = p.threads;
  s.ops_per_thread = p.ops_per_thread;
  s.seed = seed;
  return s;
}

// make -> load -> prepare_run, the start of every YCSB-driven cell.
// Reports a failure and returns nullptr.
std::unique_ptr<KVStore> load_system(const char* sys, const BenchParams& p,
                                     const WorkloadSpec& spec, bool ckpt_on = true,
                                     bool prepare = true) {
  const baselines::BackendParams bp{
      .objects = spec.num_objects, .ssd_qd = p.ssd_qd, .latency = p.latency()};
  std::unique_ptr<KVStore> store;
  auto variant = baselines::dstore_variant_config(sys, bp);
  if (!ckpt_on && variant) {
    // No checkpoint may run, and a full log fails puts busy: the log must
    // hold the load's records and then the run's (one per op at most;
    // prepare_run's checkpoint empties it in between).
    uint64_t records = std::max<uint64_t>(spec.num_objects,
                                           (uint64_t)spec.threads * spec.ops_per_thread);
    uint32_t& slots = variant->store.engine.log_slots;
    slots = (uint32_t)std::max<uint64_t>(slots, records);
    auto r = baselines::DStoreAdapter::make(*variant, bp.latency);
    if (r.is_ok()) store = std::move(r).value();
  } else {
    store = baselines::make_backend(sys, bp);
  }
  if (!store) {
    fprintf(stderr, "cannot build %s\n", sys);
    return nullptr;
  }
  if (!ckpt_on) store->set_checkpoints_enabled(false);
  Status s = workload::load_objects(*store, spec);
  if (!s.is_ok()) {
    fprintf(stderr, "load failed for %s: %s\n", sys, s.to_string().c_str());
    return nullptr;
  }
  if (prepare) store->prepare_run();
  return store;
}

// Stage the worst failure point before crash_and_recover (Table 4's crash
// case, Table 5's recovery SLO): `burst` updates in flight, then for DStore
// a checkpoint that dies just before it completes, so recovery redoes the
// whole checkpoint and replays the active log. For the other systems the
// worst case is a full journal/WAL: no checkpoint may trigger meanwhile.
// Returns how many of the burst's puts the full log or journal turned away
// (DStore: busy, its checkpointing stopped; the baselines: out of space).
uint64_t stage_crash(KVStore& store, uint64_t objects, uint64_t burst) {
  auto* d = dynamic_cast<baselines::DStoreAdapter*>(&store);
  if (d != nullptr) {
    d->store().engine().stop_background();
  } else {
    store.set_checkpoints_enabled(false);
  }
  void* ctx = store.open_ctx();
  std::string v(4096, 'c');
  uint64_t rejected = 0;
  for (uint64_t i = 0; i < burst; i++) {
    if (!store.put(ctx, workload::ycsb_key(i % objects), v.data(), v.size()).is_ok()) rejected++;
  }
  store.close_ctx(ctx);
  if (d != nullptr) {
    (void)d->store().engine().checkpoint_abandon_at("ckpt:after_replay");
  } else {
    store.set_checkpoints_enabled(true);
  }
  return rejected;
}

// Counts a run's failed ops toward the experiment's exit status (the rows
// record them as failed_ops).
void count_failed(Ctx& c, const char* what, uint64_t failed) {
  if (failed == 0) return;
  fprintf(stderr, "%s: %s: %llu failed ops\n", c.exp.id, what, (unsigned long long)failed);
  c.failed_ops += failed;
}

Sample latency(const char* op, const obs::MetricSnapshot& h, const workload::RunResult& r) {
  return {op, {{"mean_us", h.mean() / 1e3}, {"p50_us", quantile_us(h, 0.50)},
               {"p99_us", quantile_us(h, 0.99)}, {"p999_us", quantile_us(h, 0.999)},
               {"p9999_us", quantile_us(h, 0.9999)}, {"max_us", (double)h.max / 1e3},
               {"throughput_iops", r.throughput_iops()}, {"failed_ops", (double)r.failed_ops}}};
}

// ---- grid cells -----------------------------------------------------------

bool ycsb_cell(Ctx& c, const char* sys, const Case& k, uint64_t seed, Samples* out) {
  WorkloadSpec spec = spec_for(c.p, k.read_fraction, seed);
  auto store = load_system(sys, c.p, spec, /*ckpt_on=*/!k.alt);
  if (!store) return false;
  auto* d = dynamic_cast<baselines::DStoreAdapter*>(store.get());
  auto checkpoints = [d] { return d->store().engine().stats().checkpoints.load(); };
  const uint64_t ckpts0 = d != nullptr ? checkpoints() : 0;
  auto r = workload::run_workload(*store, spec);
  const uint64_t ran = d != nullptr ? checkpoints() - ckpts0 : 0;
  if (k.alt && ran > 0) {
    fprintf(stderr, "%s: %llu checkpoints ran with checkpoints off\n", sys,
            (unsigned long long)ran);
    return false;
  }
  count_failed(c, sys, r.failed_ops);
  *out = {latency("read", r.read_latency, r), latency("update", r.update_latency, r)};
  return true;
}

bool window_cell(Ctx& c, const char* sys, const Case&, uint64_t, Samples* out) {
  const uint64_t bin_ms = 500;
  const uint64_t window_ms = c.p.window_s * 1000;
  const size_t bins = window_ms / bin_ms;
  // Declared before the store, which writes into them until it is gone.
  TimeSeries thr(bins, bin_ms * 1000000ull);
  TimeSeries ssd_bw(bins, bin_ms * 1000000ull);
  TimeSeries pmem_bw(bins, bin_ms * 1000000ull);
  WorkloadSpec spec = spec_for(c.p, 0.5);
  spec.duration_ms = window_ms;
  auto store = load_system(sys, c.p, spec);
  if (!store) return false;
  store->attach_bandwidth_series(&ssd_bw, &pmem_bw);
  for (TimeSeries* ts : {&thr, &ssd_bw, &pmem_bw}) ts->restart();
  auto r = workload::run_workload(*store, spec, &thr);
  count_failed(c, sys, r.failed_ops);
  *out = {latency("read", r.read_latency, r), latency("update", r.update_latency, r),
          {"window", {{"min_kops", thr.min_rate(1, 2) / 1e3}, {"max_kops", thr.max_rate() / 1e3}}}};
  for (size_t i = 0; i + 1 < bins; i++) {  // the last bin may be partial
    out->push_back({"bin", {{"t_ms", (double)(i * bin_ms)}, {"kops", thr.rate_per_sec(i) / 1e3},
                            {"ssd_mbps", ssd_bw.rate_per_sec(i) / 1e6},
                            {"pmem_mbps", pmem_bw.rate_per_sec(i) / 1e6}}});
  }
  return true;
}

double data_mb(const BenchParams& p) { return (double)(p.objects * 4096) / 1e6; }

bool footprint_cell(Ctx& c, const char* sys, const Case&, uint64_t, Samples* out) {
  WorkloadSpec spec = spec_for(c.p, 0.5);
  auto store = load_system(sys, c.p, spec);
  if (!store) return false;
  // A brief churn phase so logs/journals hold a realistic steady state.
  spec.ops_per_thread = 1000;
  (void)workload::run_workload(*store, spec);
  auto u = store->space_usage();
  double total_mb = (double)u.total() / 1e6;
  *out = {{"space", {{"dram_mb", u.dram_bytes / 1e6}, {"pmem_mb", u.pmem_bytes / 1e6},
                     {"ssd_mb", u.ssd_bytes / 1e6}, {"total_mb", total_mb},
                     {"amplification", total_mb / data_mb(c.p)}}}};
  return true;
}

bool recovery_cell(Ctx& c, const char* sys, const Case& k, uint64_t, Samples* out) {
  WorkloadSpec spec = spec_for(c.p, 0.5);
  auto store = load_system(sys, c.p, spec, true, /*prepare=*/false);
  if (!store) return false;
  const uint64_t rejected =
      k.alt ? stage_crash(*store, spec.num_objects, std::min<uint64_t>(spec.num_objects, 8000))
            : 0;
  auto t = store->crash_and_recover();
  if (!t.is_ok()) {
    fprintf(stderr, "recover failed for %s: %s\n", sys, t.status().to_string().c_str());
    return false;
  }
  *out = {{"recovery", {{"metadata_ms", t.value().metadata_ms},
                        {"replay_ms", t.value().replay_ms},
                        {"total_ms", t.value().total_ms()},
                        {"staged_rejected_puts", (double)rejected}}}};
  return true;
}

bool slo_cell(Ctx& c, const char* sys, const Case&, uint64_t, Samples* out) {
  // Throughput SLO: the worst 500 ms window of a timed run.
  const uint64_t window_ms = std::max<uint64_t>(c.p.window_s * 1000 / 2, 4000);
  TimeSeries thr(window_ms / 500, 500 * 1000000ull);
  WorkloadSpec spec = spec_for(c.p, 0.5);
  auto store = load_system(sys, c.p, spec);
  if (!store) return false;
  WorkloadSpec timed = spec;
  timed.duration_ms = window_ms;
  thr.restart();
  auto r = workload::run_workload(*store, timed, &thr);
  count_failed(c, sys, r.failed_ops);
  double p9999 =
      std::max(quantile_us(r.update_latency, 0.9999), quantile_us(r.read_latency, 0.9999));
  store->prepare_run();  // settle compaction/checkpoints before measuring
  auto u = store->space_usage();
  // Worst-case recovery: Table 4's crash case.
  const uint64_t rejected = stage_crash(*store, spec.num_objects, 4000);
  auto t = store->crash_and_recover();
  *out = {{"slo", {{"throughput_slo_ops", thr.min_rate(1, 2)}, {"p9999_us", p9999},
                   {"recovery_ms", t.is_ok() ? t.value().total_ms() : -1},
                   {"space_amplification", (double)u.total() / (double)(c.p.objects * 4096)},
                   {"failed_ops", (double)r.failed_ops},
                   {"staged_rejected_puts", (double)rejected}}}};
  return true;
}

// ---- grid printing hooks -------------------------------------------------

void fig7_print(Ctx&, const char* sys, const Samples& s) {
  printf("\n== %s  (total %.0f ops/s) ==\n", sys, op_of(s, "read")["throughput_iops"]);
  printf("%-8s %12s %14s %14s\n", "t(ms)", "kops/s", "SSD MB/s", "PMEM MB/s");
  for (const Sample& b : s) {
    if (b.op != "bin") continue;
    printf("%-8llu %12.1f %14.1f %14.1f\n", (unsigned long long)b["t_ms"], b["kops"],
           b["ssd_mbps"], b["pmem_mbps"]);
  }
  const Sample& w = op_of(s, "window");
  printf("min throughput %.1f kops/s, max %.1f kops/s\n", w["min_kops"], w["max_kops"]);
}

void fig8_banner(Ctx&, const Case& k) {
  printf("\n== YCSB %s (%.0fR/%.0fW) ==\n", k.label, 100 * k.read_fraction,
         100 * (1 - k.read_fraction));
}

// Each step's change against the previous one.
void fig9_suffix(Ctx& c, const Samples& s) {
  if (c.prev.empty()) return;
  const Sample& u = op_of(s, "update");
  const Sample& was = op_of(c.prev, "update");
  printf("   (avg %+.0f%%, p999 %+.0f%%)", 100 * (u["mean_us"] - was["mean_us"]) / was["mean_us"],
         100 * (u["p999_us"] - was["p999_us"]) / was["p999_us"]);
}

void fig10_banner(Ctx& c, const Case&) { printf("(application data: %.1f MB)\n", data_mb(c.p)); }

void table4_banner(Ctx& c, const Case&) {
  printf("(objects loaded: %llu x 4KB)\n", (unsigned long long)c.p.objects);
}

// ---- bespoke sweeps -------------------------------------------------------

int fig6(Ctx& c) {
  pmem::Pool pool(512 << 20, pmem::Pool::Mode::kDirect, c.p.latency());
  fsmeta::Ext4DaxMeta ext4(&pool);
  fsmeta::XfsDaxMeta xfs(&pool);
  fsmeta::NovaMeta nova(&pool);
  fsmeta::DStoreMeta dstore_meta(&pool);
  fsmeta::MetaPathSim* sims[] = {&xfs, &ext4, &nova, &dstore_meta};
  const int kWarmup = 200;
  const int kOps = 5000;
  printf("%-10s %16s\n", "system", "metadata ns/op");
  for (fsmeta::MetaPathSim* sim : sims) {
    for (int i = 0; i < kWarmup; i++) sim->metadata_update(i % 256);
    uint64_t total = 0;
    for (int i = 0; i < kOps; i++) total += sim->metadata_update(i % 256);
    double ns = (double)total / kOps;
    printf("%-10s %16.1f\n", sim->name(), ns);
    c.report.row().str("system", sim->name()).str("op", "metadata_update").num("ns_per_op", ns);
  }
  printf("# Expected shape: DStore < NOVA < xfs-DAX < ext4-DAX.\n");
  return 0;
}

int table3(Ctx& c) {
  printf("%-4s %-6s %12s %12s %12s %12s %12s %10s %10s\n", "qd", "size", "NVMe(ns)",
         "BTree(ns)", "Meta(ns)", "LogFlush(ns)", "Total(ns)", "p50(us)", "p99(us)");
  const int kWarmup = 200;
  const int kOps = (int)c.p.ops_per_thread;
  // Each cell runs c.reps times on a fresh store; the table prints the
  // medians and the report keeps each field's median, min and max.
  const char* const kFields[] = {"nvme_ns", "btree_ns", "meta_ns", "log_flush_ns", "total_ns",
                                 "p50_us",  "p99_us",   "p999_us", "throughput_iops"};
  constexpr size_t kNumFields = sizeof(kFields) / sizeof(kFields[0]);
  for (uint32_t qd : {1u, 16u}) {
    for (size_t size : {(size_t)4096, (size_t)16384, (size_t)65536}) {
      std::vector<double> reps[kNumFields];
      const char* display_name = "";
      for (int rep = 0; rep < c.reps; rep++) {
        auto cfg = baselines::DStoreAdapter::dipper_variant();
        display_name = cfg.display_name;
        cfg.store.max_objects = 1 << 14;
        // Exactly the blocks the warm-up plus the timed puts hold (4 KB blocks).
        cfg.store.num_blocks = (uint64_t)(kWarmup + kOps) * ((size + 4095) / 4096);
        cfg.store.ssd_qd = qd;
        auto adapter = baselines::DStoreAdapter::make(cfg, c.p.latency());
        if (!adapter.is_ok()) {
          fprintf(stderr, "make %s failed: %s\n", cfg.display_name,
                  adapter.status().to_string().c_str());
          return 1;
        }
        DStore& store = adapter.value()->store();
        ds_ctx_t* ctx = store.ds_init();
        std::string value(size, 'b');
        // Single-threaded instrumented writes, distinct keys (insert path).
        // The untimed warm-up fills every block once, then deletes all but
        // kWarmup objects: the block pool is FIFO, so each timed put lands on
        // media pages already written, not on the kernel's first-touch page
        // faults of a fresh device.
        Status warm;
        for (int i = 0; i < kWarmup + kOps && warm.is_ok(); i++) {
          warm = store.oput(ctx, "warm" + std::to_string(i), value.data(), value.size());
        }
        for (int i = kWarmup; i < kWarmup + kOps && warm.is_ok(); i++) {
          warm = store.odelete(ctx, "warm" + std::to_string(i));
        }
        if (!warm.is_ok()) {
          fprintf(stderr, "warm-up failed: %s\n", warm.to_string().c_str());
          return 1;
        }
        adapter.value()->prepare_run();  // the timed puts start on an empty log
        // Zero the registry after warmup so the scrape covers only the
        // measured ops (reset touches owned metrics only).
        store.metrics().reset();
        obs::Histogram lat;
        uint64_t bench_ns = 0;
        for (int i = 0; i < kOps; i++) {
          uint64_t t0 = now_ns();
          Status s = store.oput(ctx, "obj" + std::to_string(i), value.data(), value.size());
          uint64_t dt = now_ns() - t0;
          if (!s.is_ok()) {
            fprintf(stderr, "put failed: %s\n", s.to_string().c_str());
            return 1;
          }
          lat.record(dt);
          bench_ns += dt;
        }
        // Per-stage means from the registry's sampled stage histograms
        // (1-in-OpTrace::kSampleEvery puts carry full spans; the means are
        // unbiased since sampling does not depend on latency).
        obs::MetricsRegistry& m = store.metrics();
        auto stage_mean = [&](const char* name) {
          obs::Histogram* h = m.find_histogram(name);
          return h != nullptr && h->count() > 0 ? (double)h->sum() / (double)h->count() : 0.0;
        };
        const double total = stage_mean("dstore_put_latency_ns");
        const obs::MetricSnapshot put_lat = lat.snapshot();
        const double values[kNumFields] = {
            stage_mean("dstore_stage_ssd_batch_ns"),
            stage_mean("dstore_stage_btree_ns"),
            stage_mean("dstore_stage_pool_alloc_ns") + stage_mean("dstore_stage_meta_zone_ns"),
            stage_mean("dstore_stage_log_append_ns") + stage_mean("dstore_stage_commit_flush_ns"),
            total > 0 ? total : 1,  // metrics compiled out: avoid div-by-zero
            quantile_us(put_lat, 0.50),
            quantile_us(put_lat, 0.99),
            quantile_us(put_lat, 0.999),
            bench_ns > 0 ? (double)kOps * 1e9 / (double)bench_ns : 0};
        for (size_t f = 0; f < kNumFields; f++) reps[f].push_back(values[f]);
        printf("#      rep %d io: batches=%llu issued=%llu coalesced=%llu retries=%llu\n", rep + 1,
               (unsigned long long)m.counter_value("ssd_io_batches_total"),
               (unsigned long long)m.counter_value("ssd_ios_issued_total"),
               (unsigned long long)m.counter_value("ssd_blocks_coalesced_total"),
               (unsigned long long)m.counter_value("ssd_io_retries_total"));
        store.ds_finalize(ctx);
      }
      double med[kNumFields];
      for (size_t f = 0; f < kNumFields; f++) med[f] = median(reps[f]);
      const double data = med[0], btree = med[1], meta = med[2], log = med[3], total = med[4];
      printf("%-4u %-6zu %12.1f %12.1f %12.1f %12.1f %12.1f %10.1f %10.1f\n", qd, size, data,
             btree, meta, log, total, med[5], med[6]);
      printf("%-4s %-6s %11.1f%% %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n", "", "",
             100 * data / total, 100 * btree / total, 100 * meta / total, 100 * log / total,
             100.0);
      Report::Row& row = c.report.row().str("op", "put").str("system", display_name).num("qd", qd)
                             .num("threads", 1).num("value_size", (double)size);
      for (size_t f = 0; f < kNumFields; f++) row.stat(kFields[f], reps[f]);
    }
  }
  printf("# Expected shape: NVMe ~88%% (4KB) rising to ~96%% (16KB); btree+meta\n");
  printf("# constant (request-size-agnostic logical logging); log flush small.\n");
  printf("# qd=16 coalesces+overlaps block IOs: 64KB puts >=3x faster than qd=1.\n");
  return 0;
}

// One DStore run of the design-parameter ablation (50R/50W over half the
// keyspace); false after reporting a failure.
struct AblationRun {
  double thr, avg_us, p999_us;
  uint64_t ckpts, failed_ops;
};
bool ablation_run(const BenchParams& p, uint32_t log_slots, size_t value_size, int threads,
                  AblationRun* out) {
  auto cfg = baselines::DStoreAdapter::dipper_variant();
  cfg.store.max_objects = p.objects;
  cfg.store.num_blocks = p.objects * std::max<uint64_t>(2, (value_size + 4095) / 4096 * 2);
  cfg.store.engine.log_slots = log_slots;
  auto store = baselines::DStoreAdapter::make(cfg, p.latency());
  if (!store.is_ok()) {
    fprintf(stderr, "make DStore (log_slots=%u value=%zu) failed: %s\n", log_slots, value_size,
            store.status().to_string().c_str());
    return false;
  }
  WorkloadSpec spec = spec_for(p, 0.5);
  spec.num_objects = p.objects / 2;
  spec.value_size = value_size;
  spec.threads = threads;
  Status s = workload::load_objects(*store.value(), spec);
  if (!s.is_ok()) {
    fprintf(stderr, "load failed (log_slots=%u value=%zu): %s\n", log_slots, value_size,
            s.to_string().c_str());
    return false;
  }
  store.value()->prepare_run();
  auto r = workload::run_workload(*store.value(), spec);
  *out = {r.throughput_iops(), r.update_latency.mean() / 1e3, quantile_us(r.update_latency, 0.999),
          store.value()->store().engine().stats().checkpoints.load(), r.failed_ops};
  return true;
}

// DStore's own design parameters, beyond the paper's figures: log capacity
// (checkpoint frequency), value size, and thread count (§5.3 scalability).
int ablation(Ctx& c) {
  struct Sweep {
    const char *title, *col;
    std::vector<uint64_t> xs;
    const char* expected;
  };
  const Sweep sweeps[] = {
      {"log capacity (slots)", "slots", {1024, 4096, 16384, 65536},
       "# Expected: smaller logs => more checkpoints => more background work;\n"
       "# throughput/latency stay within a band (quiescent-free), PMEM footprint shrinks.\n"},
      {"value size", "bytes", {256, 1024, 4096, 16384, 65536},
       "# Expected: software overhead constant (logical logging is size-agnostic),\n"
       "# so per-op time converges to the device transfer time as size grows.\n"},
      {"thread count", "threads", {1, 2, 4, 8},
       "# Expected (§5.3): no lock collapse — on a multi-core host throughput\n"
       "# scales; on this single-core host it stays flat rather than degrading.\n"},
  };
  for (const Sweep& s : sweeps) {
    const bool log_sweep = &s == &sweeps[0];
    printf("\n-- %s --\n", s.title);
    printf("%-8s %12s %10s %10s", s.col, "ops/s", "avg(us)", "p999(us)");
    printf(log_sweep ? " %8s\n" : "\n", "ckpts");
    for (uint64_t x : s.xs) {
      AblationRun o{};
      if (!ablation_run(c.p, log_sweep ? (uint32_t)x : 16384, &s == &sweeps[1] ? x : 4096,
                        &s == &sweeps[2] ? (int)x : c.p.threads, &o)) {
        return 1;
      }
      count_failed(c, s.title, o.failed_ops);
      printf("%-8llu %12.0f %10.1f %10.1f", (unsigned long long)x, o.thr, o.avg_us, o.p999_us);
      if (log_sweep) printf(" %8llu", (unsigned long long)o.ckpts);
      printf("\n");
      fflush(stdout);
      c.report.row().str("op", "update").str("sweep", s.col).num(s.col, (double)x)
          .num("throughput_iops", o.thr).num("mean_us", o.avg_us).num("p999_us", o.p999_us)
          .num("checkpoints", (double)o.ckpts).num("failed_ops", (double)o.failed_ops);
    }
    printf("%s", s.expected);
  }
  return 0;
}

// Shard scaling (DESIGN.md §14): aggregate 4 KB put/get throughput and
// crash-recovery wall clock as the shard count grows, thread count fixed.
// Each shard owns its PMEM pool, log and SSD plane, so more shards multiply
// the aggregate media bandwidth. To make that the measured effect, the SSD
// is bandwidth-bound for the throughput phase (with the stock latency-bound
// profile, parallel in-flight fixed costs hide it), and the recovery phase
// stresses the PMEM read channel, which parallel recovery overlaps.
ShardedConfig shard_cfg(int shards, uint64_t objects, int ckpt_workers, const LatencyModel& lat) {
  ShardedConfig cfg;
  cfg.num_shards = shards;
  uint64_t s = (uint64_t)shards;
  // The backend factory's headroom rule (baselines/backends.cc).
  cfg.shard.max_objects = (objects * 2 + s - 1) / s * 2;
  cfg.shard.num_blocks = (objects * 6 + s - 1) / s * 2;
  cfg.shard.engine.log_slots = 16384;
  cfg.ckpt_workers = ckpt_workers;
  cfg.latency = lat;
  return cfg;
}

std::unique_ptr<baselines::ShardedAdapter> make_sharded(const ShardedConfig& cfg) {
  auto r = baselines::ShardedAdapter::make(cfg);
  if (!r.is_ok()) {
    fprintf(stderr, "make Sharded(%d) failed: %s\n", cfg.num_shards,
            r.status().to_string().c_str());
    return nullptr;
  }
  return std::move(r).value();
}

int shard_scaling(Ctx& c) {
  const BenchParams& p = c.p;
  const uint64_t recovery_objects = env_u64("DSTORE_BENCH_RECOVERY_OBJECTS", 4000);
  const int max_shards = (int)env_u64("DSTORE_BENCH_MAX_SHARDS", 8);
  std::vector<int> sweep;
  for (int s = 1; s <= max_shards; s *= 2) sweep.push_back(s);

  printf("# Shard scaling  (threads=%d objects=%llu ops/thread=%llu value=4096 scale=%.2f)\n",
         p.threads, (unsigned long long)p.objects, (unsigned long long)p.ops_per_thread, p.scale);
  printf("# Emulated devices; compare SHAPES with the paper, not absolutes.\n");

  // Phase 1: affinity sessions (thread t -> shard t%S), update-only then
  // read-only sweeps on a bandwidth-bound SSD (4KB put ~0.8ms media share).
  LatencyModel put_lat = p.latency();
  put_lat.ssd_per_kb_ns = (uint64_t)(200000 * p.scale);
  printf("\n%-8s %-5s %12s %10s %10s\n", "shards", "op", "iops", "p50_us", "p999_us");
  double put1 = 0, putN = 0;
  for (int s : sweep) {
    ShardedConfig cfg = shard_cfg(s, p.objects, p.threads, put_lat);
    cfg.shard.ssd_qd = p.ssd_qd;
    cfg.affinity = true;
    auto store = make_sharded(cfg);
    if (!store) return 1;
    WorkloadSpec spec = spec_for(p, 0.5);
    Status ls = workload::load_objects(*store, spec);
    if (!ls.is_ok()) {
      fprintf(stderr, "load failed at %d shards: %s\n", s, ls.to_string().c_str());
      return 1;
    }
    store->prepare_run();
    spec.partitions = store->partitions();
    spec.placement = [kv = store.get()](std::string_view k) { return kv->placement_of(k); };
    for (bool reads : {false, true}) {
      spec.read_fraction = reads ? 1.0 : 0.0;
      auto r = workload::run_workload(*store, spec);
      const obs::MetricSnapshot& h = reads ? r.read_latency : r.update_latency;
      const char* op = reads ? "get" : "put";
      count_failed(c, op, r.failed_ops);
      printf("%-8d %-5s %12.0f %10.1f %10.1f   (%llu ops, %llu failed)\n", s, op,
             r.throughput_iops(), quantile_us(h, 0.50), quantile_us(h, 0.999),
             (unsigned long long)r.total_ops, (unsigned long long)r.failed_ops);
      fflush(stdout);
      c.report.row().num("shards", s).str("op", op).num("throughput_iops", r.throughput_iops())
          .percentiles(h).num("total_ops", (double)r.total_ops)
          .num("failed_ops", (double)r.failed_ops);
      if (!reads && s == 1) put1 = r.throughput_iops();
      if (!reads && s == sweep.back()) putN = r.throughput_iops();
    }
  }

  // Phase 2: kCrashSim pools; load + checkpoint + a log tail, then
  // power-fail every shard and recover serially vs on the pool.
  LatencyModel rec_lat = p.latency();
  rec_lat.pmem_read_per_kb_ns = (uint64_t)(20000 * p.scale);
  printf("\n%-8s %14s %14s %10s\n", "shards", "serial_ms", "parallel_ms", "ratio");
  double rec_ratio = 0;
  for (int s : sweep) {
    double wall_ms[2] = {0, 0};  // serial, parallel
    for (bool parallel : {false, true}) {
      ShardedConfig cfg = shard_cfg(s, recovery_objects, p.threads, rec_lat);
      cfg.pool_mode = pmem::Pool::Mode::kCrashSim;
      cfg.parallel_recovery = parallel;
      auto store = make_sharded(cfg);
      if (!store) return 1;
      WorkloadSpec spec;
      spec.num_objects = recovery_objects;
      spec.value_size = 4096;
      Status ls = workload::load_objects(*store, spec);
      if (!ls.is_ok()) {
        fprintf(stderr, "recovery load failed at %d shards: %s\n", s, ls.to_string().c_str());
        return 1;
      }
      // Checkpoint so the rebuild scans a populated shadow space, then
      // leave a log tail so replay has work too.
      store->prepare_run();
      void* ctx = store->open_ctx();
      std::string v(4096, 'r');
      for (uint64_t i = 0; i < (uint64_t)32 * (uint64_t)s; i++) {
        (void)store->put(ctx, workload::ycsb_key(i % recovery_objects), v.data(), v.size());
      }
      store->close_ctx(ctx);
      auto t = store->crash_and_recover();
      if (!t.is_ok()) {
        fprintf(stderr, "recovery failed at %d shards: %s\n", s, t.status().to_string().c_str());
        return 1;
      }
      wall_ms[parallel ? 1 : 0] = (double)store->store().last_recovery().wall_ns / 1e6;
    }
    double ratio = wall_ms[0] > 0 ? wall_ms[1] / wall_ms[0] : 0.0;
    printf("%-8d %14.1f %14.1f %10.2f\n", s, wall_ms[0], wall_ms[1], ratio);
    fflush(stdout);
    c.report.row().num("shards", s).str("op", "recovery").num("serial_wall_ms", wall_ms[0])
        .num("parallel_wall_ms", wall_ms[1]);
    if (s == sweep.back()) rec_ratio = ratio;
  }

  // Acceptance summary: >=3x aggregate put throughput at max shards vs 1,
  // parallel recovery <= 0.5x serial at max shards.
  double put_scaling = put1 > 0 ? putN / put1 : 0;
  printf("\n# put scaling %dv1: %.2fx   recovery parallel/serial @%d shards: %.2f\n",
         sweep.back(), put_scaling, sweep.back(), rec_ratio);
  c.report.row().num("shards", sweep.back()).str("op", "summary")
      .num("put_scaling_vs_1", put_scaling).num("recovery_parallel_over_serial", rec_ratio);
  return 0;
}

// ---- the experiment table -------------------------------------------------

const std::vector<const char*> kAllSystems = {"PMEM-RocksDB", "MongoDB-PM", "MongoDB-PMSE",
                                              "DStore-CoW", "DStore"};
const std::vector<Case> kYcsbAB = {{"A", 0.5}, {"B", 0.95}};

const Exp kExps[] = {
    {.id = "fig1", .title = "Figure 1: write tail latency with checkpoints on/off (50R/50W)",
     .systems = {"PMEM-RocksDB", "MongoDB-PM", "DStore-CoW", "DStore"},
     // DStore has no checkpoint stall to remove (footnote 1).
     .cases = {{"on"}, {"off", 0.5, /*checkpoints off*/ true, "DStore"}}, .case_key = "ckpt",
     .cell = ycsb_cell, .text_width = 5,
     .cols = {{"p50(us)", "update", "p50_us", 10}, {"p99(us)", "update", "p99_us", 10},
              {"p999(us)", "update", "p999_us", 10}, {"p9999(us)", "update", "p9999_us", 10}},
     .footer = "# Expected shape: cached systems' p999/p9999 drop sharply with ckpt off;\n"
               "# DStore's tail is flat with checkpoints on (quiescent-free DIPPER).\n"},
    {.id = "fig5", .title = "Figure 5: YCSB A/B average operation latency (4KB)",
     .systems = kAllSystems, .cases = kYcsbAB, .case_key = "workload", .cell = ycsb_cell,
     .text_width = 8,
     .cols = {{"read avg(us)", "read", "mean_us", 14}, {"update avg(us)", "update", "mean_us", 14}},
     .footer = "# Expected shape: DStore lowest everywhere; bigger win on updates;\n"
               "# all systems' update latency lower on B (95% reads) than A.\n"},
    {.id = "fig6", .title = "Figure 6: metadata overhead of a 4KB file write", .run = fig6},
    {.id = "fig7", .title = "Figure 7: throughput + device bandwidth over a window (50R/50W)",
     .systems = kAllSystems, .cell = window_cell, .print = fig7_print,
     .footer = "\n# Expected shape: DStore's minimum > every other system's maximum;\n"
               "# PMSE flat-but-low with zero SSD traffic; CoW and cached systems show\n"
               "# deep checkpoint troughs; RocksDB shows continuous compaction traffic.\n"},
    {.id = "fig8", .title = "Figure 8: YCSB A/B tail latency curves", .systems = kAllSystems,
     .cases = kYcsbAB, .case_key = "workload", .by_case = true, .cell = ycsb_cell,
     .text_width = 7, .line_ops = {"read", "update"},
     .cols = {{"p50(us)", nullptr, "p50_us", 9}, {"p99(us)", nullptr, "p99_us", 9},
              {"p999(us)", nullptr, "p999_us", 9}, {"p9999(us)", nullptr, "p9999_us", 9},
              {"max(us)", nullptr, "max_us", 9}},
     .banner = fig8_banner,
     .footer = "\n# Expected shape: DStore flattest/lowest; CoW p9999 high on A, close to\n"
               "# DStore on B; cached systems' read tails suffer too.\n"},
    // Median of 3 per step: extreme tails are noisy on small hosts.
    {.id = "fig9", .title = "Figure 9: optimization ablation (write latency, 50R/50W)", .reps = 3,
     .systems = {"PhysLog+CoW", "LogicalLog+CoW", "DStore-noOE", "DStore"},
     .labels = {"naive (phys+CoW)", "+logical log", "+DIPPER", "+OE (DStore)"},
     .cell = ycsb_cell, .label_head = "config", .label_width = 18,
     .cols = {{"avg(us)", "update", "mean_us", 12}, {"p999(us)", "update", "p999_us", 12},
              {"p9999(us)", "update", "p9999_us", 12}},
     .suffix = fig9_suffix,
     .footer = "# Expected shape: logical logging helps average; DIPPER collapses the\n"
               "# p9999 tail; OE gives a further average improvement at concurrency.\n"},
    {.id = "fig10", .title = "Figure 10: storage footprint after loading N 4KB objects",
     .systems = kAllSystems, .cell = footprint_cell,
     .cols = {{"DRAM(MB)", "space", "dram_mb", 10}, {"PMEM(MB)", "space", "pmem_mb", 10},
              {"SSD(MB)", "space", "ssd_mb", 10}, {"total(MB)", "space", "total_mb", 10},
              {"ampl.", "space", "amplification", 8, 2}},
     .banner = fig10_banner,
     .footer = "# Expected shape: similar footprints; PMSE smallest (ampl ~1.3-1.4);\n"
               "# cached systems inflated by reserved cache; DStore ~1.8-2.0.\n"},
    {.id = "table3", .title = "Table 3: DStore write-pipeline time breakdown", .reps = 3,
     .run = table3,
     .params = [] { return BenchParams(4, 20000, 5000); }},
    {.id = "table4", .title = "Table 4: recovery time (ms)",
     .systems = {"PMEM-RocksDB", "MongoDB-PM", "MongoDB-PMSE", "DStore"},
     .cases = {{"clean"}, {"crash", 0.5, /*crash mid-checkpoint*/ true}},
     .case_key = "shutdown", .cell = recovery_cell, .text_width = 8,
     .cols = {{"metadata", "recovery", "metadata_ms", 12}, {"replay", "recovery", "replay_ms", 12},
              {"total", "recovery", "total_ms", 12}},
     .banner = table4_banner,
     .footer = "# Expected shape: DStore clean-recovery slower than cached systems\n"
               "# (full volatile-space rebuild); PMSE replay == 0 and fastest crash\n"
               "# recovery; everyone slower after a crash than after clean shutdown.\n",
     .params = [] {
       BenchParams p;
       p.objects = env_u64("DSTORE_BENCH_RECOVERY_OBJECTS", p.objects);
       return p;
     }},
    {.id = "table5", .title = "Table 5: achievable SLO summary (worst-case values)",
     .systems = {"MongoDB-PM", "MongoDB-PMSE", "PMEM-RocksDB", "DStore-CoW", "DStore"},
     .cell = slo_cell,
     .cols = {{"thr SLO(ops/s)", "slo", "throughput_slo_ops", 14, 0},
              {"p9999(us)", "slo", "p9999_us", 12}, {"recovery(ms)", "slo", "recovery_ms", 14},
              {"space ampl", "slo", "space_amplification", 12, 2}},
     .footer = "# Expected shape: DStore best throughput & p9999 SLO; PMSE best\n"
               "# recovery & space SLO; CoW matches DStore's recovery/space only.\n"},
    {.id = "ablation", .title = "Ablation: DStore design-parameter sweeps (50R/50W)",
     .run = ablation, .params = [] {
       BenchParams p;
       p.objects = std::min<uint64_t>(p.objects, 10000);
       p.ops_per_thread = std::min<uint64_t>(p.ops_per_thread, 5000);
       note_knob("DSTORE_BENCH_OBJECTS", std::to_string(p.objects));
       note_knob("DSTORE_BENCH_OPS", std::to_string(p.ops_per_thread));
       return p;
     }},
    {.id = "shard_scaling", .title = nullptr, .run = shard_scaling,
     .params = [] { return BenchParams(8, 2000, 400); }},
};

void print_heads(const Exp& e) {
  printf("%-*s", e.label_width, e.label_head);
  if (e.text_width > 0) printf(" %-*s", e.text_width, e.line_ops.empty() ? e.case_key : "op");
  for (const Col& col : e.cols) printf(" %*s", col.width, col.head);
  printf("\n");
}

void print_cell(Ctx& c, const char* label, const Case& k, const Samples& s) {
  const Exp& e = c.exp;
  std::vector<const char*> ops = e.line_ops;
  if (ops.empty()) ops.push_back(nullptr);
  for (const char* op : ops) {
    printf("%-*s", e.label_width, label);
    if (e.text_width > 0) printf(" %-*s", e.text_width, op != nullptr ? op : k.label);
    for (const Col& col : e.cols) {
      printf(" %*.*f", col.width, col.prec, op_of(s, col.op != nullptr ? col.op : op)[col.key]);
    }
    if (e.suffix != nullptr) e.suffix(c, s);
    printf("\n");
  }
}

int run_grid(Ctx& c) {
  const Exp& e = c.exp;
  auto heads = [&](const Case& k) {
    if (e.banner != nullptr) e.banner(c, k);
    if (e.print == nullptr) print_heads(e);
  };
  auto cell = [&](size_t sys_index, const Case& k) {
    const char* sys = e.systems[sys_index];
    if (k.skip != nullptr && std::string_view(k.skip) == sys) return true;
    std::vector<Samples> reps;
    for (int r = 0; r < c.reps; r++) {
      if (!e.cell(c, sys, k, 1 + (uint64_t)r, &reps.emplace_back())) return false;
    }
    Samples med = reps.front();
    for (size_t i = 0; i < med.size(); i++) {
      Report::Row& row = c.report.row().str("system", sys);
      if (e.case_key != nullptr) row.str(e.case_key, k.label);
      row.str("op", med[i].op);
      for (size_t j = 0; j < med[i].v.size(); j++) {
        std::vector<double> xs;
        for (const Samples& s : reps) xs.push_back(s[i].v[j].second);
        row.stat(med[i].v[j].first, xs);
        med[i].v[j].second = median(xs);
      }
    }
    if (e.print != nullptr) {
      e.print(c, sys, med);
    } else {
      print_cell(c, e.labels.empty() ? sys : e.labels[sys_index], k, med);
    }
    fflush(stdout);
    c.prev = std::move(med);
    return true;
  };
  if (e.by_case) {
    for (const Case& k : e.cases) {
      heads(k);
      for (size_t i = 0; i < e.systems.size(); i++) {
        if (!cell(i, k)) return 1;
      }
    }
  } else {
    heads(e.cases.front());
    for (size_t i = 0; i < e.systems.size(); i++) {
      for (const Case& k : e.cases) {
        if (!cell(i, k)) return 1;
      }
    }
  }
  printf("%s", e.footer);
  return 0;
}

int run_exp(const Exp& e, int reps_override) {
  knobs_in_effect().clear();
  Ctx c(e, reps_override);
  if (e.title != nullptr) c.p.print(e.title);
  int rc = e.run != nullptr ? e.run(c) : run_grid(c);
  if (rc == 0 && !c.report.write()) rc = 1;
  return rc == 0 && c.failed_ops > 0 ? 1 : rc;
}

int usage(const std::string& why) {
  fprintf(stderr, "%s\nusage: paper_bench --exp <id>[,<id>...]|all [--reps N]\nids:",
          why.c_str());
  for (const Exp& e : kExps) fprintf(stderr, " %s", e.id);
  fprintf(stderr, "\n");
  return kExitUsage;
}

int main(int argc, char** argv) {
  const char* exp_ids = nullptr;
  int reps = 0;  // 0: each experiment's own
  for (int i = 1; i < argc; i += 2) {
    std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + std::string(flag));
    if (flag == "--exp") {
      exp_ids = argv[i + 1];
    } else if (flag == "--reps") {
      reps = (int)parse_u64("--reps", argv[i + 1], /*zero_ok=*/false, INT_MAX);
    } else {
      return usage("unknown flag '" + std::string(flag) + "'");
    }
  }
  if (exp_ids == nullptr) return usage("missing --exp");
  std::vector<const Exp*> todo;
  std::string_view ids = exp_ids;
  while (!ids.empty()) {
    std::string_view id = ids.substr(0, ids.find(','));
    ids.remove_prefix(std::min(ids.size(), id.size() + 1));
    size_t before = todo.size();
    for (const Exp& e : kExps) {
      if (id == "all" || id == e.id) todo.push_back(&e);
    }
    if (todo.size() == before) return usage("unknown experiment '" + std::string(id) + "'");
  }
  if (todo.empty()) return usage("no experiment given");
  // Every experiment runs, so one failure cannot hide another's.
  int rc = 0;
  for (const Exp* e : todo) {
    if (run_exp(*e, reps) != 0) rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace dstore::bench

int main(int argc, char** argv) { return dstore::bench::main(argc, argv); }
