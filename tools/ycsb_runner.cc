// ycsb_runner — run any YCSB workload mix against any evaluated system and
// print throughput + the full latency profile: the YCSB loop behind
// `paper_bench`'s experiments, exposed directly.
//
//   ycsb_runner [--backend NAME] [--workload A|B|C|D|F] [--objects N]
//               [--threads N] [--ops N] [--value BYTES] [--scale F]
//               [--ssd-qd N] [--shards N] [--ckpt-workers N] [--affinity]
//               [--metrics-json FILE]
//
// Backends come from the shared registry (baselines/backends.h); run with
// `--backend help` to list them. Default: DStore. `--metrics-json FILE`
// scrapes the backend's obs::MetricsRegistry after the run and writes the
// JSON export (a valid empty scrape for backends without instrumentation).
// A bad flag or an unparsable, negative or zero number exits 64, naming
// the flag.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace dstore;
using namespace dstore::bench;
using namespace dstore::workload;

static bool dump_metrics(workload::KVStore& store, const std::string& path) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::string json = store.metrics_json();
  fwrite(json.data(), 1, json.size(), f);
  fclose(f);
  printf("metrics written: %s\n", path.c_str());
  return true;
}

static void usage() {
  printf(
      "ycsb_runner — run a YCSB workload mix against an evaluated backend\n"
      "\n"
      "  --backend NAME      backend to drive (default DStore; 'help' lists all)\n"
      "  --workload A|B|C|D|F  YCSB mix (default A: 50/50 read/update)\n"
      "  --objects N         preloaded keyspace (default %llu)\n"
      "  --threads N         loadgen threads\n"
      "  --ops N             operations per thread\n"
      "  --value BYTES       value size (default 4096)\n"
      "  --scale F           latency-model scale (0 disables injection)\n"
      "  --ssd-qd N          NVMe queue-pair depth (DStore variants)\n"
      "  --shards N          shard count (Sharded backend)\n"
      "  --ckpt-workers N    checkpoint pool worker threads (Sharded backend;\n"
      "                      0 = min(shards, cores/2))\n"
      "  --affinity          pin each loadgen thread to its home shard: thread t\n"
      "                      only draws keys placed on shard t%%shards and runs on\n"
      "                      a pinned session, skipping per-op routing (Sharded\n"
      "                      backend; inserts are demoted to updates)\n"
      "  --metrics-json FILE scrape the backend's metrics registry after the run\n"
      "                      (Sharded: per-shard rollup + sharded_ckpt_* gauges)\n",
      (unsigned long long)dstore::bench::BenchParams{}.objects);
}

int main(int argc, char** argv) {
  std::string backend = "DStore";
  std::string wl = "A";
  std::string metrics_json;
  BenchParams p;
  baselines::BackendParams bp;
  size_t value_size = 4096;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (size_t i = 0; i < args.size(); i++) {
    // Boolean flags advance by one; valued flags consume args[i + 1].
    if (args[i] == "--help" || args[i] == "-h") {
      usage();
      return 0;
    }
    if (args[i] == "--affinity") {
      bp.affinity = true;
      continue;
    }
    if (i + 1 >= args.size()) {
      fprintf(stderr, "flag %s needs a value (see --help)\n", args[i].c_str());
      return kExitUsage;
    }
    const char* flag = args[i].c_str();
    const char* v = args[i + 1].c_str();
    if (args[i] == "--backend") backend = v;
    else if (args[i] == "--workload") wl = v;
    else if (args[i] == "--objects") p.objects = parse_u64(flag, v);
    else if (args[i] == "--threads") p.threads = (int)parse_u64(flag, v);
    else if (args[i] == "--ops") p.ops_per_thread = parse_u64(flag, v);
    else if (args[i] == "--value") value_size = parse_u64(flag, v);
    else if (args[i] == "--scale") p.scale = parse_f64(flag, v, /*zero_ok=*/true);  // 0 = off
    else if (args[i] == "--ssd-qd") p.ssd_qd = (uint32_t)parse_u64(flag, v);
    else if (args[i] == "--shards") bp.num_shards = (int)parse_u64(flag, v);
    else if (args[i] == "--ckpt-workers")
      bp.ckpt_workers = (int)parse_u64(flag, v, /*zero_ok=*/true);  // 0 = auto
    else if (args[i] == "--metrics-json") metrics_json = v;
    else {
      fprintf(stderr, "unknown flag %s (see --help)\n", flag);
      return kExitUsage;
    }
    i++;
  }
  if (backend == "help" || backend == "list") {
    printf("backends:");
    for (const std::string& n : baselines::backend_names()) printf(" %s", n.c_str());
    printf("\n");
    return 0;
  }

  bp.objects = p.objects;
  bp.ssd_qd = p.ssd_qd;
  bp.latency = p.latency();
  auto store = baselines::make_backend(backend, bp);
  if (!store) return 1;

  WorkloadSpec spec;
  if (wl == "A") spec = WorkloadSpec::ycsb_a();
  else if (wl == "B") spec = WorkloadSpec::ycsb_b();
  else if (wl == "C") spec = WorkloadSpec::ycsb_c();
  else if (wl == "D") spec = WorkloadSpec::ycsb_d();
  else if (wl == "F") spec = WorkloadSpec::ycsb_f();
  else {
    fprintf(stderr, "unknown workload %s (A|B|C|D|F)\n", wl.c_str());
    return kExitUsage;
  }
  spec.num_objects = p.objects;
  spec.value_size = value_size;
  spec.threads = p.threads;
  spec.ops_per_thread = p.ops_per_thread;

  printf(
      "system=%s workload=%s objects=%llu threads=%d ops/thread=%llu value=%zuB scale=%.2f "
      "ssd-qd=%u\n",
      store->name(), wl.c_str(), (unsigned long long)spec.num_objects, spec.threads,
      (unsigned long long)spec.ops_per_thread, spec.value_size, p.scale, p.ssd_qd);
  if (!load_objects(*store, spec).is_ok()) {
    fprintf(stderr, "load failed\n");
    return 1;
  }
  store->prepare_run();

  if (bp.affinity && store->partitions() > 1) {
    // Partition-restricted loadgen: thread t draws only keys the backend
    // places on partition t % partitions, on a pinned context.
    spec.partitions = store->partitions();
    spec.placement = [kv = store.get()](std::string_view k) { return kv->placement_of(k); };
    printf("affinity: threads pinned across %d partitions\n", spec.partitions);
  }

  auto r = run_workload(*store, spec);
  printf("throughput: %.0f ops/s (%llu ops, %llu failed, %llu inserts)\n",
         r.throughput_iops(), (unsigned long long)r.total_ops,
         (unsigned long long)r.failed_ops, (unsigned long long)r.inserts);
  printf("reads:   %s\n", summary_us(r.read_latency).c_str());
  printf("updates: %s\n", summary_us(r.update_latency).c_str());
  if (!metrics_json.empty() && !dump_metrics(*store, metrics_json)) return 1;
  return r.failed_ops == 0 ? 0 : 1;
}
