// ycsb_runner — run any YCSB workload mix against any evaluated system and
// print throughput + the full latency profile: the YCSB loop behind
// `paper_bench`'s experiments, exposed directly.
//
//   ycsb_runner [--backend NAME] [--workload A|B|C|D|F] [--objects N]
//               [--threads N] [--ops N] [--value BYTES] [--scale F]
//               [--ssd-qd N] [--shards N] [--ckpt-workers N] [--affinity]
//               [--metrics-json FILE] [--trace-out FILE | --trace-in FILE]
//
// Backends come from the shared registry (baselines/backends.h); run with
// `--backend help` to list them. Default: DStore. `--system` is accepted as
// a legacy alias for `--backend`. `--metrics-json FILE` scrapes the
// backend's obs::MetricsRegistry after the run and writes the JSON export
// (a valid empty scrape for backends without instrumentation).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "workload/trace.h"

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
      "  --backend NAME      backend to drive (default DStore; 'help' lists all;\n"
      "                      --system is a legacy alias)\n"
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
      "                      (Sharded: per-shard rollup + sharded_ckpt_* gauges)\n"
      "  --trace-out FILE    record the run as a replayable trace\n"
      "  --trace-in FILE     replay a recorded trace instead of generating load\n",
      (unsigned long long)dstore::bench::BenchParams{}.objects);
}

int main(int argc, char** argv) {
  std::string backend = "DStore";
  std::string wl = "A";
  std::string trace_out, trace_in, metrics_json;
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
      return 2;
    }
    const std::string& v = args[i + 1];
    if (args[i] == "--backend" || args[i] == "--system") backend = v;
    else if (args[i] == "--workload") wl = v;
    else if (args[i] == "--objects") p.objects = strtoull(v.c_str(), nullptr, 10);
    else if (args[i] == "--threads") p.threads = (int)strtoul(v.c_str(), nullptr, 10);
    else if (args[i] == "--ops") p.ops_per_thread = strtoull(v.c_str(), nullptr, 10);
    else if (args[i] == "--value") value_size = strtoull(v.c_str(), nullptr, 10);
    else if (args[i] == "--scale") p.scale = strtod(v.c_str(), nullptr);
    else if (args[i] == "--ssd-qd") p.ssd_qd = (uint32_t)strtoul(v.c_str(), nullptr, 10);
    else if (args[i] == "--shards") bp.num_shards = (int)strtoul(v.c_str(), nullptr, 10);
    else if (args[i] == "--ckpt-workers") bp.ckpt_workers = (int)strtoul(v.c_str(), nullptr, 10);
    else if (args[i] == "--metrics-json") metrics_json = v;
    else if (args[i] == "--trace-out") trace_out = v;
    else if (args[i] == "--trace-in") trace_in = v;
    else {
      fprintf(stderr, "unknown flag %s (see --help)\n", args[i].c_str());
      return 2;
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

  if (!trace_in.empty()) {
    auto trace = read_trace(trace_in);
    if (!trace.is_ok()) {
      fprintf(stderr, "trace: %s\n", trace.status().to_string().c_str());
      return 1;
    }
    printf("replaying %zu-record trace against %s with %d threads...\n",
           trace.value().size(), store->name(), p.threads);
    auto r = replay_trace(*store, trace.value(), p.threads);
    if (!r.is_ok()) return 1;
    printf("%llu ops in %.2fs (%.0f ops/s), %llu failures\n",
           (unsigned long long)r.value().ops, r.value().elapsed_s,
           r.value().ops / r.value().elapsed_s, (unsigned long long)r.value().failures);
    printf("latency: %s\n", r.value().latency.summary_us().c_str());
    if (!metrics_json.empty() && !dump_metrics(*store, metrics_json)) return 1;
    return 0;
  }

  WorkloadSpec spec;
  if (wl == "A") spec = WorkloadSpec::ycsb_a();
  else if (wl == "B") spec = WorkloadSpec::ycsb_b();
  else if (wl == "C") spec = WorkloadSpec::ycsb_c();
  else if (wl == "D") spec = WorkloadSpec::ycsb_d();
  else if (wl == "F") spec = WorkloadSpec::ycsb_f();
  else {
    fprintf(stderr, "unknown workload %s (A|B|C|D|F)\n", wl.c_str());
    return 2;
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

  std::unique_ptr<TraceWriter> writer;
  std::unique_ptr<TracingStore> traced;
  KVStore* target = store.get();
  if (!trace_out.empty()) {
    auto w = TraceWriter::create(trace_out);
    if (!w.is_ok()) {
      fprintf(stderr, "trace: %s\n", w.status().to_string().c_str());
      return 1;
    }
    writer = std::move(w).value();
    traced = std::make_unique<TracingStore>(store.get(), writer.get());
    target = traced.get();
  }

  if (bp.affinity && target->partitions() > 1) {
    // Partition-restricted loadgen: thread t draws only keys the backend
    // places on partition t % partitions, on a pinned context.
    spec.partitions = target->partitions();
    spec.placement = [kv = target](std::string_view k) { return kv->placement_of(k); };
    printf("affinity: threads pinned across %d partitions\n", spec.partitions);
  }

  auto r = run_workload(*target, spec);
  printf("throughput: %.0f ops/s (%llu ops, %llu failed, %llu inserts)\n",
         r.throughput_iops(), (unsigned long long)r.total_ops,
         (unsigned long long)r.failed_ops, (unsigned long long)r.inserts);
  printf("reads:   %s\n", r.read_latency.summary_us().c_str());
  printf("updates: %s\n", r.update_latency.summary_us().c_str());
  if (writer) {
    (void)writer->finish();
    printf("trace written: %s (%llu records)\n", trace_out.c_str(),
           (unsigned long long)writer->count());
  }
  if (!metrics_json.empty() && !dump_metrics(*store, metrics_json)) return 1;
  return r.failed_ops == 0 ? 0 : 1;
}
