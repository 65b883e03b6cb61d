// dstore_perfbench — one measured run of one workload.
//
//   dstore_perfbench --workload kv-update|kv-read|served|served-repl
//                    --seed N --seconds S [--trace 0|1]
//                    [--inject corrupt-get|drop-put] [--out-dir D]
//
// Prints one JSON object on the last line of stdout: correct / attempted /
// failed, the end-to-end metrics (median across reps, with quartiles), the
// per-layer metrics of the traced run, and the run's provenance. Exits 1
// when the store's outputs fail the oracle, 2 on bad arguments.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

// Every traced run prints every per-layer metric; layers a workload does not
// exercise read 0 (the layer-separation checks rely on that).
const char* const kLayerMetrics[][2] = {
    {"put_p99_us", "us"},
    {"put_p999_us", "us"},
    {"get_p99_us", "us"},
    {"get_p999_us", "us"},
    {"loadgen.lag_p99_us", "us"},
    {"loadgen.cpu_ratio", "ratio"},
    {"net.loop_cpu_ratio", "ratio"},
    {"net.overhead_p50_us", "us"},
    {"net.bytes_in_per_op", "bytes"},
    {"net.bytes_out_per_op", "bytes"},
    {"net.frame_errors", "count"},
    {"repl.quorum_wait_p50_us", "us"},
    {"repl.quorum_wait_p99_us", "us"},
    {"repl.append_rtt_p50_us", "us"},
    {"repl.entries_per_append", "ratio"},
    {"repl.append_rejects", "count"},
    {"repl.resyncs", "count"},
    {"repl.apply_lag_p99_entries", "entries"},
    {"dstore.server_put_p50_us", "us"},
    {"dstore.server_get_p50_us", "us"},
    {"dstore.commit_flush_ns", "ns"},
    {"ckpt_pool.queue_depth_max", "count"},
    {"ckpt_pool.steal_chunks", "count"},
    {"ds.btree_ns", "ns"},
    {"ds.meta_zone_ns", "ns"},
    {"ds.pool_alloc_ns", "ns"},
    {"dipper.checkpoints_per_s", "1/s"},
    {"dipper.ckpt_ms_mean", "ms"},
    {"dipper.ckpt_swap_us", "us"},
    {"dipper.ckpt_drain_us", "us"},
    {"dipper.ckpt_replay_ms", "ms"},
    {"dipper.ckpt_install_us", "us"},
    {"dipper.backpressure_waits", "count"},
    {"dipper.log_fill_max", "ratio"},
    {"dipper.put_p99_in_ckpt_us", "us"},
    {"dipper.put_p99_out_ckpt_us", "us"},
    {"dipper.recovery_metadata_ms", "ms"},
    {"dipper.recovery_replay_ms", "ms"},
    {"ssd.batch_ns", "ns"},
    {"ssd.device_call_ns", "ns"},
    {"ssd.submits_per_op", "ratio"},
    {"ssd.blocks_per_submit", "ratio"},
    {"ssd.write_amp", "ratio"},
    {"ssd.read_amp", "ratio"},
    {"ssd.retries", "count"},
    {"ssd.crc_failures", "count"},
    {"pmem.flushes_per_put", "ratio"},
    {"pmem.fences_per_put", "ratio"},
    {"pmem.bytes_flushed_per_user_byte", "ratio"},
    {"pmem.ckpt_bytes_per_ckpt", "bytes"},
    {"space.dram_bytes_per_object", "bytes"},
    {"space.pmem_bytes_per_object", "bytes"},
    {"space.ssd_bytes_per_object", "bytes"},
    {"trace.overhead_pct", "%"},
    {"knee_ops", "ops/s"},
    {"recovery_s", "s"},
    {"failed_ratio", "ratio"},
};

int usage() {
  fprintf(stderr,
          "usage: dstore_perfbench --workload kv-update|kv-read|served|served-repl\n"
          "                        --seed N --seconds S [--trace 0|1]\n"
          "                        [--inject corrupt-get|drop-put] [--out-dir D]\n");
  return 2;
}

void mkdirs(const std::string& path) {
  for (size_t i = 1; i <= path.size(); i++) {
    if (i == path.size() || path[i] == '/') mkdir(path.substr(0, i).c_str(), 0755);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = atof(v.c_str());
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--inject") {
      args.inject = v;
    } else if (a == "--out-dir") {
      args.out_dir = v;
    } else {
      return usage();
    }
  }
  const bool kv = args.workload == "kv-update" || args.workload == "kv-read";
  const bool served = args.workload == "served" || args.workload == "served-repl";
  if ((!kv && !served) || args.seconds <= 0 ||
      (!args.inject.empty() && args.inject != "corrupt-get" && args.inject != "drop-put")) {
    return usage();
  }
  if (args.trace) args.setups = 1;
  mkdirs(args.out_dir);

  Report rep;
  for (const auto& m : kLayerMetrics) rep.set_layer(m[0], m[1], 0);
  rep.note("workload", args.workload);
  rep.note("seed", args.seed);
  rep.note("measure_s", args.seconds);
  rep.note("reps", args.reps);
  rep.note("setups", args.setups);
  rep.note("trace", (int)args.trace);
  rep.note("build_type", PERFBENCH_BUILD_TYPE);
  rep.note("nproc", std::thread::hardware_concurrency());

  int rc = kv ? run_kv(args, &rep) : run_served(args, &rep);
  if (rc != 0) return rc;
  printf("%s\n", rep.to_json().c_str());
  fflush(stdout);
  return rep.correct ? 0 : 1;
}
