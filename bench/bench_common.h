// Shared plumbing for the benches: validated env knobs, the run parameters
// of the paper experiments, and the one result schema every bench writes.
//
// Environment knobs (all optional; a value must parse as a positive number,
// otherwise the bench names the variable and exits 64):
//   DSTORE_BENCH_THREADS    worker threads            (default 4)
//   DSTORE_BENCH_OBJECTS    preloaded keyspace        (default 20000)
//   DSTORE_BENCH_OPS        ops per thread            (default 12500)
//   DSTORE_BENCH_WINDOW_S   Fig 7 window seconds      (default 10)
//   DSTORE_BENCH_SCALE      latency-injection scale   (default 1.0 =
//                           full calibrated device latencies)
//   DSTORE_BENCH_SSD_QD     NVMe queue-pair depth     (default 16; 1 =
//                           the historical synchronous data plane)
//   DSTORE_BENCH_JSON_DIR   where BENCH_<name>.json lands (default cwd)
// Some experiments use other defaults or extra knobs; paper_bench.cc lists
// them, and each report records the values in effect.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/backends.h"
#include "common/latency_model.h"
#include "obs/metrics.h"
#include "workload/ycsb.h"

#ifndef DSTORE_GIT_SHA
#define DSTORE_GIT_SHA "none"
#endif
#ifndef DSTORE_BUILD_TYPE
#define DSTORE_BUILD_TYPE "none"
#endif

namespace dstore::bench {

// sysexits EX_USAGE: a bad flag or knob value.
constexpr int kExitUsage = 64;

inline std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// Integral values print as integers, everything else with 3 decimals.
inline std::string json_num(double v) {
  char buf[64];
  bool integral = std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15;
  snprintf(buf, sizeof(buf), integral ? "%.0f" : "%.3f", v);
  return buf;
}

// Every knob a bench resolved (name -> JSON value, defaults included), in
// first-read order: the "env" block of the report's provenance.
inline std::vector<std::pair<std::string, std::string>>& knobs_in_effect() {
  static std::vector<std::pair<std::string, std::string>> knobs;
  return knobs;
}

inline void note_knob(const std::string& name, std::string json_value) {
  for (auto& [n, v] : knobs_in_effect()) {
    if (n == name) {
      v = std::move(json_value);
      return;
    }
  }
  knobs_in_effect().emplace_back(name, std::move(json_value));
}

[[noreturn]] inline void bad_knob(const char* name, const char* value, bool zero_ok) {
  fprintf(stderr, "%s: invalid value '%s' (want a %s number)\n", name, value,
          zero_ok ? "non-negative" : "positive");
  exit(kExitUsage);
}

// Validated parses of a knob or flag value: anything unparsable, negative,
// or zero (unless zero_ok) names `name` and exits 64.
inline uint64_t parse_u64(const char* name, const char* v, bool zero_ok = false) {
  char* end = nullptr;
  errno = 0;
  uint64_t x = strtoull(v, &end, 10);
  if (*v < '0' || *v > '9' || *end != '\0' || errno != 0 || (x == 0 && !zero_ok)) {
    bad_knob(name, v, zero_ok);
  }
  return x;
}

inline double parse_f64(const char* name, const char* v, bool zero_ok = false) {
  char* end = nullptr;
  errno = 0;
  double x = strtod(v, &end);
  if (end == v || *end != '\0' || errno != 0 || !std::isfinite(x) || x < 0 ||
      (x == 0 && !zero_ok)) {
    bad_knob(name, v, zero_ok);
  }
  return x;
}

inline uint64_t env_u64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  uint64_t x = v != nullptr ? parse_u64(name, v) : fallback;
  note_knob(name, std::to_string(x));
  return x;
}

inline double env_f64(const char* name, double fallback) {
  const char* v = std::getenv(name);
  double x = v != nullptr ? parse_f64(name, v) : fallback;
  note_knob(name, json_num(x));
  return x;
}

inline double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

// Quantile q of a ns-latency histogram, in microseconds.
inline double quantile_us(const obs::MetricSnapshot& h, double q) {
  return (double)h.value_at_quantile(q) / 1e3;
}

// "mean=... p50=... n=N" summary, in microseconds, of a ns-latency histogram.
inline std::string summary_us(const obs::MetricSnapshot& h) {
  char buf[256];
  snprintf(buf, sizeof(buf),
           "mean=%.1fus p50=%.1fus p99=%.1fus p999=%.1fus p9999=%.1fus max=%.1fus n=%llu",
           h.mean() / 1e3, quantile_us(h, 0.50), quantile_us(h, 0.99), quantile_us(h, 0.999),
           quantile_us(h, 0.9999), (double)h.max / 1e3, (unsigned long long)h.count);
  return buf;
}

struct BenchParams {
  int threads;
  uint64_t objects;
  uint64_t ops_per_thread;
  uint64_t window_s;
  double scale;
  uint32_t ssd_qd;

  BenchParams(int default_threads = 4, uint64_t default_objects = 20000,
              uint64_t default_ops = 12500)
      : threads((int)env_u64("DSTORE_BENCH_THREADS", (uint64_t)default_threads)),
        objects(env_u64("DSTORE_BENCH_OBJECTS", default_objects)),
        ops_per_thread(env_u64("DSTORE_BENCH_OPS", default_ops)),
        window_s(env_u64("DSTORE_BENCH_WINDOW_S", 10)),
        scale(env_f64("DSTORE_BENCH_SCALE", 1.0)),
        ssd_qd((uint32_t)env_u64("DSTORE_BENCH_SSD_QD", 16)) {}

  LatencyModel latency() const { return LatencyModel::calibrated(scale); }

  void print(const char* bench) const {
    printf("# %s  (threads=%d objects=%llu ops/thread=%llu latency-scale=%.2f ssd-qd=%u)\n",
           bench, threads, (unsigned long long)objects, (unsigned long long)ops_per_thread,
           scale, ssd_qd);
    printf("# Emulated devices; compare SHAPES with the paper, not absolutes.\n");
  }
};

// The one result schema of bench/ (BENCH_<name>.json in
// $DSTORE_BENCH_JSON_DIR):
//   {"bench": name,
//    "provenance": {"git_sha", "build_type", "nproc", "latency_scale",
//                   "reps", "env": {every knob in effect}},
//    "rows": [flat objects]}
// A value measured over reps > 1 repetitions holds the median, with the
// extremes in <key>_min / <key>_max.
class Report {
 public:
  class Row {
   public:
    Row& str(const char* key, const std::string& v) { return field(key, json_str(v)); }
    Row& num(const char* key, double v) { return field(key, json_num(v)); }
    Row& percentiles(const obs::MetricSnapshot& h) {
      num("p50_us", quantile_us(h, 0.50)).num("p99_us", quantile_us(h, 0.99));
      return num("p999_us", quantile_us(h, 0.999));
    }
    // One value per repetition: the median, plus min/max when reps > 1.
    Row& stat(const std::string& key, const std::vector<double>& reps) {
      field(key, json_num(median(reps)));
      if (reps.size() > 1) {
        field(key + "_min", json_num(*std::min_element(reps.begin(), reps.end())));
        field(key + "_max", json_num(*std::max_element(reps.begin(), reps.end())));
      }
      return *this;
    }

   private:
    friend class Report;
    Row& field(const std::string& key, const std::string& json) {
      json_.append(json_.empty() ? "" : ", ").append(json_str(key)).append(": ").append(json);
      return *this;
    }
    std::string json_;
  };

  Report(std::string bench, double latency_scale, int reps = 1)
      : bench_(std::move(bench)), latency_scale_(latency_scale), reps_(reps) {}

  // The reference is valid until the next row() call.
  Row& row() { return rows_.emplace_back(); }

  // Writes the report and prints where it landed; false (with a stderr
  // diagnostic) if the file cannot be written.
  bool write() const {
    const char* dir = std::getenv("DSTORE_BENCH_JSON_DIR");
    note_knob("DSTORE_BENCH_JSON_DIR", json_str(dir != nullptr ? dir : "."));
    std::string path = (dir != nullptr ? std::string(dir) + "/" : "") + "BENCH_" + bench_ + ".json";
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::string env;
    for (const auto& [name, value] : knobs_in_effect()) {
      env.append(env.empty() ? "" : ", ").append(json_str(name)).append(": ").append(value);
    }
    fprintf(f,
            "{\n  \"bench\": %s,\n  \"provenance\": {\"git_sha\": %s, \"build_type\": %s, "
            "\"nproc\": %u, \"latency_scale\": %s, \"reps\": %d,\n    \"env\": {%s}},\n"
            "  \"rows\": [\n",
            json_str(bench_).c_str(), json_str(DSTORE_GIT_SHA).c_str(),
            json_str(DSTORE_BUILD_TYPE).c_str(), std::thread::hardware_concurrency(),
            json_num(latency_scale_).c_str(), reps_, env.c_str());
    for (size_t i = 0; i < rows_.size(); i++) {
      fprintf(f, "    {%s}%s\n", rows_[i].json_.c_str(), i + 1 < rows_.size() ? "," : "");
    }
    fprintf(f, "  ]\n}\n");
    fclose(f);
    printf("# wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string bench_;
  double latency_scale_;
  int reps_;
  std::vector<Row> rows_;
};

}  // namespace dstore::bench
