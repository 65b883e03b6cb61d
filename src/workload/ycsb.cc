#include "workload/ycsb.h"

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/zipf.h"

namespace dstore::workload {

std::string ycsb_key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%012llu", (unsigned long long)i);
  return buf;
}

Status load_objects(KVStore& store, const WorkloadSpec& spec) {
  void* ctx = store.open_ctx();
  std::string value(spec.value_size, 'v');
  Status result;
  for (uint64_t i = 0; i < spec.num_objects; i++) {
    // Vary the first bytes so data-integrity spot checks can tell objects
    // apart without a full content model.
    if (spec.value_size >= 8) std::memcpy(value.data(), &i, sizeof(i));
    Status s = store.put(ctx, ycsb_key(i), value.data(), value.size());
    if (!s.is_ok()) {
      result = s;
      break;
    }
  }
  store.close_ctx(ctx);
  return result;
}

RunResult run_workload(KVStore& store, const WorkloadSpec& spec, TimeSeries* throughput_ts) {
  RunResult result;
  std::atomic<uint64_t> total_ops{0};
  std::atomic<uint64_t> failed_ops{0};
  std::atomic<uint64_t> inserts{0};
  std::atomic<uint64_t> next_key{spec.num_objects};   // insert reservation (YCSB D)
  std::atomic<uint64_t> published{spec.num_objects};  // inserts below this are done
  std::atomic<bool> stop{false};
  ScrambledZipfianGenerator zipf(spec.num_objects);

  StopWatch wall;
  std::vector<std::thread> threads;
  // Per-thread histograms: no two threads share a bucket array.
  std::vector<std::unique_ptr<obs::Histogram>> read_hists, update_hists;
  for (int t = 0; t < spec.threads; t++) {
    read_hists.push_back(std::make_unique<obs::Histogram>());
    update_hists.push_back(std::make_unique<obs::Histogram>());
  }

  const bool affine = spec.placement != nullptr && spec.partitions > 1;
  for (int t = 0; t < spec.threads; t++) {
    threads.emplace_back([&, t] {
      const int home = affine ? t % spec.partitions : -1;
      void* ctx = affine ? store.open_ctx_pinned(home) : store.open_ctx();
      Rng rng(spec.seed * 7919 + t);
      std::string value(spec.value_size, 'w');
      std::vector<char> buf(spec.value_size + 64);
      obs::Histogram& rh = *read_hists[t];
      obs::Histogram& uh = *update_hists[t];
      uint64_t ops = 0;
      while (!stop.load(std::memory_order_acquire) &&
             (spec.duration_ms > 0 || ops < spec.ops_per_thread)) {
        // Pick the key: read-latest biases toward the insert frontier
        // (YCSB D's skewed-latest), otherwise zipfian/uniform over the
        // loaded keyspace.
        uint64_t frontier = published.load(std::memory_order_acquire);
        uint64_t id;
        std::string key;
        for (;;) {  // affinity mode re-draws until the key lands home
          if (spec.read_latest) {
            // Exponential-ish decay from the most recent key.
            uint64_t back =
                rng.next_below(1 + rng.next_below(std::max<uint64_t>(frontier / 4, 1)));
            id = frontier > back + 1 ? frontier - 1 - back : 0;
          } else {
            id = spec.zipfian ? zipf.next(rng) : rng.next_below(spec.num_objects);
          }
          key = ycsb_key(id);
          if (!affine || spec.placement(key) == home) break;
        }
        double dice = rng.next_double();
        bool is_read = dice < spec.read_fraction;
        bool is_insert = !is_read && dice < spec.read_fraction + spec.insert_fraction;
        if (affine) is_insert = false;  // see WorkloadSpec::placement
        bool is_rmw =
            !is_read && !is_insert &&
            dice < spec.read_fraction + spec.insert_fraction + spec.rmw_fraction;
        uint64_t start = now_ns();
        bool ok;
        if (is_read) {
          auto r = store.get(ctx, key, buf.data(), buf.size());
          ok = r.is_ok();
        } else if (is_insert) {
          uint64_t fresh = next_key.fetch_add(1, std::memory_order_relaxed);
          std::string fresh_key = ycsb_key(fresh);
          if (spec.value_size >= 8) std::memcpy(value.data(), &fresh, sizeof(fresh));
          ok = store.put(ctx, fresh_key, value.data(), value.size()).is_ok();
          if (ok) inserts.fetch_add(1, std::memory_order_relaxed);
          // Publish the contiguous prefix of finished inserts so read-latest
          // never targets an in-flight one: wait until every earlier key is
          // published, then advance past this one. A failed insert publishes
          // too, or the inserts queued behind it would wait forever.
          uint64_t expect = fresh;
          while (!published.compare_exchange_weak(expect, fresh + 1,
                                                  std::memory_order_release)) {
            expect = fresh;
            std::this_thread::yield();
          }
        } else if (is_rmw) {
          auto r = store.get(ctx, key, buf.data(), buf.size());
          if (spec.value_size >= 8) std::memcpy(value.data(), &id, sizeof(id));
          ok = r.is_ok() && store.put(ctx, key, value.data(), value.size()).is_ok();
        } else {
          if (spec.value_size >= 8) std::memcpy(value.data(), &id, sizeof(id));
          ok = store.put(ctx, key, value.data(), value.size()).is_ok();
        }
        uint64_t lat = now_ns() - start;
        (is_read ? rh : uh).record(lat);
        if (!ok) failed_ops.fetch_add(1, std::memory_order_relaxed);
        total_ops.fetch_add(1, std::memory_order_relaxed);
        if (throughput_ts != nullptr) throughput_ts->add(1);
        ops++;
      }
      store.close_ctx(ctx);
    });
  }

  if (spec.duration_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(spec.duration_ms));
    stop.store(true, std::memory_order_release);
  }
  for (auto& th : threads) th.join();

  result.elapsed_s = wall.elapsed_s();
  result.total_ops = total_ops.load();
  result.failed_ops = failed_ops.load();
  result.inserts = inserts.load();
  // The same rollup as the per-shard scrape: one single-histogram scrape
  // per thread, merged.
  auto rollup = [](const std::vector<std::unique_ptr<obs::Histogram>>& hists) {
    std::vector<std::vector<obs::MetricSnapshot>> scrapes;
    for (const auto& h : hists) scrapes.push_back({h->snapshot()});
    std::vector<obs::MetricSnapshot> merged = obs::MetricsRegistry::merge(scrapes);
    return merged.empty() ? obs::MetricSnapshot{} : std::move(merged[0]);
  };
  result.read_latency = rollup(read_hists);
  result.update_latency = rollup(update_hists);
  return result;
}

}  // namespace dstore::workload
