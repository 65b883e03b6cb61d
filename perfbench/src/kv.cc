// kv-update and kv-read: the embedded store, driven by closed-loop client
// threads over a pmem::Pool and RamBlockDevice the benchmark owns.
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/latency_model.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "dstore/dstore.h"

namespace perfbench {
namespace {

using dstore::DStore;
using dstore::DStoreConfig;

struct KvSpec {
  size_t value_bytes;
  uint32_t keys;
  double get_frac;
  bool zipf;  // scrambled zipfian (theta 0.99), else uniform
  int threads;
};

KvSpec spec_for(const std::string& workload) {
  if (workload == "kv-read") return {16384, 20000, 0.95, false, 2};
  return {4096, 20000, 0.50, true, 2};  // kv-update
}

// Fixed-width key names, so every key costs the index the same.
struct KeyName {
  char buf[16];
  std::string_view operator()(uint32_t k) {
    int n = snprintf(buf, sizeof(buf), "k%08u", k);
    return {buf, (size_t)n};
  }
};

// One store with the devices it runs on.
struct KvStore {
  DStoreConfig cfg;
  std::unique_ptr<dstore::pmem::Pool> pool;
  std::unique_ptr<dstore::ssd::RamBlockDevice> ram;
  std::unique_ptr<TracedDevice> traced;  // traced run only
  std::unique_ptr<DStore> store;

  dstore::ssd::BlockDevice* device() {
    return traced ? (dstore::ssd::BlockDevice*)traced.get() : ram.get();
  }
};

std::unique_ptr<KvStore> make_store(const KvSpec& spec, bool trace) {
  auto kv = std::make_unique<KvStore>();
  const auto lat = dstore::LatencyModel::calibrated(1.0);
  const uint64_t blocks_per_value = (spec.value_bytes + 4095) / 4096;
  kv->cfg.max_objects = (uint64_t)spec.keys * 2;
  kv->cfg.num_blocks = spec.keys * blocks_per_value * 5 / 4 + 256;
  kv->cfg.ssd_qd = 16;
  kv->cfg.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(kv->cfg.max_objects);
  kv->cfg.engine.log_slots = 16384;
  kv->cfg.engine.background_checkpointing = true;
  kv->pool = std::make_unique<dstore::pmem::Pool>(DStoreConfig::required_pool_bytes(kv->cfg),
                                                  dstore::pmem::Pool::Mode::kDirect, lat);
  dstore::ssd::DeviceConfig dc;
  dc.num_blocks = kv->cfg.num_blocks;
  dc.latency = lat;
  kv->ram = std::make_unique<dstore::ssd::RamBlockDevice>(dc);
  if (trace) kv->traced = std::make_unique<TracedDevice>(kv->ram.get());
  auto s = DStore::create(kv->pool.get(), kv->device(), kv->cfg);
  if (!s.is_ok()) {
    fprintf(stderr, "DStore::create: %s\n", s.status().to_string().c_str());
    return nullptr;
  }
  kv->store = std::move(s).value();
  return kv;
}

// Version 1 of every key, written by spec.threads threads.
bool preload(DStore* store, const KvSpec& spec, Oracle* oracle) {
  std::atomic<bool> ok{true};
  std::vector<std::thread> ts;
  for (int t = 0; t < spec.threads; t++) {
    ts.emplace_back([&, t] {
      dstore::ds_ctx_t* ctx = store->ds_init();
      std::vector<char> buf(spec.value_bytes);
      KeyName name;
      for (uint32_t k = (uint32_t)t; k < spec.keys; k += (uint32_t)spec.threads) {
        encode_value(buf.data(), buf.size(), k, 1);
        if (!store->oput(ctx, name(k), buf.data(), buf.size()).is_ok()) ok = false;
        oracle->issued(k).store(1);
        oracle->acked(k).store(1);
      }
      store->ds_finalize(ctx);
    });
  }
  for (auto& t : ts) t.join();
  return ok.load();
}

// Every key must read back exactly its last acknowledged version.
void verify_all(DStore* store, const KvSpec& spec, Oracle* oracle, const char* when) {
  dstore::ds_ctx_t* ctx = store->ds_init();
  std::vector<char> buf(spec.value_bytes);
  KeyName name;
  for (uint32_t k = 0; k < spec.keys; k++) {
    auto r = store->oget(ctx, name(k), buf.data(), buf.size());
    uint64_t want = oracle->acked(k).load();
    if (!r.is_ok()) {
      oracle->fail(std::string(when) + ": key " + std::to_string(k) + ": " +
                   r.status().to_string());
      continue;
    }
    oracle->check_read(k, buf.data(), std::min(r.value(), buf.size()), want, want);
  }
  store->ds_finalize(ctx);
}

struct alignas(64) ClientThread {
  std::vector<Sample> samples;
  std::atomic<uint64_t> ops{0};
  double cpu_s[2] = {0, 0};  // thread CPU at the traced phase's start and end
};

struct RunState {
  const Args* args = nullptr;
  KvSpec spec{};
  DStore* store = nullptr;
  Oracle* oracle = nullptr;
  SpanLog* spans = nullptr;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> record_from{0};  // 0 = warm-up, samples not kept
  std::atomic<uint64_t> traced_from{0};  // start of the traced phase (trace run)
  std::atomic<int> cpu_mark{-1};         // ask clients to read their CPU clock
  int64_t traced_span = -1;
  std::unique_ptr<dstore::ScrambledZipfianGenerator> zipf_all, zipf_own;
};

void client_main(RunState* st, int tid, ClientThread* me) {
  const KvSpec& spec = st->spec;
  DStore* store = st->store;
  Oracle* oracle = st->oracle;
  const dstore::dipper::Engine& engine = store->engine();
  dstore::Rng rng(st->args->seed * 0x9e3779b97f4a7c15ull + (uint64_t)tid + 1);
  dstore::ds_ctx_t* ctx = store->ds_init();
  std::vector<char> buf(spec.value_bytes);
  KeyName name;
  const uint32_t own_keys = spec.keys / (uint32_t)spec.threads;
  bool injected = st->args->inject.empty() || tid != 0;
  uint32_t dropped = UINT32_MAX;  // key of the put "drop-put" skipped
  uint64_t op_id = (uint64_t)tid << 56;
  int cpu_seen = -1;
  me->samples.reserve(1 << 21);
  while (!st->stop.load(std::memory_order_relaxed)) {
    int mark = st->cpu_mark.load(std::memory_order_relaxed);
    if (mark != cpu_seen && mark >= 0) {
      me->cpu_s[mark] = self_thread_cpu_s();
      cpu_seen = mark;
    }
    const bool is_get = rng.next_double() < spec.get_frac;
    uint32_t k;
    if (is_get) {
      k = (uint32_t)(spec.zipf ? st->zipf_all->next(rng) : rng.next_below(spec.keys));
    } else {
      // Each key has one writing thread, so its last acknowledged version
      // is well defined; readers race writers on every key.
      uint64_t r = spec.zipf ? st->zipf_own->next(rng) : rng.next_below(own_keys);
      k = (uint32_t)(r * (uint64_t)spec.threads + (uint64_t)tid);
    }
    const bool recording = st->record_from.load(std::memory_order_relaxed) != 0;
    uint8_t flags = engine.checkpoint_running() ? kFlagInCkpt : 0;
    uint64_t t0 = 0, t1 = 0;
    if (is_get) {
      uint64_t lo = oracle->acked(k).load(std::memory_order_acquire);
      t0 = clock_ns();
      auto r = store->oget(ctx, name(k), buf.data(), buf.size());
      t1 = clock_ns();
      if (!r.is_ok()) {
        flags |= kFlagFailed;
      } else {
        if (!injected && recording && st->args->inject == "corrupt-get") {
          buf[kValueOverhead + 7] ^= 0x20;
          injected = true;
        }
        uint64_t hi = oracle->issued(k).load(std::memory_order_acquire);
        oracle->check_read(k, buf.data(), std::min(r.value(), buf.size()), lo, hi);
      }
    } else {
      if (k == dropped) continue;  // a later put would mask the dropped one
      uint64_t v = oracle->issued(k).load(std::memory_order_relaxed) + 1;
      encode_value(buf.data(), buf.size(), k, v);
      oracle->issued(k).store(v, std::memory_order_release);
      const bool drop = !injected && recording && st->args->inject == "drop-put";
      if (drop) dropped = k;
      injected = injected || drop;
      t0 = clock_ns();
      dstore::Status s =
          drop ? dstore::Status::ok() : store->oput(ctx, name(k), buf.data(), buf.size());
      t1 = clock_ns();
      if (s.is_ok()) {
        oracle->acked(k).store(v, std::memory_order_release);
      } else {
        flags |= kFlagFailed;
      }
    }
    if (engine.checkpoint_running()) flags |= kFlagInCkpt;
    if (recording) {
      uint32_t lat = flags & kFlagFailed ? kFailedLatencyNs
                                         : (uint32_t)std::min<uint64_t>(t1 - t0, UINT32_MAX - 1);
      me->samples.push_back({t1, lat, 0, is_get ? kOpGet : kOpPut, flags});
      // Acquire: a non-zero value publishes traced_span.
      uint64_t traced_from = st->traced_from.load(std::memory_order_acquire);
      if (traced_from != 0 && t0 >= traced_from && (++op_id & 255) == 0) {
        st->spans->add(is_get ? "dstore.oget" : "dstore.oput", t0, t1, st->traced_span, op_id);
      }
    }
    me->ops.store(me->ops.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  store->ds_finalize(ctx);
}

void sleep_until_ns(uint64_t t) {
  uint64_t now = clock_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

}  // namespace

int run_kv(const Args& args, Report* rep) {
  const KvSpec spec = spec_for(args.workload);
  rep->note("value_bytes", (uint64_t)spec.value_bytes);
  rep->note("keys", (uint64_t)spec.keys);
  rep->note("client_threads", spec.threads);
  rep->note("loop", "closed");

  // ---- set-up: store creation + preload, timed args.setups times ---------
  std::unique_ptr<KvStore> kv;
  std::unique_ptr<Oracle> oracle;
  std::vector<double> setup_s;
  for (int i = 0; i < std::max(1, args.setups); i++) {
    kv.reset();
    oracle = std::make_unique<Oracle>(spec.keys);
    uint64_t t0 = clock_ns();
    kv = make_store(spec, args.trace);
    if (kv == nullptr || !preload(kv->store.get(), spec, oracle.get())) {
      fprintf(stderr, "kv set-up failed\n");
      return 1;
    }
    setup_s.push_back((double)(clock_ns() - t0) / 1e9);
  }
  rep->set_e2e("setup_s", "s", summarize(setup_s));

  // ---- load ----------------------------------------------------------------
  SpanLog spans;
  RunState st;
  st.args = &args;
  st.spec = spec;
  st.store = kv->store.get();
  st.oracle = oracle.get();
  st.spans = &spans;
  st.zipf_all = std::make_unique<dstore::ScrambledZipfianGenerator>(spec.keys);
  st.zipf_own =
      std::make_unique<dstore::ScrambledZipfianGenerator>(spec.keys / (uint64_t)spec.threads);
  std::vector<std::unique_ptr<ClientThread>> clients;
  std::vector<std::thread> threads;
  for (int t = 0; t < spec.threads; t++) {
    clients.push_back(std::make_unique<ClientThread>());
    threads.emplace_back(client_main, &st, t, clients.back().get());
  }
  auto probe = [&] {
    WarmupRule::Probe p;
    for (auto& c : clients) p.ops += c->ops.load(std::memory_order_relaxed);
    const auto& es = kv->store->engine().stats();
    p.ckpts = es.checkpoints.load();
    p.ckpt_ns = es.ckpt_total_ns.load();
    return p;
  };

  const uint64_t warm_start = clock_ns();
  int64_t warm_span = spans.begin("warmup");
  WarmupRule rule(1);
  uint64_t tick = clock_ns();
  while (!rule.add(probe())) {
    tick += WarmupRule::kWindowMs * 1'000'000ull;
    sleep_until_ns(tick);
  }
  spans.end(warm_span);
  const uint64_t warm_ckpts = probe().ckpts;
  const uint64_t warm_ckpt_ns = probe().ckpt_ns;

  const uint64_t measure_ns = (uint64_t)(args.seconds * 1e9);
  const uint64_t t0 = clock_ns();
  st.record_from = t0;
  int64_t measure_span = spans.begin("measure");
  const std::vector<const dstore::dipper::Engine*> engines = {&kv->store->engine()};
  uint64_t tmid = t0;
  const uint64_t t1 = t0 + measure_ns;
  StoreTrace trace;
  uint64_t dev_calls = 0, dev_bytes = 0, dev_ns = 0;
  std::unique_ptr<Sampler> sampler;
  if (args.trace) {
    // First half untraced (the overhead baseline), second half traced.
    tmid = t0 + measure_ns / 2;
    sleep_until_ns(tmid);
    trace.a.snaps = kv->store->metrics().snapshot();
    trace.e0 = EngineTotals::of(engines);
    dev_calls = kv->traced->calls, dev_bytes = kv->traced->bytes, dev_ns = kv->traced->call_ns;
    kv->traced->active = true;
    st.traced_span = spans.begin("traced", measure_span);
    st.traced_from = clock_ns();
    st.cpu_mark = 0;
    sampler = std::make_unique<Sampler>(engines, &spans, st.traced_span);
  }
  sleep_until_ns(t1);
  if (args.trace) {
    st.cpu_mark = 1;
    trace.b.snaps = kv->store->metrics().snapshot();
    trace.e1 = EngineTotals::of(engines);
    kv->traced->active = false;
    dev_calls = kv->traced->calls - dev_calls;
    dev_bytes = kv->traced->bytes - dev_bytes;
    dev_ns = kv->traced->call_ns - dev_ns;
    sampler->stop();
    trace.log_fill_max = sampler->log_fill_max();
    trace.secs = (double)(clock_ns() - st.traced_from) / 1e9;
    spans.end(st.traced_span);
  }
  // Let every client pass the CPU mark before stopping them.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  st.stop = true;
  for (auto& t : threads) t.join();
  spans.end(measure_span);
  const uint64_t ckpts_measured = probe().ckpts - warm_ckpts;
  const uint64_t ckpt_ns_measured = probe().ckpt_ns - warm_ckpt_ns;

  std::vector<Sample> all;
  for (auto& c : clients) all.insert(all.end(), c->samples.begin(), c->samples.end());

  // Untraced run: the whole measured phase. Traced run: its untraced half
  // is the overhead baseline, its traced half gives the layer numbers.
  report_window(end_to_end(all, t0, args.trace ? tmid : t1, args.reps), args.trace, rep);

  rep->note("warmup_s", (double)(t0 - warm_start) / 1e9);
  rep->note("warmup_windows", rule.windows());
  rep->note("warmup_capped", (int)rule.capped());
  rep->note("warmup_first_ckpt_ms", rule.first_ckpt_ms());
  rep->note("warmup_last_ckpt_ms", rule.last_ckpt_ms());
  rep->note("measured_ckpt_ms",
            ckpts_measured == 0 ? 0.0 : (double)ckpt_ns_measured / (double)ckpts_measured / 1e6);
  rep->note("measured_checkpoints", ckpts_measured);

  // ---- space, then the read-back oracle ------------------------------------
  trace.usage = kv->store->space_usage();
  const auto& u = trace.usage;
  const double live = (double)spec.keys * (double)spec.value_bytes;
  rep->set_e2e("space_amp", "ratio",
               summarize({(double)(u.dram_bytes + u.pmem_bytes + u.ssd_bytes) / live}));
  verify_all(kv->store.get(), spec, oracle.get(), "after measure");

  // ---- recovery on the same pool and device, non-empty active log --------
  rep->note("recovery_log_fill", kv->store->engine().log_fill());
  kv->store.reset();
  uint64_t r0 = clock_ns();
  auto rec = DStore::recover(kv->pool.get(), kv->device(), kv->cfg);
  const double recovery_s = (double)(clock_ns() - r0) / 1e9;
  rep->note("recovery_s", recovery_s);
  if (!rec.is_ok()) {
    oracle->fail("DStore::recover: " + rec.status().to_string());
  } else {
    kv->store = std::move(rec).value();
    verify_all(kv->store.get(), spec, oracle.get(), "after recovery");
  }

  if (args.trace) {
    for (const Sample& s : all)
      if (s.done_ns >= tmid && s.done_ns < t1) trace.traced_samples.push_back(s);
    trace.value_bytes = spec.value_bytes;
    trace.objects = spec.keys;
    trace.untraced = end_to_end(all, t0, tmid, 1);
    trace.traced = end_to_end(all, tmid, t1, 1);
    report_store_layers(trace, rep);
    double cpu = 0;
    for (auto& c : clients) cpu += c->cpu_s[1] - c->cpu_s[0];
    rep->set_layer("loadgen.cpu_ratio", "ratio", cpu / trace.secs / spec.threads);
    rep->set_layer("ssd.device_call_ns", "ns", dev_calls == 0 ? 0 : (double)dev_ns / dev_calls);
    const double ops = (double)std::max<size_t>(1, trace.traced_samples.size());
    rep->note("device_calls_per_op", (double)dev_calls / ops);
    rep->note("device_blocks_per_call",
              dev_calls == 0 ? 0 : (double)dev_bytes / 4096.0 / dev_calls);
    if (kv->store) {
      const auto& es = kv->store->engine().stats();
      rep->set_layer("dipper.recovery_metadata_ms", "ms", es.recovery_metadata_ns.load() / 1e6);
      rep->set_layer("dipper.recovery_replay_ms", "ms", es.recovery_replay_ns.load() / 1e6);
    }
    rep->set_layer("recovery_s", "s", recovery_s);
    spans.write(args.spans_path());
  }

  rep->correct = oracle->ok();
  rep->errors = oracle->errors();
  return 0;
}

}  // namespace perfbench
