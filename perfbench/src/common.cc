#include <dirent.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "common/crc32c.h"

namespace perfbench {

using dstore::obs::MetricSnapshot;

// ---- values ----------------------------------------------------------------

namespace {
constexpr uint32_t kValueMagic = 0x56424450;  // "PDBV"

uint64_t mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

void encode_value(char* buf, size_t len, uint32_t key, uint64_t version) {
  uint32_t len32 = (uint32_t)len;
  memcpy(buf, &kValueMagic, 4);
  memcpy(buf + 4, &key, 4);
  memcpy(buf + 8, &version, 8);
  memcpy(buf + 16, &len32, 4);
  uint64_t x = mix(((uint64_t)key << 32) ^ version);
  for (size_t off = 20; off < len - 4; off += 8) {
    x += 0x9e3779b97f4a7c15ull;
    memcpy(buf + off, &x, std::min<size_t>(8, len - 4 - off));
  }
  uint32_t crc = dstore::crc32c(buf, len - 4);
  memcpy(buf + len - 4, &crc, 4);
}

bool decode_value(const void* data, size_t len, uint32_t key, uint64_t* version,
                  std::string* why) {
  const char* buf = (const char*)data;
  if (len < kValueOverhead) {
    *why = "short value (" + std::to_string(len) + " bytes)";
    return false;
  }
  uint32_t magic, k, vlen, crc;
  memcpy(&magic, buf, 4);
  memcpy(&k, buf + 4, 4);
  memcpy(version, buf + 8, 8);
  memcpy(&vlen, buf + 16, 4);
  memcpy(&crc, buf + len - 4, 4);
  if (magic != kValueMagic || vlen != len) {
    *why = "bad value header";
    return false;
  }
  if (crc != dstore::crc32c(buf, len - 4)) {
    *why = "value crc32c mismatch";
    return false;
  }
  if (k != key) {
    *why = "value of key " + std::to_string(k) + " returned for key " + std::to_string(key);
    return false;
  }
  return true;
}

// ---- oracle ----------------------------------------------------------------

void Oracle::fail(const std::string& why) {
  failures_.fetch_add(1);
  std::lock_guard<std::mutex> g(mu_);
  if (errors_.size() < 8) errors_.push_back(why);
}

std::vector<std::string> Oracle::errors() const {
  std::lock_guard<std::mutex> g(mu_);
  return errors_;
}

void Oracle::check_read(uint32_t k, const void* buf, size_t len, uint64_t lo, uint64_t hi) {
  uint64_t v = 0;
  std::string why;
  if (!decode_value(buf, len, k, &v, &why)) {
    fail("key " + std::to_string(k) + ": " + why);
  } else if (v < lo || v > hi) {
    fail("key " + std::to_string(k) + ": read version " + std::to_string(v) + " outside [" +
         std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
}

// ---- samples ---------------------------------------------------------------

uint64_t clock_ns() {
  static const auto base = std::chrono::steady_clock::now();
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - base)
      .count();
}

double quantile_us(std::vector<uint32_t> v, double q) {
  if (v.empty()) return 0;
  size_t idx = (size_t)std::ceil(q * (double)v.size());
  idx = std::clamp<size_t>(idx, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + (ptrdiff_t)idx, v.end());
  return v[idx] / 1000.0;
}

Stat summarize(std::vector<double> reps) {
  Stat s;
  s.reps = reps;
  if (reps.empty()) return s;
  std::sort(reps.begin(), reps.end());
  // Linear interpolation between order statistics (NumPy's default).
  auto at = [&](double q) {
    double pos = q * (double)(reps.size() - 1);
    size_t lo = (size_t)pos;
    size_t hi = std::min(lo + 1, reps.size() - 1);
    return reps[lo] + (reps[hi] - reps[lo]) * (pos - (double)lo);
  };
  s.median = at(0.5);
  s.q1 = at(0.25);
  s.q3 = at(0.75);
  return s;
}

Window end_to_end(const std::vector<Sample>& s, uint64_t t0, uint64_t t1, int reps) {
  Window w;
  const uint64_t rep_ns = (t1 - t0) / (uint64_t)reps;
  constexpr uint64_t kSloWindowNs = 500'000'000;  // Table 5 throughput window
  // Whole 500 ms windows per rep (at least one, clipped to the rep).
  const uint64_t per_rep = std::max<uint64_t>(1, rep_ns / kSloWindowNs);
  const uint64_t win_ns = std::min(kSloWindowNs, rep_ns);
  std::vector<std::vector<uint32_t>> put(reps), get(reps), lag(reps);
  std::vector<uint64_t> done(reps, 0);
  std::vector<std::vector<uint64_t>> windows(reps, std::vector<uint64_t>(per_rep, 0));
  for (const Sample& x : s) {
    if (x.done_ns < t0 || x.done_ns >= t0 + rep_ns * (uint64_t)reps) continue;
    size_t r = (size_t)((x.done_ns - t0) / rep_ns);
    (x.op == kOpPut ? put : get)[r].push_back(x.lat_ns);
    lag[r].push_back(x.lag_ns);
    w.attempted++;
    if (x.flags & kFlagFailed) {
      w.failed++;
      continue;
    }
    done[r]++;
    uint64_t wi = (x.done_ns - t0 - r * rep_ns) / win_ns;
    if (wi < per_rep) windows[r][wi]++;
  }
  // Each rep's worst window, in ops/s.
  std::vector<double> min_window(reps, 0);
  for (int r = 0; r < reps; r++) {
    uint64_t worst = *std::min_element(windows[r].begin(), windows[r].end());
    min_window[r] = (double)worst * 1e9 / (double)win_ns;
  }
  std::map<std::string, std::vector<double>> per;
  for (int r = 0; r < reps; r++) {
    w.lag_p99_us.push_back(quantile_us(lag[r], 0.99));
    per["put_p50_us"].push_back(quantile_us(put[r], 0.50));
    per["put_p99_us"].push_back(quantile_us(put[r], 0.99));
    per["put_p999_us"].push_back(quantile_us(put[r], 0.999));
    per["get_p50_us"].push_back(quantile_us(get[r], 0.50));
    per["get_p99_us"].push_back(quantile_us(get[r], 0.99));
    per["get_p999_us"].push_back(quantile_us(get[r], 0.999));
    per["throughput_ops"].push_back(done[r] * 1e9 / (double)rep_ns);
    per["min_window_ops"].push_back(min_window[r]);
  }
  for (auto& [name, v] : per) w.metrics[name] = summarize(v);
  return w;
}

Window pool_windows(const std::vector<Window>& parts) {
  Window w;
  std::map<std::string, std::vector<double>> reps;
  for (const Window& p : parts) {
    w.attempted += p.attempted;
    w.failed += p.failed;
    w.lag_p99_us.insert(w.lag_p99_us.end(), p.lag_p99_us.begin(), p.lag_p99_us.end());
    for (const auto& [name, st] : p.metrics)
      reps[name].insert(reps[name].end(), st.reps.begin(), st.reps.end());
  }
  for (auto& [name, v] : reps) w.metrics[name] = summarize(v);
  return w;
}

// ---- spans -----------------------------------------------------------------

int64_t SpanLog::begin(const std::string& name, int64_t parent) {
  std::lock_guard<std::mutex> g(mu_);
  spans_.push_back({name, clock_ns(), 0, parent, 0});
  return (int64_t)spans_.size() - 1;
}

void SpanLog::end(int64_t id) {
  std::lock_guard<std::mutex> g(mu_);
  if (id >= 0 && (size_t)id < spans_.size()) spans_[id].end = clock_ns();
}

void SpanLog::add(const std::string& name, uint64_t start, uint64_t end, int64_t parent,
                  uint64_t op_id) {
  std::lock_guard<std::mutex> g(mu_);
  spans_.push_back({name, start, end, parent, op_id});
}

bool SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> g(mu_);
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    fprintf(f,
            "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
            "\"parent\": %lld, \"op_id\": %llu}%s\n",
            i, s.name.c_str(), (unsigned long long)s.start, (unsigned long long)s.end,
            (long long)s.parent, (unsigned long long)s.op_id, i + 1 < spans_.size() ? "," : "");
  }
  fprintf(f, "]}\n");
  return fclose(f) == 0;
}

// ---- metric-registry snapshots ---------------------------------------------

const MetricSnapshot* Scrape::find(const std::string& name) const {
  for (const MetricSnapshot& m : snaps)
    if (m.name == name) return &m;
  return nullptr;
}

double Scrape::value(const std::string& name) const {
  const MetricSnapshot* m = find(name);
  return m == nullptr ? 0 : m->value;
}

Scrape merge_scrapes(const std::vector<Scrape>& parts) {
  std::vector<std::vector<MetricSnapshot>> all;
  for (const Scrape& p : parts) all.push_back(p.snaps);
  return {dstore::obs::MetricsRegistry::merge(all)};
}

double delta(const Scrape& a, const Scrape& b, const std::string& name) {
  return b.value(name) - a.value(name);
}

namespace {
// Bucket counts recorded between the two scrapes, ascending by bound.
std::vector<dstore::obs::HistogramBucket> bucket_delta(const Scrape& a, const Scrape& b,
                                                       const std::string& name) {
  std::vector<dstore::obs::HistogramBucket> out;
  const MetricSnapshot* hb = b.find(name);
  if (hb == nullptr) return out;
  std::map<uint64_t, uint64_t> before;
  if (const MetricSnapshot* ha = a.find(name))
    for (const auto& bk : ha->buckets) before[bk.upper] = bk.count;
  for (const auto& bk : hb->buckets) {
    uint64_t c = bk.count - std::min(bk.count, before[bk.upper]);
    if (c > 0) out.push_back({bk.upper, c});
  }
  return out;
}
}  // namespace

double hist_delta_quantile(const Scrape& a, const Scrape& b, const std::string& name, double q) {
  auto buckets = bucket_delta(a, b, name);
  uint64_t total = 0;
  for (const auto& bk : buckets) total += bk.count;
  if (total == 0) return 0;
  uint64_t rank = (uint64_t)std::ceil(q * (double)total), seen = 0;
  for (const auto& bk : buckets) {
    seen += bk.count;
    if (seen >= rank) return (double)bk.upper;
  }
  return (double)buckets.back().upper;
}

double hist_delta_mean(const Scrape& a, const Scrape& b, const std::string& name) {
  const MetricSnapshot* hb = b.find(name);
  if (hb == nullptr) return 0;
  const MetricSnapshot* ha = a.find(name);
  uint64_t n = hb->count - (ha != nullptr ? ha->count : 0);
  uint64_t sum = hb->sum - (ha != nullptr ? ha->sum : 0);
  return n == 0 ? 0 : (double)sum / (double)n;
}

// ---- warm-up rule ----------------------------------------------------------

bool WarmupRule::add(const Probe& p) {
  if (!have_prev_) {
    have_prev_ = true;
    first_ = prev_ = p;
    return false;
  }
  uint64_t ops = p.ops - prev_.ops, ck = p.ckpts - prev_.ckpts;
  ops_.push_back(ops);
  ckpt_ms_.push_back(ck == 0 ? -1.0 : (double)(p.ckpt_ns - prev_.ckpt_ns) / (double)ck / 1e6);
  prev_ = p;
  size_t n = ops_.size();
  if ((int)n >= kMaxWindows) {
    capped_ = true;
    return true;
  }
  if ((int)n < kMinWindows) return false;
  if (p.ckpts - first_.ckpts < (uint64_t)(kMinCkpts * engines_) && (int)n < kCkptWaitWindows)
    return false;
  auto close = [](double x, double y, double tol) {
    return std::fabs(x - y) <= tol * std::max(x, y);
  };
  bool ops_level = close((double)ops_[n - 1], (double)ops_[n - 2], 0.10);
  bool ckpt_level = ckpt_ms_[n - 1] < 0 || ckpt_ms_[n - 2] < 0 ||
                    close(ckpt_ms_[n - 1], ckpt_ms_[n - 2], 0.25);
  return ops_level && ckpt_level;
}

double WarmupRule::first_ckpt_ms() const {
  for (double v : ckpt_ms_)
    if (v >= 0) return v;
  return 0;
}

double WarmupRule::last_ckpt_ms() const {
  for (auto it = ckpt_ms_.rbegin(); it != ckpt_ms_.rend(); ++it)
    if (*it >= 0) return *it;
  return 0;
}

// ---- CPU time --------------------------------------------------------------

std::vector<pid_t> list_tids() {
  std::vector<pid_t> out;
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return out;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] != '.') out.push_back((pid_t)atoi(e->d_name));
  }
  closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

double thread_cpu_s(pid_t tid) {
  std::ifstream f("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string line;
  if (!std::getline(f, line)) return 0;
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  size_t rp = line.rfind(')');
  if (rp == std::string::npos) return 0;
  std::istringstream rest(line.substr(rp + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; i++) {
    if (i == 14) utime = atof(field.c_str());
    if (i == 15) stime = atof(field.c_str());
  }
  return (utime + stime) / (double)sysconf(_SC_CLK_TCK);
}

double self_thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec / 1e9;
}

// ---- decorators ------------------------------------------------------------

void Durations::add(uint64_t ns) {
  std::lock_guard<std::mutex> g(mu_);
  v_.push_back((uint32_t)std::min<uint64_t>(ns, UINT32_MAX));
}

std::vector<uint32_t> Durations::take() {
  std::lock_guard<std::mutex> g(mu_);
  return std::move(v_);
}

void TracedDevice::note(uint64_t t0, size_t len) const {
  calls.fetch_add(1, std::memory_order_relaxed);
  bytes.fetch_add(len, std::memory_order_relaxed);
  call_ns.fetch_add(clock_ns() - t0, std::memory_order_relaxed);
}

dstore::Status TracedDevice::write(uint64_t block, size_t offset, const void* data, size_t len) {
  if (!active.load(std::memory_order_relaxed)) return inner_->write(block, offset, data, len);
  uint64_t t0 = clock_ns();
  dstore::Status s = inner_->write(block, offset, data, len);
  note(t0, len);
  return s;
}

dstore::Status TracedDevice::read(uint64_t block, size_t offset, void* out, size_t len) const {
  if (!active.load(std::memory_order_relaxed)) return inner_->read(block, offset, out, len);
  uint64_t t0 = clock_ns();
  dstore::Status s = inner_->read(block, offset, out, len);
  note(t0, len);
  return s;
}

dstore::Result<uint64_t> TracedDevice::submit_io(const dstore::ssd::IoDesc& d) {
  if (!active.load(std::memory_order_relaxed)) return inner_->submit_io(d);
  uint64_t t0 = clock_ns();
  auto r = inner_->submit_io(d);
  note(t0, d.len);
  return r;
}

dstore::Status TracedReplHandler::await_ticket(uint64_t ticket) {
  if (!active.load(std::memory_order_relaxed)) return inner_->await_ticket(ticket);
  uint64_t t0 = clock_ns();
  dstore::Status s = inner_->await_ticket(ticket);
  quorum_ns.add(clock_ns() - t0);
  return s;
}

dstore::Result<dstore::net::ReplAck> TracedPeer::append(const dstore::net::ReplEntryWire& e) {
  if (active == nullptr || !active->load(std::memory_order_relaxed)) return inner_->append(e);
  uint64_t t0 = clock_ns();
  auto r = inner_->append(e);
  rtt_ns.add(clock_ns() - t0);
  return r;
}

// ---- traced-phase helpers ----------------------------------------------------

EngineTotals EngineTotals::of(const std::vector<const dstore::dipper::Engine*>& engines) {
  EngineTotals t;
  for (const auto* e : engines) {
    const auto& s = e->stats();
    t.ckpts += s.checkpoints.load();
    t.ckpt_ns += s.ckpt_total_ns.load();
    t.swap_ns += s.ckpt_swap_ns.load();
    t.drain_ns += s.ckpt_drain_ns.load();
    t.replay_ns += s.ckpt_replay_ns.load();
    t.install_ns += s.ckpt_install_ns.load();
    t.backpressure += s.append_backpressure_waits.load();
  }
  return t;
}

Sampler::Sampler(std::vector<const dstore::dipper::Engine*> engines, SpanLog* spans,
                 int64_t parent, std::function<void()> extra)
    : engines_(std::move(engines)),
      spans_(spans),
      parent_(parent),
      extra_(std::move(extra)),
      thread_([this] { run(); }) {}

void Sampler::stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

void Sampler::run() {
  bool running = false;
  uint64_t since = 0;
  while (!stop_.load()) {
    bool now_running = false;
    for (const auto* e : engines_) {
      now_running = now_running || e->checkpoint_running();
      log_fill_max_ = std::max(log_fill_max_, e->log_fill());
    }
    if (now_running && !running) since = clock_ns();
    if (!now_running && running) spans_->add("dipper.checkpoint", since, clock_ns(), parent_, 0);
    running = now_running;
    if (extra_) extra_();
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

void report_store_layers(const StoreTrace& t, Report* rep) {
  const Scrape& a = t.a;
  const Scrape& b = t.b;
  uint64_t puts = 0, gets = 0;
  for (const Sample& s : t.traced_samples) (s.op == kOpPut ? puts : gets)++;
  const double ops = (double)std::max<uint64_t>(1, puts + gets);
  const double put_bytes = (double)puts * (double)t.value_bytes;
  const double get_bytes = (double)gets * (double)t.value_bytes;
  auto ratio = [](double x, double y) { return y == 0 ? 0.0 : x / y; };

  rep->set_layer("dstore.server_put_p50_us", "us",
                 hist_delta_quantile(a, b, "dstore_put_latency_ns", 0.5) / 1e3);
  rep->set_layer("dstore.server_get_p50_us", "us",
                 hist_delta_quantile(a, b, "dstore_get_latency_ns", 0.5) / 1e3);
  rep->set_layer("dstore.commit_flush_ns", "ns",
                 hist_delta_mean(a, b, "dstore_stage_commit_flush_ns"));
  rep->set_layer("ds.btree_ns", "ns", hist_delta_mean(a, b, "dstore_stage_btree_ns"));
  rep->set_layer("ds.meta_zone_ns", "ns", hist_delta_mean(a, b, "dstore_stage_meta_zone_ns"));
  rep->set_layer("ds.pool_alloc_ns", "ns", hist_delta_mean(a, b, "dstore_stage_pool_alloc_ns"));

  const double ck = (double)(t.e1.ckpts - t.e0.ckpts);
  auto per_ck = [&](uint64_t x, uint64_t y, double unit) {
    return ratio((double)(y - x) / unit, ck);
  };
  rep->set_layer("dipper.checkpoints_per_s", "1/s", ratio(ck, t.secs));
  rep->set_layer("dipper.ckpt_ms_mean", "ms", per_ck(t.e0.ckpt_ns, t.e1.ckpt_ns, 1e6));
  rep->set_layer("dipper.ckpt_swap_us", "us", per_ck(t.e0.swap_ns, t.e1.swap_ns, 1e3));
  rep->set_layer("dipper.ckpt_drain_us", "us", per_ck(t.e0.drain_ns, t.e1.drain_ns, 1e3));
  rep->set_layer("dipper.ckpt_replay_ms", "ms", per_ck(t.e0.replay_ns, t.e1.replay_ns, 1e6));
  rep->set_layer("dipper.ckpt_install_us", "us", per_ck(t.e0.install_ns, t.e1.install_ns, 1e3));
  rep->set_layer("dipper.backpressure_waits", "count",
                 (double)(t.e1.backpressure - t.e0.backpressure));
  rep->set_layer("dipper.log_fill_max", "ratio", t.log_fill_max);
  std::vector<uint32_t> in, out;
  for (const Sample& s : t.traced_samples)
    if (s.op == kOpPut) (s.flags & kFlagInCkpt ? in : out).push_back(s.lat_ns);
  rep->set_layer("dipper.put_p99_in_ckpt_us", "us", quantile_us(in, 0.99));
  rep->set_layer("dipper.put_p99_out_ckpt_us", "us", quantile_us(out, 0.99));

  const double ios = delta(a, b, "ssd_ios_issued_total");
  const double written = delta(a, b, "ssd_bytes_written_total");
  const double read = delta(a, b, "ssd_bytes_read_total");
  rep->set_layer("ssd.batch_ns", "ns", hist_delta_mean(a, b, "dstore_stage_ssd_batch_ns"));
  rep->set_layer("ssd.submits_per_op", "ratio", ios / ops);
  rep->set_layer("ssd.blocks_per_submit", "ratio", ratio((written + read) / 4096.0, ios));
  rep->set_layer("ssd.write_amp", "ratio", ratio(written, put_bytes));
  rep->set_layer("ssd.read_amp", "ratio", ratio(read, get_bytes));
  rep->set_layer("ssd.retries", "count", delta(a, b, "ssd_io_retries_total"));
  rep->set_layer("ssd.crc_failures", "count", delta(a, b, "ssd_read_crc_failures_total"));

  // Foreground persistence per put comes from the store's sampled per-op
  // histograms; everything else PMEM flushed in the phase is checkpointing.
  const double lines_per_put = hist_delta_mean(a, b, "dstore_put_flushes_per_op");
  const double flushed = delta(a, b, "pmem_bytes_flushed_total");
  rep->set_layer("pmem.flushes_per_put", "ratio", lines_per_put);
  rep->set_layer("pmem.fences_per_put", "ratio", hist_delta_mean(a, b, "dstore_put_fences_per_op"));
  rep->set_layer("pmem.bytes_flushed_per_user_byte", "ratio", ratio(flushed, put_bytes));
  rep->set_layer("pmem.ckpt_bytes_per_ckpt", "bytes",
                 ratio(std::max(0.0, flushed - 64.0 * lines_per_put * (double)puts), ck));

  const double objects = (double)std::max<uint64_t>(1, t.objects);
  rep->set_layer("space.dram_bytes_per_object", "bytes", (double)t.usage.dram_bytes / objects);
  rep->set_layer("space.pmem_bytes_per_object", "bytes", (double)t.usage.pmem_bytes / objects);
  rep->set_layer("space.ssd_bytes_per_object", "bytes", (double)t.usage.ssd_bytes / objects);

  auto p50 = [](const Window& w) {
    auto it = w.metrics.find("put_p50_us");
    return it == w.metrics.end() ? 0.0 : it->second.median;
  };
  const double base = p50(t.untraced);
  rep->set_layer("trace.overhead_pct", "%", ratio(p50(t.traced) - base, base) * 100.0);
  rep->set_layer("failed_ratio", "ratio",
                 ratio((double)t.traced.failed, (double)t.traced.attempted));
  rep->attempted = t.traced.attempted;
  rep->failed = t.traced.failed;
  rep->note("traced_s", t.secs);
}

// ---- report ----------------------------------------------------------------

namespace {
std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if ((unsigned char)c < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::map<std::string, Report::Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, x] : m) {
    out += (first ? "" : ", ") + json_str(name) + ": {\"value\": " + num(x.value) +
           ", \"unit\": " + json_str(x.unit);
    if (!x.spread.reps.empty()) {
      out += ", \"q1\": " + num(x.spread.q1) + ", \"q3\": " + num(x.spread.q3) + ", \"reps\": [";
      for (size_t i = 0; i < x.spread.reps.size(); i++)
        out += (i ? ", " : "") + num(x.spread.reps[i]);
      out += "]";
    }
    out += "}";
    first = false;
  }
  return out + "}";
}
}  // namespace

void report_window(const Window& w, bool trace, Report* rep) {
  // Tails stay diagnostics: on a shared 4-vCPU host the served workloads'
  // p99/p999 moved 2-10x between runs, so they cannot carry a bound.
  static const char* const kTails[] = {"put_p99_us", "put_p999_us", "get_p99_us",
                                       "get_p999_us"};
  const size_t n = w.lag_p99_us.size();
  std::vector<bool> keep(n, true);
  size_t left_out = 0;
  for (size_t r = 0; r < n; r++) {
    if (w.lag_p99_us[r] * 1e3 > kMaxLagNs) {
      keep[r] = false;
      left_out++;
    }
  }
  if (n - left_out < kMinRepsKept) {
    keep.assign(n, true);
    left_out = 0;
  }
  rep->note("reps_left_out", (uint64_t)left_out);
  for (const auto& [name, all] : w.metrics) {
    std::vector<double> kept;
    for (size_t r = 0; r < all.reps.size(); r++)
      if (r >= n || keep[r]) kept.push_back(all.reps[r]);
    const Stat s = summarize(kept);
    bool tail = std::find(std::begin(kTails), std::end(kTails), name) != std::end(kTails);
    std::string unit = name == "throughput_ops" || name == "min_window_ops" ? "ops/s" : "us";
    if (!tail) rep->set_e2e(name, unit, s);
    if (tail && trace) rep->set_layer(name, unit, s.median);
  }
  rep->attempted = w.attempted;
  rep->failed = w.failed;
}

std::string Report::to_json() const {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"end_to_end\": " + metrics_json(e2e) +
                    ", \"per_layer\": " + metrics_json(layer) + ", \"provenance\": {";
  bool first = true;
  for (const auto& [k, v] : provenance) {
    out += (first ? "" : ", ") + json_str(k) + ": " + v;
    first = false;
  }
  out += "}, \"errors\": [";
  for (size_t i = 0; i < errors.size(); i++) out += (i ? ", " : "") + json_str(errors[i]);
  return out + "]}";
}

}  // namespace perfbench
