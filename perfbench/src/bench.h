// Shared pieces of the DStore benchmark: self-checking values and the
// version oracle, latency samples and their summaries, metric-registry
// deltas, spans, the warm-up rule, and the forwarding decorators the traced
// run wraps around the store's pluggable interfaces.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dstore/dstore.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "repl/repl.h"
#include "ssd/block_device.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // measured phase length
  bool trace = false;
  int setups = 5;       // store/fleet set-ups timed for setup_s (median)
  int reps = 10;        // measured phase is split into this many equal reps
  // Test hooks proving the oracle fires: "corrupt-get" flips a byte of one
  // value read back, "drop-put" acknowledges one put without issuing it.
  std::string inject;
  std::string out_dir = ".bench_build/perfbench/out";  // spans are written here

  std::string spans_path() const {
    return out_dir + "/spans-" + workload + "-" + std::to_string(seed) + ".json";
  }
};

// ---- self-checking values --------------------------------------------------
// Layout: magic u32 | key u32 | version u64 | length u32 | seed-derived
// payload ... | crc32c u32 over every preceding byte.
inline constexpr size_t kValueOverhead = 24;
void encode_value(char* buf, size_t len, uint32_t key, uint64_t version);
// False (with the reason) unless `buf` is an intact value of `key`.
bool decode_value(const void* buf, size_t len, uint32_t key, uint64_t* version,
                  std::string* why);

// Per-key version oracle. A writer publishes `issued` before its put and
// `acked` after it; a read must return a version in [acked at its start,
// issued at its end], and after the measured phase every key must read back
// exactly its last acknowledged version.
class Oracle {
 public:
  explicit Oracle(size_t keys) : issued_(keys), acked_(keys) {}
  std::atomic<uint64_t>& issued(size_t k) { return issued_[k]; }
  std::atomic<uint64_t>& acked(size_t k) { return acked_[k]; }

  void fail(const std::string& why);
  bool ok() const { return failures_.load() == 0; }
  std::vector<std::string> errors() const;

  // Check a value read back for key `k` against the window above.
  void check_read(uint32_t k, const void* buf, size_t len, uint64_t lo, uint64_t hi);

 private:
  std::vector<std::atomic<uint64_t>> issued_, acked_;
  std::atomic<uint64_t> failures_{0};
  mutable std::mutex mu_;
  std::vector<std::string> errors_;  // first few, guarded by mu_
};

// ---- samples and summaries -------------------------------------------------
uint64_t clock_ns();  // steady clock, ns since process start

enum : uint8_t { kOpGet = 0, kOpPut = 1 };
enum : uint8_t { kFlagFailed = 1, kFlagInCkpt = 2 };
inline constexpr uint32_t kFailedLatencyNs = UINT32_MAX;  // misses every limit

struct Sample {
  uint64_t done_ns = 0;  // completion time (clock_ns)
  uint32_t lat_ns = 0;   // failed ops carry kFailedLatencyNs
  uint32_t lag_ns = 0;   // open loop: how late the generator sent it
  uint8_t op = kOpGet;
  uint8_t flags = 0;
};

// Exact quantile of nanosecond values, in microseconds; 0 for an empty vector.
double quantile_us(std::vector<uint32_t> v, double q);

struct Stat {
  double median = 0, q1 = 0, q3 = 0;
  std::vector<double> reps;
};
Stat summarize(std::vector<double> reps);

// The latency/throughput end-to-end metrics over samples completing in
// [t0, t1), computed per rep (the window split into `reps` equal slices) and
// summarized across reps. Also counts attempted/failed ops in the window.
struct Window {
  std::map<std::string, Stat> metrics;
  uint64_t attempted = 0, failed = 0;
  std::vector<double> lag_p99_us;  // generator send lag, per rep
};
Window end_to_end(const std::vector<Sample>& s, uint64_t t0, uint64_t t1, int reps);
// The reps of several windows as one: per-metric reps concatenated and
// summarized again, attempted/failed summed.
Window pool_windows(const std::vector<Window>& parts);

// ---- spans -----------------------------------------------------------------
// Kept in memory, written once at exit (name, start, end, parent, op id).
class SpanLog {
 public:
  int64_t begin(const std::string& name, int64_t parent = -1);
  void end(int64_t id);
  void add(const std::string& name, uint64_t start, uint64_t end, int64_t parent,
           uint64_t op_id);
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    uint64_t start = 0, end = 0;
    int64_t parent = -1;
    uint64_t op_id = 0;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- metric-registry snapshots ---------------------------------------------
struct Scrape {
  std::vector<dstore::obs::MetricSnapshot> snaps;
  const dstore::obs::MetricSnapshot* find(const std::string& name) const;
  double value(const std::string& name) const;
};
Scrape merge_scrapes(const std::vector<Scrape>& parts);
double delta(const Scrape& a, const Scrape& b, const std::string& name);
// Histogram quantile / mean over the samples recorded between a and b (ns).
double hist_delta_quantile(const Scrape& a, const Scrape& b, const std::string& name, double q);
double hist_delta_mean(const Scrape& a, const Scrape& b, const std::string& name);

// ---- warm-up rule ----------------------------------------------------------
// Fed one probe per 500 ms window of load. The measured phase may start once
// (a) at least kMinWindows windows have passed, (b) every engine has run
// kMinCkpts checkpoints (so each arena slot a checkpoint writes has been
// touched), or kCkptWaitWindows windows passed without them, and (c) the
// last two windows agree: completed ops within 10%, and mean checkpoint
// time within 25% when both windows completed one. Gives up at kMaxWindows
// and says so.
class WarmupRule {
 public:
  static constexpr int kWindowMs = 500;
  static constexpr int kMinWindows = 4;
  static constexpr int kMinCkpts = 3;
  static constexpr int kCkptWaitWindows = 12;
  static constexpr int kMaxWindows = 24;
  struct Probe {
    uint64_t ops = 0, ckpts = 0, ckpt_ns = 0;  // cumulative counters
  };
  explicit WarmupRule(int engines) : engines_(engines) {}
  // True once the measured phase may start.
  bool add(const Probe& p);
  bool capped() const { return capped_; }
  int windows() const { return (int)ckpt_ms_.size(); }
  // Mean checkpoint time (ms) of the first and last warm-up window that
  // completed a checkpoint; 0 when none did.
  double first_ckpt_ms() const;
  double last_ckpt_ms() const;

 private:
  int engines_;
  bool have_prev_ = false;
  Probe first_{}, prev_{};
  std::vector<uint64_t> ops_;
  std::vector<double> ckpt_ms_;  // -1 = no checkpoint in that window
  bool capped_ = false;
};

// ---- CPU time --------------------------------------------------------------
std::vector<pid_t> list_tids();
double thread_cpu_s(pid_t tid);  // utime+stime of one thread of this process
double self_thread_cpu_s();      // calling thread

// ---- traced decorators -----------------------------------------------------
// Thread-safe bag of durations (ns).
class Durations {
 public:
  void add(uint64_t ns);
  std::vector<uint32_t> take();

 private:
  mutable std::mutex mu_;
  std::vector<uint32_t> v_;
};

// Times and counts every call into the block device DStore writes through.
class TracedDevice final : public dstore::ssd::BlockDevice {
 public:
  explicit TracedDevice(dstore::ssd::BlockDevice* inner) : inner_(inner) {}

  dstore::Status write(uint64_t block, size_t offset, const void* data, size_t len) override;
  dstore::Status read(uint64_t block, size_t offset, void* out, size_t len) const override;
  dstore::Status flush_cache() override { return inner_->flush_cache(); }
  dstore::Result<uint64_t> submit_io(const dstore::ssd::IoDesc& d) override;
  const dstore::ssd::DeviceConfig& config() const override { return inner_->config(); }
  const dstore::ssd::DeviceStats& stats() const override { return inner_->stats(); }
  void set_bandwidth_series(dstore::TimeSeries* ts) override { inner_->set_bandwidth_series(ts); }
  void set_fault_injector(dstore::fault::FaultInjector* inj) override {
    inner_->set_fault_injector(inj);
  }
  bool has_page_checksums() const override { return inner_->has_page_checksums(); }
  const void* direct_read_map(uint64_t block) const override {
    return inner_->direct_read_map(block);
  }
  dstore::Status verify_pages(uint64_t block, size_t offset, size_t len,
                              std::vector<uint64_t>* bad_pages) override {
    return inner_->verify_pages(block, offset, len, bad_pages);
  }

  std::atomic<bool> active{false};
  mutable std::atomic<uint64_t> calls{0}, bytes{0}, call_ns{0};

 private:
  void note(uint64_t t0, size_t len) const;
  dstore::ssd::BlockDevice* inner_;
};

// Times the primary's quorum waits: what the server's repl worker spends
// per replicated write after the loop ran the store op.
class TracedReplHandler final : public dstore::net::ReplHandler {
 public:
  explicit TracedReplHandler(dstore::net::ReplHandler* inner) : inner_(inner) {}

  dstore::net::ReplAck handle_append(const dstore::net::ReplEntryWire& e) override {
    return inner_->handle_append(e);
  }
  dstore::net::ReplSubscribeResult handle_subscribe(const dstore::net::ReplHello& h) override {
    return inner_->handle_subscribe(h);
  }
  std::string handle_snap_pull(const dstore::net::ReplHello& h) override {
    return inner_->handle_snap_pull(h);
  }
  dstore::net::ReplAck handle_heartbeat(const dstore::net::Heartbeat& hb) override {
    return inner_->handle_heartbeat(hb);
  }
  dstore::net::PromoteResp handle_promote(const dstore::net::PromoteReq& p) override {
    return inner_->handle_promote(p);
  }
  bool writable() override { return inner_->writable(); }
  dstore::Status finish_write() override { return await_ticket(write_ticket()); }
  uint64_t write_ticket() override { return inner_->write_ticket(); }
  dstore::Status await_ticket(uint64_t ticket) override;

  std::atomic<bool> active{false};
  Durations quorum_ns;

 private:
  dstore::net::ReplHandler* inner_;
};

// Times the primary's append calls to one follower: codec round trip plus
// the follower's apply, since the fleet's links are in-process.
class TracedPeer final : public dstore::repl::PeerRpc {
 public:
  explicit TracedPeer(std::unique_ptr<dstore::repl::PeerRpc> inner) : inner_(std::move(inner)) {}

  dstore::Result<dstore::net::ReplAck> append(const dstore::net::ReplEntryWire& e) override;
  dstore::Result<dstore::net::ReplSubscribeResult> subscribe(
      const dstore::net::ReplHello& h) override {
    return inner_->subscribe(h);
  }
  dstore::Result<dstore::net::SnapChunk> snap_pull(const dstore::net::ReplHello& h,
                                                   std::string* storage) override {
    return inner_->snap_pull(h, storage);
  }
  dstore::Result<dstore::net::ReplAck> heartbeat(const dstore::net::Heartbeat& hb) override {
    return inner_->heartbeat(hb);
  }
  dstore::Result<dstore::net::PromoteResp> promote(const dstore::net::PromoteReq& p) override {
    return inner_->promote(p);
  }

  std::atomic<bool>* active = nullptr;  // shared switch, owned by the fleet
  Durations rtt_ns;

 private:
  std::unique_ptr<dstore::repl::PeerRpc> inner_;
};

// ---- traced-phase helpers ----------------------------------------------------
// Checkpoint counters summed over a store's engines.
struct EngineTotals {
  uint64_t ckpts = 0, ckpt_ns = 0, swap_ns = 0, drain_ns = 0, replay_ns = 0, install_ns = 0,
           backpressure = 0;
  static EngineTotals of(const std::vector<const dstore::dipper::Engine*>& engines);
};

// Polls every 500 us while a traced phase runs: checkpoint spans and the
// peak log fill of `engines`, plus whatever `extra` samples.
class Sampler {
 public:
  Sampler(std::vector<const dstore::dipper::Engine*> engines, SpanLog* spans, int64_t parent,
          std::function<void()> extra = {});
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;
  ~Sampler() { stop(); }
  void stop();
  double log_fill_max() const { return log_fill_max_; }  // valid after stop()

 private:
  void run();
  std::vector<const dstore::dipper::Engine*> engines_;
  SpanLog* spans_;
  int64_t parent_;
  std::function<void()> extra_;
  double log_fill_max_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it reads
};

// The layers under the store, measured alike on every workload: registry
// deltas of the store (a -> b), its engines' checkpoint counters, and the
// ops of the untraced and traced halves of the measured phase.
struct Report;
struct StoreTrace {
  Scrape a, b;
  EngineTotals e0, e1;
  double secs = 0;
  double log_fill_max = 0;
  size_t value_bytes = 0;
  uint64_t objects = 0;
  dstore::DStore::SpaceUsage usage{};
  Window untraced, traced;  // one rep each
  std::vector<Sample> traced_samples;
};
void report_store_layers(const StoreTrace& t, Report* rep);

// ---- the result ------------------------------------------------------------
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
    Stat spread;  // across reps, when measured per rep
  };
  std::map<std::string, Metric> e2e, layer;
  std::map<std::string, std::string> provenance;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  bool correct = true;

  void set_e2e(const std::string& name, const std::string& unit, const Stat& s) {
    e2e[name] = {s.median, unit, s};
  }
  void set_layer(const std::string& name, const std::string& unit, double v) {
    layer[name] = {v, unit, {}};
  }
  template <typename T>
  void note(const std::string& key, T v) {
    provenance[key] = std::to_string(v);
  }
  void note(const std::string& key, const std::string& v) { provenance[key] = "\"" + v + "\""; }
  void note(const std::string& key, const char* v) { note(key, std::string(v)); }
  // One JSON object on one line.
  std::string to_json() const;
};

// Report an untraced window: the gated end-to-end metrics (medians across
// reps) and, in a traced run, the tail percentiles as diagnostics.
//
// Open loop: a rep whose generator lag p99 exceeds kMaxLagNs did not offer
// the scheduled load (the host starved the generator), so it is left out,
// unless fewer than kMinRepsKept reps would remain: then every rep counts,
// so a server that starves the generator in every rep cannot hide that way.
inline constexpr uint32_t kMaxLagNs = 1'000'000;
inline constexpr size_t kMinRepsKept = 3;
void report_window(const Window& w, bool trace, Report* rep);

int run_kv(const Args& args, Report* out);
int run_served(const Args& args, Report* out);

}  // namespace perfbench
