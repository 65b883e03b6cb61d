#include "fault/crash_rig.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/fnv.h"
#include "common/rng.h"

namespace dstore::fault {

void EitherStateOracle::ack(const std::string& key, const Value& value) {
  if (value.has_value()) {
    acked_[key] = *value;
  } else {
    acked_.erase(key);
  }
}

bool EitherStateOracle::holds_acked(const std::string& key, const Value& got) const {
  auto it = acked_.find(key);
  return it != acked_.end() ? got == it->second : !got.has_value();
}

Status EitherStateOracle::check(const std::string& key, const Value& got) const {
  auto in_flight = in_flight_.find(key);
  if (in_flight != in_flight_.end()) {
    if (!holds_acked(key, got) && got != in_flight->second) {
      return Status::corruption("key " + key + " matches neither its pre- nor post-crash value");
    }
  } else if (!holds_acked(key, got)) {
    return acked_.count(key) != 0
               ? Status::corruption("committed value lost or changed for key " + key)
               : Status::corruption("deleted/absent key " + key + " reappeared");
  }
  return Status::ok();
}

CrashRig::CrashRig(RigOptions opt) : opt_(opt) {}

Status CrashRig::build_store() {
  DSTORE_RETURN_IF_ERROR(rig_ == nullptr ? make_rig() : rig_->create());
  return opt_.tag_every_page ? rig_->tag_every_page() : Status::ok();
}

Status CrashRig::make_rig() {
  DStoreConfig cfg;
  cfg.max_objects = opt_.max_objects;
  cfg.num_blocks = opt_.num_blocks;
  cfg.engine.log_slots = opt_.log_slots;
  cfg.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(opt_.max_objects);
  // The rig is single-threaded by design: checkpoints run inline via
  // checkpoint_now(), so every fault-point hit has one deterministic order.
  cfg.engine.background_checkpointing = false;
  cfg.engine.fault = &injector_;
  if (opt_.repair_logging) {
    cfg.repair_logging = true;
    // The payload region slot must hold the largest whole-object put.
    cfg.engine.physical_payload_bytes = std::max<uint64_t>(8192ull * opt_.value_scale,
                                                           max_value_bytes());
  }
  ssd::DeviceConfig dc;
  dc.num_blocks = opt_.num_blocks;
  dc.power_loss_protection = opt_.plp;
  rig_ = std::make_unique<StoreRig>(cfg, pmem::Pool::Mode::kCrashSim, dc);
  return rig_->status();
}

size_t CrashRig::max_value_bytes() const {
  return opt_.value_bytes != 0 ? opt_.value_bytes : (1 + 5003) * (size_t)opt_.value_scale;
}

std::string CrashRig::value_for(uint32_t i) const {
  // 5003 is prime and 131 < 5003, so the length is unique per op for any
  // workload shorter than 5003 ops: values from different ops never collide
  // (value_scale preserves uniqueness — it multiplies distinct lengths).
  size_t len = opt_.value_bytes != 0 ? opt_.value_bytes
                                     : (1 + (131ull * i + 17) % 5003) * opt_.value_scale;
  std::string v(len, '\0');
  for (size_t j = 0; j < len; j++) v[j] = char('a' + (i + j) % 26);
  if (opt_.value_bytes != 0) {
    // Equal lengths: the op number keeps every value distinct.
    std::string id = "#" + std::to_string(i) + "#";
    id.copy(v.data(), std::min(id.size(), len));
  }
  return v;
}

bool CrashRig::run(const FaultPlan& plan) {
  injector_.set_plan(plan);
  injector_.disarm();
  oracle_.clear();
  Status s = build_store();
  if (!s.is_ok()) return false;  // surfaced by the first verify()
  injector_.arm();
  run_workload();
  injector_.disarm();
  return injector_.crashed();
}

void CrashRig::run_workload() {
  if (opt_.split_puts > 0) return run_split_workload();
  Rng rng(opt_.workload_seed);
  DStore* store = rig_->store.get();
  ds_ctx_t* ctx = rig_->ctx;
  for (uint32_t i = 0; i < opt_.ops; i++) {
    if (injector_.crashed()) break;
    if (i == opt_.ops / 2) {
      // One full inline checkpoint cycle mid-workload: swap, drain, clone,
      // replay, bulk flush, install, recycle — all on this thread.
      // lint: allow-discard a checkpoint interrupted by the planned crash is the point
      (void)store->checkpoint_now();
      if (injector_.crashed()) break;
    }
    std::string key = "k" + std::to_string(rng.next_below(opt_.keys));
    bool del = rng.next_below(4) == 0;
    EitherStateOracle::Value val;
    if (!del) val = value_for(i);
    Status s = del ? store->odelete(ctx, key)
                   : store->oput(ctx, key, val->data(), val->size());
    if (injector_.crashed()) {
      // The op was in flight when the power failed: it may or may not have
      // reached its commit point. verify() accepts either state.
      oracle_.interrupt(key, std::move(val));
      break;
    }
    if (s.is_ok()) oracle_.ack(key, val);
    // A non-ok status without a crash (e.g. delete of an absent key, or an
    // aborted op after an injected transient error) must act as a no-op;
    // the oracle stays put and verify() will hold the store to that.
  }
}

void CrashRig::run_split_workload() {
  Rng rng(opt_.workload_seed);
  DStore* store = rig_->store.get();
  ds_ctx_t* ctx = rig_->ctx;
  const uint32_t k = std::min(opt_.split_puts, opt_.keys);
  const uint32_t rounds = opt_.ops / k;
  struct Pending {
    std::string key;
    std::string value;  // the op reads it until finish
    std::unique_ptr<DStore::WriteOp> op;
    bool archived = false;  // begun before the checkpoint's log swap
  };
  std::vector<uint32_t> keys(opt_.keys);
  for (uint32_t round = 0; round < rounds && !injector_.crashed(); round++) {
    // k distinct keys: a second begin on a key in flight would be busy.
    for (uint32_t i = 0; i < opt_.keys; i++) keys[i] = i;
    for (uint32_t i = 0; i < k; i++) std::swap(keys[i], keys[i + rng.next_below(opt_.keys - i)]);
    std::vector<Pending> pending;
    pending.reserve(k);  // never reallocates: begun ops point into values
    std::thread ckpt;
    std::atomic<bool> ckpt_done{false};
    for (uint32_t j = 0; j < k && !injector_.crashed(); j++) {
      if (round == rounds / 2 && j == k / 2) {
        const uint8_t side = store->engine().active_log_index();
        ckpt = std::thread([&] {
          // lint: allow-discard a checkpoint interrupted by the planned crash is the point
          (void)store->checkpoint_now();
          ckpt_done.store(true, std::memory_order_release);
        });
        while (store->engine().active_log_index() == side &&
               !ckpt_done.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        if (store->engine().active_log_index() != side) {
          for (Pending& p : pending) p.archived = true;
        }
      }
      const uint32_t i = round * k + j;
      Pending& p = pending.emplace_back();
      p.key = "k" + std::to_string(keys[j]);
      p.value = value_for(i);
      auto w = store->oput_begin(ctx, p.key, p.value.data(), p.value.size(), /*wait=*/false);
      if (w.is_ok()) {
        p.op = std::move(w).value();
      } else if (!injector_.crashed()) {
        pending.pop_back();  // a failed begin (busy) is a no-op
      }
    }
    // Finish in a seeded permutation. Whatever is unfinished when the power
    // fails is in flight: either state at verify. Once the last op the
    // drain waits on is finished, join the checkpoint before any more hits.
    std::vector<size_t> order(pending.size());
    for (size_t i = 0; i < order.size(); i++) order[i] = i;
    for (size_t i = order.size(); i > 1; i--) std::swap(order[i - 1], order[rng.next_below(i)]);
    size_t archived_left = 0;
    for (const Pending& p : pending) archived_left += p.archived ? 1 : 0;
    for (size_t idx : order) {
      Pending& p = pending[idx];
      const bool was_crashed = injector_.crashed();
      Status s = p.op != nullptr ? p.op->finish() : Status::internal("begin lost power");
      p.op.reset();
      if (was_crashed || injector_.crashed()) {
        oracle_.interrupt(p.key, p.value);
      } else if (s.is_ok()) {
        oracle_.ack(p.key, p.value);
      }
      if (p.archived && --archived_left == 0 && ckpt.joinable()) ckpt.join();
    }
    if (ckpt.joinable()) ckpt.join();
  }
}

void CrashRig::apply_crash() {
  injector_.disarm();
  rig_->crash();
}

Status CrashRig::recover(const FaultPlan* recovery_plan, bool* crashed_again) {
  return rig_->recover(recovery_plan, crashed_again);
}

Status CrashRig::verify() {
  DStore* store = rig_ != nullptr ? rig_->store.get() : nullptr;
  if (store == nullptr) return Status::internal("rig has no live store");
  DSTORE_RETURN_IF_ERROR(store->validate());
  ds_ctx_t* ctx = rig_->ctx;
  std::vector<char> buf(max_value_bytes() + 128);
  uint64_t found = 0;
  for (uint32_t k = 0; k < opt_.keys; k++) {
    std::string key = "k" + std::to_string(k);
    auto r = store->oget(ctx, key, buf.data(), buf.size());
    if (!r.is_ok() && r.status().code() != Code::kNotFound) return r.status();
    EitherStateOracle::Value got;
    if (r.is_ok()) {
      found++;
      got.emplace(buf.data(), std::min(r.value(), buf.size()));
    }
    DSTORE_RETURN_IF_ERROR(oracle_.check(key, got));
  }
  if (store->object_count() != found) {
    return Status::corruption("object_count disagrees with per-key probes");
  }
  return Status::ok();
}

Status CrashRig::verify_integrity(uint64_t* detected) {
  DStore* store = rig_ != nullptr ? rig_->store.get() : nullptr;
  if (store == nullptr) return Status::internal("rig has no live store");
  ds_ctx_t* ctx = rig_->ctx;
  std::vector<char> buf(max_value_bytes() + 128);
  Status problem;
  for (uint32_t k = 0; k < opt_.keys && problem.is_ok(); k++) {
    std::string key = "k" + std::to_string(k);
    uint64_t failures_before = store->counters().checksum_failures;
    auto r = store->oget(ctx, key, buf.data(), buf.size());
    if (!r.is_ok()) {
      if (r.status().code() == Code::kCorruption) {
        if (detected != nullptr) (*detected)++;
        continue;  // detected and contained: exactly what the sweep wants
      }
      if (r.status().code() != Code::kNotFound) {
        problem = r.status();
        break;
      }
    }
    if (r.is_ok() &&
        store->counters().checksum_failures > failures_before &&
        detected != nullptr) {
      (*detected)++;  // read-repair healed the pages under this read
    }
    EitherStateOracle::Value got;
    if (r.is_ok()) got.emplace(buf.data(), std::min(r.value(), buf.size()));
    if (!oracle_.holds_acked(key, got)) {
      problem = Status::corruption("silent corruption: key " + key +
                                   " read OK but does not match the oracle");
    }
  }
  return problem;
}

uint64_t CrashRig::pmem_fingerprint() const {
  return fnv1a(rig_->pool->base(), rig_->pool->size());
}

std::vector<std::pair<std::string, uint64_t>> CrashRig::enumerate_schedule(RigOptions opt) {
  CrashRig rig(opt);
  rig.run(FaultPlan());  // armed, fault-free: pure counting pass
  return rig.injector().hit_counts();
}

std::vector<FaultPlan> all_crash_plans(
    const std::vector<std::pair<std::string, uint64_t>>& space) {
  std::vector<FaultPlan> plans;
  for (const auto& [point, count] : space) {
    for (uint64_t hit = 1; hit <= count; hit++) {
      plans.push_back(FaultPlan::crash_at(point, hit));
    }
  }
  return plans;
}

std::vector<FaultPlan> all_corruption_plans(
    const std::vector<std::pair<std::string, uint64_t>>& space, uint64_t seed) {
  Rng rng(seed);
  std::vector<FaultPlan> plans;
  auto add = [&](const std::string& point, uint64_t hit, FaultType type, uint64_t arg) {
    FaultPlan p(seed);
    p.add({point, hit, type, arg, 1});
    plans.push_back(std::move(p));
  };
  for (const auto& [point, count] : space) {
    for (uint64_t hit = 1; hit <= count; hit++) {
      if (point == "ssd.write") {
        // arg is the bit to flip (mod page bits); drawn seeded so sweeps
        // with different seeds cover different bit positions.
        add(point, hit, FaultType::kBitFlipSsdPage, rng.next_below(4096 * 8));
        add(point, hit, FaultType::kMisdirectedWrite, 1 + rng.next_below(7));
      } else if (point == "ssd.read") {
        add(point, hit, FaultType::kBitFlipSsdPage, rng.next_below(4096 * 8));
      }
    }
  }
  return plans;
}

}  // namespace dstore::fault
