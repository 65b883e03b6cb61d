#include "fault/crash_rig.h"

#include <algorithm>

#include "common/rng.h"

namespace dstore::fault {

CrashRig::CrashRig(RigOptions opt) : opt_(opt) {}

Status CrashRig::build_store() {
  cfg_ = DStoreConfig{};
  cfg_.max_objects = opt_.max_objects;
  cfg_.num_blocks = opt_.num_blocks;
  cfg_.engine.log_slots = opt_.log_slots;
  cfg_.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(opt_.max_objects);
  // The rig is single-threaded by design: checkpoints run inline via
  // checkpoint_now(), so every fault-point hit has one deterministic order.
  cfg_.engine.background_checkpointing = false;
  cfg_.engine.fault = &injector_;
  if (opt_.repair_logging) {
    cfg_.repair_logging = true;
    // Workload values reach (5003 + 1) * value_scale bytes; the payload
    // region slot must hold the largest whole-object put.
    cfg_.engine.physical_payload_bytes = 8192ull * opt_.value_scale;
  }

  size_t pool_bytes = DStoreConfig::required_pool_bytes(cfg_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<pmem::Pool>(pool_bytes, pmem::Pool::Mode::kCrashSim);
    ssd::DeviceConfig dc;
    dc.num_blocks = opt_.num_blocks;
    dc.power_loss_protection = opt_.plp;
    device_ = std::make_unique<ssd::RamBlockDevice>(dc);
    pool_->set_fault_injector(&injector_);
    device_->set_fault_injector(&injector_);
  }
  auto s = DStore::create(pool_.get(), device_.get(), cfg_);
  if (!s.is_ok()) return s.status();
  store_ = std::move(s).value();
  return Status::ok();
}

std::string CrashRig::value_for(uint32_t i) const {
  // 5003 is prime and 131 < 5003, so the length is unique per op for any
  // workload shorter than 5003 ops: values from different ops never collide
  // (value_scale preserves uniqueness — it multiplies distinct lengths).
  size_t len = (1 + (131ull * i + 17) % 5003) * opt_.value_scale;
  std::string v(len, '\0');
  for (size_t j = 0; j < len; j++) v[j] = char('a' + (i + j) % 26);
  return v;
}

bool CrashRig::run(const FaultPlan& plan) {
  injector_.set_plan(plan);
  injector_.disarm();
  oracle_.clear();
  pending_ = {};
  store_.reset();
  Status s = build_store();
  if (!s.is_ok()) return false;  // surfaced by the first verify()
  injector_.arm();
  run_workload();
  injector_.disarm();
  return injector_.crashed();
}

void CrashRig::run_workload() {
  Rng rng(opt_.workload_seed);
  ds_ctx_t* ctx = store_->ds_init();
  for (uint32_t i = 0; i < opt_.ops; i++) {
    if (injector_.crashed()) break;
    if (i == opt_.ops / 2) {
      // One full inline checkpoint cycle mid-workload: swap, drain, clone,
      // replay, bulk flush, install, recycle — all on this thread.
      // lint: allow-discard a checkpoint interrupted by the planned crash is the point
      (void)store_->checkpoint_now();
      if (injector_.crashed()) break;
    }
    std::string key = "k" + std::to_string(rng.next_below(opt_.keys));
    bool del = rng.next_below(4) == 0;
    std::string val = del ? std::string() : value_for(i);
    Status s = del ? store_->odelete(ctx, key)
                   : store_->oput(ctx, key, val.data(), val.size());
    if (injector_.crashed()) {
      // The op was in flight when the power failed: it may or may not have
      // reached its commit point. verify() accepts either state.
      pending_.active = true;
      pending_.is_delete = del;
      pending_.key = key;
      pending_.value = val;
      break;
    }
    if (s.is_ok()) {
      if (del) {
        oracle_.erase(key);
      } else {
        oracle_[key] = val;
      }
    }
    // A non-ok status without a crash (e.g. delete of an absent key, or an
    // aborted op after an injected transient error) must act as a no-op;
    // the oracle stays put and verify() will hold the store to that.
  }
  store_->ds_finalize(ctx);
}

void CrashRig::apply_crash() {
  injector_.disarm();
  // The store object is "dead hardware state" now; its destructor's writes
  // land on the frozen pool/device images and change nothing durable.
  store_.reset();
  pool_->crash();
  device_->crash();
}

Status CrashRig::recover(const FaultPlan* recovery_plan, bool* crashed_again) {
  if (recovery_plan != nullptr) {
    injector_.set_plan(*recovery_plan);  // counters reset: recovery-relative hits
    injector_.arm();
  }
  auto r = DStore::recover(pool_.get(), device_.get(), cfg_);
  if (recovery_plan != nullptr) {
    if (crashed_again != nullptr) *crashed_again = injector_.crashed();
    injector_.disarm();
  }
  if (!r.is_ok()) return r.status();
  store_ = std::move(r).value();
  return Status::ok();
}

Status CrashRig::verify() {
  if (store_ == nullptr) return Status::internal("rig has no live store");
  DSTORE_RETURN_IF_ERROR(store_->validate());
  ds_ctx_t* ctx = store_->ds_init();
  std::vector<char> buf((1 + 5003) * (size_t)opt_.value_scale + 128);
  Status problem;
  uint64_t found = 0;
  for (uint32_t k = 0; k < opt_.keys && problem.is_ok(); k++) {
    std::string key = "k" + std::to_string(k);
    auto r = store_->oget(ctx, key, buf.data(), buf.size());
    if (!r.is_ok() && r.status().code() != Code::kNotFound) {
      problem = r.status();
      break;
    }
    bool present = r.is_ok();
    if (present) found++;
    std::string got =
        present ? std::string(buf.data(), std::min(r.value(), buf.size())) : std::string();
    auto it = oracle_.find(key);
    bool old_ok = it != oracle_.end() ? (present && got == it->second) : !present;
    if (pending_.active && key == pending_.key) {
      bool new_ok = pending_.is_delete ? !present : (present && got == pending_.value);
      if (!old_ok && !new_ok) {
        problem = Status::corruption("key " + key +
                                     " matches neither its pre- nor post-crash value");
      }
    } else if (!old_ok) {
      problem = it != oracle_.end()
                    ? Status::corruption("committed value lost or changed for key " + key)
                    : Status::corruption("deleted/absent key " + key + " reappeared");
    }
  }
  if (problem.is_ok() && store_->object_count() != found) {
    problem = Status::corruption("object_count disagrees with per-key probes");
  }
  store_->ds_finalize(ctx);
  return problem;
}

Status CrashRig::verify_integrity(uint64_t* detected) {
  if (store_ == nullptr) return Status::internal("rig has no live store");
  ds_ctx_t* ctx = store_->ds_init();
  std::vector<char> buf((1 + 5003) * (size_t)opt_.value_scale + 128);
  Status problem;
  for (uint32_t k = 0; k < opt_.keys && problem.is_ok(); k++) {
    std::string key = "k" + std::to_string(k);
    uint64_t failures_before = store_->counters().checksum_failures;
    auto r = store_->oget(ctx, key, buf.data(), buf.size());
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
        store_->counters().checksum_failures > failures_before &&
        detected != nullptr) {
      (*detected)++;  // read-repair healed the pages under this read
    }
    bool present = r.is_ok();
    std::string got =
        present ? std::string(buf.data(), std::min(r.value(), buf.size())) : std::string();
    auto it = oracle_.find(key);
    bool old_ok = it != oracle_.end() ? (present && got == it->second) : !present;
    if (!old_ok) {
      problem = Status::corruption("silent corruption: key " + key +
                                   " read OK but does not match the oracle");
    }
  }
  store_->ds_finalize(ctx);
  return problem;
}

uint64_t CrashRig::pmem_fingerprint() const {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(pool_->base());
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < pool_->size(); i++) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  return h;
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
