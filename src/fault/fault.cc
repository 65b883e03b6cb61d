#include "fault/fault.h"

#include <algorithm>
#include <charconv>

#include "common/clock.h"

namespace dstore::fault {

const char* fault_type_name(FaultType t) {
  switch (t) {
    case FaultType::kNone:
      return "none";
    case FaultType::kCrash:
      return "crash";
    case FaultType::kError:
      return "error";
    case FaultType::kTorn:
      return "torn";
    case FaultType::kDelay:
      return "delay";
    case FaultType::kEvict:
      return "evict";
    case FaultType::kBitFlipPmemLine:
      return "pmemflip";
    case FaultType::kBitFlipSsdPage:
      return "ssdflip";
    case FaultType::kMisdirectedWrite:
      return "misdirect";
  }
  return "?";
}

namespace {

bool parse_type(std::string_view name, FaultType* out) {
  for (FaultType t : {FaultType::kNone, FaultType::kCrash, FaultType::kError,
                      FaultType::kTorn, FaultType::kDelay, FaultType::kEvict,
                      FaultType::kBitFlipPmemLine, FaultType::kBitFlipSsdPage,
                      FaultType::kMisdirectedWrite}) {
    if (name == fault_type_name(t)) {
      *out = t;
      return true;
    }
  }
  return false;
}

template <typename T>
bool parse_int(std::string_view s, T* out) {
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr == last;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

}  // namespace

std::string FaultSpec::to_string() const {
  std::string s = point + "@" + std::to_string(hit);
  bool need_repeat = repeat != 1;
  bool need_arg = arg != 0 || need_repeat;
  bool need_type = type != FaultType::kCrash || need_arg;
  if (need_type) s += std::string(":") + fault_type_name(type);
  if (need_arg) s += ":" + std::to_string(arg);
  if (need_repeat) s += ":" + std::to_string(repeat);
  return s;
}

std::string FaultPlan::to_string() const {
  std::string s;
  if (seed_ != 0) s = "seed=" + std::to_string(seed_);
  for (const FaultSpec& spec : specs_) {
    if (!s.empty()) s += ";";
    s += spec.to_string();
  }
  if (s.empty()) s = "(empty)";
  return s;
}

Result<FaultPlan> FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  if (text == "(empty)" || text.empty()) return plan;
  for (std::string_view part : split(text, ';')) {
    if (part.empty()) continue;
    if (part.substr(0, 5) == "seed=") {
      uint64_t seed = 0;
      if (!parse_int(part.substr(5), &seed)) {
        return Status::invalid_argument("FaultPlan: bad seed in '" +
                                        std::string(part) + "'");
      }
      plan.seed_ = seed;
      continue;
    }
    std::vector<std::string_view> fields = split(part, ':');
    size_t at = fields[0].rfind('@');
    if (at == std::string_view::npos || at == 0) {
      return Status::invalid_argument("FaultPlan: expected point@hit in '" +
                                      std::string(part) + "'");
    }
    FaultSpec spec;
    spec.point = std::string(fields[0].substr(0, at));
    if (!parse_int(fields[0].substr(at + 1), &spec.hit) || spec.hit == 0) {
      return Status::invalid_argument("FaultPlan: bad hit number in '" +
                                      std::string(part) + "'");
    }
    if (fields.size() > 1 && !parse_type(fields[1], &spec.type)) {
      return Status::invalid_argument("FaultPlan: unknown fault type in '" +
                                      std::string(part) + "'");
    }
    if (fields.size() > 2 && !parse_int(fields[2], &spec.arg)) {
      return Status::invalid_argument("FaultPlan: bad arg in '" +
                                      std::string(part) + "'");
    }
    if (fields.size() > 3 && !parse_int(fields[3], &spec.repeat)) {
      return Status::invalid_argument("FaultPlan: bad repeat in '" +
                                      std::string(part) + "'");
    }
    if (fields.size() > 4) {
      return Status::invalid_argument("FaultPlan: trailing fields in '" +
                                      std::string(part) + "'");
    }
    plan.specs_.push_back(std::move(spec));
  }
  return plan;
}

FaultPlan FaultPlan::random(
    uint64_t seed, const std::vector<std::pair<std::string, uint64_t>>& space) {
  FaultPlan plan(seed);
  Rng rng(seed ^ 0xfa0175eedULL);
  uint64_t total = 0;
  for (const auto& [point, count] : space) total += count;
  if (total == 0) return plan;
  // Optionally harass the run with a spurious eviction before the crash.
  if (rng.next_bool(0.5)) {
    uint64_t pick = rng.next_below(total);
    for (const auto& [point, count] : space) {
      if (pick < count) {
        if (point.rfind("pmem.", 0) == 0) {
          plan.add({point, pick + 1, FaultType::kEvict, 1 + rng.next_below(8), 1});
        }
        break;
      }
      pick -= count;
    }
  }
  // The crash itself: uniform over the whole (point, hit) space.
  uint64_t pick = rng.next_below(total);
  for (const auto& [point, count] : space) {
    if (pick < count) {
      plan.add({point, pick + 1, FaultType::kCrash, 0, 1});
      break;
    }
    pick -= count;
  }
  return plan;
}

void FaultInjector::set_plan(FaultPlan plan) {
  MutexGuard g(mu_);
  plan_ = std::move(plan);
  counts_.clear();
  rng_ = Rng(plan_.seed() != 0 ? plan_.seed() : 0x0defa017ULL);
  crashed_.store(false, std::memory_order_release);
}

void FaultInjector::reset() {
  MutexGuard g(mu_);
  counts_.clear();
  rng_ = Rng(plan_.seed() != 0 ? plan_.seed() : 0x0defa017ULL);
  crashed_.store(false, std::memory_order_release);
}

void FaultInjector::add_crash_sink(std::function<void()> sink) {
  MutexGuard g(mu_);
  sinks_.push_back(std::move(sink));
}

void FaultInjector::trigger_crash() {
  std::vector<std::function<void()>> to_run;
  {
    MutexGuard g(mu_);
    if (crashed_.exchange(true, std::memory_order_acq_rel)) return;
    to_run = sinks_;
  }
  // Sinks freeze their layer's persistence; run outside mu_ so a sink may
  // take its own locks without ordering against the injector.
  for (auto& sink : to_run) sink();
}

Outcome FaultInjector::on_hit(std::string_view point) {
  if (!armed()) return {};
  // After the (simulated) power failure nothing else can fault; the workload
  // is running on borrowed time until the harness notices crashed().
  if (crashed()) return {};
  FaultType type = FaultType::kNone;
  uint64_t arg = 0;
  uint64_t n = 0;
  {
    MutexGuard g(mu_);
    auto [it, inserted] = counts_.emplace(std::string(point), 0);
    n = ++it->second;
    for (const FaultSpec& spec : plan_.specs()) {
      if (spec.point != point) continue;
      if (n < spec.hit) continue;
      if (spec.repeat >= 0 &&
          n >= spec.hit + static_cast<uint64_t>(spec.repeat)) {
        continue;
      }
      type = spec.type;
      arg = spec.arg;
      break;
    }
  }
  if (type == FaultType::kNone) return {};
  Outcome o;
  o.type = type;
  o.arg = arg;
  switch (type) {
    case FaultType::kCrash:
      trigger_crash();
      break;
    case FaultType::kTorn:
      // The layer persists the prefix first, then calls trigger_crash().
      break;
    case FaultType::kError:
      o.status = Status::io_error("injected transient fault at " +
                                  std::string(point) + "#" + std::to_string(n));
      break;
    case FaultType::kDelay:
      spin_for_ns(arg);
      break;
    case FaultType::kEvict:
    case FaultType::kBitFlipPmemLine:
    case FaultType::kBitFlipSsdPage:
    case FaultType::kMisdirectedWrite:
      // Silent corruption (and eviction) is applied by the faulting layer:
      // the op must complete "successfully" with wrong bytes, which only
      // the layer holding the buffers can arrange.
    case FaultType::kNone:
      break;
  }
  return o;
}

uint64_t FaultInjector::hit_count(std::string_view point) const {
  MutexGuard g(mu_);
  auto it = counts_.find(std::string(point));
  return it == counts_.end() ? 0 : it->second;
}

std::vector<std::pair<std::string, uint64_t>> FaultInjector::hit_counts() const {
  std::vector<std::pair<std::string, uint64_t>> out;
  {
    MutexGuard g(mu_);
    out.assign(counts_.begin(), counts_.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dstore::fault
