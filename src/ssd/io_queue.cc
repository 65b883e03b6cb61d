#include "ssd/io_queue.h"

#include <algorithm>

#include "common/clock.h"

namespace dstore::ssd {

size_t IoQueue::submit(const IoDesc& d) {
  reap_until_below(depth_);
  Sub sub;
  sub.desc = d;
  auto r = dev_->submit_io(d);
  if (r.is_ok()) {
    sub.deadline = r.value();
    if (sub.deadline <= now_ns()) {
      sub.done = true;  // completed inline (zero-latency device, frozen, ...)
    } else {
      inflight_++;
    }
  } else {
    // Errored at submission: the device posts the completion immediately.
    // A checksum-failed read completes here too — the device verifies the
    // sidecar before acking, so the bad completion is visible the moment
    // the caller reaps it, never after the data has been consumed.
    sub.status = r.status();
    sub.done = true;
    if (sub.status.code() == Code::kCorruption) crc_failures_++;
  }
  subs_.push_back(std::move(sub));
  return subs_.size() - 1;
}

size_t IoQueue::poll() {
  reap(now_ns());
  return inflight_;
}

uint64_t IoQueue::reap(uint64_t now) {
  uint64_t earliest = UINT64_MAX;
  for (Sub& s : subs_) {
    if (s.done) continue;
    if (s.deadline <= now) {
      s.done = true;
      inflight_--;
    } else {
      earliest = std::min(earliest, s.deadline);
    }
  }
  return earliest;
}

void IoQueue::reap_until_below(size_t target) {
  if (inflight_ < target) return;
  // Each wait ends on the earliest outstanding deadline, and the reading it
  // woke on reaps: no second clock read between the wait and the reap.
  for (uint64_t now = now_ns();;) {
    uint64_t earliest = reap(now);
    if (inflight_ < target) return;
    now = spin_until_ns(earliest);
  }
}

void IoQueue::wait_all() { reap_until_below(1); }

Status IoQueue::resubmit(size_t id) {
  resubmits_++;
  Sub& sub = subs_[id];
  auto r = dev_->submit_io(sub.desc);
  if (!r.is_ok()) {
    sub.status = r.status();
    sub.done = true;
    if (sub.status.code() == Code::kCorruption) crc_failures_++;
    return sub.status;
  }
  spin_until_ns(r.value());
  sub.status = Status::ok();
  sub.done = true;
  return sub.status;
}

bool IoQueue::all_ok() const {
  for (const Sub& s : subs_) {
    if (!s.done || !s.status.is_ok()) return false;
  }
  return true;
}

}  // namespace dstore::ssd
