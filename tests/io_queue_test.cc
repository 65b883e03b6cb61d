// Tests of the async NVMe queue-pair layer (ssd::IoQueue) and its DStore
// data-plane integration: queue-depth latency overlap, bandwidth
// serialization, contiguous-run coalescing and its stat counters, the
// per-descriptor retry path, and — with fault injection compiled in —
// power failures with IOs in flight, under both PLP modes, held to a
// shadow oracle after recovery. Every fault schedule is reproducible from
// its FaultPlan string.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "dstore/dstore.h"
#include "fault/crash_rig.h"
#include "fault/fault.h"
#include "pmem/pool.h"
#include "ssd/block_device.h"
#include "ssd/io_queue.h"
#include "ssd/io_retry.h"

namespace dstore {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::FaultType;

ssd::DeviceConfig dev_cfg(uint64_t blocks = 64, LatencyModel lat = LatencyModel::none(),
                          bool plp = true) {
  ssd::DeviceConfig cfg;
  cfg.page_size = 4096;
  cfg.pages_per_block = 1;
  cfg.num_blocks = blocks;
  cfg.power_loss_protection = plp;
  cfg.latency = lat;
  return cfg;
}

std::string patterned(size_t len, char seed) {
  std::string v(len, '\0');
  for (size_t i = 0; i < len; i++) v[i] = char(seed + i % 23);
  return v;
}

// ---------------------------------------------------------------------------
// IoQueue over a raw device: correctness and timing
// ---------------------------------------------------------------------------

TEST(IoQueue, WritesAndReadsCompleteWithCorrectData) {
  ssd::RamBlockDevice dev(dev_cfg());
  std::string a = patterned(4096, 'a'), b = patterned(4096, 'b'), c = patterned(1000, 'c');
  ssd::IoQueue wq(&dev, 4);
  wq.submit(ssd::IoDesc{2, 0, a.size(), a.data(), nullptr});
  wq.submit(ssd::IoDesc{5, 0, b.size(), b.data(), nullptr});
  wq.submit(ssd::IoDesc{7, 96, c.size(), c.data(), nullptr});
  wq.wait_all();
  EXPECT_TRUE(wq.all_ok());
  EXPECT_EQ(wq.size(), 3u);
  EXPECT_EQ(wq.in_flight(), 0u);

  std::string ra(a.size(), 0), rb(b.size(), 0), rc(c.size(), 0);
  ssd::IoQueue rq(&dev, 4);
  rq.submit(ssd::IoDesc{2, 0, ra.size(), nullptr, ra.data()});
  rq.submit(ssd::IoDesc{5, 0, rb.size(), nullptr, rb.data()});
  rq.submit(ssd::IoDesc{7, 96, rc.size(), nullptr, rc.data()});
  rq.wait_all();
  EXPECT_TRUE(rq.all_ok());
  EXPECT_EQ(ra, a);
  EXPECT_EQ(rb, b);
  EXPECT_EQ(rc, c);
}

TEST(IoQueue, CoalescedDescriptorSpansContiguousBlocks) {
  // A descriptor may cover several physically contiguous blocks: media
  // addressing is linear, one transfer, one base latency.
  ssd::RamBlockDevice dev(dev_cfg());
  std::string v = patterned(3 * 4096, 'x');
  ssd::IoQueue q(&dev, 4);
  q.submit(ssd::IoDesc{10, 0, v.size(), v.data(), nullptr});
  q.wait_all();
  ASSERT_TRUE(q.all_ok());
  // Visible through the plain per-block read path.
  std::string got(v.size(), 0);
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(dev.read(10 + i, 0, got.data() + i * 4096, 4096).is_ok());
  }
  EXPECT_EQ(got, v);
}

TEST(IoQueue, InvalidDescriptorsCompleteImmediatelyWithError) {
  ssd::RamBlockDevice dev(dev_cfg(8));
  char buf[64] = {};
  ssd::IoQueue q(&dev, 4);
  size_t both = q.submit(ssd::IoDesc{0, 0, 64, buf, buf});      // write AND read
  size_t none = q.submit(ssd::IoDesc{0, 0, 64, nullptr, nullptr});
  size_t oob = q.submit(ssd::IoDesc{7, 4000, 4096, buf, nullptr});  // spans past capacity
  q.wait_all();
  EXPECT_EQ(q.status_of(both).code(), Code::kInvalidArgument);
  EXPECT_EQ(q.status_of(none).code(), Code::kInvalidArgument);
  EXPECT_EQ(q.status_of(oob).code(), Code::kInvalidArgument);
  EXPECT_FALSE(q.all_ok());
}

TEST(IoQueue, QueueDepthOverlapsBaseLatency) {
  // 8 one-block writes with a 200us per-IO base cost and no bandwidth
  // component: at qd=1 they serialize (>= 1.6ms); at qd=8 the device
  // pipelines all of them (~200us). Margins are generous for CI noise, and
  // each arm is the minimum of 5 runs: contention only ever adds time.
  LatencyModel lat;
  lat.ssd_write_base_ns = 200 * 1000;
  std::string v = patterned(4096, 'q');

  auto run = [&](uint32_t qd) {
    ssd::RamBlockDevice dev(dev_cfg(16, lat));
    ssd::IoQueue q(&dev, qd);
    uint64_t t0 = now_ns();
    for (uint64_t b = 0; b < 8; b++) {
      q.submit(ssd::IoDesc{b, 0, v.size(), v.data(), nullptr});
    }
    q.wait_all();
    EXPECT_TRUE(q.all_ok());
    return now_ns() - t0;
  };

  uint64_t serial = UINT64_MAX;
  uint64_t overlapped = UINT64_MAX;
  for (int rep = 0; rep < 5; rep++) {
    serial = std::min(serial, run(1));
    overlapped = std::min(overlapped, run(8));
  }
  EXPECT_GE(serial, 8u * 200 * 1000);
  EXPECT_LT(overlapped, serial / 2);
}

TEST(IoQueue, BandwidthStaysSerializedAcrossInFlightIos) {
  // The shared media channel still serializes transfer time: 8 overlapped
  // 4KB writes at 50us/KB cost >= 8 * 200us regardless of queue depth.
  LatencyModel lat;
  lat.ssd_per_kb_ns = 50 * 1000;
  std::string v = patterned(4096, 'w');
  ssd::RamBlockDevice dev(dev_cfg(16, lat));
  ssd::IoQueue q(&dev, 8);
  uint64_t t0 = now_ns();
  for (uint64_t b = 0; b < 8; b++) {
    q.submit(ssd::IoDesc{b, 0, v.size(), v.data(), nullptr});
  }
  q.wait_all();
  uint64_t elapsed = now_ns() - t0;
  EXPECT_TRUE(q.all_ok());
  EXPECT_GE(elapsed, 8u * 4 * 50 * 1000);
}

// ---------------------------------------------------------------------------
// DStore integration: coalescing stats, per-descriptor retry, crash safety
// ---------------------------------------------------------------------------

fault::StoreRig qd_store(uint32_t ssd_qd, bool plp = true,
                         pmem::Pool::Mode mode = pmem::Pool::Mode::kDirect) {
  DStoreConfig cfg;
  cfg.max_objects = 32;
  cfg.num_blocks = 256;
  cfg.ssd_qd = ssd_qd;
  cfg.engine.log_slots = 32;
  cfg.engine.arena_bytes = 1 << 20;
  cfg.engine.background_checkpointing = false;
  return fault::StoreRig(cfg, mode, dev_cfg(cfg.num_blocks, LatencyModel::none(), plp));
}

// Wire `inj` into the live rig's pool and device, and into the config the
// next recovery opens with.
void attach_faults(fault::StoreRig& rig, FaultInjector* inj) {
  rig.pool->set_fault_injector(inj);
  rig.device->set_fault_injector(inj);
  rig.cfg.engine.fault = inj;
}

std::string get(fault::StoreRig& rig, const std::string& key) {
  std::vector<char> buf(128 << 10);
  auto r = rig.store->oget(rig.ctx, key, buf.data(), buf.size());
  if (!r.is_ok()) return "<absent>";
  return std::string(buf.data(), r.value());
}

TEST(DStoreAsyncIo, ContiguousRunsCoalesceUpToQueueDepth) {
  fault::StoreRig f = qd_store(/*ssd_qd=*/16);
  // Fresh store: the 16 blocks of a 64KB value pop contiguously from the
  // circular pool, so the whole put coalesces into ONE descriptor.
  std::string v = patterned(64 << 10, 'c');
  ASSERT_TRUE(f.store->oput(f.ctx, "big", v.data(), v.size()).is_ok());
  auto& m = f.store->metrics();
  EXPECT_EQ(m.counter_value("ssd_io_batches_total"), 1u);
  EXPECT_EQ(m.counter_value("ssd_ios_issued_total"), 1u);
  EXPECT_EQ(m.counter_value("ssd_blocks_coalesced_total"), 15u);
  EXPECT_EQ(get(f, "big"), v);
}

TEST(DStoreAsyncIo, QdOneDegeneratesToPerBlockIos) {
  fault::StoreRig f = qd_store(/*ssd_qd=*/1);
  std::string v = patterned(64 << 10, 'd');
  ASSERT_TRUE(f.store->oput(f.ctx, "big", v.data(), v.size()).is_ok());
  auto& m = f.store->metrics();
  EXPECT_EQ(m.counter_value("ssd_io_batches_total"), 1u);
  EXPECT_EQ(m.counter_value("ssd_ios_issued_total"), 16u);  // one IO per block
  EXPECT_EQ(m.counter_value("ssd_blocks_coalesced_total"), 0u);
  EXPECT_EQ(get(f, "big"), v);
}

TEST(DStoreAsyncIo, MdtsCapSplitsLongRuns) {
  // qd=2 caps a coalesced run at 2 blocks: a 5-block value becomes
  // descriptors of 2+2+1 blocks.
  fault::StoreRig f = qd_store(/*ssd_qd=*/2);
  std::string v = patterned(5 * 4096, 'e');
  ASSERT_TRUE(f.store->oput(f.ctx, "five", v.data(), v.size()).is_ok());
  auto& m = f.store->metrics();
  EXPECT_EQ(m.counter_value("ssd_ios_issued_total"), 3u);
  EXPECT_EQ(m.counter_value("ssd_blocks_coalesced_total"), 2u);
  EXPECT_EQ(get(f, "five"), v);
}

#if !defined(DSTORE_FAULT_INJECTION_DISABLED)

TEST(DStoreAsyncIo, TransientEioOnOneDescriptorRetriesOnlyThatDescriptor) {
  FaultInjector inj;  // outlives the rig wired to it
  fault::StoreRig f = qd_store(/*ssd_qd=*/2);
  attach_faults(f, &inj);
  // 5-block put = 3 descriptors (ssd.write hits 1..3). Fail the SECOND
  // descriptor of the batch once; only it is re-submitted.
  FaultPlan plan;
  plan.add({"ssd.write", 2, FaultType::kError, 0, 1});
  inj.set_plan(plan);
  std::string v = patterned(5 * 4096, 'r');
  inj.arm();
  Status s = f.store->oput(f.ctx, "k", v.data(), v.size());
  inj.disarm();
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  auto& m = f.store->metrics();
  EXPECT_EQ(m.counter_value("ssd_io_retries_total"), 1u);
  EXPECT_EQ(m.counter_value("ssd_ios_issued_total"), 3u);  // retries are not new descriptors
  EXPECT_EQ(m.counter_value("ssd_io_exhausted_total"), 0u);
  EXPECT_FALSE(f.store->read_only());
  EXPECT_EQ(get(f, "k"), v);
  // 3 original submissions + 1 resubmission reached the device.
  EXPECT_EQ(inj.hit_count("ssd.write"), 4u);
}

TEST(DStoreAsyncIo, CrashMidBatchWithPlpKeepsCommittedStateOnly) {
  FaultInjector inj;  // outlives the rig wired to it
  fault::StoreRig f = qd_store(/*ssd_qd=*/2, /*plp=*/true, pmem::Pool::Mode::kCrashSim);
  attach_faults(f, &inj);
  std::string va = patterned(100, 'a'), vb = patterned(5000, 'b');
  ASSERT_TRUE(f.store->oput(f.ctx, "a", va.data(), va.size()).is_ok());
  ASSERT_TRUE(f.store->oput(f.ctx, "b", vb.data(), vb.size()).is_ok());

  // Power failure at the SECOND descriptor of c's 3-descriptor batch —
  // one IO already acked into the (capacitor-backed) cache, one mid-
  // submission, one never submitted. Reproducible from the plan string.
  // set_plan resets hit counters, so c's three descriptors are ssd.write
  // hits 1-3 — crash at hit 2, mid-batch.
  auto plan = FaultPlan::parse("ssd.write@2");
  ASSERT_TRUE(plan.is_ok());
  inj.set_plan(plan.value());
  std::string vc = patterned(5 * 4096, 'c');
  inj.arm();
  (void)f.store->oput(f.ctx, "c", vc.data(), vc.size());
  ASSERT_TRUE(inj.crashed());
  inj.disarm();

  ASSERT_TRUE(f.crash_and_recover().is_ok()) << f.status().to_string();

  // a and b committed before the crash: both must read back exactly.
  // c never reached its commit point: it must be absent — not torn.
  EXPECT_EQ(get(f, "a"), va);
  EXPECT_EQ(get(f, "b"), vb);
  EXPECT_EQ(get(f, "c"), "<absent>");
  EXPECT_EQ(f.store->object_count(), 2u);
  EXPECT_TRUE(f.store->validate().is_ok());
}

TEST(DStoreAsyncIo, CrashMidBatchWithoutPlpRecoversEmpty) {
  // Same mid-batch power failure without capacitors, during the very first
  // put: nothing ever committed, so recovery must produce an empty, valid
  // store (the acked-but-uncommitted cache contents simply vanish).
  FaultInjector inj;  // outlives the rig wired to it
  fault::StoreRig f = qd_store(/*ssd_qd=*/2, /*plp=*/false, pmem::Pool::Mode::kCrashSim);
  attach_faults(f, &inj);
  auto plan = FaultPlan::parse("ssd.write@2");
  ASSERT_TRUE(plan.is_ok());
  inj.set_plan(plan.value());
  std::string v = patterned(5 * 4096, 'n');
  inj.arm();
  (void)f.store->oput(f.ctx, "k", v.data(), v.size());
  ASSERT_TRUE(inj.crashed());
  inj.disarm();

  ASSERT_TRUE(f.crash_and_recover().is_ok()) << f.status().to_string();
  EXPECT_EQ(f.store->object_count(), 0u);
  EXPECT_EQ(get(f, "k"), "<absent>");
  EXPECT_TRUE(f.store->validate().is_ok());
}

TEST(DStoreAsyncIo, SweepSsdWriteCrashesWithMultiBlockValues) {
  // The async-era analogue of the exhaustive sweep: scale the rig's values
  // x5 so most ops span several blocks and every ssd.write crash point
  // lands with sibling IOs of the same queue-pair batch in flight. Every
  // schedule must recover to an oracle-equivalent state (PLP on).
  fault::RigOptions opt;
  opt.value_scale = 5;
  auto space = fault::CrashRig::enumerate_schedule(opt);
  uint64_t writes = 0;
  for (const auto& [point, count] : space) {
    if (point == "ssd.write") writes = count;
  }
  ASSERT_GE(writes, 20u);
  size_t failures = 0;
  for (uint64_t h = 1; h <= writes; h++) {
    FaultPlan plan = FaultPlan::crash_at("ssd.write", h);
    fault::CrashRig rig(opt);
    ASSERT_TRUE(rig.run(plan)) << "plan never fired: " << plan.to_string();
    Status s = rig.crash_and_recover();
    if (s.is_ok()) s = rig.verify();
    if (!s.is_ok()) {
      ADD_FAILURE() << "failing plan: " << plan.to_string() << " — " << s.to_string();
      if (++failures >= 5) break;
    }
  }
}

#endif  // !DSTORE_FAULT_INJECTION_DISABLED

}  // namespace
}  // namespace dstore
