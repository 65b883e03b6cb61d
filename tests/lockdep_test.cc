// Lockdep validation tests (src/common/lockdep.{h,cc}).
//
// Three groups:
//   * wrapper semantics with lockdep compiled OUT or IN — the locks must
//     behave as plain locks either way;
//   * detector behavior (DSTORE_LOCKDEP=ON only): lock-order inversion
//     across two threads' histories, same-instance self-deadlock,
//     recursive same-class acquisition, shared-vs-exclusive ordering, and
//     the quiescence gate tripping when a hot foreground acquisition
//     blocks on a background-held class (and NOT tripping for exempt
//     classes or non-hot threads);
//   * a whole-store smoke run — create, write, checkpoint, scrub, crash,
//     recover — that must finish with ZERO reports. This is the regression
//     pin for the violations this validator's introduction surfaced and
//     fixed: the checkpoint trigger moving off the hot path
//     (Engine::request_checkpoint), the scrubber's btree-free zone walk
//     (MetadataZone::peek_live), and find_repair_payload's chunked scan.
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/lockdep.h"
#include "dstore/dstore.h"
#include "fault/crash_rig.h"
#include "fault/fault.h"
#include "pmem/pool.h"
#include "ssd/block_device.h"

namespace dstore {
namespace {

using lockdep::Role;
using lockdep::RoleScope;
using lockdep::Violation;

// Wrapper passthrough semantics, valid in both configurations.
TEST(LockdepWrappers, MutexAndGuardsProvideExclusion) {
  Mutex mu{"test.ld_mutex"};
  int counter = 0;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; t++) {
    ts.emplace_back([&] {
      for (int i = 0; i < 10000; i++) {
        MutexGuard g(mu);
        counter++;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, 40000);
}

TEST(LockdepWrappers, CondVarWaitAndNotify) {
  Mutex mu{"test.ld_cv_mutex"};
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    {
      MutexGuard g(mu);
      ready = true;
    }
    cv.notify_one();
  });
  {
    UniqueLock g(mu);
    cv.wait(g, [&] { return ready; });
    EXPECT_TRUE(ready);
  }
  waker.join();
}

#if defined(DSTORE_LOCKDEP_ENABLED)

// Captures violations instead of aborting; resets global lockdep state so
// tests are order-independent.
class LockdepDetector : public ::testing::Test {
 protected:
  void SetUp() override {
    lockdep::reset_for_testing();
    captured_.clear();
    lockdep::set_report_hook([this](const Violation& v) {
      captured_.push_back(v);
    });
  }
  void TearDown() override {
    lockdep::set_report_hook(nullptr);
    lockdep::reset_for_testing();
  }

  bool saw(const std::string& kind) const {
    for (const Violation& v : captured_) {
      if (v.kind == kind) return true;
    }
    return false;
  }

  std::vector<Violation> captured_;
};

TEST_F(LockdepDetector, ConsistentOrderIsClean) {
  SpinLock a{"t.clean_a"};
  SpinLock b{"t.clean_b"};
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; t++) {
    ts.emplace_back([&] {
      for (int i = 0; i < 200; i++) {
        LockGuard<SpinLock> ga(a);
        LockGuard<SpinLock> gb(b);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_TRUE(captured_.empty());
  EXPECT_EQ(lockdep::violation_count(), 0u);
}

TEST_F(LockdepDetector, AbbaInversionAcrossThreads) {
  SpinLock a{"t.abba_a"};
  SpinLock b{"t.abba_b"};
  // Thread 1 establishes a -> b; thread 2 then attempts b -> a. The edges
  // are recorded sequentially (the threads are joined), so the second
  // thread's pre-acquire check must flag the cycle WITHOUT an actual
  // deadlock ever forming.
  std::thread t1([&] {
    LockGuard<SpinLock> ga(a);
    LockGuard<SpinLock> gb(b);
  });
  t1.join();
  std::thread t2([&] {
    LockGuard<SpinLock> gb(b);
    LockGuard<SpinLock> ga(a);
  });
  t2.join();
  EXPECT_TRUE(saw("inversion")) << "expected a lock-order inversion report";
  // The report must carry both acquisition stacks: the edge's first
  // observation and the current thread's.
  for (const Violation& v : captured_) {
    if (v.kind != "inversion") continue;
    EXPECT_NE(v.report.find("t.abba_a"), std::string::npos);
    EXPECT_NE(v.report.find("t.abba_b"), std::string::npos);
    EXPECT_NE(v.report.find("first established"), std::string::npos);
    EXPECT_NE(v.report.find("acquisition stack"), std::string::npos);
  }
}

TEST_F(LockdepDetector, InversionReportsOncePerEdgePerThread) {
  SpinLock a{"t.once_a"};
  SpinLock b{"t.once_b"};
  {
    LockGuard<SpinLock> ga(a);
    LockGuard<SpinLock> gb(b);
  }
  std::thread t2([&] {
    for (int i = 0; i < 5; i++) {
      LockGuard<SpinLock> gb(b);
      LockGuard<SpinLock> ga(a);
    }
  });
  t2.join();
  size_t inversions = 0;
  for (const Violation& v : captured_) inversions += v.kind == "inversion";
  EXPECT_EQ(inversions, 1u) << "the validated-edge cache must dedupe reports";
}

TEST_F(LockdepDetector, SelfDeadlockReportedBeforeHanging) {
  // pre_acquire reports the same-instance re-acquisition BEFORE the raw
  // lock would block forever; a throwing hook turns that report into an
  // exception so the test can observe it without deadlocking.
  lockdep::set_report_hook([](const Violation& v) {
    throw std::runtime_error(v.kind);
  });
  SpinLock a{"t.selfdl"};
  a.lock();
  EXPECT_THROW(a.lock(), std::runtime_error);
  a.unlock();
}

TEST_F(LockdepDetector, RecursiveClassAcquisitionReported) {
  // Two INSTANCES of one class: the class graph cannot order them, so
  // holding both at once is flagged (an ABBA between instances would be
  // invisible otherwise). Distinct instances, so no actual deadlock.
  SpinLock a1{"t.recls"};
  SpinLock a2{"t.recls"};
  LockGuard<SpinLock> g1(a1);
  LockGuard<SpinLock> g2(a2);
  EXPECT_TRUE(saw("self-deadlock"));
}

TEST_F(LockdepDetector, SharedAcquisitionsFeedTheOrderGraph) {
  SharedSpinLock rw{"t.shex_rw"};
  SpinLock m{"t.shex_m"};
  // m -> rw(shared) establishes the edge...
  {
    LockGuard<SpinLock> gm(m);
    SharedLockGuard<> gr(rw);
  }
  // ...so rw(shared) -> m is an inversion even though rw was never held
  // exclusively: a writer blocked on rw while holding m completes the
  // classic reader-writer deadlock.
  std::thread t2([&] {
    SharedLockGuard<> gr(rw);
    LockGuard<SpinLock> gm(m);
  });
  t2.join();
  EXPECT_TRUE(saw("inversion"));
}

TEST_F(LockdepDetector, QuiescenceTripOnBackgroundHeldClass) {
  // A deliberately blocking "checkpoint": holds a non-exempt lock while a
  // hot foreground acquisition arrives. The foreground lock() must first
  // report the quiescence violation, then (this being a test hook, not an
  // abort) block until the background thread releases.
  SpinLock l{"t.quiesce"};
  std::atomic<bool> held{false};
  std::thread ckpt([&] {
    RoleScope role(Role::kCheckpoint);
    l.lock();
    held.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    l.unlock();
  });
  while (!held.load()) std::this_thread::yield();
  {
    lockdep::HotOpScope hot;
    LockGuard<SpinLock> g(l);  // contends -> trips the gate -> then acquires
  }
  ckpt.join();
  ASSERT_TRUE(saw("quiescence"));
  for (const Violation& v : captured_) {
    if (v.kind != "quiescence") continue;
    EXPECT_NE(v.report.find("t.quiesce"), std::string::npos);
    EXPECT_NE(v.report.find("checkpoint=1"), std::string::npos);
  }
}

TEST_F(LockdepDetector, ExemptClassNeverTrips) {
  SpinLock l{"t.quiesce_exempt", lockdep::kQuiesceExempt};
  std::atomic<bool> held{false};
  std::thread scrub([&] {
    RoleScope role(Role::kScrubber);
    l.lock();
    held.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    l.unlock();
  });
  while (!held.load()) std::this_thread::yield();
  {
    lockdep::HotOpScope hot;
    LockGuard<SpinLock> g(l);
  }
  scrub.join();
  EXPECT_FALSE(saw("quiescence"));
}

TEST_F(LockdepDetector, ColdForegroundBlockingDoesNotTrip) {
  // Blocking on a background-held lock outside a hot op scope (setup,
  // teardown, maintenance calls) is allowed.
  SpinLock l{"t.quiesce_cold"};
  std::atomic<bool> held{false};
  std::thread ckpt([&] {
    RoleScope role(Role::kCheckpoint);
    l.lock();
    held.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    l.unlock();
  });
  while (!held.load()) std::this_thread::yield();
  {
    LockGuard<SpinLock> g(l);  // no HotOpScope
  }
  ckpt.join();
  EXPECT_FALSE(saw("quiescence"));
}

// ---------------------------------------------------------------------------
// Whole-store zero-report run. This is the §3 claim as a test: a store
// doing foreground IO concurrently with checkpoints and scrubs, then
// crash-recovering, produces no inversion and no quiescence trip.
// ---------------------------------------------------------------------------

TEST_F(LockdepDetector, StoreLifecycleProducesZeroReports) {
  fault::FaultInjector inj;
  DStoreConfig cfg;
  cfg.max_objects = 64;
  cfg.num_blocks = 512;
  cfg.engine.log_slots = 64;
  cfg.engine.arena_bytes = 1 << 20;
  cfg.engine.background_checkpointing = true;
  fault::StoreRig rig(cfg);
  ASSERT_TRUE(rig.status().is_ok()) << rig.status().to_string();
  rig.device->set_fault_injector(&inj);
  DStore* store = rig.store.get();

  // Scrub passes back to back until the writers are done, so scrubs overlap
  // the foreground IO and the background checkpoints.
  std::atomic<bool> writers_done{false};
  int scrub_passes = 0;
  int scrub_failures = 0;
  std::thread scrubber([&] {
    do {
      scrub_passes++;
      if (!store->scrub_now().is_ok()) scrub_failures++;
    } while (!writers_done.load());
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; t++) {
    writers.emplace_back([&, t] {
      ds_ctx_t* ctx = store->ds_init();
      std::string value(300, char('a' + t));
      for (int i = 0; i < 120; i++) {
        std::string key = "obj_" + std::to_string(t) + "_" + std::to_string(i % 10);
        ASSERT_TRUE(store->oput(ctx, key, value.data(), value.size()).is_ok());
        std::vector<char> buf(400);
        auto r = store->oget(ctx, key, buf.data(), buf.size());
        ASSERT_TRUE(r.is_ok());
        if (i % 20 == 5) {
          ASSERT_TRUE(store->odelete(ctx, key).is_ok());
        }
      }
      store->ds_finalize(ctx);
    });
  }
  for (auto& t : writers) t.join();
  writers_done.store(true);
  scrubber.join();
  EXPECT_GE(scrub_passes, 1);
  EXPECT_EQ(scrub_failures, 0);
  // The watermark may have a background checkpoint mid-flight when the
  // writers finish; busy is transient, not a lockdep concern.
  Status ckpt = Status::busy("");
  for (int tries = 0; tries < 2000 && ckpt.is_busy(); tries++) {
    ckpt = store->checkpoint_now();
    if (ckpt.is_busy()) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(ckpt.is_ok()) << ckpt.to_string();
  DStore::ScrubReport rep;
  EXPECT_TRUE(store->scrub_now(&rep).is_ok());
  EXPECT_GT(rep.objects_scanned, 0u);

  // Restart and recover: recovery replay must also be clean.
  rig.close();
  ASSERT_TRUE(rig.recover().is_ok()) << rig.status().to_string();
  std::vector<char> buf(400);
  auto r = rig.store->oget(rig.ctx, "obj_0_9", buf.data(), buf.size());
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  rig.close();

  for (const Violation& v : captured_) {
    ADD_FAILURE() << "lockdep report during store lifecycle:\n" << v.report;
  }
  EXPECT_EQ(lockdep::violation_count(), 0u);
}

#endif  // DSTORE_LOCKDEP_ENABLED

}  // namespace
}  // namespace dstore
