// DIPPER is generic (§3.2): it "treats the set of DRAM data structures as
// a black box, logging only logical operations performed on this box".
// This example builds a crash-consistent MESSAGE QUEUE — a completely
// different data structure from DStore's object store — by implementing
// just the two SpaceClient hooks: format() and replay().
//
//   ./build/examples/generic_dipper
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "dipper/engine.h"

using namespace dstore;
using namespace dstore::dipper;

// In-arena ring buffer of fixed-size messages: the DRAM structure DIPPER
// makes persistent. Offset-addressed, so the same code runs on the
// volatile space and on the PMEM shadow copies.
struct QueueHeader {
  uint64_t capacity;
  uint64_t head;  // next pop position (monotonic)
  uint64_t tail;  // next push position (monotonic)
  offset_t ring;  // u64[capacity] message payloads
};

class PersistentQueue final : public SpaceClient {
 public:
  static constexpr uint64_t kCapacity = 1024;

  // ---- SpaceClient hooks --------------------------------------------------
  Status format(SlabAllocator& space) override {
    auto h = space.alloc_object<QueueHeader>();
    if (h.is_null()) return Status::out_of_space("queue header");
    offset_t ring = space.alloc_zeroed(kCapacity * sizeof(uint64_t));
    if (ring == 0) return Status::out_of_space("queue ring");
    QueueHeader* q = h.get(space.arena());
    q->capacity = kCapacity;
    q->ring = ring;
    space.set_user_root(h.off);
    return Status::ok();
  }

  Status replay(SlabAllocator& space, std::span<const LogRecordView> records,
                std::vector<bool>* /*landed*/) override {
    // The statically defined op->function mapping (§3.2): push and pop,
    // replayed with the same functions the frontend uses. Only committed
    // records replay: the frontend never aborts, and an open record
    // carries no data recovery could check.
    for (const auto& rec : records) {
      if (!rec.committed()) continue;
      if (rec.op == OpType::kPut) {
        DSTORE_RETURN_IF_ERROR(do_push(space, rec.arg0));
      } else if (rec.op == OpType::kDelete) {
        uint64_t out;
        DSTORE_RETURN_IF_ERROR(do_pop(space, &out));
      }
    }
    return Status::ok();
  }

  // ---- frontend API -------------------------------------------------------
  Status push(Engine& engine, uint64_t value) {
    auto h = engine.append(OpType::kPut, Key::from("q"), value, 0);
    if (!h.is_ok()) return h.status();
    DSTORE_RETURN_IF_ERROR(do_push(engine.space(), value));
    engine.commit(h.value());
    return Status::ok();
  }

  Result<uint64_t> pop(Engine& engine) {
    QueueHeader* q = header(engine.space());
    if (q->head == q->tail) return Status::not_found("queue empty");
    auto h = engine.append(OpType::kDelete, Key::from("q"), 0, 0);
    if (!h.is_ok()) return h.status();
    uint64_t out = 0;
    DSTORE_RETURN_IF_ERROR(do_pop(engine.space(), &out));
    engine.commit(h.value());
    return out;
  }

  uint64_t size(Engine& engine) {
    QueueHeader* q = header(engine.space());
    return q->tail - q->head;
  }

 private:
  static QueueHeader* header(SlabAllocator& space) {
    return reinterpret_cast<QueueHeader*>(space.arena().at(space.user_root()));
  }
  static Status do_push(SlabAllocator& space, uint64_t value) {
    QueueHeader* q = header(space);
    if (q->tail - q->head >= q->capacity) return Status::out_of_space("queue full");
    reinterpret_cast<uint64_t*>(space.arena().at(q->ring))[q->tail % q->capacity] = value;
    q->tail++;
    return Status::ok();
  }
  static Status do_pop(SlabAllocator& space, uint64_t* out) {
    QueueHeader* q = header(space);
    if (q->head == q->tail) return Status::internal("pop on empty queue during replay");
    *out = reinterpret_cast<uint64_t*>(space.arena().at(q->ring))[q->head % q->capacity];
    q->head++;
    return Status::ok();
  }
};

int main() {
  PersistentQueue queue;
  EngineConfig cfg;
  cfg.arena_bytes = 1 << 20;
  cfg.log_slots = 256;
  cfg.background_checkpointing = false;
  pmem::Pool pool(Engine::required_pool_bytes(cfg), pmem::Pool::Mode::kCrashSim);

  uint64_t expected_front = 0, next_value = 0;
  {
    Engine engine(&pool, &queue, cfg);
    if (!engine.init_fresh().is_ok()) return 1;
    // Mixed pushes/pops across a checkpoint.
    for (int i = 0; i < 100; i++) {
      if (!queue.push(engine, next_value++).is_ok()) return 1;
    }
    for (int i = 0; i < 30; i++) {
      auto v = queue.pop(engine);
      if (!v.is_ok() || v.value() != expected_front++) return 1;
    }
    if (!engine.checkpoint_now().is_ok()) return 1;
    for (int i = 0; i < 50; i++) {
      if (!queue.push(engine, next_value++).is_ok()) return 1;
    }
    printf("before crash: %llu messages queued (front should be %llu)\n",
           (unsigned long long)queue.size(engine), (unsigned long long)expected_front);
    engine.stop_background();
  }

  printf("*** POWER FAILURE ***\n");
  pool.crash();

  Engine engine(&pool, &queue, cfg);
  if (!engine.recover().is_ok()) {
    fprintf(stderr, "recover failed\n");
    return 1;
  }
  printf("after recovery: %llu messages queued\n", (unsigned long long)queue.size(engine));
  if (queue.size(engine) != 120) {
    fprintf(stderr, "queue size wrong\n");
    return 1;
  }
  // FIFO order must be intact across the crash.
  while (queue.size(engine) > 0) {
    auto v = queue.pop(engine);
    if (!v.is_ok() || v.value() != expected_front++) {
      fprintf(stderr, "FIFO order broken at %llu\n", (unsigned long long)expected_front);
      return 1;
    }
  }
  printf("all 120 messages popped in FIFO order after the crash\n");
  printf("generic_dipper OK — same engine, entirely different data structure\n");
  return 0;
}
