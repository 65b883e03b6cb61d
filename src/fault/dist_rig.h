// DistRig — the distributed crash-schedule harness behind
// tests/dist_crash_test.cc.
//
// A rig owns a small in-process replication fleet: N repl::Nodes, each with
// its own ShardedStore (kCrashSim pools + RAM devices), MetaStore pool and
// FaultInjector — one injector per node models one machine's power supply —
// wired through a MemHub whose links the plan can cut. A DistPlan extends
// FaultPlan with the distributed failure modes:
//
//   n<idx>/<faultspec>      — the FaultSpec fires on that node only
//                             ("n0/pmem.flush@17:crash");
//   part@<at>-<heal>=ids    — from op `at` to op `heal`, the fleet is split
//                             into {ids} vs everyone else;
//   kill@<at>=<idx>         — hard power failure of node idx at op `at`
//                             (revived when the run heals, so double-kill
//                             plans exercise back-to-back failovers).
//
// The rig drives a deterministic seeded workload against whichever node is
// primary, pumping on_tick() between ops so heartbeats, failure detection
// and elections run in a reproducible order. Nodes whose injector fires are
// taken off the hub, power-cycled (pool/device revert to durable images,
// DStore recovery, Node::reset_after_recovery) and rejoin a few ops later.
// The oracle records three outcome classes per op: clean quorum acks
// (must survive on every node), ambiguous attempts (status lost to a crash
// or quorum failure: either state acceptable, but the SAME state on every
// node), and unavailable windows (no primary: never attempted).
//
// verify_cluster() holds every surviving node to that oracle and — the
// paper-level forbidden outcomes — fails on replica divergence (any two
// nodes disagreeing on any key) and on silently lost acked writes.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dstore/sharded.h"
#include "fault/fault.h"
#include "pmem/pool.h"
#include "repl/mem_hub.h"
#include "repl/repl.h"

namespace dstore::fault {

// A distributed fault schedule. Serializes to one reproduction string,
// e.g. "seed=7;nodes=3;n1/pmem.fence@9:crash;part@12-20=1;kill@24=0".
struct DistPlan {
  uint64_t seed = 0;
  int nodes = 3;

  struct NodeFault {
    int node = 0;  // rig index (0-based); node id on the wire is index + 1
    FaultSpec spec;
  };
  struct Partition {
    uint32_t at = 0;    // split before op `at`...
    uint32_t heal = 0;  // ...healed before op `heal`
    std::vector<uint64_t> group;  // node IDS isolated on one side
  };
  struct Kill {
    uint32_t at = 0;
    int node = 0;  // rig index
  };

  std::vector<NodeFault> faults;
  std::vector<Partition> partitions;
  std::vector<Kill> kills;

  bool empty() const { return faults.empty() && partitions.empty() && kills.empty(); }
  std::string to_string() const;
  static Result<DistPlan> parse(std::string_view text);
};

struct DistRigOptions {
  int nodes = 3;
  uint32_t ops = 36;            // workload length; checkpoint_at mid-run
  uint32_t keys = 10;           // key space "k0".."k9"
  uint64_t workload_seed = 0xd157ULL;
  uint32_t value_scale = 1;
  uint32_t log_slots = 64;
  uint64_t max_objects = 64;
  uint64_t num_blocks = 768;
  uint32_t checkpoint_at = 18;  // every live node checkpoints before this op
  // Crashed nodes are power-cycled and rejoin this many ops later (killed
  // nodes stay down until the final heal).
  uint32_t revive_after_ops = 6;
  uint32_t ticks_per_op = 1;
  // How long the workload waits for an election before declaring the op
  // unavailable, and how long the final heal may take to converge.
  uint32_t election_grace_ticks = 64;
  uint32_t max_converge_ticks = 4096;
  // Small stream window / chunks so lagging followers exercise the
  // checkpoint-resync path, not just buffered streaming.
  size_t ship_window = 8;
  uint32_t snapshot_chunk_items = 16;
};

class DistRig {
 public:
  explicit DistRig(DistRigOptions opt = {});
  ~DistRig();

  // Build a fresh fleet, drive the workload under `plan`, heal and revive
  // everything, pump to convergence, and hold every node to the oracle.
  // Any non-ok return is a reproducible failure; report it next to
  // plan.to_string().
  Status run(const DistPlan& plan);

  struct RunStats {
    uint32_t acked = 0;        // clean quorum acks (oracle mutations)
    uint32_t ambiguous = 0;    // attempted, outcome unknown (either-state)
    uint32_t unavailable = 0;  // no primary reachable: op never attempted
    uint32_t crashes = 0;      // node power failures (injected + killed)
    uint64_t final_epoch = 0;
    uint64_t final_primary = 0;  // node id of the converged primary
  };
  const RunStats& stats() const { return stats_; }

  FaultInjector& injector(int node) { return sims_[(size_t)node]->inj; }
  repl::Node* node(int n) { return sims_[(size_t)n]->node.get(); }

  // Counting pass: full workload, fault-free, armed injectors everywhere;
  // element n is node n's (point, hit count) crash-schedule space.
  static std::vector<std::vector<std::pair<std::string, uint64_t>>> enumerate_schedules(
      DistRigOptions opt = {});

 private:
  struct Sim {
    uint64_t id = 0;     // node id on the wire = rig index + 1
    FaultInjector inj;   // declared before the layers that point at it
    std::unique_ptr<pmem::Pool> meta_pool;
    std::unique_ptr<repl::Node> node;
    std::unique_ptr<ShardedStore> store;
    std::vector<std::unique_ptr<repl::PeerRpc>> links;  // keep-alive
    bool dead = false;
    uint32_t revive_at = 0;  // op index; kReviveAtHeal for kills
  };
  static constexpr uint32_t kReviveAtHeal = 0xffffffffu;

  Status build(const DistPlan& plan);
  void run_workload(const DistPlan& plan);
  Status converge();
  Status verify_cluster();
  Status revive(Sim& s);
  void pump(uint32_t ticks);
  void sweep_crashes(uint32_t op_index);
  repl::Node* find_primary();
  std::string value_for(uint32_t i) const;
  bool state_acceptable(const std::string& key, const std::string* got) const;

  DistRigOptions opt_;
  std::unique_ptr<repl::MemHub> hub_;
  std::vector<std::unique_ptr<Sim>> sims_;
  uint64_t leader_hint_ = 1;

  std::map<std::string, std::string> oracle_;  // clean quorum-acked state
  // Per key, the other states verify() may accept: values of ambiguous
  // attempts (nullopt = an ambiguous delete). A later clean ack supersedes
  // them — the stream is totally ordered, so the acked write wins every
  // surviving branch.
  std::map<std::string, std::vector<std::optional<std::string>>> maybe_;
  RunStats stats_;
};

// ≥ 200 plans over the enumerated per-node schedule spaces, spread across
// the four sweep categories: crash-primary (node 0's points, which
// include its mid-checkpoint window), crash-follower (node 1's points, which
// include mid-replay), partition-during-promotion (windows that isolate the
// current primary long enough for the majority side to elect), and
// double-failover (kill the initial primary, then kill its successor).
std::vector<DistPlan> dist_crash_plans(const DistRigOptions& opt);

}  // namespace dstore::fault
