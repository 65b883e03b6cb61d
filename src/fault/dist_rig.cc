#include "fault/dist_rig.h"

#include <algorithm>

#include "common/rng.h"

namespace dstore::fault {

// ---- DistPlan ------------------------------------------------------------

namespace {

bool parse_u64_tok(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (uint64_t)(c - '0');
  }
  *out = v;
  return true;
}

}  // namespace

std::string DistPlan::to_string() const {
  std::string out = "seed=" + std::to_string(seed) + ";nodes=" + std::to_string(nodes);
  for (const auto& f : faults)
    out += ";n" + std::to_string(f.node) + "/" + f.spec.to_string();
  for (const auto& p : partitions) {
    out += ";part@" + std::to_string(p.at) + "-" + std::to_string(p.heal) + "=";
    for (size_t i = 0; i < p.group.size(); i++) {
      if (i != 0) out += ",";
      out += std::to_string(p.group[i]);
    }
  }
  for (const auto& k : kills)
    out += ";kill@" + std::to_string(k.at) + "=" + std::to_string(k.node);
  return out;
}

Result<DistPlan> DistPlan::parse(std::string_view text) {
  DistPlan plan;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(';', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view tok = text.substr(pos, end - pos);
    pos = end + 1;
    if (tok.empty()) continue;
    uint64_t v = 0;
    if (tok.rfind("seed=", 0) == 0) {
      if (!parse_u64_tok(tok.substr(5), &v))
        return Status::invalid_argument("bad dist-plan seed");
      plan.seed = v;
    } else if (tok.rfind("nodes=", 0) == 0) {
      if (!parse_u64_tok(tok.substr(6), &v) || v < 2 || v > 16)
        return Status::invalid_argument("bad dist-plan node count");
      plan.nodes = (int)v;
    } else if (tok.rfind("part@", 0) == 0) {
      std::string_view body = tok.substr(5);
      size_t dash = body.find('-');
      size_t eq = body.find('=');
      if (dash == std::string_view::npos || eq == std::string_view::npos || dash > eq)
        return Status::invalid_argument("bad partition token: " + std::string(tok));
      Partition p;
      uint64_t at = 0, heal = 0;
      if (!parse_u64_tok(body.substr(0, dash), &at) ||
          !parse_u64_tok(body.substr(dash + 1, eq - dash - 1), &heal) || heal < at)
        return Status::invalid_argument("bad partition window: " + std::string(tok));
      p.at = (uint32_t)at;
      p.heal = (uint32_t)heal;
      std::string_view ids = body.substr(eq + 1);
      while (!ids.empty()) {
        size_t comma = ids.find(',');
        std::string_view one = ids.substr(0, comma);
        if (!parse_u64_tok(one, &v))
          return Status::invalid_argument("bad partition group: " + std::string(tok));
        p.group.push_back(v);
        ids = comma == std::string_view::npos ? std::string_view() : ids.substr(comma + 1);
      }
      if (p.group.empty())
        return Status::invalid_argument("empty partition group: " + std::string(tok));
      plan.partitions.push_back(std::move(p));
    } else if (tok.rfind("kill@", 0) == 0) {
      std::string_view body = tok.substr(5);
      size_t eq = body.find('=');
      if (eq == std::string_view::npos)
        return Status::invalid_argument("bad kill token: " + std::string(tok));
      uint64_t at = 0, node = 0;
      if (!parse_u64_tok(body.substr(0, eq), &at) ||
          !parse_u64_tok(body.substr(eq + 1), &node))
        return Status::invalid_argument("bad kill token: " + std::string(tok));
      plan.kills.push_back({(uint32_t)at, (int)node});
    } else if (tok.size() >= 3 && tok[0] == 'n' && tok[1] >= '0' && tok[1] <= '9') {
      size_t slash = tok.find('/');
      if (slash == std::string_view::npos)
        return Status::invalid_argument("bad node-fault token: " + std::string(tok));
      if (!parse_u64_tok(tok.substr(1, slash - 1), &v))
        return Status::invalid_argument("bad node index: " + std::string(tok));
      // Reuse the single-node grammar for the spec itself.
      auto fp = FaultPlan::parse("seed=0;" + std::string(tok.substr(slash + 1)));
      if (!fp.is_ok()) return fp.status();
      if (fp.value().specs().size() != 1)
        return Status::invalid_argument("node-fault token must hold one spec");
      plan.faults.push_back({(int)v, fp.value().specs()[0]});
    } else {
      return Status::invalid_argument("unrecognized dist-plan token: " + std::string(tok));
    }
  }
  for (const auto& f : plan.faults)
    if (f.node < 0 || f.node >= plan.nodes)
      return Status::invalid_argument("fault node index out of range");
  for (const auto& k : plan.kills)
    if (k.node < 0 || k.node >= plan.nodes)
      return Status::invalid_argument("kill node index out of range");
  for (const auto& p : plan.partitions)
    for (uint64_t id : p.group)
      if (id < 1 || id > (uint64_t)plan.nodes)
        return Status::invalid_argument("partition group id out of range");
  return plan;
}

// ---- DistRig -------------------------------------------------------------

DistRig::DistRig(DistRigOptions opt) : opt_(opt) {}

DistRig::~DistRig() = default;

std::string DistRig::value_for(uint32_t i) const {
  // Same unique-length construction as the single-node CrashRig: no two ops
  // ever produce equal values, so "which write survived" is decidable.
  size_t len = (1 + (131ull * i + 17) % 5003) * opt_.value_scale;
  std::string v(len, '\0');
  for (size_t j = 0; j < len; j++) v[j] = char('a' + (i + j) % 26);
  return v;
}

Status DistRig::build(const DistPlan& plan) {
  hub_ = std::make_unique<repl::MemHub>();
  sims_.clear();
  oracle_.clear();
  maybe_.clear();
  stats_ = {};
  leader_hint_ = 1;
  int n = plan.nodes >= 2 ? plan.nodes : opt_.nodes;
  for (int i = 0; i < n; i++) {
    auto sim = std::make_unique<Sim>();
    sim->id = (uint64_t)i + 1;
    FaultPlan fp(plan.seed);
    for (const auto& f : plan.faults)
      if (f.node == i) fp.add(f.spec);
    sim->inj.set_plan(fp);
    sim->inj.disarm();
    sim->meta_pool = std::make_unique<pmem::Pool>(4096, pmem::Pool::Mode::kCrashSim);
    sim->meta_pool->set_fault_injector(&sim->inj);

    repl::NodeConfig ncfg;
    ncfg.node_id = sim->id;
    ncfg.start_as_primary = i == 0;
    ncfg.initial_primary = i == 0 ? 0 : 1;
    ncfg.ship_window = opt_.ship_window;
    ncfg.snapshot_chunk_items = opt_.snapshot_chunk_items;
    // Single non-blocking ack attempt: the rig is single-threaded and its
    // fault-point hit numbering must never depend on how many wall-clock
    // re-ship retries fit inside an ack timeout.
    ncfg.ack_timeout_ms = 0;
    ncfg.meta_pool = sim->meta_pool.get();
    ncfg.fault = &sim->inj;
    sim->node = std::make_unique<repl::Node>(ncfg);

    ShardedConfig scfg;
    scfg.num_shards = 1;
    scfg.shard.max_objects = opt_.max_objects;
    scfg.shard.num_blocks = opt_.num_blocks;
    // Deterministic hit ordering: no background checkpoints (the rig
    // checkpoints inline at checkpoint_at), one pool worker.
    scfg.shard.engine.log_slots = opt_.log_slots;
    scfg.shard.engine.arena_bytes = 0;  // auto-size
    scfg.shard.engine.background_checkpointing = false;
    scfg.pool_mode = pmem::Pool::Mode::kCrashSim;
    scfg.ckpt_workers = 1;
    scfg.parallel_recovery = false;
    scfg.fault = &sim->inj;
    scfg.fault_shard = -1;  // every shard: one injector = one machine
    scfg.repl_sink = sim->node.get();
    auto st = ShardedStore::create(scfg);
    if (!st.is_ok()) return st.status();
    sim->store = std::move(st).value();
    sim->node->attach_store(sim->store.get());
    hub_->add_node(sim->id, sim->node.get(), &sim->inj);
    sims_.push_back(std::move(sim));
  }
  for (auto& a : sims_) {
    for (auto& b : sims_) {
      if (a->id == b->id) continue;
      auto link = hub_->peer(a->id, b->id);
      a->node->add_peer(b->id, link.get());
      a->links.push_back(std::move(link));
    }
  }
  // Arm only after every store exists, so hit numbers are workload-relative.
  for (auto& s : sims_) s->inj.arm();
  return Status::ok();
}

void DistRig::pump(uint32_t ticks) {
  for (uint32_t t = 0; t < ticks; t++) {
    for (auto& sp : sims_) {
      if (sp->dead || sp->inj.crashed()) continue;
      sp->node->on_tick();
    }
  }
}

void DistRig::sweep_crashes(uint32_t op_index) {
  for (auto& sp : sims_) {
    if (sp->dead || !sp->inj.crashed()) continue;
    sp->dead = true;
    sp->revive_at = op_index + opt_.revive_after_ops;
    hub_->set_down(sp->id, true);
    stats_.crashes++;
  }
}

repl::Node* DistRig::find_primary() {
  auto scan = [&]() -> repl::Node* {
    // Cached leader first, then ids ascending — a deterministic client.
    size_t hint = (size_t)(leader_hint_ - 1);
    for (size_t k = 0; k <= sims_.size(); k++) {
      size_t idx = k == 0 ? hint : k - 1;
      if (idx >= sims_.size() || (k > 0 && idx == hint)) continue;
      Sim& s = *sims_[idx];
      if (s.dead || s.inj.crashed()) continue;
      if (s.node->role() == repl::Role::kPrimary) return s.node.get();
    }
    return nullptr;
  };
  repl::Node* p = scan();
  for (uint32_t t = 0; p == nullptr && t < opt_.election_grace_ticks; t++) {
    pump(1);
    p = scan();
  }
  if (p != nullptr) leader_hint_ = p->node_id();
  return p;
}

Status DistRig::revive(Sim& s) {
  // Single power failure per node per run: the plan's specs never re-fire
  // during recovery or rejoin.
  s.inj.disarm();
  s.inj.reset();  // clears the crashed latch; sinks and plan are kept
  DSTORE_RETURN_IF_ERROR(s.store->crash_and_recover_all());
  s.meta_pool->crash();  // revert to the durable meta image, unfreeze
  s.node->reset_after_recovery();
  hub_->set_down(s.id, false);
  s.dead = false;
  return Status::ok();
}

void DistRig::run_workload(const DistPlan& plan) {
  Rng rng(opt_.workload_seed);
  pump(2);  // let the followers' first ticks subscribe to the seed primary
  sweep_crashes(0);
  for (uint32_t i = 0; i < opt_.ops; i++) {
    for (const auto& pt : plan.partitions) {
      if (pt.at == i) hub_->partition(pt.group);
      if (pt.heal == i) hub_->heal();
    }
    for (const auto& k : plan.kills) {
      if (k.at != i) continue;
      Sim& s = *sims_[(size_t)k.node];
      if (s.dead) continue;
      s.dead = true;
      s.revive_at = kReviveAtHeal;
      hub_->set_down(s.id, true);
      stats_.crashes++;
    }
    for (auto& sp : sims_) {
      if (sp->dead && sp->revive_at == i) {
        // lint: allow-discard a failed revive just leaves the node down
        (void)revive(*sp);
      }
    }
    if (i == opt_.checkpoint_at) {
      for (auto& sp : sims_) {
        if (sp->dead || sp->inj.crashed()) continue;
        // lint: allow-discard a checkpoint interrupted by the planned crash is the point
        (void)sp->store->checkpoint_all();
      }
      sweep_crashes(i);
    }

    std::string key = "k" + std::to_string(rng.next_below(opt_.keys));
    bool del = rng.next_below(4) == 0;
    std::string val = del ? std::string() : value_for(i);

    repl::Node* p = find_primary();
    if (p == nullptr) {
      stats_.unavailable++;  // bounded by the plan's quorum-less windows
    } else {
      size_t pidx = (size_t)(p->node_id() - 1);
      Status s = del ? p->del(key) : p->put(key, val.data(), val.size());
      if (!sims_[pidx]->inj.crashed() && s.is_ok()) {
        stats_.acked++;
        if (del) {
          oracle_.erase(key);
        } else {
          oracle_[key] = val;
        }
        // The stream is totally ordered: this ack supersedes any older
        // ambiguity on the key in every surviving branch.
        maybe_.erase(key);
      } else {
        // Power failed under the primary mid-op, or the quorum ack never
        // came: the write may or may not survive, but every node must agree.
        stats_.ambiguous++;
        maybe_[key].push_back(del ? std::nullopt : std::optional<std::string>(val));
      }
    }
    sweep_crashes(i);
    pump(opt_.ticks_per_op);
    sweep_crashes(i);
  }
}

Status DistRig::converge() {
  // The fault window is the workload; nothing fires during the final heal.
  for (auto& sp : sims_) sp->inj.disarm();
  hub_->heal();
  for (auto& sp : sims_) {
    if (sp->dead) DSTORE_RETURN_IF_ERROR(revive(*sp));
  }
  uint32_t stable = 0;
  for (uint32_t t = 0; t < opt_.max_converge_ticks; t++) {
    pump(1);
    repl::Node* primary = nullptr;
    int primaries = 0;
    for (auto& sp : sims_) {
      if (sp->node->role() == repl::Role::kPrimary) {
        primaries++;
        primary = sp->node.get();
      }
    }
    bool settled = primaries == 1;
    if (settled) {
      for (auto& sp : sims_) {
        if (sp->node.get() == primary) continue;
        if (sp->node->applied_seq() != primary->commit_seq()) settled = false;
      }
    }
    stable = settled ? stable + 1 : 0;
    if (stable >= 4) {
      stats_.final_epoch = primary->epoch();
      stats_.final_primary = primary->node_id();
      return Status::ok();
    }
  }
  return Status::internal("cluster failed to converge within " +
                          std::to_string(opt_.max_converge_ticks) + " ticks");
}

bool DistRig::state_acceptable(const std::string& key, const std::string* got) const {
  auto o = oracle_.find(key);
  if (o != oracle_.end()) {
    if (got != nullptr && *got == o->second) return true;
  } else if (got == nullptr) {
    return true;
  }
  auto m = maybe_.find(key);
  if (m == maybe_.end()) return false;
  for (const auto& cand : m->second) {
    if (!cand.has_value()) {
      if (got == nullptr) return true;
    } else if (got != nullptr && *got == *cand) {
      return true;
    }
  }
  return false;
}

Status DistRig::verify_cluster() {
  std::vector<char> buf((1 + 5003) * (size_t)opt_.value_scale + 128);
  std::vector<std::map<std::string, std::string>> content(sims_.size());
  for (size_t n = 0; n < sims_.size(); n++) {
    ShardedStore* st = sims_[n]->store.get();
    DSTORE_RETURN_IF_ERROR(st->validate_all());
    std::vector<std::string> names;
    st->shard(0).list([&](std::string_view nm, uint64_t) {
      names.emplace_back(nm);
      return true;
    });
    for (const auto& nm : names) {
      auto r = st->shard(0).oget(st->ctx_on(nullptr, 0), nm, buf.data(), buf.size());
      if (!r.is_ok()) {
        return Status::corruption("node " + std::to_string(n + 1) +
                                  " cannot read its own object " + nm + ": " +
                                  r.status().message());
      }
      content[n][nm] = std::string(buf.data(), std::min(r.value(), buf.size()));
    }
  }
  // Forbidden outcome #1: replica divergence — any two surviving nodes
  // disagreeing about any key's existence or bytes.
  for (size_t n = 1; n < content.size(); n++) {
    if (content[n] == content[0]) continue;
    for (const auto& [k, v] : content[0]) {
      auto it = content[n].find(k);
      if (it == content[n].end()) {
        return Status::corruption("replica divergence: node " + std::to_string(n + 1) +
                                  " is missing key " + k);
      }
      if (it->second != v) {
        return Status::corruption("replica divergence: nodes 1 and " +
                                  std::to_string(n + 1) + " disagree on key " + k);
      }
    }
    for (const auto& [k, v] : content[n]) {
      if (content[0].find(k) == content[0].end()) {
        return Status::corruption("replica divergence: node " + std::to_string(n + 1) +
                                  " holds extra key " + k);
      }
    }
  }
  // Forbidden outcome #2: a silently lost acked write (or a phantom value
  // no op could have produced). Ambiguous attempts may land either way, but
  // the divergence pass above already pinned all nodes to one answer.
  for (uint32_t k = 0; k < opt_.keys; k++) {
    std::string key = "k" + std::to_string(k);
    auto it = content[0].find(key);
    const std::string* got = it != content[0].end() ? &it->second : nullptr;
    if (state_acceptable(key, got)) continue;
    if (oracle_.find(key) != oracle_.end()) {
      return Status::corruption("acked write silently lost or changed on key " + key);
    }
    return got != nullptr
               ? Status::corruption("phantom value surfaced on key " + key)
               : Status::corruption("unacked delete erased acked-absent key " + key);
  }
  return Status::ok();
}

Status DistRig::run(const DistPlan& plan) {
  DSTORE_RETURN_IF_ERROR(build(plan));
  run_workload(plan);
  DSTORE_RETURN_IF_ERROR(converge());
  return verify_cluster();
}

std::vector<std::vector<std::pair<std::string, uint64_t>>> DistRig::enumerate_schedules(
    DistRigOptions opt) {
  DistRig rig(opt);
  DistPlan empty;
  empty.nodes = opt.nodes;
  // lint: allow-discard counting pass; a broken baseline fails the real sweep
  (void)rig.run(empty);
  std::vector<std::vector<std::pair<std::string, uint64_t>>> out;
  for (int n = 0; n < opt.nodes; n++) out.push_back(rig.injector(n).hit_counts());
  return out;
}

std::vector<DistPlan> dist_crash_plans(const DistRigOptions& opt, size_t target) {
  auto spaces = DistRig::enumerate_schedules(opt);
  std::vector<DistPlan> plans;

  // Partition-during-promotion: isolate the live primary (id 1) past the
  // election timeout so the majority side promotes, then heal — the fenced
  // primary must step down and resync. The shorter follower windows cover
  // partition-without-promotion recovery.
  std::vector<DistPlan> special;
  for (uint32_t at = 2; at + 8 < opt.ops; at += 4) {
    DistPlan p;
    p.nodes = opt.nodes;
    p.partitions.push_back({at, at + 8, {1}});
    special.push_back(std::move(p));
    DistPlan q;
    q.nodes = opt.nodes;
    q.partitions.push_back({at, at + 6, {2}});
    special.push_back(std::move(q));
  }
  // Double-failover: kill the seed primary, then kill the staggered
  // election's winner (the highest id) a few ops into its reign.
  for (uint32_t a = 2; a + 10 < opt.ops; a += 5) {
    DistPlan p;
    p.nodes = opt.nodes;
    p.kills.push_back({a, 0});
    p.kills.push_back({a + 8, opt.nodes - 1});
    special.push_back(std::move(p));
  }

  // Single-node power failures fill the rest of the budget, strided evenly
  // across the enumerated (point, hit) space. Node 0's share is larger: its
  // space includes the seed primary's mid-checkpoint window.
  auto sample_into = [&](int node, size_t want) {
    if ((size_t)node >= spaces.size() || want == 0) return;
    std::vector<std::pair<std::string, uint64_t>> flat;
    for (const auto& [point, count] : spaces[(size_t)node])
      for (uint64_t h = 1; h <= count; h++) flat.emplace_back(point, h);
    if (flat.empty()) return;
    size_t n = std::min(want, flat.size());
    for (size_t k = 0; k < n; k++) {
      size_t idx = k * flat.size() / n;
      DistPlan p;
      p.nodes = opt.nodes;
      p.faults.push_back(
          {node, {flat[idx].first, flat[idx].second, FaultType::kCrash, 0, 1}});
      plans.push_back(std::move(p));
    }
  };
  size_t remaining = target > special.size() ? target - special.size() : 0;
  sample_into(0, remaining * 3 / 5);
  sample_into(1, remaining - remaining * 3 / 5);
  plans.insert(plans.end(), special.begin(), special.end());
  return plans;
}

}  // namespace dstore::fault
