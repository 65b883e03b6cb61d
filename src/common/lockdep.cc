#include "common/lockdep.h"

#include <cstdio>
#include <cstdlib>

namespace dstore::lockdep {

const char* role_name(Role r) {
  switch (r) {
    case Role::kForeground: return "foreground";
    case Role::kCheckpoint: return "checkpoint";
    case Role::kScrubber: return "scrubber";
    case Role::kRecovery: return "recovery";
  }
  return "?";
}

}  // namespace dstore::lockdep

#if defined(DSTORE_LOCKDEP_ENABLED)

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#if defined(__GLIBC__)
#include <execinfo.h>
#define DSTORE_LOCKDEP_HAVE_BACKTRACE 1
#endif

namespace dstore::lockdep {

namespace {

// All global lockdep state sits behind one internal raw std::mutex. This is
// the only raw mutex outside the wrappers (allowlisted in dstore_lint): it
// cannot participate in the graph it maintains.
std::mutex& g_mu() {
  static std::mutex m;
  return m;
}

struct ClassInfo {
  std::string name;
  uint32_t flags = 0;
};

// The edge B→A ("A acquired while holding B"), with the context of its
// first observation — that context is the "other" acquisition stack an
// inversion report needs.
struct EdgeInfo {
  int from = -1;
  int to = -1;
  std::string role;        // role of the thread that established the edge
  std::string held_names;  // classes held at that point, outermost first
  std::string stack;       // call stack of the establishing acquisition
};

struct Global {
  std::vector<ClassInfo> classes;
  std::unordered_map<std::string, int> class_ids;
  std::unordered_map<uint64_t, EdgeInfo> edges;  // key: from<<32 | to
  std::vector<std::vector<int>> adj;             // adjacency by class id
  std::unordered_set<int> quiesce_reported;      // once per class
  std::function<void(const Violation&)> hook;
};

Global& g() {
  static Global* gp = new Global();  // leaked: lockdep outlives everything
  return *gp;
}

std::atomic<uint64_t> g_violations{0};
std::atomic<uint64_t> g_epoch{1};

struct Held {
  LockState* lock;
  int cls;
  bool shared;
};

struct ThreadLd {
  std::vector<Held> held;
  Role role = Role::kForeground;
  int hot = 0;
  uint64_t epoch = 0;
  // (held_class<<32 | acquired_class) pairs already validated by this
  // thread; steady state never touches g_mu().
  std::unordered_set<uint64_t> edge_cache;
  bool reporting = false;  // re-entrancy guard while building a report
};

ThreadLd& tls() {
  thread_local ThreadLd t;
  return t;
}

uint64_t edge_key(int from, int to) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
         static_cast<uint32_t>(to);
}

std::string capture_stack() {
#if defined(DSTORE_LOCKDEP_HAVE_BACKTRACE)
  void* frames[32];
  int n = backtrace(frames, 32);
  char** syms = backtrace_symbols(frames, n);
  std::string out;
  if (syms != nullptr) {
    // Skip the innermost frames (capture_stack + lockdep internals).
    for (int i = 2; i < n; i++) {
      out += "    ";
      out += syms[i];
      out += "\n";
    }
    free(syms);  // NOLINT: backtrace_symbols mallocs
  }
  return out;
#else
  return "    (no backtrace support on this platform)\n";
#endif
}

std::string held_names_locked(const ThreadLd& t) {
  std::string out;
  for (const Held& h : t.held) {
    if (!out.empty()) out += " -> ";
    out += h.lock->class_name;
    if (h.shared) out += "(shared)";
  }
  return out.empty() ? "(none)" : out;
}

void emit(Violation v) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  std::function<void(const Violation&)> hook;
  {
    std::lock_guard<std::mutex> lg(g_mu());
    hook = g().hook;
  }
  if (hook) {
    hook(v);
    return;
  }
  std::fprintf(stderr, "%s", v.report.c_str());
  std::fflush(stderr);
  std::abort();
}

// Is `to` reachable from `from` in the acquisition graph? Iterative DFS;
// records the path (class-id chain from `from` to `to`) when found.
// Caller holds g_mu().
bool reachable_locked(int from, int to, std::vector<int>* path) {
  Global& gl = g();
  if (from == to) {
    *path = {from};
    return true;
  }
  std::vector<int> parent(gl.classes.size(), -1);
  std::vector<int> stack = {from};
  std::vector<char> seen(gl.classes.size(), 0);
  seen[from] = 1;
  while (!stack.empty()) {
    int cur = stack.back();
    stack.pop_back();
    if (static_cast<size_t>(cur) >= gl.adj.size()) continue;
    for (int next : gl.adj[cur]) {
      if (seen[next]) continue;
      seen[next] = 1;
      parent[next] = cur;
      if (next == to) {
        path->clear();
        for (int n = to; n != -1; n = parent[n]) path->push_back(n);
        // path is to..from; reverse into from..to.
        for (size_t i = 0, j = path->size() - 1; i < j; i++, j--) {
          std::swap((*path)[i], (*path)[j]);
        }
        return true;
      }
      stack.push_back(next);
    }
  }
  return false;
}

int class_id(LockState* s) {
  int c = s->cls.load(std::memory_order_acquire);
  if (c >= 0) return c;
  std::lock_guard<std::mutex> lg(g_mu());
  c = s->cls.load(std::memory_order_relaxed);
  if (c >= 0) return c;
  Global& gl = g();
  auto [it, inserted] =
      gl.class_ids.emplace(s->class_name, static_cast<int>(gl.classes.size()));
  if (inserted) {
    gl.classes.push_back({s->class_name, s->flags});
    gl.adj.emplace_back();
  }
  s->cls.store(it->second, std::memory_order_release);
  return it->second;
}

}  // namespace

Role current_role() { return tls().role; }
bool in_hot_op() { return tls().hot > 0; }
uint64_t violation_count() { return g_violations.load(std::memory_order_acquire); }

void set_report_hook(std::function<void(const Violation&)> hook) {
  std::lock_guard<std::mutex> lg(g_mu());
  g().hook = std::move(hook);
}

void reset_for_testing() {
  std::lock_guard<std::mutex> lg(g_mu());
  Global& gl = g();
  gl.edges.clear();
  for (auto& a : gl.adj) a.clear();
  gl.quiesce_reported.clear();
  g_violations.store(0, std::memory_order_release);
  g_epoch.fetch_add(1, std::memory_order_acq_rel);
}

RoleScope::RoleScope(Role r) {
  prev_ = tls().role;
  tls().role = r;
}
RoleScope::~RoleScope() { tls().role = prev_; }

HotOpScope::HotOpScope() { tls().hot++; }
HotOpScope::~HotOpScope() {
  if (in_) tls().hot--;
}
void HotOpScope::leave() {
  if (in_) tls().hot--;
  in_ = false;
}
void HotOpScope::enter() {
  if (!in_) tls().hot++;
  in_ = true;
}

void pre_acquire(LockState* s, bool shared) {
  ThreadLd& t = tls();
  if (t.reporting) return;
  int cls = class_id(s);

  // Same-instance re-acquisition: always a bug here. The raw spinlocks are
  // non-recursive, and RawSharedSpinLock's writer preference makes even
  // shared-then-shared recursion deadlock against an intervening writer.
  for (const Held& h : t.held) {
    if (h.lock == s) {
      t.reporting = true;
      Violation v;
      v.kind = "self-deadlock";
      v.report = std::string("lockdep: SELF-DEADLOCK\n  class ") +
                 s->class_name + (shared ? " (shared)" : " (exclusive)") +
                 " re-acquired while already held by this thread\n  held: " +
                 held_names_locked(t) + "\n  at:\n" + capture_stack();
      t.reporting = false;
      emit(std::move(v));
      return;
    }
  }

  if (t.held.empty()) return;

  if (t.epoch != g_epoch.load(std::memory_order_acquire)) {
    t.edge_cache.clear();
    t.epoch = g_epoch.load(std::memory_order_acquire);
  }

  for (const Held& h : t.held) {
    if (h.cls == cls) {
      // Distinct instance, same class: the class graph cannot order these,
      // and an ABBA between two instances would be invisible. Report it.
      t.reporting = true;
      Violation v;
      v.kind = "self-deadlock";
      v.report = std::string("lockdep: RECURSIVE CLASS ACQUISITION\n  class ") +
                 s->class_name +
                 " acquired while another instance of the same class is "
                 "held\n  held: " +
                 held_names_locked(t) + "\n  at:\n" + capture_stack();
      t.reporting = false;
      emit(std::move(v));
      continue;
    }
    uint64_t key = edge_key(h.cls, cls);
    if (t.edge_cache.count(key) != 0) continue;

    Violation pending;
    bool violated = false;
    {
      std::lock_guard<std::mutex> lg(g_mu());
      Global& gl = g();
      if (gl.edges.count(key) != 0) {
        t.edge_cache.insert(key);
        continue;
      }
      // Would cls→…→h.cls close a cycle with the new edge h.cls→cls?
      std::vector<int> path;
      if (reachable_locked(cls, h.cls, &path)) {
        t.reporting = true;
        std::string rep = "lockdep: LOCK ORDER INVERSION\n";
        rep += "  acquiring class " + gl.classes[cls].name +
               (shared ? " (shared)" : "") + " while holding " +
               gl.classes[h.cls].name + "\n";
        rep += "  but the graph already orders " + gl.classes[cls].name +
               " before " + gl.classes[h.cls].name + ":\n";
        for (size_t i = 0; i + 1 < path.size(); i++) {
          auto eit = gl.edges.find(edge_key(path[i], path[i + 1]));
          rep += "    " + gl.classes[path[i]].name + " -> " +
                 gl.classes[path[i + 1]].name;
          if (eit != gl.edges.end()) {
            rep += "  (first established by a " + eit->second.role +
                   " thread holding " + eit->second.held_names + ")\n";
            rep += eit->second.stack;
          } else {
            rep += "\n";
          }
        }
        rep += "  current thread (" + std::string(role_name(t.role)) +
               ") holds " + held_names_locked(t) + "; acquisition stack:\n";
        rep += capture_stack();
        t.reporting = false;
        pending.kind = "inversion";
        pending.report = std::move(rep);
        violated = true;
        // Cache so the same inversion reports once per thread; the edge is
        // NOT added to the graph (it is invalid).
        t.edge_cache.insert(key);
      } else {
        EdgeInfo e;
        e.from = h.cls;
        e.to = cls;
        e.role = role_name(t.role);
        t.reporting = true;
        e.held_names = held_names_locked(t);
        e.stack = capture_stack();
        t.reporting = false;
        gl.edges.emplace(key, std::move(e));
        gl.adj[h.cls].push_back(cls);
        t.edge_cache.insert(key);
      }
    }
    if (violated) emit(std::move(pending));
  }
}

void post_acquire(LockState* s, bool shared) {
  ThreadLd& t = tls();
  if (t.reporting) return;
  t.held.push_back({s, class_id(s), shared});
  s->holders.fetch_add(1ull << (8 * static_cast<int>(t.role)),
                       std::memory_order_acq_rel);
}

void pre_release(LockState* s, bool shared) {
  (void)shared;
  ThreadLd& t = tls();
  if (t.reporting) return;
  for (size_t i = t.held.size(); i > 0; i--) {
    if (t.held[i - 1].lock == s) {
      t.held.erase(t.held.begin() + static_cast<long>(i - 1));
      s->holders.fetch_sub(1ull << (8 * static_cast<int>(t.role)),
                           std::memory_order_acq_rel);
      return;
    }
  }
  // Releasing a lock we never saw acquired (e.g. locked before lockdep was
  // reset): ignore rather than underflow.
}

void on_contended(LockState* s) {
  ThreadLd& t = tls();
  if (t.reporting) return;
  if (t.role != Role::kForeground || t.hot == 0) return;
  if ((s->flags & kQuiesceExempt) != 0) return;
  uint64_t h = s->holders.load(std::memory_order_acquire);
  uint64_t background = (h >> 8) & 0xFFFFFFull;  // checkpoint|scrubber|recovery
  if (background == 0) return;
  int cls = class_id(s);
  {
    std::lock_guard<std::mutex> lg(g_mu());
    if (!g().quiesce_reported.insert(cls).second) return;  // once per class
  }
  t.reporting = true;
  auto count = [h](Role r) {
    return (h >> (8 * static_cast<int>(r))) & 0xFF;
  };
  std::string rep = "lockdep: QUIESCENCE VIOLATION\n";
  rep += std::string("  foreground hot-path op blocked on class ") +
         s->class_name + "\n";
  rep += "  current holders: checkpoint=" +
         std::to_string(count(Role::kCheckpoint)) +
         " scrubber=" + std::to_string(count(Role::kScrubber)) +
         " recovery=" + std::to_string(count(Role::kRecovery)) + "\n";
  rep += "  the paper's quiescent-free property (§3) forbids foreground "
         "ops blocking on background threads\n";
  rep += "  foreground acquisition stack:\n" + capture_stack();
  t.reporting = false;
  Violation v;
  v.kind = "quiescence";
  v.report = std::move(rep);
  emit(std::move(v));
}

}  // namespace dstore::lockdep

#endif  // DSTORE_LOCKDEP_ENABLED
