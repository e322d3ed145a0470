// Deterministic hot-path profiler: zone-level host-CPU and allocation
// attribution for the protocol layers.
//
// The simulator's own tracing/telemetry observe *sim time*; this
// subsystem observes the *host* cost of running the simulation — where
// the real CPU nanoseconds and heap allocations go inside the NN op
// handlers, the NDB TC prepare/commit/complete chain, the LDM paths,
// redo FlushBatch and the block/replication scans. It exists to answer
// "what should the protocol-flattening work attack first?" with numbers
// (ROADMAP item 1, post-scheduler scope).
//
// Design:
//   * RAII `ProfZone` scopes (via the PROF_ZONE("name") macro) push onto
//     a zone stack and charge the enclosing zone *path* on exit. The sim
//     is single-threaded, so the stack needs no synchronisation; the
//     current-node cursor is thread_local so a stray second thread can
//     never corrupt another thread's stack.
//   * Zones record per-path: call count, inclusive host-CPU nanoseconds
//     (CLOCK_THREAD_CPUTIME_ID), heap traffic (allocation count + bytes,
//     from a replaceable global operator new/delete hook that is off by
//     default and enabled by the profiler), and the sim-side service the
//     zone booked (ThreadPool/Disk booking hooks in sim/resources.cc).
//   * Determinism contract: zones touch host-side state ONLY — no sim
//     events, no sim clock, no RNG draws. A pinned chaos/recovery seed
//     replays byte-identically with the profiler installed or not
//     (asserted by tests/prof_test.cc and bench_prof).
//   * Off by default: with no profiler installed a PROF_ZONE costs one
//     global load and branch, and the allocation hook is a plain
//     malloc/free pass-through behind one predictable branch.
//
// Aggregation/export (folded stacks for flamegraphs, budget tables,
// Chrome-trace overlay, metrics::Registry callbacks) lives in
// prof/report.h.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace repro::metrics {
class Registry;
}

namespace repro::prof {

class Profiler;

namespace detail {
// Hot-path globals, defined in profiler.cc (same translation unit as the
// operator new/delete replacement so the hook is always linked in with
// the rest of the profiler). Exposed so the PROF_ZONE disabled check and
// the resource booking hooks inline to a load + branch.
extern Profiler* g_current;        // installed profiler (nullptr = off)
extern bool g_alloc_counting;      // operator new hook counts when true
extern uint64_t g_alloc_count;     // allocations observed while counting
extern uint64_t g_alloc_bytes;     // bytes requested while counting
extern int64_t g_sim_cpu_ns;       // sim ThreadPool service booked
extern int64_t g_sim_disk_bytes;   // sim Disk bytes submitted
}  // namespace detail

// Interned zone names: PROF_ZONE interns once into a function-local
// static, so steady-state zone entry never touches the intern table.
using ZoneNameId = uint32_t;
ZoneNameId InternZoneName(const char* name);
const std::string& ZoneName(ZoneNameId id);

// ---- global allocation counting (operator new/delete hook) ---------------
//
// Counting is independent of zone profiling: benches that only want a
// total-allocation column flip it on without installing a Profiler.
// Installing a Profiler with `track_allocations` (the default) enables it
// for the install window.
struct AllocTotals {
  uint64_t count = 0;
  uint64_t bytes = 0;
};
void SetAllocCounting(bool on);
bool AllocCounting();
AllocTotals TotalAllocs();

// ---- allocation-site sampling ---------------------------------------------
//
// After SetAllocSampleEvery(N) (N > 0), the operator new hook records the
// call stack of every Nth counted allocation into a fixed static buffer,
// so the hook itself never allocates; SetAllocSampleEvery primes
// `backtrace` because its first call loads the unwinder, which
// allocates. The mode reads no simulation state and changes none,
// so every digest holds with it on. bench/alloc_sites.py symbolises
// AllocSamplesText's output into a per-site allocs/op table.
void SetAllocSampleEvery(uint64_t every);  // 0 = off
// Drops the recorded samples and restarts the allocation count the next
// AllocSamplesText reports (a measurement window's start).
void ResetAllocSamples();
size_t AllocSampleCount();
// The samples since the last reset, as text: `# key value` header lines
// (every, allocs counted since the reset, the caller's `ops`, samples
// dropped on a full buffer, the executable's path), then one line per
// sample of its frames' return addresses in hex, relative to the
// executable's load base read from /proc/self/maps (0 unless it is
// position-independent; "?" for a frame outside the executable).
std::string AllocSamplesText(uint64_t ops);

// Host thread-CPU clock (CLOCK_THREAD_CPUTIME_ID on Linux; steady_clock
// elsewhere). Exposed for tests.
uint64_t HostNowNs();

// ---- sim resource booking hooks -------------------------------------------
//
// Called by ThreadPool::SubmitTo / Disk I/O submission so a zone also
// knows how much *simulated* service it booked — host cost tells you what
// to flatten, booked sim service tells you which zones drive the modelled
// cluster. No-ops (one load + branch) when no profiler is installed.
inline void ChargeSimCpu(int64_t service_ns) {
  if (detail::g_current != nullptr) detail::g_sim_cpu_ns += service_ns;
}
inline void ChargeSimDisk(int64_t bytes) {
  if (detail::g_current != nullptr) detail::g_sim_disk_bytes += bytes;
}

// ---- zone statistics ------------------------------------------------------

struct ZoneStats {
  uint64_t calls = 0;
  uint64_t cpu_ns = 0;          // inclusive host CPU
  uint64_t allocs = 0;          // inclusive allocation count
  uint64_t alloc_bytes = 0;     // inclusive allocated bytes
  uint64_t sim_cpu_ns = 0;      // sim ThreadPool service booked inside
  uint64_t sim_disk_bytes = 0;  // sim Disk bytes submitted inside

  void Add(const ZoneStats& o) {
    calls += o.calls;
    cpu_ns += o.cpu_ns;
    allocs += o.allocs;
    alloc_bytes += o.alloc_bytes;
    sim_cpu_ns += o.sim_cpu_ns;
    sim_disk_bytes += o.sim_disk_bytes;
  }
};

struct ProfilerOptions {
  // Enable the allocation hook for the install window (charging the
  // current zone). Off leaves heap columns at zero.
  bool track_allocations = true;
  // When > 0, the profiler keeps a ring of the last N zone exits for the
  // Chrome-trace overlay export (prof/report.h). 0 = aggregation only.
  size_t chrome_ring_capacity = 0;
};

class ProfZone;

class Profiler {
 public:
  // One tree node = one zone *path* (stack of nested zone names). Node 0
  // is the synthetic root ("everything outside any zone").
  struct Node {
    ZoneNameId name = 0;
    int32_t parent = -1;
    std::vector<int32_t> children;
    ZoneStats total;  // inclusive
  };

  // Snapshot a ProfZone takes at entry; deltas are charged on exit.
  struct Frame {
    int32_t prev = 0;
    int32_t node = 0;
    uint64_t t0 = 0;
    uint64_t allocs0 = 0;
    uint64_t bytes0 = 0;
    int64_t sim_cpu0 = 0;
    int64_t disk0 = 0;
  };

  // One recorded zone exit for the Chrome-trace overlay ring.
  struct ChromeEvent {
    int32_t node = 0;
    int64_t sim_ns = 0;  // sim time at exit (0 if no time source set)
    uint64_t host_ns = 0;
    uint64_t allocs = 0;
    uint64_t bytes = 0;
  };

  explicit Profiler(ProfilerOptions options = {});
  ~Profiler();  // uninstalls if still current

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // Makes this the process-wide current profiler (and enables allocation
  // counting per options). Zones are recorded between Install() and
  // Uninstall(). Uninstall drains every zone still open on the calling
  // thread (the sim thread — the only intended user): their pending RAII
  // exits become no-ops instead of charging an uninstalled (possibly
  // destroyed) profiler and restoring a cursor into its freed zone tree.
  void Install();
  void Uninstall();
  static Profiler* Current() { return detail::g_current; }
  bool installed() const { return detail::g_current == this; }

  // Optional sim-time source, used only to timestamp Chrome-ring events
  // (the profiler never *advances* or perturbs sim time).
  void SetSimTimeSource(std::function<int64_t()> now_ns) {
    sim_now_ = std::move(now_ns);
  }

  // Zone entry/exit — called by ProfZone only. Take the zone itself so
  // Enter can thread it onto the open-zone stack Uninstall drains.
  void Enter(ZoneNameId name, ProfZone* z);
  void Exit(ProfZone* z);

  // Zeroes every node's stats and the Chrome ring, keeping the interned
  // tree (so a warmed-up tree profiles a measurement window with zero
  // node-creation allocations).
  void ResetStats();

  const std::vector<Node>& nodes() const { return nodes_; }
  // "a;b;c" path of a node (flamegraph folded-stack convention); `sep`
  // '/' is used for metric label values.
  std::string PathOf(int32_t node, char sep = ';') const;
  // Exclusive stats: node minus its children (clamped at zero — the
  // clock is not infinitely fine).
  ZoneStats SelfOf(int32_t node) const;
  // Inclusive stats aggregated by *leaf zone name* across all paths the
  // zone appears in — the "per-op budget" view. Sorted by name.
  std::vector<std::pair<std::string, ZoneStats>> ByName() const;

  const std::vector<ChromeEvent>& chrome_ring() const { return ring_; }
  size_t chrome_dropped() const { return ring_dropped_; }

  // Hook invoked after a new node is created (cold path). Used by
  // prof/report.cc to register metrics::Registry callbacks for zones the
  // moment they first run, so the telemetry scraper sees them mid-run.
  void SetNodeObserver(std::function<void(int32_t)> observer);
  // Invoked by Uninstall()/destruction; prof/report.cc uses it to replace
  // live registry callbacks with frozen values so a Registry that
  // outlives the profiler never dereferences it.
  void SetDetachHook(std::function<void()> hook) {
    detach_hook_ = std::move(hook);
  }

  const ProfilerOptions& options() const { return options_; }

 private:
  int32_t FindOrAddChild(int32_t parent, ZoneNameId name);

  ProfilerOptions options_;
  std::vector<Node> nodes_;
  std::function<int64_t()> sim_now_;
  std::function<void(int32_t)> node_observer_;
  std::function<void()> detach_hook_;
  std::vector<ChromeEvent> ring_;
  size_t ring_next_ = 0;
  size_t ring_dropped_ = 0;
  bool alloc_counting_was_ = false;
};

// RAII zone scope. Constructed cheap when no profiler is installed; exits
// charge the zone even on early return / exception unwind. If the
// profiler is uninstalled (or destroyed) while the scope is open, the
// drain in Uninstall() nulls prof_ and the exit is a no-op.
class ProfZone {
 public:
  explicit ProfZone(ZoneNameId name) {
    Profiler* p = detail::g_current;
    if (p == nullptr) return;
    prof_ = p;
    p->Enter(name, this);
  }
  ~ProfZone() {
    if (prof_ != nullptr) prof_->Exit(this);
  }

  ProfZone(const ProfZone&) = delete;
  ProfZone& operator=(const ProfZone&) = delete;

 private:
  friend class Profiler;
  Profiler* prof_ = nullptr;
  ProfZone* prev_open_ = nullptr;  // next-outer open zone (LIFO stack)
  Profiler::Frame frame_;
};

#define REPRO_PROF_CONCAT_(a, b) a##b
#define REPRO_PROF_CONCAT(a, b) REPRO_PROF_CONCAT_(a, b)

// Instruments the enclosing scope as a profiler zone. The name is
// interned once (function-local static); the steady-state cost with the
// profiler off is one global load + branch.
#define PROF_ZONE(name)                                                   \
  static const ::repro::prof::ZoneNameId REPRO_PROF_CONCAT(               \
      prof_zone_name_, __LINE__) = ::repro::prof::InternZoneName(name);   \
  ::repro::prof::ProfZone REPRO_PROF_CONCAT(prof_zone_, __LINE__)(        \
      REPRO_PROF_CONCAT(prof_zone_name_, __LINE__))

}  // namespace repro::prof
