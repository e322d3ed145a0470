#include "prof/profiler.h"

#include <elf.h>
#include <execinfo.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <mutex>
#include <new>
#include <sstream>
#include <unordered_map>

#include "util/strings.h"

// IMPORTANT: the global operator new/delete replacement lives in THIS
// translation unit, together with the detail globals every PROF_ZONE
// references. In a static library the linker pulls in whole archive
// members: because instrumented code references detail::g_current, this
// member is always linked, so the replacement operators are guaranteed to
// win over libstdc++'s weak defaults in every binary that links
// repro_prof — no special link flags needed.

namespace repro::prof {

namespace detail {
Profiler* g_current = nullptr;
bool g_alloc_counting = false;
uint64_t g_alloc_count = 0;
uint64_t g_alloc_bytes = 0;
int64_t g_sim_cpu_ns = 0;
int64_t g_sim_disk_bytes = 0;

// Allocation-site samples (see AllocSamplesText), filled by the operator
// new hook below. A fixed buffer: the hook must not allocate.
struct AllocSample {
  static constexpr int kMaxFrames = 16;
  void* frames[kMaxFrames];
  int depth;
};
constexpr size_t kMaxAllocSamples = size_t{1} << 16;
uint64_t g_sample_every = 0;
AllocSample g_samples[kMaxAllocSamples];
size_t g_sample_count = 0;
uint64_t g_samples_dropped = 0;
uint64_t g_alloc_count_at_reset = 0;
}  // namespace detail

namespace {

// Intern table. Cold path only (PROF_ZONE caches the id in a
// function-local static); the mutex exists so a multi-threaded *host*
// harness can still intern safely even though the sim itself is
// single-threaded.
struct InternTable {
  std::mutex mu;
  std::unordered_map<std::string, ZoneNameId> ids;
  std::vector<std::string> names;
};

InternTable& Interns() {
  static InternTable* t = new InternTable();  // leaked: outlives everything
  return *t;
}

// The profiler's own bookkeeping must not pollute the counters it is
// reading. Scoped suspension of allocation counting around cold paths
// (node creation, ring growth, intern).
class PauseAllocCounting {
 public:
  PauseAllocCounting() : was_(detail::g_alloc_counting) {
    detail::g_alloc_counting = false;
  }
  ~PauseAllocCounting() { detail::g_alloc_counting = was_; }

 private:
  bool was_;
};

}  // namespace

ZoneNameId InternZoneName(const char* name) {
  PauseAllocCounting pause;
  InternTable& t = Interns();
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.ids.find(name);
  if (it != t.ids.end()) return it->second;
  ZoneNameId id = static_cast<ZoneNameId>(t.names.size());
  t.names.emplace_back(name);
  t.ids.emplace(t.names.back(), id);
  return id;
}

const std::string& ZoneName(ZoneNameId id) {
  InternTable& t = Interns();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.names.at(id);
}

void SetAllocCounting(bool on) { detail::g_alloc_counting = on; }
bool AllocCounting() { return detail::g_alloc_counting; }
AllocTotals TotalAllocs() {
  return AllocTotals{detail::g_alloc_count, detail::g_alloc_bytes};
}

void SetAllocSampleEvery(uint64_t every) {
  if (every > 0) {
    // The first backtrace loads the unwinder, which allocates: do it
    // here, never inside the hook.
    static const bool primed = [] {
      void* frame[1];
      return backtrace(frame, 1) >= 0;
    }();
    (void)primed;
  }
  detail::g_sample_every = every;
}

void ResetAllocSamples() {
  detail::g_sample_count = 0;
  detail::g_samples_dropped = 0;
  detail::g_alloc_count_at_reset = detail::g_alloc_count;
}

size_t AllocSampleCount() { return detail::g_sample_count; }

namespace {

// The executable's path and address range, and the base its addresses
// are relative to: the start of its mapping at file offset 0 for a
// position-independent executable, 0 for a fixed-address one (whose
// run-time addresses are already the link-time ones addr2line expects).
struct ExeMapping {
  std::string path;
  uintptr_t base = 0;
  uintptr_t lo = UINTPTR_MAX;
  uintptr_t hi = 0;
};

ExeMapping ReadExeMapping() {
  ExeMapping exe;
  char path[4096];
  const ssize_t n = readlink("/proc/self/exe", path, sizeof(path) - 1);
  if (n <= 0) return exe;
  exe.path.assign(path, static_cast<size_t>(n));
  Elf64_Ehdr header{};
  std::ifstream image("/proc/self/exe", std::ios::binary);
  const bool pie =
      image.read(reinterpret_cast<char*>(&header), sizeof(header)) &&
      header.e_type == ET_DYN;
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    // start-end perms offset dev inode path
    std::istringstream fields(line);
    std::string range, perms, offset, dev, inode, file;
    if (!(fields >> range >> perms >> offset >> dev >> inode >> file) ||
        file != exe.path) {
      continue;
    }
    const uintptr_t lo = std::strtoull(range.c_str(), nullptr, 16);
    const uintptr_t hi =
        std::strtoull(range.c_str() + range.find('-') + 1, nullptr, 16);
    if (pie && std::strtoull(offset.c_str(), nullptr, 16) == 0 &&
        exe.base == 0) {
      exe.base = lo;
    }
    exe.lo = std::min(exe.lo, lo);
    exe.hi = std::max(exe.hi, hi);
  }
  return exe;
}

}  // namespace

std::string AllocSamplesText(uint64_t ops) {
  const uint64_t allocs =
      detail::g_alloc_count - detail::g_alloc_count_at_reset;
  PauseAllocCounting pause;
  const ExeMapping exe = ReadExeMapping();
  std::string out = StrFormat(
      "# every %llu\n# allocs %llu\n# ops %llu\n# dropped %llu\n"
      "# binary %s\n",
      static_cast<unsigned long long>(detail::g_sample_every),
      static_cast<unsigned long long>(allocs),
      static_cast<unsigned long long>(ops),
      static_cast<unsigned long long>(detail::g_samples_dropped),
      exe.path.c_str());
  for (size_t i = 0; i < detail::g_sample_count; ++i) {
    const detail::AllocSample& s = detail::g_samples[i];
    for (int f = 0; f < s.depth; ++f) {
      const auto pc = reinterpret_cast<uintptr_t>(s.frames[f]);
      if (f > 0) out += ' ';
      out += pc >= exe.lo && pc < exe.hi
                 ? StrFormat("%llx",
                             static_cast<unsigned long long>(pc - exe.base))
                 : std::string("?");
    }
    out += '\n';
  }
  return out;
}

uint64_t HostNowNs() {
#if defined(__linux__)
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
#else
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
#endif
}

// ---- Profiler -------------------------------------------------------------

namespace {
// Current-node cursor. thread_local so that if a second host thread ever
// runs zones, it gets its own (root-anchored) cursor instead of
// corrupting the sim thread's stack. The sim thread is the only intended
// user.
thread_local int32_t t_current_node = 0;
// Innermost open ProfZone on this thread (intrusive LIFO stack via
// ProfZone::prev_open_). Uninstall walks it to poison scopes that would
// otherwise exit into a profiler that is no longer installed.
thread_local ProfZone* t_open_head = nullptr;
}  // namespace

Profiler::Profiler(ProfilerOptions options) : options_(options) {
  nodes_.emplace_back();  // node 0: synthetic root
  if (options_.chrome_ring_capacity > 0) {
    ring_.reserve(options_.chrome_ring_capacity);
  }
}

Profiler::~Profiler() {
  if (installed()) Uninstall();
}

void Profiler::Install() {
  if (detail::g_current == this) return;
  if (detail::g_current != nullptr) detail::g_current->Uninstall();
  t_current_node = 0;
  alloc_counting_was_ = detail::g_alloc_counting;
  if (options_.track_allocations) detail::g_alloc_counting = true;
  detail::g_current = this;
}

void Profiler::Uninstall() {
  if (detail::g_current != this) return;
  detail::g_current = nullptr;
  detail::g_alloc_counting = alloc_counting_was_;
  // Drain scopes still open on this thread: null each zone's profiler
  // pointer so its pending RAII exit is a no-op instead of charging this
  // (possibly about-to-be-destroyed) profiler and restoring the cursor to
  // a node index inside its freed tree.
  for (ProfZone* z = t_open_head; z != nullptr; z = z->prev_open_) {
    z->prof_ = nullptr;
  }
  t_open_head = nullptr;
  t_current_node = 0;
  if (detach_hook_) {
    auto hook = std::move(detach_hook_);
    detach_hook_ = nullptr;
    hook();
  }
}

int32_t Profiler::FindOrAddChild(int32_t parent, ZoneNameId name) {
  // Linear scan: zone fan-out is small (an op handler nests a handful of
  // distinct sub-zones), and a vector scan beats a map on both cache
  // behaviour and allocation count.
  for (int32_t c : nodes_[static_cast<size_t>(parent)].children) {
    if (nodes_[static_cast<size_t>(c)].name == name) return c;
  }
  PauseAllocCounting pause;  // node creation must not charge the run
  int32_t id = static_cast<int32_t>(nodes_.size());
  Node n;
  n.name = name;
  n.parent = parent;
  nodes_.push_back(std::move(n));
  nodes_[static_cast<size_t>(parent)].children.push_back(id);
  if (node_observer_) node_observer_(id);
  return id;
}

void Profiler::Enter(ZoneNameId name, ProfZone* z) {
  z->prev_open_ = t_open_head;
  t_open_head = z;
  Frame* f = &z->frame_;
  f->prev = t_current_node;
  f->node = FindOrAddChild(t_current_node, name);
  t_current_node = f->node;
  f->allocs0 = detail::g_alloc_count;
  f->bytes0 = detail::g_alloc_bytes;
  f->sim_cpu0 = detail::g_sim_cpu_ns;
  f->disk0 = detail::g_sim_disk_bytes;
  f->t0 = HostNowNs();  // last: exclude our own entry cost
}

void Profiler::Exit(ProfZone* z) {
  const uint64_t t1 = HostNowNs();  // first: exclude our own exit cost
  t_open_head = z->prev_open_;      // zones destruct in strict LIFO order
  const Frame& f = z->frame_;
  Node& n = nodes_[static_cast<size_t>(f.node)];
  n.total.calls += 1;
  n.total.cpu_ns += t1 - f.t0;
  n.total.allocs += detail::g_alloc_count - f.allocs0;
  n.total.alloc_bytes += detail::g_alloc_bytes - f.bytes0;
  n.total.sim_cpu_ns +=
      static_cast<uint64_t>(detail::g_sim_cpu_ns - f.sim_cpu0);
  n.total.sim_disk_bytes +=
      static_cast<uint64_t>(detail::g_sim_disk_bytes - f.disk0);
  t_current_node = f.prev;
  if (options_.chrome_ring_capacity > 0) {
    ChromeEvent ev;
    ev.node = f.node;
    ev.sim_ns = sim_now_ ? sim_now_() : 0;
    ev.host_ns = t1 - f.t0;
    ev.allocs = detail::g_alloc_count - f.allocs0;
    ev.bytes = detail::g_alloc_bytes - f.bytes0;
    if (ring_.size() < options_.chrome_ring_capacity) {
      PauseAllocCounting pause;
      ring_.push_back(ev);
    } else {
      ring_[ring_next_] = ev;
      ring_dropped_ += 1;
    }
    ring_next_ = (ring_next_ + 1) % options_.chrome_ring_capacity;
  }
}

void Profiler::ResetStats() {
  for (Node& n : nodes_) n.total = ZoneStats{};
  ring_.clear();
  ring_next_ = 0;
  ring_dropped_ = 0;
}

std::string Profiler::PathOf(int32_t node, char sep) const {
  if (node <= 0) return std::string();
  // Collect name ids root-ward, then join.
  std::vector<ZoneNameId> chain;
  for (int32_t n = node; n > 0; n = nodes_[static_cast<size_t>(n)].parent) {
    chain.push_back(nodes_[static_cast<size_t>(n)].name);
  }
  std::string out;
  for (size_t i = chain.size(); i-- > 0;) {
    if (!out.empty()) out.push_back(sep);
    out += ZoneName(chain[i]);
  }
  return out;
}

ZoneStats Profiler::SelfOf(int32_t node) const {
  const Node& n = nodes_[static_cast<size_t>(node)];
  ZoneStats self = n.total;
  for (int32_t c : n.children) {
    const ZoneStats& ct = nodes_[static_cast<size_t>(c)].total;
    self.cpu_ns -= std::min(self.cpu_ns, ct.cpu_ns);
    self.allocs -= std::min(self.allocs, ct.allocs);
    self.alloc_bytes -= std::min(self.alloc_bytes, ct.alloc_bytes);
    self.sim_cpu_ns -= std::min(self.sim_cpu_ns, ct.sim_cpu_ns);
    self.sim_disk_bytes -= std::min(self.sim_disk_bytes, ct.sim_disk_bytes);
  }
  return self;
}

std::vector<std::pair<std::string, ZoneStats>> Profiler::ByName() const {
  std::unordered_map<std::string, ZoneStats> agg;
  for (size_t i = 1; i < nodes_.size(); ++i) {
    agg[ZoneName(nodes_[i].name)].Add(nodes_[i].total);
  }
  std::vector<std::pair<std::string, ZoneStats>> out(agg.begin(), agg.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void Profiler::SetNodeObserver(std::function<void(int32_t)> observer) {
  node_observer_ = std::move(observer);
  // Replay existing nodes so an observer attached after warm-up still
  // sees every zone.
  if (node_observer_) {
    for (size_t i = 1; i < nodes_.size(); ++i) {
      node_observer_(static_cast<int32_t>(i));
    }
  }
}

}  // namespace repro::prof

// ---- global operator new/delete replacement --------------------------------
//
// All variants forward to malloc/free (posix_memalign for over-aligned)
// and, when counting is enabled, bump the global counters the current
// zone snapshots. The hook never allocates itself and never throws from
// delete, so it is safe under ASan (which interposes malloc/free below
// us) and during static init/teardown (counting is off then).

namespace {

// Records the calling stack into the next free sample slot.
[[gnu::noinline]] void SampleAlloc() {
  namespace d = repro::prof::detail;
  if (d::g_sample_count == d::kMaxAllocSamples) {
    ++d::g_samples_dropped;
    return;
  }
  d::AllocSample& s = d::g_samples[d::g_sample_count++];
  s.depth = backtrace(s.frames, d::AllocSample::kMaxFrames);
}

inline void CountAlloc(size_t size) {
  namespace d = repro::prof::detail;
  if (d::g_alloc_counting) {
    d::g_alloc_count += 1;
    d::g_alloc_bytes += size;
    if (d::g_sample_every != 0 && d::g_alloc_count % d::g_sample_every == 0) {
      SampleAlloc();
    }
  }
}

void* AllocOrThrow(size_t size) {
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  CountAlloc(size);
  return p;
}

void* AllocAlignedOrThrow(size_t size, size_t align) {
  if (size == 0) size = 1;
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size) != 0) throw std::bad_alloc();
  CountAlloc(size);
  return p;
}

}  // namespace

void* operator new(size_t size) { return AllocOrThrow(size); }
void* operator new[](size_t size) { return AllocOrThrow(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p != nullptr) CountAlloc(size);
  return p;
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void* operator new(size_t size, std::align_val_t align) {
  return AllocAlignedOrThrow(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align) {
  return AllocAlignedOrThrow(size, static_cast<size_t>(align));
}
void* operator new(size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  if (size == 0) size = 1;
  size_t a = static_cast<size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, a, size) != 0) return nullptr;
  CountAlloc(size);
  return p;
}
void* operator new[](size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return operator new(size, align, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
// Parameter order matters: the usual sized+aligned deallocation function
// is (ptr, size, alignment). With the operands transposed these were
// unrelated overloads the compiler never called — sized+aligned deletes
// of over-aligned types (the sim's 64B-aligned event slabs) fell through
// to the runtime's default, which under ASan is the interposed
// operator delete and flags every such free as an alloc-dealloc
// mismatch against our malloc-backed operator new.
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
