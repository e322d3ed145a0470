// hopsbench: the repository's end-to-end benchmark.
//
//   hopsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one named workload against the paper's HopsFS-CL (3,3) deployment
// through the public Deployment / workload / Simulation APIs, checks the
// outputs, and prints one JSON object as the last line of stdout:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// With --trace 0 the metrics are the end-to-end ones (host cost of the
// simulator and what the modelled file system delivers). With --trace 1
// they are the per-layer ones: each round runs an untraced repetition,
// one with the zone profiler installed (the host-cost ledger; the
// benchmark's own calls into the client and the op source are zones too)
// and one that also samples every op with the tracer (critical-path
// shares, tracing overhead). NOTES.md lists the workloads, the metrics and
// the layer -> end-to-end -> workload map. Human-readable detail goes to
// stderr.
//
// A run repeats "set up, warm up, measure one fixed sim-time window"
// until --seconds of wall time have passed, cycling through the
// workload's op streams derived from --seed (WorkloadSpec::inputs).
// Repetitions of one stream must produce identical sim-side results: that
// is the determinism guard. Reported values are medians over the
// repetitions.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "hopsfs/deployment.h"
#include "prof/profiler.h"
#include "trace/critical_path.h"
#include "util/strings.h"
#include "workload/driver.h"
#include "workload/spotify.h"

namespace repro::hopsbench {
namespace {

using hopsfs::FsOp;
using workload::SpotifyWorkload;

// ---- workloads -------------------------------------------------------------

enum class Mix { kSpotify, kMutate };

struct WorkloadSpec {
  const char* name;
  Mix mix;
  int namenodes;
  int clients;
  int users;  // namespace: users x 4 dirs x 4 empty files
  // Offered sim rate of an open loop; 0 makes a closed loop.
  double open_loop_rate;
  Nanos warmup;
  Nanos measure;
  bool crash_restart;
  // How strongly this workload's host time follows the HostProbe when
  // neighbours load the machine (see kCalibRefNs).
  double probe_exponent;
  // Op streams derived from --seed per run; results are medians over
  // them. One stream's host cost differs from another's by up to ~9% on
  // spotify_bigns (its namespace-size costs depend on which paths the
  // stream touches), so it takes five.
  int inputs;
};

// Sized so each window holds well over 10,000 completed ops (the p99.9
// then has at least ten samples beyond it) and one repetition costs a
// few host seconds. Why each workload exists is in NOTES.md.
const WorkloadSpec kWorkloads[] = {
    {"spotify_hot", Mix::kSpotify, 3, 768, 512, 0, 300 * kMillisecond,
     1000 * kMillisecond, false, 1.2, 3},
    {"mutate", Mix::kMutate, 3, 384, 512, 0, 200 * kMillisecond,
     500 * kMillisecond, false, 1.3, 3},
    {"spotify_bigns", Mix::kSpotify, 12, 8192, 16384, 40000,
     200 * kMillisecond, 1000 * kMillisecond, false, 0.55, 5},
    {"crash_restart", Mix::kSpotify, 3, 768, 512, 0, 2600 * kMillisecond,
     1000 * kMillisecond, true, 1.2, 3},
};

// crash_restart's fault schedule, relative to the start of load. Failure
// detection and take-over stall clients for ~1.5 sim-s after the crash,
// and ops that waited on the dead node's locks straggle in until ~2.4 s;
// measured, that tail swings the p99.9 by 13-25% from seed to seed. So
// the warm-up absorbs it, and the window opens just before the restart
// and holds the whole recovery: replay, streaming resync, rejoin.
constexpr ndb::NodeId kCrashNode = 0;
constexpr Nanos kCrashAt = 100 * kMillisecond;
constexpr Nanos kRestartAt = 2650 * kMillisecond;

// HostProbe ns/iteration on the reference machine (a 4-vCPU Xeon VM on a
// quiet host). Host times are reported in reference-machine units:
// measured time x (kCalibRefNs / the probe's ns/iteration in the same
// window) ^ probe_exponent. The exponent is the slope of log(host us/op)
// on log(probe ns) over 18 repetitions per workload under varying load:
// 1.16 for spotify_hot, 1.31 for mutate, 0.54 for spotify_bigns, whose
// path-cache walks stream through memory and barely slow down. With it,
// the repetitions' host us/op varied by 1.5-2.9% (coefficient of
// variation) where raw times varied by 7-14%.
constexpr double kCalibRefNs = 650.0;
// Probe slices per measured window, spread evenly over its sim time.
constexpr int kProbeSlices = 20;

// Idle sim time after bootstrap: leader election and every client's
// namenode choice settle before load starts.
constexpr Nanos kSettle = 3 * kSecond;
// Ledger stats run this many at a time, so the check never trips
// admission control.
constexpr int kCheckConcurrency = 256;

// Writes to fresh names in uniformly chosen leaf directories: create,
// mkdir, cross-directory rename and delete of the client's own files.
class MutateSource {
 public:
  explicit MutateSource(const std::vector<std::string>& dirs) {
    for (const auto& d : dirs) {
      if (std::count(d.begin(), d.end(), '/') == 3) leaves_.push_back(d);
    }
  }

  SpotifyWorkload::Op Next(Rng& rng, std::vector<std::string>& owned) {
    SpotifyWorkload::Op op;
    const double u = rng.NextDouble();
    if (owned.empty() || u < 0.40) {
      op.op = FsOp::kCreate;
      op.path = FreshName(rng, 'm');
      owned.push_back(op.path);
    } else if (u < 0.55) {
      op.op = FsOp::kMkdir;
      op.path = FreshName(rng, 'k');
    } else if (u < 0.75) {
      op.op = FsOp::kRename;
      op.path = owned.back();
      op.path2 = FreshName(rng, 'm');
      owned.back() = op.path2;
    } else {
      op.op = FsOp::kDelete;
      op.path = owned.back();
      owned.pop_back();
    }
    return op;
  }

 private:
  std::string FreshName(Rng& rng, char tag) {
    const std::string& dir = leaves_[rng.NextBelow(leaves_.size())];
    return StrFormat("%s/%c%llu", dir.c_str(), tag,
                     static_cast<unsigned long long>(++fresh_));
  }

  std::vector<std::string> leaves_;
  uint64_t fresh_ = 0;
};

// ---- host speed ------------------------------------------------------------

// A fixed host workload that no change to the simulator can speed up: a
// chain of dependent loads over a 64 MB table (past the per-core L2, in
// the shared last-level cache like the simulator's working set) plus
// string building and hash-map updates. On a shared machine neighbours
// slow it down along with the simulator (kCalibRefNs says how the two
// relate). Slices run between sim events throughout each measured window,
// and the window's CPU, allocations and events exclude them.
class HostProbe {
 public:
  HostProbe() : table_(kMask + 1) {
    for (uint64_t i = 0; i <= kMask; ++i) {
      table_[i] = i * 0x9E3779B97F4A7C15ull;
    }
  }

  struct Totals {
    uint64_t ns = 0;
    uint64_t iters = 0;
    uint64_t allocs = 0;
    uint64_t slices = 0;
  };

  void Slice() {
    const uint64_t allocs0 = prof::TotalAllocs().count;
    const uint64_t t0 = prof::HostNowNs();
    for (int i = 0; i < kSliceIters; ++i) {
      for (int j = 0; j < 4; ++j) {
        x_ ^= x_ << 13;
        x_ ^= x_ >> 7;
        x_ ^= x_ << 17;
        acc_ += table_[(x_ ^ acc_) & kMask];
      }
      map_["/user/u" + std::to_string(acc_ & 0xffff) + "/d0/f0"] += acc_;
      if (map_.size() > 4096) map_.clear();
    }
    totals_.ns += prof::HostNowNs() - t0;
    totals_.iters += kSliceIters;
    totals_.allocs += prof::TotalAllocs().count - allocs0;
    ++totals_.slices;
  }

  const Totals& totals() const { return totals_; }
  static double TableMb() {
    return static_cast<double>((kMask + 1) * sizeof(uint64_t)) / (1 << 20);
  }

 private:
  static constexpr uint64_t kMask = (uint64_t{1} << 23) - 1;
  static constexpr int kSliceIters = 10000;

  std::vector<uint64_t> table_;
  std::unordered_map<std::string, uint64_t> map_;
  uint64_t x_ = 88172645463325252ull;
  uint64_t acc_ = 0;
  Totals totals_;
};

// ---- what the benchmark saw ------------------------------------------------

// The state of every path the op source wrote, from the acknowledgements
// the benchmark received. An op that failed makes its paths kUnknown:
// it may or may not have committed, so the checks skip them.
class PathLedger {
 public:
  enum class State { kExists, kGone, kUnknown };
  struct Entry {
    State state = State::kUnknown;
    Nanos created_at = -1;  // sim time the create was acknowledged
  };

  static bool Tracks(FsOp op) {
    return op == FsOp::kCreate || op == FsOp::kMkdir ||
           op == FsOp::kRename || op == FsOp::kDelete;
  }

  void Record(FsOp op, const std::string& path, const std::string& path2,
              bool ok, Nanos now) {
    if (!ok) {
      paths_[path].state = State::kUnknown;
      if (op == FsOp::kRename) paths_[path2].state = State::kUnknown;
      return;
    }
    switch (op) {
      case FsOp::kCreate:
      case FsOp::kMkdir:
        paths_[path] = Entry{State::kExists, now};
        break;
      case FsOp::kRename: {
        const Nanos created = paths_[path].created_at;
        paths_[path].state = State::kGone;
        paths_[path2] = Entry{State::kExists, created};
        break;
      }
      case FsOp::kDelete:
        paths_[path].state = State::kGone;
        break;
      default:
        break;
    }
  }

  const std::unordered_map<std::string, Entry>& paths() const {
    return paths_;
  }

 private:
  std::unordered_map<std::string, Entry> paths_;
};

// Ops counted in the measured window, by the drivers' own rule: a closed
// loop counts ops issued after the window opens that complete before it
// closes; an open loop counts every op issued inside the window.
struct WindowStats {
  bool open_loop = false;
  Nanos start = 0;
  Nanos end = 0;
  bool armed = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Nanos> ok_latency;

  bool Counts(Nanos issued, Nanos done) const {
    if (!armed || issued <= start || issued > end) return false;
    return open_loop || done <= end;
  }
};

struct OpLog {
  explicit OpLog(Simulation& s) : sim(s) {}
  Simulation& sim;
  WindowStats window;
  PathLedger ledger;
  int64_t in_flight = 0;
  int64_t completed = 0;  // every completion, in or out of the window

  void Complete(FsOp op, Nanos issued, bool ok, const std::string* path,
                const std::string* path2) {
    PROF_ZONE("bench.workload.check");
    --in_flight;
    ++completed;
    const Nanos now = sim.now();
    if (window.Counts(issued, now)) {
      ++window.attempted;
      if (ok) {
        window.ok_latency.push_back(now - issued);
      } else {
        ++window.failed;
      }
    }
    if (path != nullptr) ledger.Record(op, *path, *path2, ok, now);
  }
};

// The drivers' FsTarget over one HopsFS client. It times the benchmark's
// call into HopsFsClient::Submit as a zone and logs each completion.
class MeasuredTarget : public workload::FsTarget {
 public:
  MeasuredTarget(hopsfs::HopsFsClient* client, OpLog* log)
      : client_(client), log_(log) {}

  void Execute(FsOp op, const std::string& path, const std::string& path2,
               int64_t size, std::function<void(Status)> done) override {
    hopsfs::FsRequest req;
    req.op = op;
    req.path = path;
    req.path2 = path2;
    req.size = size;
    OpLog* log = log_;
    const Nanos issued = log->sim.now();
    ++log->in_flight;
    PROF_ZONE("bench.client.submit");
    if (PathLedger::Tracks(op)) {
      client_->Submit(std::move(req), [log, op, issued, path, path2,
                                       done = std::move(done)](
                                          hopsfs::FsResult r) {
        log->Complete(op, issued, r.status.ok(), &path, &path2);
        done(r.status);
      });
    } else {
      client_->Submit(std::move(req), [log, op, issued,
                                       done = std::move(done)](
                                          hopsfs::FsResult r) {
        log->Complete(op, issued, r.status.ok(), nullptr, nullptr);
        done(r.status);
      });
    }
  }

  AzId az() const override { return client_->az(); }

 private:
  hopsfs::HopsFsClient* client_;
  OpLog* log_;
};

// ---- one repetition ---------------------------------------------------------

// Sim-side results: a pure function of the workload and the seed. Every
// repetition of a run must produce the same value bit for bit.
struct SimResult {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  Nanos latency_sum = 0;
  Nanos p50 = 0;
  Nanos p999 = 0;
  uint64_t events = 0;
  int64_t msgs = 0;
  int64_t inter_az_bytes = 0;
  int64_t intra_az_bytes = 0;
  int64_t disk_bytes = 0;
  int64_t txn_retries = 0;
  int64_t lock_waits = 0;
  Nanos lock_wait_ns = 0;
  int64_t lock_timeouts = 0;
  int64_t reads_primary = 0;
  int64_t reads_backup = 0;
  // The resilience stack acts mostly while a fault is fresh, which
  // crash_restart keeps out of its window; these count over the whole
  // load phase (warm-up and window) instead.
  int64_t load_ops = 0;
  int64_t load_retries = 0;  // client RPC retries + NN txn retries
  int64_t load_hedges = 0;
  int64_t load_sheds = 0;
  double nn_cpu_util = 0;
  double ndb_ldm = 0, ndb_tc = 0, ndb_recv = 0, ndb_send = 0;
  Nanos recovery_started = -1;
  Nanos replay_done = -1;
  Nanos serving_at = -1;
  int streamed_parts = 0;
  double window_s = 0;

  bool operator==(const SimResult&) const = default;
};

// Host-side cost of the measured window (varies run to run).
struct HostResult {
  double setup_s = 0;
  uint64_t window_cpu_ns = 0;
  uint64_t window_allocs = 0;
  double rss_mb = 0;    // resident set when the window closes
  double calib_ns = 0;  // HostProbe ns/iteration during the window
  double probe_exponent = 1;

  // Converts this repetition's host times to reference-machine time.
  double Scale() const {
    return std::pow(kCalibRefNs / calib_ns, probe_exponent);
  }
  double UsPerOp(int64_t ops) const {
    return static_cast<double>(window_cpu_ns) / 1e3 * Scale() /
           static_cast<double>(ops);
  }
};

// What a repetition observes besides the window's totals.
enum class Observe { kNothing, kZones, kZonesAndSpans };

// Host cost by layer from an observed repetition's zone tree.
struct LayerLedger {
  std::map<std::string, prof::ZoneStats> rows;  // layer -> self cost
  uint64_t submit_calls = 0;
  uint64_t gen_calls = 0;
  trace::BreakdownAggregator critical_path;  // kZonesAndSpans only
};

struct CheckResult {
  int64_t checked = 0;
  int64_t created_before_crash = 0;
  int64_t mismatches = 0;
  int64_t unknown = 0;
};

struct RepOutput {
  uint64_t seed = 0;
  SimResult sim;
  HostResult host;
  CheckResult check;
  std::optional<LayerLedger> layers;  // observed repetitions only
  int64_t driver_attempted = 0;
  int64_t driver_ok = 0;
  int64_t driver_failed = 0;
  bool recovered = true;
};

// The ledger row a zone's self cost is charged to, by zone name prefix.
std::string LayerOf(const std::string& zone) {
  static const std::pair<const char*, const char*> kPrefixes[] = {
      {"bench.client.", "hopsfs.client"},
      {"bench.workload.next", "workload.gen"},
      {"bench.workload.check", "workload.check"},
      {"bench.trace.", "trace.sink"},
      {"nn.", "hopsfs.nn"},
      {"ndb.tc.sweep", "ndb.tc.sweep"},
      {"ndb.tc.", "ndb.tc"},
      {"ndb.ldm.", "ndb.ldm"},
      {"ndb.redo.", "ndb.redo"},
      {"ndb.recovery.", "ndb.recovery"},
      {"ndb.", "ndb.background"},
      {"blocks.", "blocks"},
  };
  for (const auto& [prefix, layer] : kPrefixes) {
    if (zone.rfind(prefix, 0) == 0) return layer;
  }
  return "other";
}

int64_t CounterValue(hopsfs::Deployment& dep, const char* name) {
  return dep.metrics().GetCounter(name)->value();
}

// Everything the window statistics subtract: a reading taken when the
// window opens and again when it closes.
struct Snapshot {
  uint64_t events = 0;
  uint64_t cpu_ns = 0;
  uint64_t allocs = 0;
  int64_t log_disk_bytes = 0;
  int64_t txn_retries = 0;
  int64_t lock_waits = 0;
  Nanos lock_wait_ns = 0;
  int64_t lock_timeouts = 0;
  int64_t client_retries = 0;
  int64_t hedges = 0;
  int64_t sheds = 0;
  HostProbe::Totals probe;

  static Snapshot Take(Simulation& sim, hopsfs::Deployment& dep,
                       const HostProbe& probe) {
    Snapshot s;
    s.probe = probe.totals();
    s.events = sim.events_processed();
    s.cpu_ns = prof::HostNowNs();
    s.allocs = prof::TotalAllocs().count;
    auto& ndb = dep.ndb();
    for (int n = 0; n < ndb.num_datanodes(); ++n) {
      auto& dn = ndb.datanode(n);
      const auto& ls = dn.log_disk().stats();
      s.log_disk_bytes += ls.bytes_read + ls.bytes_written;
      s.lock_waits += dn.locks().total_waits();
      s.lock_wait_ns += dn.locks().total_wait_ns();
      s.lock_timeouts += dn.locks().total_timeouts();
    }
    for (const auto& nn : dep.namenodes()) s.txn_retries += nn->txn_retries();
    s.client_retries = CounterValue(dep, "hopsfs.client.retries");
    s.hedges = CounterValue(dep, "hopsfs.client.hedges_sent") +
               CounterValue(dep, "ndb.api.hedges_sent");
    s.sheds = CounterValue(dep, "hopsfs.nn.admission_shed");
    return s;
  }
};

Nanos Quantile(std::vector<Nanos>& v, double q) {
  if (v.empty()) return 0;
  // Nearest rank, like util::Histogram but on the exact samples.
  const size_t rank = static_cast<size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

// Stats every ledger path with bounded concurrency and compares the
// answer with what the acknowledgements imply.
CheckResult CheckLedger(Simulation& sim, hopsfs::Deployment& dep,
                        const PathLedger& ledger, Nanos crash_at) {
  struct Expect {
    std::string path;
    bool ok;  // true: Stat succeeds; false: Stat returns NotFound
  };
  std::vector<Expect> expects;
  CheckResult out;
  for (const auto& [path, e] : ledger.paths()) {
    if (e.state == PathLedger::State::kUnknown) {
      ++out.unknown;
      continue;
    }
    const bool exists = e.state == PathLedger::State::kExists;
    if (exists && crash_at >= 0 && e.created_at < crash_at) {
      ++out.created_before_crash;
    }
    expects.push_back({path, exists});
  }
  std::sort(expects.begin(), expects.end(),
            [](const Expect& a, const Expect& b) { return a.path < b.path; });

  size_t next = 0;
  int64_t pending = 0;
  std::function<void(hopsfs::HopsFsClient*)> issue =
      [&](hopsfs::HopsFsClient* client) {
        if (next >= expects.size()) return;
        const size_t i = next++;
        ++pending;
        client->Stat(expects[i].path, [&, client, i](Status s) {
          const Expect& p = expects[i];
          --pending;
          ++out.checked;
          const bool good = p.ok ? s.ok() : s.code() == Code::kNotFound;
          if (!good) {
            if (out.mismatches < 5) {
              std::fprintf(stderr, "ledger mismatch: %s expected %s, got %s\n",
                           p.path.c_str(), p.ok ? "OK" : "NotFound",
                           s.ToString().c_str());
            }
            ++out.mismatches;
          }
          issue(client);
        });
      };
  const auto& clients = dep.clients();
  const size_t lanes =
      std::min<size_t>(kCheckConcurrency, clients.size());
  for (size_t i = 0; i < lanes; ++i) issue(clients[i].get());
  const Nanos deadline = sim.now() + 120 * kSecond;
  while ((pending > 0 || next < expects.size()) && sim.now() < deadline) {
    sim.RunFor(10 * kMillisecond);
  }
  out.mismatches += static_cast<int64_t>(expects.size()) - out.checked;
  return out;
}

double ResidentMb() {
  long pages = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

RepOutput RunRep(const WorkloadSpec& spec, uint64_t seed, Observe observe,
                 HostProbe& probe) {
  RepOutput out;
  out.seed = seed;
  out.host.probe_exponent = spec.probe_exponent;
  const auto setup_t0 = std::chrono::steady_clock::now();

  Simulation sim(seed);
  auto options = hopsfs::DeploymentOptions::FromPaperSetup(
      hopsfs::PaperSetup::kHopsFsCl_3_3, spec.namenodes);
  hopsfs::Deployment dep(sim, options);
  dep.Start();
  SpotifyWorkload spotify(
      workload::NamespaceConfig{spec.users, 4, 4, 0.75}, seed);
  dep.BootstrapNamespace(spotify.all_dirs(), spotify.all_files());

  OpLog log(sim);
  log.window.open_loop = spec.open_loop_rate > 0;
  std::vector<std::unique_ptr<MeasuredTarget>> targets;
  std::vector<workload::FsTarget*> target_ptrs;
  for (int i = 0; i < spec.clients; ++i) {
    targets.push_back(std::make_unique<MeasuredTarget>(dep.AddClient(), &log));
    target_ptrs.push_back(targets.back().get());
  }
  sim.RunFor(kSettle);
  out.host.setup_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - setup_t0)
                         .count();

  MutateSource mutate(spotify.all_dirs());
  workload::OpSource source = [&](Rng& rng, std::vector<std::string>& owned) {
    PROF_ZONE("bench.workload.next");
    return spec.mix == Mix::kMutate ? mutate.Next(rng, owned)
                                    : spotify.Next(rng, owned);
  };

  std::unique_ptr<prof::Profiler> profiler;
  const bool spans = observe == Observe::kZonesAndSpans;
  if (observe != Observe::kNothing) {
    out.layers.emplace();
    profiler = std::make_unique<prof::Profiler>();
    profiler->Install();
  }
  if (spans) {
    trace::BreakdownAggregator* agg = &out.layers->critical_path;
    sim.tracer().set_keep_last(0);
    sim.tracer().set_sink([agg, &log](const trace::Trace& t) {
      PROF_ZONE("bench.trace.sink");
      if (log.window.Counts(t.root().start, t.root().end)) agg->Add(t);
    });
  }

  Snapshot before;
  Simulation::PeriodicHandle probe_timer;
  auto open_window = [&] {
    dep.ResetStats();
    log.window.start = sim.now();
    log.window.end = sim.now() + spec.measure;
    log.window.armed = true;
    if (profiler) profiler->ResetStats();
    if (spans) sim.tracer().set_sample_every(1);
    probe_timer = sim.Every(spec.measure / kProbeSlices,
                            [&probe] { probe.Slice(); });
    before = Snapshot::Take(sim, dep, probe);
  };

  const Nanos load_start = sim.now();
  const Snapshot at_load = Snapshot::Take(sim, dep, probe);
  const int64_t completed_at_load = log.completed;
  if (spec.crash_restart) {
    auto& ndb = dep.ndb();
    sim.At(load_start + kCrashAt, [&ndb] { ndb.CrashDatanode(kCrashNode); });
    sim.At(load_start + kRestartAt, [&ndb, &out] {
      out.recovered = false;
      ndb.RestartDatanode(kCrashNode, [&out] { out.recovered = true; });
    });
  }
  std::unique_ptr<workload::ClosedLoopDriver> closed;
  std::unique_ptr<workload::OpenLoopDriver> open;
  if (spec.open_loop_rate > 0) {
    open = std::make_unique<workload::OpenLoopDriver>(sim, target_ptrs, source);
    sim.At(sim.now() + spec.warmup, open_window);
    const auto r = open->Run(spec.open_loop_rate, spec.warmup, spec.measure);
    out.driver_attempted = r.issued;
    out.driver_ok = r.completed + r.late_ok;
    out.driver_failed = r.failed;
  } else {
    closed = std::make_unique<workload::ClosedLoopDriver>(sim, target_ptrs,
                                                          source);
    const auto r = closed->Run(spec.warmup, spec.measure, open_window);
    out.driver_attempted = r.completed + r.failed;
    out.driver_ok = r.completed;
    out.driver_failed = r.failed;
  }
  const Snapshot after = Snapshot::Take(sim, dep, probe);
  probe_timer.Cancel();
  log.window.armed = false;

  // ---- window statistics ----
  SimResult& s = out.sim;
  WindowStats& w = log.window;
  s.window_s = ToSeconds(spec.measure);
  s.attempted = w.attempted;
  s.failed = w.failed;
  s.ok = static_cast<int64_t>(w.ok_latency.size());
  for (Nanos l : w.ok_latency) s.latency_sum += l;
  s.p50 = Quantile(w.ok_latency, 0.50);
  s.p999 = Quantile(w.ok_latency, 0.999);
  s.events = after.events - before.events;
  auto& net = dep.network();
  for (int h = 0; h < dep.topology().num_hosts(); ++h) {
    s.msgs += net.host_stats(h).messages_sent;
  }
  s.inter_az_bytes = net.inter_az_bytes();
  s.intra_az_bytes = net.intra_az_bytes();
  auto& ndb = dep.ndb();
  for (int n = 0; n < ndb.num_datanodes(); ++n) {
    const auto& ds = ndb.datanode(n).disk().stats();
    s.disk_bytes += ds.bytes_read + ds.bytes_written;
  }
  s.disk_bytes += after.log_disk_bytes - before.log_disk_bytes;
  s.txn_retries = after.txn_retries - before.txn_retries;
  s.lock_waits = after.lock_waits - before.lock_waits;
  s.lock_wait_ns = after.lock_wait_ns - before.lock_wait_ns;
  s.lock_timeouts = after.lock_timeouts - before.lock_timeouts;
  s.load_ops = log.completed - completed_at_load;
  s.load_retries = after.client_retries - at_load.client_retries +
                   after.txn_retries - at_load.txn_retries;
  s.load_hedges = after.hedges - at_load.hedges;
  s.load_sheds = after.sheds - at_load.sheds;
  for (const auto& replicas : ndb.reads_per_replica()) {
    for (size_t i = 0; i < replicas.size(); ++i) {
      (i == 0 ? s.reads_primary : s.reads_backup) += replicas[i];
    }
  }
  int alive_nns = 0;
  for (const auto& nn : dep.namenodes()) {
    if (!nn->alive()) continue;
    ++alive_nns;
    s.nn_cpu_util += nn->cpu_pool().Utilization(log.window.start);
  }
  if (alive_nns > 0) s.nn_cpu_util /= alive_nns;
  const auto util = ndb.AverageThreadUtilization(log.window.start);
  s.ndb_ldm = util.ldm;
  s.ndb_tc = util.tc;
  s.ndb_recv = util.recv;
  s.ndb_send = util.send;
  const HostProbe::Totals& p0 = before.probe;
  const HostProbe::Totals& p1 = after.probe;
  s.events -= p1.slices - p0.slices;
  out.host.window_cpu_ns = after.cpu_ns - before.cpu_ns - (p1.ns - p0.ns);
  out.host.window_allocs = after.allocs - before.allocs -
                           (p1.allocs - p0.allocs);
  out.host.calib_ns = static_cast<double>(p1.ns - p0.ns) /
                      static_cast<double>(p1.iters - p0.iters);
  out.host.rss_mb = ResidentMb() - HostProbe::TableMb();

  if (profiler) {
    LayerLedger& L = *out.layers;
    const auto& nodes = profiler->nodes();
    for (int32_t i = 1; i < static_cast<int32_t>(nodes.size()); ++i) {
      const std::string& zone = prof::ZoneName(nodes[i].name);
      L.rows[LayerOf(zone)].Add(profiler->SelfOf(i));
      if (zone == "bench.client.submit") L.submit_calls += nodes[i].total.calls;
      if (zone == "bench.workload.next") L.gen_calls += nodes[i].total.calls;
    }
    profiler->Uninstall();
  }
  if (spans) {
    sim.tracer().set_sample_every(0);
    sim.tracer().set_sink(nullptr);
  }

  // ---- drain, recover, check ----
  const Nanos drain_deadline = sim.now() + 60 * kSecond;
  while ((log.in_flight > 0 || !out.recovered) &&
         sim.now() < drain_deadline) {
    sim.RunFor(10 * kMillisecond);
  }
  if (spec.crash_restart) {
    for (const auto& rec : ndb.recovery_log()) {
      if (rec.node != kCrashNode) continue;
      s.recovery_started = rec.started;
      s.replay_done = rec.replay_done;
      s.serving_at = rec.serving_at;
      s.streamed_parts = rec.streamed_parts;
    }
    out.recovered = out.recovered && s.serving_at >= 0;
  }
  out.check = CheckLedger(
      sim, dep, log.ledger,
      spec.crash_restart ? load_start + kCrashAt : -1);
  return out;
}

// The simulation seed of a run's `rep`-th repetition: SplitMix64 of
// (seed, stream index), so runs with nearby seeds share no stream.
uint64_t InputSeed(uint64_t seed, int inputs, size_t rep) {
  uint64_t z = seed * inputs + rep % inputs + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---- reporting --------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Div(double a, double b) { return b != 0 ? a / b : 0.0; }

class MetricSet {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0;
    items_.push_back({name, value, unit});
  }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       i == 0 ? "" : ", ", items_[i].name.c_str(),
                       items_[i].value, items_[i].unit);
    }
    return out + "}";
  }

  void Print(FILE* f) const {
    for (const auto& m : items_) {
      std::fprintf(f, "  %-38s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

struct Verdict {
  bool correct = true;
  void Fail(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
};

// Output checks that hold for every repetition.
void CheckRep(const WorkloadSpec& spec, const RepOutput& r, Verdict& v) {
  const SimResult& s = r.sim;
  if (r.driver_attempted != s.attempted || r.driver_ok != s.ok ||
      r.driver_failed != s.failed) {
    v.Fail(StrFormat("op counts disagree with the driver: %lld/%lld/%lld "
                     "attempted/ok/failed vs driver %lld/%lld/%lld",
                     (long long)s.attempted, (long long)s.ok,
                     (long long)s.failed, (long long)r.driver_attempted,
                     (long long)r.driver_ok, (long long)r.driver_failed));
  }
  if (!spec.crash_restart && s.failed != 0) {
    v.Fail(StrFormat("%lld ops failed on a fault-free workload",
                     (long long)s.failed));
  }
  if (s.ok < 10000) {
    v.Fail(StrFormat("only %lld ok ops: p99.9 needs 10,000 samples",
                     (long long)s.ok));
  }
  if (!r.recovered) v.Fail("crashed datanode never reached serving");
  if (r.check.mismatches != 0) {
    v.Fail(StrFormat("%lld of %lld ledger paths read back wrong",
                     (long long)r.check.mismatches,
                     (long long)(r.check.checked)));
  }
  if (!spec.crash_restart && r.check.unknown != 0) {
    v.Fail("fault-free workload left paths in an unknown state");
  }
  if (spec.crash_restart && r.check.created_before_crash == 0) {
    v.Fail("no create was acknowledged before the crash");
  }
}

// Host values are medians over every repetition, sim-side values medians
// over the run's op streams (its first `inputs` repetitions).
void EndToEnd(const std::vector<RepOutput>& reps, int inputs, MetricSet& m) {
  std::vector<double> setup, cpu, allocs, ops, p50, p999, ok_frac, inter_az;
  double rss = 0;
  for (size_t i = 0; i < reps.size(); ++i) {
    const RepOutput& r = reps[i];
    const double ok = static_cast<double>(r.sim.ok);
    setup.push_back(r.host.setup_s * r.host.Scale());
    cpu.push_back(r.host.UsPerOp(r.sim.ok));
    allocs.push_back(static_cast<double>(r.host.window_allocs) / ok);
    rss = std::max(rss, r.host.rss_mb);
    if (i >= static_cast<size_t>(inputs)) continue;
    ops.push_back(ok / r.sim.window_s);
    p50.push_back(ToMillis(r.sim.p50));
    p999.push_back(ToMillis(r.sim.p999));
    ok_frac.push_back(Div(ok, static_cast<double>(r.sim.attempted)));
    inter_az.push_back(static_cast<double>(r.sim.inter_az_bytes) / 1024.0 /
                       ok);
  }
  m.Add("setup_s", Median(setup), "s");
  m.Add("host_us_per_op", Median(cpu), "us");
  m.Add("allocs_per_op", Median(allocs), "count");
  m.Add("peak_rss_mb", rss, "MB");
  m.Add("sim_ops_per_s", Median(ops), "1/s");
  m.Add("sim_p50_ms", Median(p50), "ms");
  m.Add("sim_p999_ms", Median(p999), "ms");
  m.Add("ok_frac", Median(ok_frac), "frac");
  m.Add("inter_az_kb_per_op", Median(inter_az), "KB");
}

// Median reference-us/op of a run's repetitions of each kind.
struct HostMedians {
  double plain = 0;
  double zones = 0;
  double spans = 0;
};

// `zoned` gives the host-cost ledger, `spanned` the critical path.
void PerLayer(const SimResult& s, const RepOutput& zoned,
              const RepOutput& spanned, const HostMedians& us, MetricSet& m) {
  const LayerLedger& L = *zoned.layers;
  const double ok = static_cast<double>(s.ok);
  const double sim_s = s.window_s;
  // Zone CPU of the zoned repetition, in reference-machine ns.
  const double scale = zoned.host.Scale();
  auto row = [&L](const char* layer) {
    auto it = L.rows.find(layer);
    return it == L.rows.end() ? prof::ZoneStats{} : it->second;
  };
  auto cpu_ns = [&](const char* layer) {
    return static_cast<double>(row(layer).cpu_ns) * scale;
  };
  auto us_per_op = [&](const char* layer) { return cpu_ns(layer) / 1e3 / ok; };
  auto allocs_per_op = [&](const char* layer) {
    return static_cast<double>(row(layer).allocs) / ok;
  };

  m.Add("sim.engine.events_per_op", static_cast<double>(s.events) / ok,
        "count");
  m.Add("sim.engine.host_ns_per_event",
        Div(us.plain * 1e3 * ok, static_cast<double>(s.events)),
        "ns");
  m.Add("sim.network.msgs_per_op", static_cast<double>(s.msgs) / ok, "count");
  m.Add("sim.network.inter_az_kb_per_op",
        static_cast<double>(s.inter_az_bytes) / 1024.0 / ok, "KB");
  m.Add("sim.network.intra_az_kb_per_op",
        static_cast<double>(s.intra_az_bytes) / 1024.0 / ok, "KB");
  m.Add("sim.resources.nn_cpu_util", s.nn_cpu_util, "frac");
  m.Add("sim.resources.ndb_util.ldm", s.ndb_ldm, "frac");
  m.Add("sim.resources.ndb_util.tc", s.ndb_tc, "frac");
  m.Add("sim.resources.ndb_util.recv", s.ndb_recv, "frac");
  m.Add("sim.resources.ndb_util.send", s.ndb_send, "frac");
  m.Add("sim.resources.ndb_disk_kb_per_op",
        static_cast<double>(s.disk_bytes) / 1024.0 / ok, "KB");

  m.Add("hopsfs.client.submit_ns_per_op",
        Div(cpu_ns("hopsfs.client"), static_cast<double>(L.submit_calls)),
        "ns");
  m.Add("hopsfs.nn.host_us_per_op", us_per_op("hopsfs.nn"), "us");
  m.Add("hopsfs.nn.allocs_per_op", allocs_per_op("hopsfs.nn"), "count");
  m.Add("hopsfs.nn.txn_retries_per_op",
        static_cast<double>(s.txn_retries) / ok, "count");

  m.Add("ndb.tc.host_us_per_op", us_per_op("ndb.tc"), "us");
  m.Add("ndb.tc.allocs_per_op", allocs_per_op("ndb.tc"), "count");
  m.Add("ndb.ldm.host_us_per_op", us_per_op("ndb.ldm"), "us");
  m.Add("ndb.ldm.allocs_per_op", allocs_per_op("ndb.ldm"), "count");
  m.Add("ndb.redo.host_us_per_op", us_per_op("ndb.redo"), "us");
  m.Add("ndb.background.host_us_per_op", us_per_op("ndb.background"), "us");
  m.Add("ndb.tc.sweep_host_ms_per_sim_s",
        cpu_ns("ndb.tc.sweep") / 1e6 / sim_s, "ms");
  m.Add("ndb.lock.waits_per_op", static_cast<double>(s.lock_waits) / ok,
        "count");
  m.Add("ndb.lock.wait_ms_mean",
        Div(ToMillis(s.lock_wait_ns), static_cast<double>(s.lock_waits)),
        "ms");
  m.Add("ndb.lock.timeouts", static_cast<double>(s.lock_timeouts), "count");
  m.Add("ndb.read_backup_share",
        Div(static_cast<double>(s.reads_backup),
            static_cast<double>(s.reads_primary + s.reads_backup)),
        "frac");
  const bool crashed = s.recovery_started >= 0;
  m.Add("ndb.recovery.total_ms",
        crashed ? ToMillis(s.serving_at - s.recovery_started) : 0.0, "ms");
  m.Add("ndb.recovery.replay_ms",
        crashed ? ToMillis(s.replay_done - s.recovery_started) : 0.0, "ms");
  m.Add("ndb.recovery.resync_ms",
        crashed ? ToMillis(s.serving_at - s.replay_done) : 0.0, "ms");
  m.Add("ndb.recovery.streamed_parts", s.streamed_parts, "count");
  m.Add("ndb.recovery.host_ms",
        cpu_ns("ndb.recovery") / 1e6, "ms");

  m.Add("blocks.host_us_per_sim_s",
        cpu_ns("blocks") / 1e3 / sim_s, "us");
  m.Add("workload.gen_ns_per_op",
        Div(cpu_ns("workload.gen"), static_cast<double>(L.gen_calls)),
        "ns");
  m.Add("workload.check_ns_per_op",
        cpu_ns("workload.check") / ok, "ns");

  const double load_ops = static_cast<double>(s.load_ops);
  m.Add("resilience.retries_per_op",
        Div(static_cast<double>(s.load_retries), load_ops), "count");
  m.Add("resilience.hedges_per_op",
        Div(static_cast<double>(s.load_hedges), load_ops), "count");
  m.Add("resilience.sheds_per_op",
        Div(static_cast<double>(s.load_sheds), load_ops), "count");

  std::map<trace::Cause, Nanos> by_cause;
  Nanos cp_total = 0;
  for (const auto& [op, b] : spanned.layers->critical_path.per_op()) {
    cp_total += b.total;
    for (const auto& [cause, ns] : b.by_cause) by_cause[cause] += ns;
  }
  const std::pair<trace::Cause, const char*> kCauses[] = {
      {trace::Cause::kCpuQueue, "cp.cpu_queue_share"},
      {trace::Cause::kCpu, "cp.cpu_share"},
      {trace::Cause::kDisk, "cp.disk_share"},
      {trace::Cause::kLockWait, "cp.lock_share"},
      {trace::Cause::kNetworkIntraAz, "cp.intra_az_share"},
      {trace::Cause::kNetworkInterAz, "cp.inter_az_share"},
      {trace::Cause::kRetry, "cp.retry_share"},
      {trace::Cause::kWork, "cp.work_share"},
  };
  for (const auto& [cause, name] : kCauses) {
    m.Add(name,
          Div(static_cast<double>(by_cause[cause]),
              static_cast<double>(cp_total)),
          "frac");
  }

  // The ledger: the zoned window's CPU and allocations, minus every
  // zone's self cost (the benchmark's own timed calls are zones too).
  uint64_t zone_cpu = 0, zone_allocs = 0;
  for (const auto& [layer, z] : L.rows) {
    zone_cpu += z.cpu_ns;
    zone_allocs += z.allocs;
  }
  m.Add("host.unattributed_us_per_op",
        (static_cast<double>(zoned.host.window_cpu_ns) -
         static_cast<double>(zone_cpu)) * scale / 1e3 / ok,
        "us");
  m.Add("host.unattributed_allocs_per_op",
        (static_cast<double>(zoned.host.window_allocs) -
         static_cast<double>(zone_allocs)) / ok,
        "count");
  const auto sink = spanned.layers->rows.find("trace.sink");
  m.Add("trace.sink_us_per_op",
        sink == spanned.layers->rows.end()
            ? 0.0
            : static_cast<double>(sink->second.cpu_ns) *
                  spanned.host.Scale() / 1e3 / ok,
        "us");
  m.Add("trace.zone_overhead_frac", Div(us.zones, us.plain) - 1.0, "frac");
  m.Add("trace.overhead_frac", Div(us.spans, us.plain) - 1.0, "frac");
}

// The repetition whose reference-us/op is nearest the median of `reps`;
// stores that median in `*median`.
const RepOutput& NearMedian(const std::vector<RepOutput>& reps,
                            double* median) {
  std::vector<double> us;
  for (const auto& r : reps) us.push_back(r.host.UsPerOp(r.sim.ok));
  *median = Median(us);
  size_t best = 0;
  for (size_t i = 1; i < us.size(); ++i) {
    if (std::abs(us[i] - *median) < std::abs(us[best] - *median)) best = i;
  }
  return reps[best];
}

void PrintLedger(const RepOutput& zoned) {
  const LayerLedger& L = *zoned.layers;
  const double ok = static_cast<double>(zoned.sim.ok);
  // Reference-machine units, like every other host time.
  const double scale = zoned.host.Scale();
  const double total =
      static_cast<double>(zoned.host.window_cpu_ns) * scale;
  const double total_allocs = static_cast<double>(zoned.host.window_allocs);
  std::fprintf(stderr,
               "host-cost ledger of the zoned window, reference us "
               "(%lld ok ops):\n",
               (long long)zoned.sim.ok);
  std::fprintf(stderr, "  %-22s %10s %7s %12s\n", "layer", "us/op", "share",
               "allocs/op");
  double cpu_left = total, allocs_left = total_allocs;
  for (const auto& [layer, z] : L.rows) {
    const double cpu = static_cast<double>(z.cpu_ns) * scale;
    cpu_left -= cpu;
    allocs_left -= static_cast<double>(z.allocs);
    std::fprintf(stderr, "  %-22s %10.3f %6.1f%% %12.3f\n", layer.c_str(),
                 cpu / 1e3 / ok, 100.0 * Div(cpu, total),
                 static_cast<double>(z.allocs) / ok);
  }
  std::fprintf(stderr, "  %-22s %10.3f %6.1f%% %12.3f\n", "unattributed",
               cpu_left / 1e3 / ok, 100.0 * Div(cpu_left, total),
               allocs_left / ok);
  std::fprintf(stderr, "  %-22s %10.3f %6.1f%% %12.3f\n", "total",
               total / 1e3 / ok, 100.0, total_allocs / ok);
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:",
               argv0);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

int Main(int argc, char** argv) {
  const WorkloadSpec* spec = nullptr;
  std::optional<uint64_t> seed, seconds, trace_flag;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t v = 0;
    if (flag == "--workload") {
      for (const auto& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) spec = &w;
      }
      if (spec == nullptr) return Usage(argv[0]);
    } else if (flag == "--seed" && ParseUint(value, &v)) {
      seed = v;
    } else if (flag == "--seconds" && ParseUint(value, &v) && v > 0) {
      seconds = v;
    } else if (flag == "--trace" && ParseUint(value, &v) && v <= 1) {
      trace_flag = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || spec == nullptr || !seed || !seconds || !trace_flag) {
    return Usage(argv[0]);
  }
  const bool trace = *trace_flag == 1;

  // The global allocation counter (not zone tracing) backs allocs_per_op.
  prof::SetAllocCounting(true);
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  HostProbe probe;
  Verdict verdict;
  // plain: no observers; zoned: profiler; spanned: profiler and tracer.
  std::vector<RepOutput> plain, zoned, spanned;
  while (true) {
    const uint64_t input = InputSeed(*seed, spec->inputs, plain.size());
    plain.push_back(RunRep(*spec, input, Observe::kNothing, probe));
    CheckRep(*spec, plain.back(), verdict);
    if (trace) {
      zoned.push_back(RunRep(*spec, input, Observe::kZones, probe));
      CheckRep(*spec, zoned.back(), verdict);
      spanned.push_back(RunRep(*spec, input, Observe::kZonesAndSpans, probe));
      CheckRep(*spec, spanned.back(), verdict);
    }
    const size_t reps = plain.size();
    const RepOutput& last = plain.back();
    std::fprintf(stderr,
                 "rep %zu: setup %.3f s, %.3f host-us/op measured, "
                 "calibration %.1f ns, %.3f reference-us/op, done at %.1f s\n",
                 reps, last.host.setup_s,
                 static_cast<double>(last.host.window_cpu_ns) / 1e3 /
                     static_cast<double>(last.sim.ok),
                 last.host.calib_ns, last.host.UsPerOp(last.sim.ok),
                 elapsed());
    const bool enough = trace || reps >= static_cast<size_t>(spec->inputs);
    if (enough && elapsed() >= static_cast<double>(*seconds)) break;
  }
  const std::vector<RepOutput>* kinds[] = {&plain, &zoned, &spanned};

  // Determinism guard: every repetition, observed or not, repeats the
  // sim-side results of the first repetition of its op stream exactly.
  std::map<uint64_t, const SimResult*> first_of;
  for (const auto& r : plain) first_of.emplace(r.seed, &r.sim);
  int64_t attempted = 0, failed = 0;
  for (const auto* reps : kinds) {
    for (const auto& r : *reps) {
      if (!(r.sim == *first_of.at(r.seed))) {
        verdict.Fail("sim-side results differ between repetitions of one "
                     "op stream (observed or not)");
      }
      attempted += r.sim.attempted;
      failed += r.sim.failed;
    }
  }

  const RepOutput& first = plain.front();
  std::fprintf(stderr,
               "%s seed %llu: %zu reps, window %.3f sim-s, first stream "
               "%lld ok ops of %lld, %lld ledger paths checked (%lld created "
               "before the crash)\n",
               spec->name, (unsigned long long)*seed, plain.size(),
               first.sim.window_s, (long long)first.sim.ok,
               (long long)first.sim.attempted, (long long)first.check.checked,
               (long long)first.check.created_before_crash);

  MetricSet metrics;
  if (trace) {
    HostMedians us;
    const RepOutput& z = NearMedian(zoned, &us.zones);
    const RepOutput& t = NearMedian(spanned, &us.spans);
    NearMedian(plain, &us.plain);
    PrintLedger(z);
    PerLayer(z.sim, z, t, us, metrics);
  } else {
    EndToEnd(plain, spec->inputs, metrics);
  }
  metrics.Print(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              verdict.correct ? "true" : "false", (long long)attempted,
              (long long)failed, metrics.Json().c_str());
  return verdict.correct ? 0 : 1;
}

}  // namespace
}  // namespace repro::hopsbench

int main(int argc, char** argv) { return repro::hopsbench::Main(argc, argv); }
