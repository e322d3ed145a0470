#include "bench_common.h"

#include <cstdio>

#include "util/strings.h"
#include "workload/fs_interface.h"

namespace repro::bench {

std::vector<int> PaperNnCounts() {
  if (FullScale()) return {1, 6, 12, 18, 24, 36, 48, 60};
  return {1, 6, 12, 24, 36, 60};
}

std::vector<int> ResourceSweepCounts() {
  if (FullScale()) return {1, 6, 12, 18, 24, 36, 48, 60};
  return {6, 24, 60};
}

int FixedServerCount() { return FullScale() ? 60 : 24; }

std::function<workload::OpSource(const workload::SpotifyWorkload&)>
MicroOpSourceFactory(workload::FsOp op) {
  using workload::SpotifyWorkload;
  return [op](const SpotifyWorkload& wl) -> workload::OpSource {
    auto counter = std::make_shared<uint64_t>(0);
    // Copy what we need: dir and file path lists.
    auto dirs = std::make_shared<std::vector<std::string>>(wl.all_dirs());
    auto files = std::make_shared<std::vector<std::string>>(wl.all_files());
    return [op, counter, dirs, files](
               Rng& rng, std::vector<std::string>& owned) {
      SpotifyWorkload::Op out;
      out.op = op;
      switch (op) {
        case workload::FsOp::kMkdir:
          out.path = StrFormat(
              "%s/mk%llu", (*dirs)[rng.NextBelow(dirs->size())].c_str(),
              static_cast<unsigned long long>(++*counter));
          break;
        case workload::FsOp::kCreate:
          out.path = StrFormat(
              "%s/cr%llu", (*dirs)[rng.NextBelow(dirs->size())].c_str(),
              static_cast<unsigned long long>(++*counter));
          break;
        case workload::FsOp::kDelete:
          if (owned.empty()) {
            out.op = workload::FsOp::kCreate;
            out.path = StrFormat(
                "%s/dl%llu", (*dirs)[rng.NextBelow(dirs->size())].c_str(),
                static_cast<unsigned long long>(++*counter));
            owned.push_back(out.path);
          } else {
            out.path = owned.back();
            owned.pop_back();
          }
          break;
        case workload::FsOp::kOpenRead:
        default:
          out.op = workload::FsOp::kOpenRead;
          out.path = (*files)[rng.NextBelow(files->size())];
          break;
      }
      return out;
    };
  };
}

std::vector<hopsfs::PaperSetup> AllHopsFsSetups() {
  return {hopsfs::PaperSetup::kHopsFs_2_1, hopsfs::PaperSetup::kHopsFs_3_1,
          hopsfs::PaperSetup::kHopsFs_2_3, hopsfs::PaperSetup::kHopsFs_3_3,
          hopsfs::PaperSetup::kHopsFsCl_2_3,
          hopsfs::PaperSetup::kHopsFsCl_3_3};
}

RunOutput RunHopsFsWorkload(const RunConfig& config) {
  const int clients_per_nn =
      config.clients_per_nn > 0 ? config.clients_per_nn
                                : (FullScale() ? 64 : 32);
  const Nanos warmup =
      config.warmup > 0 ? config.warmup
                        : (FullScale() ? 400 * kMillisecond
                                       : 200 * kMillisecond);
  const Nanos measure =
      config.measure > 0 ? config.measure
                         : (FullScale() ? 1 * kSecond : 500 * kMillisecond);

  Simulation sim(config.seed);
  if (config.sim_setup) config.sim_setup(sim);
  auto options = hopsfs::DeploymentOptions::FromPaperSetup(
      config.setup, config.num_namenodes);
  if (config.tweak) config.tweak(options);
  hopsfs::Deployment deployment(sim, options);
  deployment.Start();

  workload::SpotifyWorkload workload(workload::NamespaceConfig{}, config.seed);
  deployment.BootstrapNamespace(workload.all_dirs(), workload.all_files());

  std::vector<std::unique_ptr<workload::HopsFsTarget>> targets;
  std::vector<workload::FsTarget*> target_ptrs;
  const int total_clients = clients_per_nn * config.num_namenodes;
  for (int i = 0; i < total_clients; ++i) {
    targets.push_back(
        std::make_unique<workload::HopsFsTarget>(deployment.AddClient()));
    target_ptrs.push_back(targets.back().get());
  }

  // Let leader election + client NN selection settle.
  sim.RunFor(3 * kSecond);

  workload::OpSource source;
  if (config.op_source_factory) {
    source = config.op_source_factory(workload);
  } else {
    source = [&workload](Rng& rng, std::vector<std::string>& owned) {
      return workload.Next(rng, owned);
    };
  }
  workload::ClosedLoopDriver driver(sim, target_ptrs, std::move(source));

  // Warm up outside the stats window, then reset and measure.
  Nanos window_start = 0;
  auto results = driver.Run(warmup, measure, [&] {
    deployment.ResetStats();
    window_start = sim.now();
  });

  RunOutput out;
  out.num_namenodes = config.num_namenodes;
  out.results = std::move(results);

  // ---- resource statistics over the measurement window ----
  auto& ndb = deployment.ndb();
  auto& net = deployment.network();
  const double secs = ToSeconds(sim.now() - window_start);
  const double mb = 1e6;

  ResourceStats& r = out.resources;
  r.ndb_threads = ndb.AverageThreadUtilization(window_start);
  r.ndb_cpu_util = r.ndb_threads.average();

  int alive_ndb = 0;
  for (int n = 0; n < ndb.num_datanodes(); ++n) {
    auto& dn = ndb.datanode(n);
    if (!dn.alive()) continue;
    ++alive_ndb;
    const auto& hs = net.host_stats(dn.host());
    r.ndb_net_read_mbps += static_cast<double>(hs.bytes_received);
    r.ndb_net_write_mbps += static_cast<double>(hs.bytes_sent);
    r.ndb_disk_read_mbps += static_cast<double>(dn.disk().stats().bytes_read);
    r.ndb_disk_write_mbps +=
        static_cast<double>(dn.disk().stats().bytes_written);
  }
  if (alive_ndb > 0 && secs > 0) {
    const double d = alive_ndb * secs * mb;
    r.ndb_net_read_mbps /= d;
    r.ndb_net_write_mbps /= d;
    r.ndb_disk_read_mbps /= d;
    r.ndb_disk_write_mbps /= d;
  }

  int alive_nn = 0;
  for (const auto& nn : deployment.namenodes()) {
    if (!nn->alive()) continue;
    ++alive_nn;
    r.nn_cpu_util += nn->cpu_pool().Utilization(window_start);
    const auto& hs = net.host_stats(nn->host());
    r.nn_net_read_mbps += static_cast<double>(hs.bytes_received);
    r.nn_net_write_mbps += static_cast<double>(hs.bytes_sent);
  }
  if (alive_nn > 0) {
    r.nn_cpu_util /= alive_nn;
    if (secs > 0) {
      r.nn_net_read_mbps /= alive_nn * secs * mb;
      r.nn_net_write_mbps /= alive_nn * secs * mb;
    }
  }
  if (secs > 0) {
    r.inter_az_mbps = static_cast<double>(net.inter_az_bytes()) / (secs * mb);
  }

  out.replica_reads = ndb.reads_per_replica();
  out.events_dispatched = sim.events_processed();
  out.rng_draws = sim.rng().draws();
  return out;
}

void PrintHeader(const std::string& title, const std::string& figure) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", figure.c_str());
  std::printf("Scale: %s (set REPRO_FULL=1 for the full sweep)\n",
              FullScale() ? "FULL" : "quick");
  std::printf("================================================================\n");
}

std::string Mops(double ops_per_sec) {
  if (ops_per_sec >= 1e6) return StrFormat("%.2fM", ops_per_sec / 1e6);
  if (ops_per_sec >= 1e3) return StrFormat("%.0fK", ops_per_sec / 1e3);
  return StrFormat("%.0f", ops_per_sec);
}

}  // namespace repro::bench
