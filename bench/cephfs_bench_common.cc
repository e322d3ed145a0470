#include "cephfs_bench_common.h"

#include "bench_common.h"
#include "workload/fs_interface.h"

namespace repro::bench {

std::vector<cephfs::CephVariant> AllCephVariants() {
  return {cephfs::CephVariant::kDefault, cephfs::CephVariant::kDirPinned,
          cephfs::CephVariant::kSkipKCache};
}

const char* CephVariantName(cephfs::CephVariant variant) {
  return cephfs::CephVariantLabel(variant);
}

CephRunOutput RunCephWorkload(const CephRunConfig& config) {
  const int clients_per_mds =
      config.clients_per_mds > 0 ? config.clients_per_mds
                                 : (FullScale() ? 64 : 32);
  const Nanos warmup = FullScale() ? 400 * kMillisecond : 200 * kMillisecond;
  const Nanos measure = FullScale() ? 1 * kSecond : 500 * kMillisecond;

  constexpr uint64_t kSeed = 1;
  Simulation sim(kSeed);
  Topology topology(3, AzLatencyTable::UsWest1());
  Network network(sim, topology);

  cephfs::CephConfig ceph_config;
  ceph_config.variant = config.variant;
  ceph_config.num_mds = config.num_mds;
  cephfs::CephCluster cluster(sim, network, ceph_config);

  workload::SpotifyWorkload workload(workload::NamespaceConfig{}, kSeed);
  cluster.BootstrapNamespace(workload.all_dirs(), workload.all_files());
  cluster.Start();

  std::vector<std::unique_ptr<workload::CephFsTarget>> targets;
  std::vector<workload::FsTarget*> target_ptrs;
  const int total_clients = clients_per_mds * config.num_mds;
  for (int i = 0; i < total_clients; ++i) {
    targets.push_back(std::make_unique<workload::CephFsTarget>(
        cluster.AddClient(i % 3)));
    target_ptrs.push_back(targets.back().get());
  }
  // Steady-state kernel caches: prewarm the hot working set.
  cluster.PrewarmClientCaches(workload.PopularPaths(2048));
  sim.RunFor(1 * kSecond);

  workload::OpSource source;
  if (config.op_source_factory) {
    source = config.op_source_factory(workload);
  } else {
    source = [&workload](Rng& rng, std::vector<std::string>& owned) {
      return workload.Next(rng, owned);
    };
  }
  workload::ClosedLoopDriver driver(sim, target_ptrs, std::move(source));

  Nanos window_start = 0;
  int64_t handled_before = 0;
  auto results = driver.Run(warmup, measure, [&] {
    cluster.ResetStats();
    network.ResetStats();
    window_start = sim.now();
    for (int r = 0; r < cluster.num_mds(); ++r) {
      handled_before += cluster.mds(r).handled_ops();
    }
  });

  CephRunOutput out;
  out.num_mds = config.num_mds;
  out.results = std::move(results);

  const double secs = ToSeconds(sim.now() - window_start);
  const double mb = 1e6;
  for (int r = 0; r < cluster.num_mds(); ++r) {
    auto& m = cluster.mds(r);
    out.mds_handled_ops += m.handled_ops();
    out.mds_cpu_util += m.cpu_pool().Utilization(window_start);
    const auto& hs = network.host_stats(m.host());
    out.mds_net_read_mbps += static_cast<double>(hs.bytes_received);
    out.mds_net_write_mbps += static_cast<double>(hs.bytes_sent);
  }
  out.mds_handled_ops -= handled_before;
  out.mds_cpu_util /= cluster.num_mds();
  if (secs > 0) {
    out.mds_net_read_mbps /= cluster.num_mds() * secs * mb;
    out.mds_net_write_mbps /= cluster.num_mds() * secs * mb;
  }

  for (int i = 0; i < cluster.num_osds(); ++i) {
    auto& o = cluster.osd(i);
    out.osd_cpu_util += o.cpu().Utilization(window_start);
    out.osd_disk_write_mbps +=
        static_cast<double>(o.disk().stats().bytes_written);
    out.osd_disk_read_mbps +=
        static_cast<double>(o.disk().stats().bytes_read);
    const auto& hs = network.host_stats(o.host());
    out.osd_net_read_mbps += static_cast<double>(hs.bytes_received);
    out.osd_net_write_mbps += static_cast<double>(hs.bytes_sent);
  }
  out.osd_cpu_util /= cluster.num_osds();
  if (secs > 0) {
    const double d = cluster.num_osds() * secs * mb;
    out.osd_disk_write_mbps /= d;
    out.osd_disk_read_mbps /= d;
    out.osd_net_read_mbps /= d;
    out.osd_net_write_mbps /= d;
  }
  out.events_dispatched = sim.events_processed();
  out.rng_draws = sim.rng().draws();
  return out;
}

}  // namespace repro::bench
