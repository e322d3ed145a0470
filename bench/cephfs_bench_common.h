// CephFS side of the benchmark harness (§V-A: 12 OSD nodes, HA across 3
// AZs, metadata replication 3, three setups: default / DirPinned /
// SkipKCache).
#pragma once

#include <vector>

#include "cephfs/cluster.h"
#include "workload/driver.h"
#include "workload/spotify.h"

namespace repro::bench {

struct CephRunConfig {
  cephfs::CephVariant variant = cephfs::CephVariant::kDefault;
  int num_mds = 6;
  int clients_per_mds = 0;  // 0 = scale default (same as HopsFS harness)
  Nanos warmup = 0;
  Nanos measure = 0;
  workload::NamespaceConfig ns;
  uint64_t seed = 1;
  std::function<workload::OpSource(const workload::SpotifyWorkload&)>
      op_source_factory;
};

struct CephRunOutput {
  int num_mds = 0;
  workload::DriverResults results;
  // Actual requests handled at the MDS layer (Fig. 6 counts these, not
  // the client-side ops absorbed by the kernel cache).
  int64_t mds_handled_ops = 0;
  double mds_cpu_util = 0;        // Fig. 10b analogue
  double osd_cpu_util = 0;        // Fig. 10a
  double osd_disk_write_mbps = 0; // Fig. 12d
  double osd_disk_read_mbps = 0;
  double osd_net_read_mbps = 0;
  double osd_net_write_mbps = 0;
  double mds_net_read_mbps = 0;   // Fig. 13
  double mds_net_write_mbps = 0;
};

CephRunOutput RunCephWorkload(const CephRunConfig& config);

std::vector<cephfs::CephVariant> AllCephVariants();
const char* CephVariantName(cephfs::CephVariant variant);

}  // namespace repro::bench
