#include "cephfs/cluster.h"

#include "util/strings.h"

namespace repro::cephfs {

const char* CephVariantLabel(CephVariant variant) {
  switch (variant) {
    case CephVariant::kDefault: return "CephFS";
    case CephVariant::kDirPinned: return "CephFS - DirPinned";
    case CephVariant::kSkipKCache: return "CephFS - SkipKCache";
  }
  return "?";
}

CephOsd::CephOsd(Simulation& sim, int id, HostId host, AzId az,
                 const CephConfig& config)
    : id_(id), host_(host), az_(az),
      cpu_(sim, StrFormat("osd%d.cpu", id), config.osd_cpu_threads),
      disk_(sim, StrFormat("osd%d.disk", id), 80 * kMicrosecond,
            config.osd_disk_read_bps, config.osd_disk_write_bps) {
  (void)config;
}

void CephOsd::WriteObject(int64_t bytes, std::function<void()> done) {
  cpu_.Submit(40 * kMicrosecond, [this, bytes, done = std::move(done)] {
    disk_.Write(bytes, std::move(done));
  });
}

void CephOsd::ResetStats() {
  cpu_.ResetStats();
  disk_.ResetStats();
}

}  // namespace repro::cephfs
