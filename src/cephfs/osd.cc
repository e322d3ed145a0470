#include "cephfs/cluster.h"

#include "util/strings.h"

namespace repro::cephfs {

namespace {
// OSD: CPU pool + disk (standard persistent disks in the paper's era).
constexpr int kOsdCpuThreads = 2;
constexpr Nanos kOsdOpCost = 40 * kMicrosecond;
constexpr double kOsdDiskWriteBps = 30e6;  // effective small-write throughput
constexpr double kOsdDiskReadBps = 90e6;
}  // namespace

const char* CephVariantLabel(CephVariant variant) {
  switch (variant) {
    case CephVariant::kDefault: return "CephFS";
    case CephVariant::kDirPinned: return "CephFS - DirPinned";
    case CephVariant::kSkipKCache: return "CephFS - SkipKCache";
  }
  return "?";
}

CephOsd::CephOsd(Simulation& sim, int id, HostId host, AzId az)
    : id_(id), host_(host), az_(az),
      cpu_(sim, StrFormat("osd%d.cpu", id), kOsdCpuThreads),
      disk_(sim, StrFormat("osd%d.disk", id), 80 * kMicrosecond,
            kOsdDiskReadBps, kOsdDiskWriteBps) {}

void CephOsd::WriteObject(int64_t bytes, std::function<void()> done) {
  cpu_.Submit(kOsdOpCost, [this, bytes, done = std::move(done)] {
    disk_.Write(bytes, std::move(done));
  });
}

void CephOsd::ResetStats() {
  cpu_.ResetStats();
  disk_.ResetStats();
}

}  // namespace repro::cephfs
