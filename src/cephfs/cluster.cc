#include "cephfs/cluster.h"

#include <algorithm>
#include <cassert>

#include "util/logging.h"
#include "util/strings.h"

namespace repro::cephfs {

namespace {
constexpr const char* kLog = "cephfs";
constexpr int kNumOsds = 12;  // same count as the NDB datanodes (§V-A)
constexpr int kReplication = 3;  // HA across 3 AZs
// Journal segments are flushed to the OSDs periodically (Fig. 12d's disk
// curve).
constexpr Nanos kJournalFlushInterval = 50 * kMillisecond;
// Dynamic balancer (default variant only).
constexpr Nanos kBalanceInterval = 10 * kSecond;
constexpr Nanos kMigrationPause = 30 * kMillisecond;

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

CephCluster::CephCluster(Simulation& sim, Network& network, CephConfig config)
    : sim_(sim), network_(network), config_(config),
      rng_(sim.rng().Split()) {
  auto& topo = network_.topology();
  for (int i = 0; i < kNumOsds; ++i) {
    const AzId az = i % 3;  // HA across the three AZs (§V-A)
    const HostId host = topo.AddHost(az, StrFormat("osd-%d", i));
    osds_.push_back(std::make_unique<CephOsd>(sim_, i, host, az));
  }
  for (int r = 0; r < config_.num_mds; ++r) {
    const AzId az = r % 3;
    const HostId host = topo.AddHost(az, StrFormat("mds-%d", r));
    mds_.push_back(std::make_unique<CephMds>(*this, r, host, az));
  }
}

void CephCluster::Start() {
  for (auto& m : mds_) {
    CephMds* mds = m.get();
    timers_.push_back(
        sim_.Every(kJournalFlushInterval, [mds] { mds->FlushJournal(); }));
  }
  if (config_.variant != CephVariant::kDirPinned) {
    timers_.push_back(
        sim_.Every(kBalanceInterval, [this] { BalanceOnce(); }));
  }
}

int CephCluster::SubtreeIndex(const std::string& path) {
  // "/user/uX/..." -> X+1; everything else (/, /user) -> subtree 0.
  constexpr std::string_view kPrefix = "/user/u";
  if (!StartsWith(path, kPrefix)) return 0;
  size_t i = kPrefix.size();
  int x = 0;
  bool any = false;
  while (i < path.size() && path[i] >= '0' && path[i] <= '9') {
    x = x * 10 + (path[i] - '0');
    ++i;
    any = true;
  }
  if (!any || (i < path.size() && path[i] != '/')) return 0;
  return x + 1;
}

std::string CephCluster::SubtreePrefix(int subtree) {
  assert(subtree > 0);
  return StrFormat("/user/u%d", subtree - 1);
}

int CephCluster::OwnerOf(const std::string& path) const {
  const int subtree = SubtreeIndex(path);
  if (subtree < static_cast<int>(subtree_owner_.size())) {
    return subtree_owner_[subtree];
  }
  // Subtrees created after bootstrap: hash placement.
  return static_cast<int>(Mix64(static_cast<uint64_t>(subtree)) %
                          static_cast<uint64_t>(mds_.size()));
}

Nanos CephCluster::subtree_frozen_until(const std::string& path) const {
  auto it = frozen_until_.find(SubtreeIndex(path));
  return it == frozen_until_.end() ? 0 : it->second;
}

CephClient* CephCluster::AddClient(AzId az) {
  const HostId host = network_.topology().AddHost(
      az, StrFormat("ceph-client-%zu", clients_.size()));
  clients_.push_back(std::make_unique<CephClient>(
      *this, static_cast<int>(clients_.size()), host, az));
  return clients_.back().get();
}

void CephCluster::BootstrapNamespace(const std::vector<std::string>& dirs,
                                     const std::vector<std::string>& files) {
  // Authority. DirPinned stripes subtrees across ranks (s % M): the
  // manual, load-aware pinning of §V-A. The default balancer distributes
  // at subtree granularity and ends up with contiguous ranges per rank —
  // which concentrates the popular (low-numbered) users on few ranks,
  // the imbalance the paper's DirPinned setup was built to avoid.
  int max_subtree = 0;
  for (const auto& d : dirs) max_subtree = std::max(max_subtree, SubtreeIndex(d));
  subtree_owner_.resize(max_subtree + 1);
  const int m = static_cast<int>(mds_.size());
  // The default balancer is conservative: it splits load across only part
  // of the available ranks, routinely leaving ranks idle (a well-known
  // multi-MDS behaviour). Manual pinning uses every rank. The idle ranks
  // also mean the default variant journals less in aggregate, which keeps
  // it under the OSD journal wall that caps DirPinned past ~24 ranks.
  const int effective =
      config_.variant == CephVariant::kDirPinned ? m : std::max(1, 2 * m / 3);
  for (int s = 0; s <= max_subtree; ++s) {
    subtree_owner_[s] = s % effective;
  }

  CephInode root;
  root.is_dir = true;
  mds_[subtree_owner_[0]]->InstallInode("/", root);

  auto install = [this](const std::string& path, bool is_dir) {
    CephInode inode;
    inode.is_dir = is_dir;
    inode.mtime = sim_.now();
    mds_[OwnerOf(path)]->InstallInode(path, inode);
    // Parent-child listing links for entries at subtree boundaries are
    // kept by the child's owner, which also answers listings for them.
  };
  for (const auto& d : dirs) install(d, true);
  for (const auto& f : files) install(f, false);
}

void CephCluster::PrewarmClientCaches(
    const std::vector<std::string>& paths) {
  if (config_.variant == CephVariant::kSkipKCache) return;
  for (auto& client : clients_) {
    for (const auto& p : paths) client->PrewarmCache(p);
  }
}

void CephCluster::WriteObject(HostId from, uint64_t key_hash, int64_t bytes,
                              std::function<void()> done) {
  // Replicated write: primary + (replication-1) copies, ack on slowest.
  const int n = static_cast<int>(osds_.size());
  auto remaining = std::make_shared<int>(kReplication);
  for (int r = 0; r < kReplication; ++r) {
    CephOsd& osd = *osds_[(Mix64(key_hash) + r) % n];
    network_.Send(from, osd.host(), bytes,
                  [&osd, bytes, remaining, done] {
                    osd.WriteObject(bytes, [remaining, done] {
                      if (--*remaining == 0 && done) done();
                    });
                  });
  }
}

void CephCluster::BalanceOnce() {
  // The default balancer: move the hottest subtree from the most loaded
  // rank to the least loaded one.
  if (mds_.size() < 2 || subtree_owner_.size() < 2) return;
  int hot_rank = 0, cold_rank = 0;
  for (int r = 1; r < num_mds(); ++r) {
    if (mds_[r]->ops_window() > mds_[hot_rank]->ops_window()) hot_rank = r;
    if (mds_[r]->ops_window() < mds_[cold_rank]->ops_window()) cold_rank = r;
  }
  for (auto& m : mds_) m->ResetWindow();
  if (hot_rank == cold_rank) return;

  // Pick one subtree owned by the hot rank (round-robin-ish via rng).
  std::vector<int> owned;
  for (int s = 1; s < static_cast<int>(subtree_owner_.size()); ++s) {
    if (subtree_owner_[s] == hot_rank) owned.push_back(s);
  }
  if (owned.empty()) return;
  const int subtree = owned[rng_.NextBelow(owned.size())];
  const std::string prefix = SubtreePrefix(subtree);

  RLOG_DEBUG(kLog, "migrating subtree %s: mds%d -> mds%d", prefix.c_str(),
             hot_rank, cold_rank);
  auto moved = mds_[hot_rank]->ExtractSubtree(prefix);
  for (auto& [path, inode] : moved) {
    mds_[cold_rank]->InstallInode(path, inode);
  }
  subtree_owner_[subtree] = cold_rank;
  frozen_until_[subtree] = sim_.now() + kMigrationPause;
  ++map_version_;
}

void CephCluster::ResetStats() {
  for (auto& m : mds_) m->ResetStats();
  for (auto& o : osds_) o->ResetStats();
}

}  // namespace repro::cephfs
