// CephFS baseline: MON-less model of MDS ranks + OSD pool + clients.
//
// Metadata semantics match the HopsFS layer (same FsOp set, same error
// codes) so the same workload driver and tests run against both systems.
// The performance-relevant mechanisms are modelled faithfully:
//   * each MDS rank is single-threaded (the MDS global lock, §VI),
//   * every handled update appends to a journal that is flushed to the
//     replicated OSD pool (the disk curve of Fig. 12d),
//   * clients hold capabilities backing a kernel metadata cache; mutations
//     recall capabilities from every holder (the cost that grows with
//     client count, Fig. 6),
//   * the namespace is partitioned across ranks by user subtree — pinned
//     statically (DirPinned) or rebalanced dynamically (default), with
//     misrouted requests forwarded and migrations pausing the subtree.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cephfs/config.h"
#include "hopsfs/namenode.h"  // FsOp
#include "sim/network.h"
#include "sim/resources.h"
#include "util/rng.h"
#include "util/status.h"

namespace repro::cephfs {

using hopsfs::FsOp;

class CephCluster;
class CephClient;

struct CephInode {
  bool is_dir = false;
  int64_t size = 0;
  uint32_t permissions = 0644;
  Nanos mtime = 0;
};

struct CephRequest {
  FsOp op = FsOp::kStat;
  std::string path;
  std::string path2;
  int64_t size = 0;
  int client_id = -1;
  int map_version = 0;
  bool want_cap = true;
};

struct CephReply {
  Status status;
  bool forwarded = false;  // wrong rank; retry at `owner` with new map
  int owner = 0;
  int map_version = 0;
  bool cap_granted = false;
  CephInode inode;
  int64_t children = 0;
};

// ---------------------------------------------------------------------------

class CephOsd {
 public:
  CephOsd(Simulation& sim, int id, HostId host, AzId az);

  int id() const { return id_; }
  HostId host() const { return host_; }
  AzId az() const { return az_; }

  void WriteObject(int64_t bytes, std::function<void()> done);

  ThreadPool& cpu() { return cpu_; }
  Disk& disk() { return disk_; }
  void ResetStats();

 private:
  int id_;
  HostId host_;
  AzId az_;
  ThreadPool cpu_;
  Disk disk_;
};

// ---------------------------------------------------------------------------

class CephMds {
 public:
  CephMds(CephCluster& cluster, int rank, HostId host, AzId az);

  int rank() const { return rank_; }
  HostId host() const { return host_; }
  AzId az() const { return az_; }

  // Request entry point (invoked on this host by the client stub).
  void HandleRequest(CephRequest req, std::function<void(CephReply)> reply);

  // Bootstrap / migration: installs an inode without protocol cost.
  void InstallInode(const std::string& path, CephInode inode);
  // Removes and returns the metadata of one user subtree (migration).
  std::vector<std::pair<std::string, CephInode>> ExtractSubtree(
      const std::string& prefix);

  int64_t handled_ops() const { return handled_ops_; }
  int64_t ops_window() const { return ops_window_; }
  void ResetWindow() { ops_window_ = 0; }
  const ThreadPool& cpu_pool() const { return cpu_; }
  void ResetStats() { cpu_.ResetStats(); }
  void FlushJournal();

 private:
  struct CapHolder {
    int client_id;
    HostId host;
  };

  void Apply(const CephRequest& req, CephReply* out);
  void GrantCap(const std::string& path, int client_id);
  void InvalidateCaps(const std::string& path, Nanos* extra_cost);
  Nanos JournalAppend(bool mutation);

  CephCluster& cluster_;
  int rank_;
  HostId host_;
  AzId az_;
  ThreadPool cpu_;  // exactly one thread: the MDS global lock

  std::unordered_map<std::string, CephInode> metadata_;
  std::unordered_map<std::string, std::set<std::string>> children_;
  std::unordered_map<std::string, std::vector<CapHolder>> caps_;

  int64_t journal_pending_ = 0;
  int64_t journal_inflight_ = 0;  // flushed but not yet durable on OSDs
  int64_t handled_ops_ = 0;
  int64_t ops_window_ = 0;
};

// ---------------------------------------------------------------------------

class CephClient {
 public:
  CephClient(CephCluster& cluster, int id, HostId host, AzId az);

  int id() const { return id_; }
  HostId host() const { return host_; }
  AzId az() const { return az_; }

  // Workload entry point (FsTarget-compatible signature).
  void Execute(FsOp op, const std::string& path, const std::string& path2,
               int64_t size, std::function<void(Status)> done);

  // Cap recall from an MDS.
  void InvalidateCap(const std::string& path);
  // Steady-state prewarm (see CephCluster::PrewarmClientCaches).
  void PrewarmCache(const std::string& path) { cache_[path] = 0; }

  int64_t cache_hits() const { return cache_hits_; }
  int64_t cache_misses() const { return cache_misses_; }

 private:
  bool CacheServes(FsOp op, const std::string& path) const;
  void SendToMds(CephRequest req, std::function<void(Status)> done,
                 int attempt);

  CephCluster& cluster_;
  int id_;
  HostId host_;
  AzId az_;
  Rng rng_;
  int map_version_ = 0;
  std::unordered_map<std::string, Nanos> cache_;  // path -> acquired time
  int64_t cache_hits_ = 0;
  int64_t cache_misses_ = 0;
};

// ---------------------------------------------------------------------------

class CephCluster {
 public:
  CephCluster(Simulation& sim, Network& network, CephConfig config);

  void Start();

  Simulation& sim() { return sim_; }
  Network& network() { return network_; }
  const CephConfig& config() const { return config_; }

  CephMds& mds(int rank) { return *mds_[rank]; }
  int num_mds() const { return static_cast<int>(mds_.size()); }
  CephOsd& osd(int i) { return *osds_[i]; }
  int num_osds() const { return static_cast<int>(osds_.size()); }
  CephClient* AddClient(AzId az);
  CephClient* client(int id) { return clients_[id].get(); }

  // Namespace authority.
  int OwnerOf(const std::string& path) const;
  int map_version() const { return map_version_; }
  Nanos subtree_frozen_until(const std::string& path) const;

  // Loads the initial namespace (dirs before files).
  void BootstrapNamespace(const std::vector<std::string>& dirs,
                          const std::vector<std::string>& files);

  // Pre-warms every client's kernel cache with the given (hot) paths —
  // steady state for a long-running mount, which a sub-second simulated
  // window cannot reach organically. Entries are validated against the
  // mutation registry, so they invalidate correctly.
  void PrewarmClientCaches(const std::vector<std::string>& paths);

  // Mutation registry: lets prewarmed cache entries (which have no real
  // capability registered) detect staleness without a recall message.
  void NoteMutation(const std::string& path) {
    last_mutation_[path] = sim_.now();
  }
  Nanos last_mutation(const std::string& path) const {
    auto it = last_mutation_.find(path);
    return it == last_mutation_.end() ? -1 : it->second;
  }

  // Replicated object write/read against the OSD pool.
  void WriteObject(HostId from, uint64_t key_hash, int64_t bytes,
                   std::function<void()> done);

  void ResetStats();

  // The subtree index used for authority: "/user/uX/..." -> X+1, else 0.
  static int SubtreeIndex(const std::string& path);
  static std::string SubtreePrefix(int subtree);

 private:
  void BalanceOnce();

  Simulation& sim_;
  Network& network_;
  CephConfig config_;
  std::vector<std::unique_ptr<CephOsd>> osds_;
  std::vector<std::unique_ptr<CephMds>> mds_;
  std::vector<std::unique_ptr<CephClient>> clients_;
  // subtree -> owning rank; index 0 is the root/misc subtree.
  std::vector<int> subtree_owner_;
  std::unordered_map<std::string, Nanos> last_mutation_;
  std::unordered_map<int, Nanos> frozen_until_;  // migrating subtrees
  int map_version_ = 1;
  std::vector<Simulation::PeriodicHandle> timers_;
  Rng rng_;
};

}  // namespace repro::cephfs
