#include "cephfs/cluster.h"

#include <algorithm>

#include "util/strings.h"

namespace repro::cephfs {

namespace {
// MDS costs: one thread == the MDS global lock. The base cost matches
// DirPinned's ~4.2K req/s on a single MDS (Fig. 6).
constexpr Nanos kMdsOpCost = 200 * kMicrosecond;
constexpr Nanos kMdsForwardCost = 40 * kMicrosecond;  // misrouted request
// Capability bookkeeping: invalidating one holder costs CPU and a
// message; Ceph bounds the recall batch.
constexpr Nanos kCapInvalidateCost = 8 * kMicrosecond;
constexpr size_t kMaxCapHolders = 256;

// Journaling: every MDS-handled op appends a journal entry (full inode
// + dentry dumps for updates, session/cap records for reads); segments
// are flushed to the OSDs periodically. When flushed segments pile up
// faster than the OSD pool absorbs them, the journaler backpressures the
// single MDS thread — the "journal flushing time reduces available
// resources" effect (§V-C) that caps DirPinned past ~24 MDSs.
constexpr int64_t kJournalBytesPerOp = 4096;
constexpr int64_t kJournalReadBytesPerOp = 1024;
constexpr int64_t kJournalSegmentBytes = 256 << 10;
constexpr Nanos kJournalFlushCpu = 150 * kMicrosecond;
constexpr int64_t kJournalInflightLimit = 1 << 20;  // backpressure threshold
constexpr Nanos kJournalStallCost = 2 * kMillisecond;
}  // namespace

CephMds::CephMds(CephCluster& cluster, int rank, HostId host, AzId az)
    : cluster_(cluster), rank_(rank), host_(host), az_(az),
      cpu_(cluster.sim(), StrFormat("mds%d", rank), /*threads=*/1) {}

void CephMds::InstallInode(const std::string& path, CephInode inode) {
  metadata_[path] = inode;
  const auto [parent, base] = SplitParent(path);
  if (!base.empty()) children_[parent].insert(base);
}

std::vector<std::pair<std::string, CephInode>> CephMds::ExtractSubtree(
    const std::string& prefix) {
  std::vector<std::pair<std::string, CephInode>> out;
  for (auto it = metadata_.begin(); it != metadata_.end();) {
    if (it->first == prefix || StartsWith(it->first, prefix + "/")) {
      out.emplace_back(it->first, it->second);
      children_.erase(it->first);
      caps_.erase(it->first);
      it = metadata_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

Nanos CephMds::JournalAppend(bool mutation) {
  // Updates log full events; handled reads log session/cap records.
  journal_pending_ += mutation ? kJournalBytesPerOp : kJournalReadBytesPerOp;
  Nanos cost = 0;
  if (journal_pending_ >= kJournalSegmentBytes) {
    FlushJournal();
    cost += kJournalFlushCpu;
  }
  // Backpressure: once the OSD pool lags behind the journal, the single
  // MDS thread stalls waiting for segments to become durable.
  if (journal_inflight_ > kJournalInflightLimit) cost += kJournalStallCost;
  return cost;
}

void CephMds::FlushJournal() {
  if (journal_pending_ == 0) return;
  const int64_t bytes = journal_pending_;
  journal_pending_ = 0;
  journal_inflight_ += bytes;
  cluster_.WriteObject(host_, static_cast<uint64_t>(rank_) * 2654435761u,
                       bytes,
                       [this, bytes] { journal_inflight_ -= bytes; });
}

void CephMds::GrantCap(const std::string& path, int client_id) {
  auto& holders = caps_[path];
  for (const auto& h : holders) {
    if (h.client_id == client_id) return;
  }
  if (holders.size() >= kMaxCapHolders) {
    holders.erase(holders.begin());  // recall the oldest holder
  }
  holders.push_back(
      CapHolder{client_id, cluster_.client(client_id)->host()});
}

void CephMds::InvalidateCaps(const std::string& path, Nanos* extra_cost) {
  auto it = caps_.find(path);
  if (it == caps_.end()) return;
  for (const auto& holder : it->second) {
    *extra_cost += kCapInvalidateCost;
    CephClient* c = cluster_.client(holder.client_id);
    cluster_.network().Send(host_, holder.host, 96, [c, path] {
      c->InvalidateCap(path);
    });
  }
  caps_.erase(it);
}

void CephMds::Apply(const CephRequest& req, CephReply* out) {
  const auto [parent, base] = SplitParent(req.path);
  auto find = [this](const std::string& p) -> CephInode* {
    auto it = metadata_.find(p);
    return it == metadata_.end() ? nullptr : &it->second;
  };

  switch (req.op) {
    case FsOp::kStat:
    case FsOp::kOpenRead: {
      CephInode* inode = find(req.path);
      if (inode == nullptr) {
        out->status = NotFound(req.path);
        return;
      }
      if (req.op == FsOp::kOpenRead && inode->is_dir) {
        out->status = FailedPrecondition("read: is a directory");
        return;
      }
      out->inode = *inode;
      out->cap_granted = req.want_cap;
      if (req.want_cap) GrantCap(req.path, req.client_id);
      return;
    }
    case FsOp::kListDir: {
      CephInode* inode = find(req.path);
      if (inode == nullptr) {
        out->status = NotFound(req.path);
        return;
      }
      out->inode = *inode;
      auto it = children_.find(req.path);
      out->children = inode->is_dir
                          ? (it == children_.end()
                                 ? 0
                                 : static_cast<int64_t>(it->second.size()))
                          : 1;
      out->cap_granted = req.want_cap;
      if (req.want_cap) GrantCap(req.path, req.client_id);
      return;
    }
    case FsOp::kMkdir:
    case FsOp::kCreate: {
      CephInode* p = find(parent);
      if (p == nullptr || !p->is_dir) {
        out->status = NotFound("parent missing");
        return;
      }
      if (find(req.path) != nullptr) {
        out->status = AlreadyExists(req.path);
        return;
      }
      CephInode inode;
      inode.is_dir = req.op == FsOp::kMkdir;
      inode.size = req.size;
      inode.mtime = cluster_.sim().now();
      metadata_[req.path] = inode;
      children_[parent].insert(base);
      p->mtime = inode.mtime;
      return;
    }
    case FsOp::kDelete: {
      CephInode* inode = find(req.path);
      if (inode == nullptr) {
        out->status = NotFound(req.path);
        return;
      }
      if (inode->is_dir) {
        auto it = children_.find(req.path);
        if (it != children_.end() && !it->second.empty()) {
          out->status = FailedPrecondition("directory not empty");
          return;
        }
        children_.erase(req.path);
      }
      metadata_.erase(req.path);
      children_[parent].erase(base);
      return;
    }
    case FsOp::kRename: {
      CephInode* src = find(req.path);
      if (src == nullptr) {
        out->status = NotFound(req.path);
        return;
      }
      if (find(req.path2) != nullptr) {
        out->status = AlreadyExists(req.path2);
        return;
      }
      const auto [dst_parent, dst_base] = SplitParent(req.path2);
      CephInode* dp = find(dst_parent);
      if (dp == nullptr || !dp->is_dir) {
        out->status = NotFound("destination parent missing");
        return;
      }
      // Subtree renames within one authority move the whole prefix.
      CephInode moved = *src;
      metadata_.erase(req.path);
      children_[parent].erase(base);
      if (moved.is_dir) {
        auto sub = ExtractSubtree(req.path);  // children of the moved dir
        for (auto& [old_path, inode] : sub) {
          std::string new_path =
              req.path2 + old_path.substr(req.path.size());
          InstallInode(new_path, inode);
        }
      }
      metadata_[req.path2] = moved;
      children_[dst_parent].insert(dst_base);
      return;
    }
    case FsOp::kChmod:
    case FsOp::kChown:
    case FsOp::kSetTimes:
    case FsOp::kAppend: {
      CephInode* inode = find(req.path);
      if (inode == nullptr) {
        out->status = NotFound(req.path);
        return;
      }
      if (req.op == FsOp::kAppend) {
        if (inode->is_dir) {
          out->status = FailedPrecondition("append: is a directory");
          return;
        }
        inode->size += req.size;
      } else if (req.op == FsOp::kChmod) {
        inode->permissions = 0600;
      }
      inode->mtime = cluster_.sim().now();
      return;
    }
    case FsOp::kContentSummary: {
      CephInode* inode = find(req.path);
      if (inode == nullptr) {
        out->status = NotFound(req.path);
        return;
      }
      // Counts are scoped to this rank's authority (subtrees never span
      // ranks for /user/uX paths, which is all the workload uses).
      int64_t files = 0;
      const std::string prefix = req.path + "/";
      for (const auto& [path, node] : metadata_) {
        if (path == req.path || StartsWith(path, prefix)) {
          if (!node.is_dir) ++files;
        }
      }
      out->children = files;
      return;
    }
    case FsOp::kDeleteRecursive: {
      CephInode* inode = find(req.path);
      if (inode == nullptr) {
        out->status = NotFound(req.path);
        return;
      }
      const auto [par, base2] = SplitParent(req.path);
      ExtractSubtree(req.path);
      metadata_.erase(req.path);
      children_.erase(req.path);
      children_[par].erase(base2);
      return;
    }
  }
}

void CephMds::HandleRequest(CephRequest req,
                            std::function<void(CephReply)> reply) {
  // Authority check: misrouted requests are forwarded.
  const int owner = cluster_.OwnerOf(req.path);
  if (owner != rank_) {
    cpu_.Submit(kMdsForwardCost, [this, owner, reply = std::move(reply)] {
      CephReply out;
      out.forwarded = true;
      out.owner = owner;
      out.map_version = cluster_.map_version();
      reply(std::move(out));
    });
    return;
  }

  // Migrations freeze the subtree briefly: delay until thawed.
  const Nanos frozen = cluster_.subtree_frozen_until(req.path);
  if (frozen > cluster_.sim().now()) {
    cluster_.sim().At(frozen, [this, req = std::move(req),
                               reply = std::move(reply)]() mutable {
      HandleRequest(std::move(req), std::move(reply));
    });
    return;
  }

  const bool mutation =
      req.op == FsOp::kMkdir || req.op == FsOp::kCreate ||
      req.op == FsOp::kDelete || req.op == FsOp::kRename ||
      req.op == FsOp::kChmod;

  Nanos cost = kMdsOpCost;
  CephReply out;
  out.map_version = cluster_.map_version();
  Apply(req, &out);
  ++handled_ops_;
  ++ops_window_;

  if (mutation && out.status.ok()) {
    // Recall capabilities from every holder of the mutated path and of
    // the parent directory (its listing changed) — the cost that grows
    // with the number of clients.
    InvalidateCaps(req.path, &cost);
    cluster_.NoteMutation(req.path);
    const auto [parent, base] = SplitParent(req.path);
    InvalidateCaps(parent, &cost);
    cluster_.NoteMutation(parent);
    if (req.op == FsOp::kRename) {
      InvalidateCaps(req.path2, &cost);
      InvalidateCaps(SplitParent(req.path2).first, &cost);
      cluster_.NoteMutation(req.path2);
      cluster_.NoteMutation(SplitParent(req.path2).first);
    }
  }
  cost += JournalAppend(mutation && out.status.ok());

  cpu_.Submit(cost, [reply = std::move(reply), out = std::move(out)] {
    reply(std::move(out));
  });
}

}  // namespace repro::cephfs
