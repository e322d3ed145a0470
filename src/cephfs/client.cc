#include "cephfs/cluster.h"

namespace repro::cephfs {

namespace {
// Client kernel cache.
constexpr Nanos kClientCacheHitCost = 25 * kMicrosecond;
constexpr size_t kClientCacheEntries = 16384;
}  // namespace

CephClient::CephClient(CephCluster& cluster, int id, HostId host, AzId az)
    : cluster_(cluster), id_(id), host_(host), az_(az),
      rng_(cluster.sim().rng().Split()),
      map_version_(cluster.map_version()) {}

void CephClient::InvalidateCap(const std::string& path) {
  cache_.erase(path);
}

bool CephClient::CacheServes(FsOp op, const std::string& path) const {
  if (cluster_.config().variant == CephVariant::kSkipKCache) return false;
  if (op != FsOp::kStat && op != FsOp::kOpenRead && op != FsOp::kListDir) {
    return false;
  }
  auto it = cache_.find(path);
  if (it == cache_.end()) return false;
  // Entry is valid while no mutation postdates its acquisition (recalls
  // erase entries eagerly; this check covers prewarmed entries).
  return it->second >= cluster_.last_mutation(path);
}

void CephClient::Execute(FsOp op, const std::string& path,
                         const std::string& path2, int64_t size,
                         std::function<void(Status)> done) {
  if (CacheServes(op, path)) {
    // Kernel-cache hit: served locally under a valid capability.
    ++cache_hits_;
    cluster_.sim().After(kClientCacheHitCost,
                         [done = std::move(done)] { done(OkStatus()); });
    return;
  }
  ++cache_misses_;
  CephRequest req;
  req.op = op;
  req.path = path;
  req.path2 = path2;
  req.size = size;
  req.client_id = id_;
  req.want_cap = cluster_.config().variant != CephVariant::kSkipKCache;
  SendToMds(std::move(req), std::move(done), 1);
}

void CephClient::SendToMds(CephRequest req, std::function<void(Status)> done,
                           int attempt) {
  if (attempt > 4) {
    done(Unavailable("mds forwarding loop"));
    return;
  }
  req.map_version = map_version_;
  CephMds& mds = cluster_.mds(cluster_.OwnerOf(req.path));
  auto& net = cluster_.network();
  const int64_t bytes = 260 + static_cast<int64_t>(req.path.size());
  net.Send(host_, mds.host(), bytes, [this, &mds, req = std::move(req),
                                      done = std::move(done),
                                      attempt]() mutable {
    mds.HandleRequest(
        req, [this, &mds, req, done = std::move(done),
              attempt](CephReply reply) mutable {
          cluster_.network().Send(
              mds.host(), host_, 220,
              [this, req = std::move(req), reply = std::move(reply),
               done = std::move(done), attempt]() mutable {
                if (reply.forwarded) {
                  map_version_ = reply.map_version;
                  SendToMds(std::move(req), std::move(done), attempt + 1);
                  return;
                }
                map_version_ = reply.map_version;
                if (reply.cap_granted && reply.status.ok()) {
                  if (cache_.size() >= kClientCacheEntries) {
                    cache_.erase(cache_.begin());
                  }
                  cache_[req.path] = cluster_.sim().now();
                }
                done(reply.status);
              });
        });
  });
}

}  // namespace repro::cephfs
