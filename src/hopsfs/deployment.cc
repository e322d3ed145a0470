#include "hopsfs/deployment.h"

#include <algorithm>
#include <cassert>
#include <string_view>
#include <unordered_map>

#include "util/logging.h"
#include "util/strings.h"

namespace repro::hopsfs {

const char* PaperSetupName(PaperSetup setup) {
  switch (setup) {
    case PaperSetup::kHopsFs_2_1: return "HopsFS (2,1)";
    case PaperSetup::kHopsFs_3_1: return "HopsFS (3,1)";
    case PaperSetup::kHopsFs_2_3: return "HopsFS (2,3)";
    case PaperSetup::kHopsFs_3_3: return "HopsFS (3,3)";
    case PaperSetup::kHopsFsCl_2_3: return "HopsFS-CL (2,3)";
    case PaperSetup::kHopsFsCl_3_3: return "HopsFS-CL (3,3)";
  }
  return "?";
}

bool IsHopsFsCl(PaperSetup setup) {
  return setup == PaperSetup::kHopsFsCl_2_3 ||
         setup == PaperSetup::kHopsFsCl_3_3;
}

DeploymentOptions DeploymentOptions::FromPaperSetup(PaperSetup setup,
                                                    int num_namenodes) {
  DeploymentOptions o;
  o.setup = setup;
  o.num_namenodes = num_namenodes;
  o.read_backup = o.az_tc_selection = o.az_nn_selection = IsHopsFsCl(setup);
  return o;
}

namespace {

// Where a setup runs (Figs. 3 & 4).
struct SetupLayout {
  int replication;
  std::vector<AzId> metadata_azs;  // NDB datanodes and namenodes
  std::vector<AzId> client_azs;    // clients and block datanodes
};

SetupLayout LayoutOf(PaperSetup setup) {
  switch (setup) {
    case PaperSetup::kHopsFs_2_1: return {2, {1}, {1}};
    case PaperSetup::kHopsFs_3_1: return {3, {1}, {1}};
    case PaperSetup::kHopsFs_2_3:
    case PaperSetup::kHopsFsCl_2_3:
      // Fig. 3: metadata replicas in AZ 1 and AZ 2, arbitrator in AZ 0.
      return {2, {1, 2}, {0, 1, 2}};
    case PaperSetup::kHopsFs_3_3:
    case PaperSetup::kHopsFsCl_3_3:
      // Fig. 4: one full replica per AZ.
      return {3, {0, 1, 2}, {0, 1, 2}};
  }
  return {2, {1}, {1}};
}

}  // namespace

Deployment::Deployment(Simulation& sim, DeploymentOptions options)
    : sim_(sim), options_(std::move(options)) {
  SetupLayout layout = LayoutOf(options_.setup);
  client_azs_ = std::move(layout.client_azs);

  topology_ = std::make_unique<Topology>(3, AzLatencyTable::UsWest1());
  network_ = std::make_unique<Network>(sim_, *topology_);

  // HopsFS-CL enables Read Backup on every table (§IV-A5).
  tables_ = FsTables::Register(catalog_, options_.read_backup);

  ndb::NdbClusterConfig ndb_cfg;
  ndb_cfg.layout.num_datanodes = options_.ndb_datanodes;
  ndb_cfg.layout.replication_factor = layout.replication;
  ndb_cfg.layout.node_az = ndb::AssignNodeAzs(
      options_.ndb_datanodes, layout.replication, layout.metadata_azs);
  ndb_cfg.flags.az_aware = options_.az_tc_selection;
  ndb_ = std::make_unique<ndb::NdbCluster>(sim_, *network_, &catalog_,
                                           std::move(ndb_cfg));

  if (options_.block_datanodes > 0) {
    dn_registry_ = std::make_unique<blocks::DnRegistry>(
        /*heartbeat_timeout=*/10 * kSecond);
    if (IsHopsFsCl(options_.setup)) {
      placement_ = std::make_unique<blocks::AzAwarePlacement>(3);
    } else {
      placement_ = std::make_unique<blocks::DefaultPlacement>();
    }
    for (int i = 0; i < options_.block_datanodes; ++i) {
      const AzId az = client_azs_[i % client_azs_.size()];
      const HostId host = topology_->AddHost(az, StrFormat("dn-%d", i));
      block_dns_.push_back(std::make_unique<blocks::BlockDatanode>(
          sim_, *network_, i, host, az));
      dn_registry_->Register(block_dns_.back().get());
    }
  }

  for (int i = 0; i < options_.num_namenodes; ++i) {
    const AzId az = layout.metadata_azs[i % layout.metadata_azs.size()];
    const HostId host = topology_->AddHost(az, StrFormat("nn-%d", i));
    namenodes_.push_back(std::make_unique<Namenode>(
        sim_, *network_, metrics_, *ndb_, tables_, i, host, az,
        dn_registry_.get(), placement_.get(), options_.nn,
        /*admission=*/options_.resilience,
        /*az_local_reads=*/options_.az_nn_selection));
  }

  if (options_.telemetry.enabled) {
    telemetry_ = std::make_unique<telemetry::Telemetry>(sim_, metrics_,
                                                        options_.telemetry);
    RegisterHostTelemetry();
  }
}

void Deployment::RegisterHostTelemetry() {
  using metrics::MetricKind;
  const Topology* topo = topology_.get();
  auto host_labels = [&](AzId az, HostId host) {
    return metrics::Labels{{"az", std::to_string(az)},
                           {"host", topo->name_of(host)}};
  };

  for (auto& nn_ptr : namenodes_) {
    Namenode* nn = nn_ptr.get();
    const metrics::Labels labels = host_labels(nn->az(), nn->host());
    metrics_.RegisterCallback("host.up", labels, MetricKind::kGauge,
                              [nn, topo] {
                                return nn->alive() && topo->HostUp(nn->host())
                                           ? 1.0
                                           : 0.0;
                              });
    metrics_.RegisterCallback(
        "host.queue_ns", labels, MetricKind::kGauge,
        [nn] { return static_cast<double>(nn->cpu_pool().Backlog()); });
    metrics_.RegisterCallback(
        "host.ops", labels, MetricKind::kCounter,
        [nn] { return static_cast<double>(nn->ops_served()); });
    // Service-time pair for the grey-slow detector: busy ns and items
    // completed by the serving pool, scraped as counters so the health
    // model can form a per-window mean service time.
    metrics_.RegisterCallback(
        "host.busy_ns", labels, MetricKind::kCounter,
        [nn] { return static_cast<double>(nn->cpu_pool().busy_ns()); });
    metrics_.RegisterCallback(
        "host.work", labels, MetricKind::kCounter,
        [nn] { return static_cast<double>(nn->cpu_pool().completed()); });
  }

  for (ndb::NodeId n = 0; n < ndb_->num_datanodes(); ++n) {
    ndb::NdbDatanode* node = &ndb_->datanode(n);
    const metrics::Labels labels = host_labels(node->az(), node->host());
    // A recovering node reads as up: its host is reachable and it will
    // serve again — the health model should see it as degraded (via
    // host.recovering), not dead.
    metrics_.RegisterCallback("host.up", labels, MetricKind::kGauge,
                              [node, topo] {
                                return (node->alive() || node->recovering()) &&
                                               topo->HostUp(node->host())
                                           ? 1.0
                                           : 0.0;
                              });
    metrics_.RegisterCallback(
        "host.recovering", labels, MetricKind::kGauge,
        [node] { return node->recovering() ? 1.0 : 0.0; });
    metrics_.RegisterCallback(
        "host.queue_ns", labels, MetricKind::kGauge, [node] {
          return static_cast<double>(std::max(node->tc_pool().Backlog(),
                                              node->ldm_pool().Backlog()));
        });
    metrics_.RegisterCallback("host.ops", labels, MetricKind::kCounter,
                              [node] {
                                const auto& s = node->protocol_stats();
                                return static_cast<double>(
                                    s.prepares + s.commit_hops + s.completes +
                                    s.committed_reads + s.locked_reads +
                                    s.scans);
                              });
    metrics_.RegisterCallback(
        "host.busy_ns", labels, MetricKind::kCounter, [node] {
          return static_cast<double>(node->tc_pool().busy_ns() +
                                     node->ldm_pool().busy_ns());
        });
    metrics_.RegisterCallback(
        "host.work", labels, MetricKind::kCounter, [node] {
          return static_cast<double>(node->tc_pool().completed() +
                                     node->ldm_pool().completed());
        });
    // NDB protocol series, labelled per node so per-AZ commit/prepare
    // traffic is visible in the archive (ndb.tc.commits{az=..,node=..}).
    const metrics::Labels node_labels{{"az", std::to_string(node->az())},
                                      {"node", std::to_string(n)}};
    metrics_.RegisterCallback(
        "ndb.tc.commits", node_labels, MetricKind::kCounter, [node] {
          return static_cast<double>(node->protocol_stats().commit_hops);
        });
    metrics_.RegisterCallback(
        "ndb.ldm.prepares", node_labels, MetricKind::kCounter, [node] {
          return static_cast<double>(node->protocol_stats().prepares);
        });
    metrics_.RegisterCallback(
        "ndb.tc.active_txns", node_labels, MetricKind::kGauge,
        [node] { return static_cast<double>(node->active_txns()); });
    // Durability pipeline: group-commit backlog (appended, not yet on
    // disk) and checkpoint lag (durable log not yet folded into an LCP —
    // the replay debt a crash right now would incur).
    metrics_.RegisterCallback(
        "ndb.redo.backlog_bytes", node_labels, MetricKind::kGauge, [node] {
          return static_cast<double>(node->journal().backlog_bytes());
        });
    metrics_.RegisterCallback(
        "ndb.lcp.lag", node_labels, MetricKind::kGauge, [node] {
          return static_cast<double>(node->journal().lag_bytes());
        });
    metrics_.RegisterCallback(
        "ndb.recovery.phase", node_labels, MetricKind::kGauge, [node] {
          return static_cast<double>(static_cast<int>(node->recovery_phase()));
        });
    // Cumulative time commits spent stalled behind redo backpressure
    // (log-disk saturation); rises while the unflushed backlog sits over
    // the stall threshold.
    metrics_.RegisterCallback(
        "ndb.redo.stall_ns", node_labels, MetricKind::kCounter, [node] {
          return static_cast<double>(node->redo_stall_ns());
        });
  }

  for (auto& dn_ptr : block_dns_) {
    blocks::BlockDatanode* dn = dn_ptr.get();
    const metrics::Labels labels = host_labels(dn->az(), dn->host());
    metrics_.RegisterCallback("host.up", labels, MetricKind::kGauge,
                              [dn, topo] {
                                return dn->alive() && topo->HostUp(dn->host())
                                           ? 1.0
                                           : 0.0;
                              });
    metrics_.RegisterCallback(
        "host.queue_ns", labels, MetricKind::kGauge, [dn] {
          return static_cast<double>(
              std::max(dn->cpu_pool().Backlog(), dn->disk().Backlog()));
        });
    metrics_.RegisterCallback(
        "host.ops", labels, MetricKind::kCounter,
        [dn] { return static_cast<double>(dn->disk().stats().ops); });
  }
}

void Deployment::RegisterClientTelemetry(HopsFsClient* client) {
  using metrics::MetricKind;
  const Topology* topo = topology_.get();
  const metrics::Labels labels{{"az", std::to_string(client->az())},
                               {"host", topo->name_of(client->host())}};
  metrics_.RegisterCallback(
      "host.up", labels, MetricKind::kGauge,
      [client, topo] { return topo->HostUp(client->host()) ? 1.0 : 0.0; });
  metrics_.RegisterCallback(
      "host.ops", labels, MetricKind::kCounter,
      [client] { return static_cast<double>(client->ops_submitted()); });
}

void Deployment::Start() {
  ndb_->StartProtocols();

  // Root inode so path resolution has an anchor.
  InodeRow root;
  root.id = kRootInode;
  root.is_dir = true;
  ndb_->BootstrapPut(tables_.inodes, InodeKey(0, ""), root.Encode());

  for (auto& nn : namenodes_) nn->Start();
  if (telemetry_ != nullptr) telemetry_->Start();

  // Datanode heartbeats: routed to the current leader namenode.
  for (auto& dn : block_dns_) {
    blocks::BlockDatanode* d = dn.get();
    timers_.push_back(sim_.Every(3 * kSecond, [this, d] {
      if (!d->alive()) return;
      Namenode* target = leader();
      if (target == nullptr) return;
      network_->Send(d->host(), target->host(), 160,
                     [target, id = d->id()] {
                       if (target->alive()) target->OnDnHeartbeat(id);
                     });
    }));
  }

  // Let a leader-election round and first heartbeats complete.
  sim_.RunFor(100 * kMillisecond);
}

Namenode* Deployment::leader() {
  for (auto& nn : namenodes_) {
    if (nn->alive() && nn->is_leader()) return nn.get();
  }
  for (auto& nn : namenodes_) {
    if (nn->alive()) return nn.get();
  }
  return nullptr;
}

HopsFsClient* Deployment::AddClient(AzId az) {
  if (az == kNoAz) az = client_azs_[next_client_az_++ % client_azs_.size()];
  const HostId host = topology_->AddHost(
      az, StrFormat("client-%zu", clients_.size()));
  std::vector<Namenode*> nns;
  nns.reserve(namenodes_.size());
  for (auto& nn : namenodes_) nns.push_back(nn.get());
  clients_.push_back(std::make_unique<HopsFsClient>(
      sim_, *network_, metrics_, std::move(nns), host, az, dn_registry_.get(),
      options_.client, options_.az_nn_selection, options_.resilience));
  if (telemetry_ != nullptr) RegisterClientTelemetry(clients_.back().get());
  return clients_.back().get();
}

void Deployment::BootstrapNamespace(const std::vector<std::string>& dirs,
                                    const std::vector<std::string>& files) {
  // Parents before children: by path depth, then by path. Each depth is
  // counted once, not on every compare.
  std::vector<std::pair<int64_t, const std::string*>> sorted_dirs;
  sorted_dirs.reserve(dirs.size());
  for (const std::string& d : dirs) {
    sorted_dirs.emplace_back(std::count(d.begin(), d.end(), '/'), &d);
  }
  std::sort(sorted_dirs.begin(), sorted_dirs.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : *a.second < *b.second;
            });

  // Directory path -> inode id; the views alias `dirs`.
  std::unordered_map<std::string_view, InodeId> ids;
  ids.reserve(dirs.size() + 1);
  ids["/"] = kRootInode;
  std::vector<Namenode::DirHint> hints;
  hints.reserve(dirs.size());

  auto put = [&](const std::string& path, bool is_dir) {
    const auto [parent, base] = SplitParentView(path);
    auto it = ids.find(parent);
    assert(it != ids.end() && "bootstrap parents must come first");
    const InodeId parent_id = it->second;
    InodeRow row;
    row.id = ++next_inode_id_;
    row.is_dir = is_dir;
    row.mtime_ns = sim_.now();
    if (is_dir) {
      ids[path] = row.id;
      hints.push_back({path, row.id, parent_id});
    }
    ndb_->BootstrapPut(tables_.inodes, InodeKey(parent_id, base),
                       row.Encode());
  };
  for (const auto& [depth, d] : sorted_dirs) put(*d, /*is_dir=*/true);
  for (const auto& f : files) put(f, /*is_dir=*/false);
  // Steady-state hint caches, one namenode at a time (see
  // Namenode::PrimePathCache). In path order, each hint goes in at its
  // map's end without a tree walk (util::IndexedMap::FindOrInsert).
  std::stable_sort(hints.begin(), hints.end(),
                   [](const Namenode::DirHint& a, const Namenode::DirHint& b) {
                     return a.path < b.path;
                   });
  for (auto& nn : namenodes_) nn->PrimePathCache(hints);
}

void Deployment::ResetStats() {
  ndb_->ResetStats();
  network_->ResetStats();
  for (auto& nn : namenodes_) nn->ResetStats();
}

}  // namespace repro::hopsfs
