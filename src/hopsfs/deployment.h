// Deployment builder: wires a full HopsFS / HopsFS-CL cluster.
//
// Encodes the evaluation's setup naming: "System (metadata-replication,
// #AZs)" — e.g. HopsFS (2,1) is vanilla HopsFS in one AZ with NDB
// replication 2; HopsFS-CL (3,3) is the AZ-aware system over three AZs
// with replication 3 (Figs. 3 & 4). The AZ placements follow the paper:
// 1-AZ setups live in us-west1-b (AZ 1); the (2,3) layouts put NDB and
// NNs in AZs 1,2 with the arbitrator in AZ 0; the (3,3) layouts use all
// three AZs. Clients always span all three AZs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "blocks/datanode.h"
#include "blocks/placement.h"
#include "hopsfs/client.h"
#include "hopsfs/fsschema.h"
#include "hopsfs/namenode.h"
#include "metrics/counters.h"
#include "ndb/cluster.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "telemetry/telemetry.h"

namespace repro::hopsfs {

enum class PaperSetup {
  kHopsFs_2_1,
  kHopsFs_3_1,
  kHopsFs_2_3,
  kHopsFs_3_3,
  kHopsFsCl_2_3,
  kHopsFsCl_3_3,
};
const char* PaperSetupName(PaperSetup setup);

// HopsFS-CL setups: the AZ-aware system of §IV, including AZ-aware block
// placement (§IV-C).
bool IsHopsFsCl(PaperSetup setup);

struct DeploymentOptions {
  // Fixes the metadata replication, the AZs of the NDB datanodes,
  // namenodes and clients, and AZ-aware block placement.
  PaperSetup setup = PaperSetup::kHopsFs_2_1;
  int num_namenodes = 6;
  int ndb_datanodes = 12;
  // The AZ-awareness mechanisms of §IV that the ablation turns off one at
  // a time; FromPaperSetup turns all three on for HopsFS-CL.
  bool read_backup = false;      // Read Backup tables + delayed ack
  bool az_tc_selection = false;  // AZ-aware TC choice & read routing
  // Clients prefer AZ-local NNs, and NNs list AZ-local block replicas
  // first for the reader.
  bool az_nn_selection = false;
  int block_datanodes = 0;
  NamenodeConfig nn;

  // Overload-protection stack (bench_overload's "pre-PR" baseline turns
  // this off to demonstrate congestion collapse): deadlines, retry
  // budgets, breakers and admission control together. Individual knobs
  // live in `nn` / `client`.
  bool resilience = true;
  // Base ClientConfig applied by AddClient.
  ClientConfig client;

  // Cluster telemetry: scraped time-series, health rollups and SLO
  // burn-rate alerting (off by default; the scrape tick is read-only, so
  // enabling it cannot change simulation results).
  telemetry::TelemetryOptions telemetry;

  static DeploymentOptions FromPaperSetup(PaperSetup setup,
                                          int num_namenodes);
};

class Deployment {
 public:
  Deployment(Simulation& sim, DeploymentOptions options);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Starts NDB protocols, namenode leader election and DN heartbeats,
  // then runs the simulation briefly so a leader exists.
  void Start();

  // Creates a client host in `az` (kNoAz: round-robin over the setup's
  // client AZs).
  HopsFsClient* AddClient(AzId az = kNoAz);

  // Bulk-loads a namespace (directories first, then empty files) directly
  // into NDB, bypassing the protocol. For experiment setup only.
  void BootstrapNamespace(const std::vector<std::string>& dirs,
                          const std::vector<std::string>& files);

  Simulation& sim() { return sim_; }
  Topology& topology() { return *topology_; }
  Network& network() { return *network_; }
  ndb::NdbCluster& ndb() { return *ndb_; }
  const FsTables& tables() const { return tables_; }
  blocks::DnRegistry* dn_registry() { return dn_registry_.get(); }

  const std::vector<std::unique_ptr<Namenode>>& namenodes() const {
    return namenodes_;
  }
  Namenode* namenode(int i) { return namenodes_[i].get(); }
  Namenode* leader();
  const std::vector<std::unique_ptr<blocks::BlockDatanode>>& block_dns()
      const {
    return block_dns_;
  }
  const std::vector<std::unique_ptr<HopsFsClient>>& clients() const {
    return clients_;
  }
  const DeploymentOptions& options() const { return options_; }

  // Shared resilience counter registry (sheds, retries, breaker
  // transitions, deadline-exceeded per layer).
  metrics::Registry& metrics() { return metrics_; }

  // Telemetry pipeline (nullptr unless options.telemetry.enabled).
  telemetry::Telemetry* telemetry() { return telemetry_.get(); }

  void ResetStats();

 private:
  // Registers the per-host callback metrics (host.up / host.queue_ns /
  // host.ops and the NDB protocol series) that the scraper snapshots.
  void RegisterHostTelemetry();
  void RegisterClientTelemetry(HopsFsClient* client);
  Simulation& sim_;
  DeploymentOptions options_;
  metrics::Registry metrics_;
  std::vector<AzId> client_azs_;  // clients and block datanodes
  std::unique_ptr<Topology> topology_;
  std::unique_ptr<Network> network_;
  ndb::Catalog catalog_;
  FsTables tables_;
  std::unique_ptr<ndb::NdbCluster> ndb_;
  std::unique_ptr<blocks::DnRegistry> dn_registry_;
  std::unique_ptr<blocks::BlockPlacementPolicy> placement_;
  std::vector<std::unique_ptr<blocks::BlockDatanode>> block_dns_;
  std::vector<std::unique_ptr<Namenode>> namenodes_;
  std::vector<std::unique_ptr<HopsFsClient>> clients_;
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  std::vector<Simulation::PeriodicHandle> timers_;
  int next_client_az_ = 0;
  uint64_t next_inode_id_ = 1000;
};

}  // namespace repro::hopsfs
