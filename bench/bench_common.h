// Shared harness for the paper-reproduction benchmarks.
//
// Every bench binary builds deployments through RunHopsFsWorkload /
// (CephFS equivalents live in cephfs_bench_common.h), which runs the
// closed-loop Spotify-style workload and captures throughput, latency and
// resource-utilisation metrics for the figure being reproduced.
//
// Scale note: the simulator reproduces *shapes*, not absolute testbed
// numbers (see EXPERIMENTS.md). The default "quick" scale keeps the whole
// bench suite runnable in minutes; set REPRO_FULL=1 for longer windows
// and more closed-loop clients.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench_report.h"
#include "hopsfs/deployment.h"
#include "workload/driver.h"
#include "workload/spotify.h"

namespace repro::bench {

struct RunConfig {
  hopsfs::DeploymentOptions deployment;  // HopsFS (2,1), 6 namenodes
  int clients_per_nn = 0;       // 0 = scale default
  Nanos warmup = 0;             // 0 = scale default
  Nanos measure = 0;
  uint64_t seed = 1;
  // Optional hook invoked on the freshly built Simulation before the
  // deployment exists — the place to arm the tracer (sampling knob, sink)
  // for observability benches.
  std::function<void(Simulation&)> sim_setup;
  // Optional replacement op source (micro-benchmarks); default Spotify.
  // The factory receives the run's workload/namespace so single-op
  // sources can pick valid paths.
  std::function<workload::OpSource(const workload::SpotifyWorkload&)>
      op_source_factory;
};

struct ResourceStats {
  // Metadata storage layer (averages per NDB datanode).
  double ndb_cpu_util = 0;                       // Fig. 10a
  ndb::NdbCluster::ThreadUtilization ndb_threads{};  // Fig. 11
  double ndb_net_read_mbps = 0;                  // Fig. 12a (per node)
  double ndb_net_write_mbps = 0;                 // Fig. 12b
  double ndb_disk_read_mbps = 0;                 // Fig. 12c
  double ndb_disk_write_mbps = 0;                // Fig. 12d
  // Metadata serving layer (averages per namenode).
  double nn_cpu_util = 0;                        // Fig. 10b
  double nn_net_read_mbps = 0;                   // Fig. 13a
  double nn_net_write_mbps = 0;                  // Fig. 13b
  // AZ traffic (§V-E).
  double inter_az_mbps = 0;
};

struct RunOutput {
  int num_namenodes = 0;
  workload::DriverResults results;
  ResourceStats resources;
  // Per-partition replica read counts (Fig. 14).
  std::vector<std::vector<int64_t>> replica_reads;
  // Engine totals over the whole run, set-up included (behaviour digests).
  uint64_t events_dispatched = 0;
  uint64_t rng_draws = 0;
};

RunOutput RunHopsFsWorkload(const RunConfig& config);

// The NN counts swept by the paper's figures.
std::vector<int> PaperNnCounts();
// Shorter sweep for the resource-utilisation figures in quick mode.
std::vector<int> ResourceSweepCounts();
// Metadata-server count for the fixed-size experiments (60 in the paper;
// 24 in quick mode).
int FixedServerCount();

// Single-operation workloads for Fig. 7 / Fig. 9 (mkdir, createFile,
// deleteFile, readFile). Delete alternates create/delete; its per-op
// histogram separates the two.
std::function<workload::OpSource(const workload::SpotifyWorkload&)>
MicroOpSourceFactory(workload::FsOp op);

// All six HopsFS/HopsFS-CL setups of Fig. 5.
std::vector<hopsfs::PaperSetup> AllHopsFsSetups();

// Formatting helpers: benches print aligned tables to stdout.
void PrintHeader(const std::string& title, const std::string& figure);
std::string Mops(double ops_per_sec);

}  // namespace repro::bench
