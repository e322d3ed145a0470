// The paper's evaluation (§V) in one runner: Table I, Figures 5-14, the
// §V-F failure matrix and the AZ-awareness ablation. `bench_paper` prints
// every section in paper order; `bench_paper fig11 fig14` prints the named
// sections in that order.
//
// Figures 5, 6, 8, 10, 11, 12 and 13 are views of one sweep: each (setup,
// server count) cell is simulated once per process and read from a cache.
// Stdout is deterministic, and bench/paper_quick.golden pins it at quick
// scale; the run's CPU time goes to stderr. REPRO_FULL=1 selects the full
// sweep.
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <utility>

#include "bench_common.h"
#include "cephfs_bench_common.h"
#include "chaos/harness.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "util/strings.h"

namespace repro::bench {
namespace {

using hopsfs::DeploymentOptions;
using hopsfs::PaperSetup;
using workload::FsOp;

// ---- the sweep cache ------------------------------------------------------

// Default-configured Spotify run of `setup` with `n` namenodes, simulated
// on first request. Runs are deterministic, so a cached cell is exactly
// what a fresh run would print.
const RunOutput& HopsCell(PaperSetup setup, int n) {
  static std::map<std::pair<PaperSetup, int>, RunOutput> cells;
  auto [it, inserted] = cells.try_emplace({setup, n});
  if (inserted) {
    RunConfig cfg;
    cfg.deployment = DeploymentOptions::FromPaperSetup(setup, n);
    it->second = RunHopsFsWorkload(cfg);
  }
  return it->second;
}

const CephRunOutput& CephCell(cephfs::CephVariant variant, int n) {
  static std::map<std::pair<cephfs::CephVariant, int>, CephRunOutput> cells;
  auto [it, inserted] = cells.try_emplace({variant, n});
  if (inserted) {
    CephRunConfig cfg;
    cfg.variant = variant;
    cfg.num_mds = n;
    it->second = RunCephWorkload(cfg);
  }
  return it->second;
}

// ---- the sweep table printer ----------------------------------------------

using HopsFormat = std::function<std::string(const RunOutput&)>;
using CephFormat = std::function<std::string(const CephRunOutput&)>;

struct Grid {
  std::string title = "";  // line above the header ("" = none)
  int label_width = 22;
  int col_width = 10;
  std::string units = "";  // printed verbatim under the header, if any
  std::vector<int> counts;
  std::vector<PaperSetup> setups = AllHopsFsSetups();
};

// One row per HopsFS setup, then one per CephFS variant; one column per
// metadata-server count.
void PrintGrid(const Grid& g, const HopsFormat& hops, const CephFormat& ceph) {
  std::printf("\n");
  if (!g.title.empty()) std::printf("%s\n", g.title.c_str());
  std::printf("%-*s", g.label_width, "setup");
  for (int n : g.counts) std::printf("%*d", g.col_width, n);
  std::printf("\n%s", g.units.c_str());
  const auto row = [&](const char* label, const auto& cell) {
    std::printf("%-*s", g.label_width, label);
    for (int n : g.counts) {
      std::printf("%s", cell(n).c_str());
      std::fflush(stdout);
    }
    std::printf("\n");
  };
  for (PaperSetup s : g.setups) {
    row(hopsfs::PaperSetupName(s), [&](int n) { return hops(HopsCell(s, n)); });
  }
  for (auto v : AllCephVariants()) {
    row(CephVariantName(v), [&](int n) { return ceph(CephCell(v, n)); });
  }
}

// ---- Table I --------------------------------------------------------------

// Measured round-trip latencies between VMs in different AZs of the
// us-west1 region: "ping" between simulated hosts and report the RTT
// matrix next to the paper's numbers.
void Table1() {
  PrintHeader("Inter-AZ round-trip latency matrix (us-west1)", "Table I");

  Simulation sim(1);
  Topology topo(3, AzLatencyTable::UsWest1());
  Network net(sim, topo);

  // One VM per AZ plus a second VM in each AZ for the intra-AZ pings.
  HostId a[3], b[3];
  for (AzId az = 0; az < 3; ++az) {
    a[az] = topo.AddHost(az, StrFormat("vm-a-%d", az));
    b[az] = topo.AddHost(az, StrFormat("vm-b-%d", az));
  }

  const char* names[3] = {"us-west1-a", "us-west1-b", "us-west1-c"};
  const double paper[3][3] = {{0.247, 0.360, 0.372},
                              {0.360, 0.251, 0.399},
                              {0.372, 0.399, 0.249}};

  // Sequential pings, like the ping tool: one in flight at a time.
  struct Pinger {
    Simulation& sim;
    Network& net;
    HostId src, dst;
    int remaining;
    Nanos total = 0;
    void Ping() {
      if (remaining == 0) return;
      const Nanos start = sim.now();
      net.Send(src, dst, 64, [this, start] {
        net.Send(dst, src, 64, [this, start] {
          total += sim.now() - start;
          --remaining;
          Ping();
        });
      });
    }
  };
  double measured[3][3] = {};
  constexpr int kPings = 200;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      Pinger pinger{sim, net, a[i], i == j ? b[j] : a[j], kPings};
      pinger.Ping();
      sim.Run();
      measured[i][j] = ToMillis(pinger.total / kPings);
    }
  }

  std::printf("\n%-12s %28s        %28s\n", "", "measured RTT (ms)",
              "paper RTT (ms)");
  std::printf("%-12s %9s%9s%9s   %9s%9s%9s\n", "", "a", "b", "c", "a", "b",
              "c");
  for (int i = 0; i < 3; ++i) {
    std::printf("%-12s ", names[i]);
    for (int j = 0; j < 3; ++j) std::printf("%9.3f", measured[i][j]);
    std::printf("   ");
    for (int j = 0; j < 3; ++j) std::printf("%9.3f", paper[i][j]);
    std::printf("\n");
  }
  std::printf(
      "\nIntra-AZ RTTs ~0.25 ms, inter-AZ 0.36-0.40 ms; the simulator's\n"
      "latency model is seeded from the paper's table (+-5%% jitter).\n");
}

// ---- Figures 5, 6, 8, 10-13: views of the sweep ---------------------------

// Throughput on the Spotify workload, sweeping metadata servers. Shape
// targets: HopsFS (2,1) highest among single-AZ vanilla setups; 3-AZ
// vanilla deployments lose 17-22%; HopsFS-CL recovers the loss and the
// gap grows with the number of namenodes.
void Fig5() {
  PrintHeader("Throughput vs number of metadata servers (Spotify workload)",
              "Figure 5");
  const auto mops = [](const auto& o) {
    return StrFormat("%10s", Mops(o.results.ops_per_sec()).c_str());
  };
  PrintGrid({.label_width = 18, .counts = PaperNnCounts()}, mops, mops);
  std::printf(
      "\nPaper peaks @60 NNs: HopsFS(2,1)=1.62M, HopsFS(3,1)=1.56M,\n"
      "HopsFS(2,3)=-17%% vs (2,1), HopsFS(3,3)=-22%%, CL(2,3)=+17%% vs\n"
      "HopsFS(2,3), CL(3,3)=+36%% vs HopsFS(3,3) (peak 1.66M), CephFS\n"
      "default up to 0.77M, CL delivers 2.14x CephFS.\n");
}

// Metadata requests handled per server: every HopsFS-CL client op reaches
// a namenode, while the CephFS kernel cache absorbs most requests before
// the MDS.
void Fig6() {
  PrintHeader("Requests handled per metadata server (log2-style series)",
              "Figure 6");
  PrintGrid({.counts = PaperNnCounts(),
             .setups = {PaperSetup::kHopsFsCl_2_3, PaperSetup::kHopsFsCl_3_3}},
            [](const RunOutput& o) {
              return StrFormat("%10.0f",
                               o.results.ops_per_sec() / o.num_namenodes);
            },
            [](const CephRunOutput& o) {
              return StrFormat("%10.0f",
                               static_cast<double>(o.mds_handled_ops) /
                                   ToSeconds(o.results.window) / o.num_mds);
            });
  std::printf(
      "\nPaper: DirPinned 4233 req/s @1 MDS -> 1178 @60; HopsFS-CL handles\n"
      "up to 23x more requests per server than CephFS-DirPinned because no\n"
      "client cache absorbs its requests.\n");
}

// Average end-to-end latency under load. Shape targets: HopsFS/CL roughly
// flat; CL up to 35% below the AZ-oblivious 3-AZ deployments; CephFS
// default far above CL, DirPinned below it thanks to the kernel cache.
void Fig8() {
  PrintHeader("Average end-to-end latency (ms) vs metadata servers",
              "Figure 8");
  const auto mean_ms = [](const auto& o) {
    return StrFormat("%10.2f", o.results.all.MeanMillis());
  };
  PrintGrid({.counts = ResourceSweepCounts()}, mean_ms, mean_ms);
  std::printf(
      "\nPaper shapes: HopsFS/CL ~flat; CL up to 35%% below AZ-oblivious\n"
      "3-AZ HopsFS; CephFS default up to 9x above CL; DirPinned below CL\n"
      "(kernel cache); SkipKCache up to 16x above CL.\n");
}

// CPU utilisation (a) per metadata storage node (NDB datanode / Ceph OSD)
// and (b) per metadata server (NN / MDS).
void Fig10() {
  PrintHeader("CPU utilisation per storage node / metadata server (%)",
              "Figure 10");
  PrintGrid({.title = "(a) per metadata storage node",
             .counts = ResourceSweepCounts()},
            [](const RunOutput& o) {
              return StrFormat("%10.1f", 100 * o.resources.ndb_cpu_util);
            },
            [](const CephRunOutput& o) {
              return StrFormat("%10.1f", 100 * o.osd_cpu_util);
            });
  PrintGrid({.title = "(b) per metadata server",
             .counts = ResourceSweepCounts()},
            [](const RunOutput& o) {
              return StrFormat("%10.1f", 100 * o.resources.nn_cpu_util);
            },
            [](const CephRunOutput& o) {
              return StrFormat("%10.1f", 100 * o.mds_cpu_util);
            });
  std::printf(
      "\nPaper shapes: NDB CPU plateaus after ~12 NNs; OSD CPU ~constant;\n"
      "multi-threaded NNs use their cores, the single-threaded MDS with a\n"
      "global lock cannot.\n");
}

// Figure 11 + Table II: NDB thread-type utilisation for HopsFS-CL (3,3).
// Shape targets: LDM/TC/RECV/SEND level off after ~24 NNs; the nominally
// idle REP thread runs hot because idle threads assist RECV/SEND.
void Fig11() {
  PrintHeader("NDB thread-type utilisation, HopsFS-CL (3,3)",
              "Figure 11 (and Table II)");

  std::printf(
      "\nTable II - NDB CPU configuration (27 locked CPUs per datanode):\n"
      "  LDM  12  tables' data shards\n"
      "  TC    7  ongoing transactions\n"
      "  RECV  3  inbound network traffic\n"
      "  SEND  2  outbound network traffic\n"
      "  REP   1  replication across clusters (idle helper)\n"
      "  IO    1  I/O operations\n"
      "  MAIN  1  schema management (idle helper)\n");

  std::printf("\n%-8s", "NNs");
  for (const char* t : {"LDM", "TC", "RECV", "SEND", "REP", "IO", "MAIN"}) {
    std::printf("%9s", t);
  }
  std::printf("\n");
  for (int n : ResourceSweepCounts()) {
    const auto& u =
        HopsCell(PaperSetup::kHopsFsCl_3_3, n).resources.ndb_threads;
    std::printf("%-8d%8.1f%%%8.1f%%%8.1f%%%8.1f%%%8.1f%%%8.1f%%%8.1f%%\n",
                n, 100 * u.ldm, 100 * u.tc, 100 * u.recv, 100 * u.send,
                100 * u.rep, 100 * u.io, 100 * u.main);
    std::fflush(stdout);
  }

  std::printf(
      "\nPaper shapes: utilisation peaks after ~24 NNs; REP saturates\n"
      "(~90%%) because idle threads help busy RECV/SEND threads.\n");
}

// Network and disk utilisation of the metadata storage layer (per NDB
// datanode / Ceph OSD). Shape targets: NDB is network-heavy and
// disk-light (only redo and checkpoints hit disk); the OSD is the reverse.
void Fig12() {
  PrintHeader("Metadata storage layer network & disk utilisation",
              "Figure 12");
  const auto panel = [](const char* title, double ResourceStats::*hops,
                        double CephRunOutput::*ceph) {
    PrintGrid({.title = StrFormat("(%s) MB/s per storage node", title),
               .counts = ResourceSweepCounts()},
              [hops](const RunOutput& o) {
                return StrFormat("%10.2f", o.resources.*hops);
              },
              [ceph](const CephRunOutput& o) {
                return StrFormat("%10.2f", o.*ceph);
              });
  };
  panel("a: network read", &ResourceStats::ndb_net_read_mbps,
        &CephRunOutput::osd_net_read_mbps);
  panel("b: network write", &ResourceStats::ndb_net_write_mbps,
        &CephRunOutput::osd_net_write_mbps);
  panel("c: disk read", &ResourceStats::ndb_disk_read_mbps,
        &CephRunOutput::osd_disk_read_mbps);
  panel("d: disk write", &ResourceStats::ndb_disk_write_mbps,
        &CephRunOutput::osd_disk_write_mbps);
  std::printf(
      "\nPaper shapes: NDB network grows ~linearly with NNs, NDB disk only\n"
      "carries REDO/checkpoints; OSD network stays low while OSD disk\n"
      "(journal) climbs and plateaus after ~24 MDSs.\n");
}

// Network utilisation per metadata server (namenode / MDS). Shape target:
// HopsFS namenodes move an order of magnitude more bytes than Ceph MDSs.
void Fig13() {
  PrintHeader("Per-metadata-server network utilisation", "Figure 13");
  Grid g{.col_width = 16, .counts = ResourceSweepCounts()};
  g.units = StrFormat("%-22s", "");
  for (size_t i = 0; i < g.counts.size(); ++i) {
    g.units += StrFormat("%9s%7s", "rd", "wr");
  }
  g.units += "   (MB/s)\n";
  PrintGrid(
      g,
      [](const RunOutput& o) {
        return StrFormat("%9.2f%7.2f", o.resources.nn_net_read_mbps,
                         o.resources.nn_net_write_mbps);
      },
      [](const CephRunOutput& o) {
        return StrFormat("%9.2f%7.2f", o.mds_net_read_mbps,
                         o.mds_net_write_mbps);
      });
  std::printf(
      "\nPaper shape: HopsFS/CL namenodes move ~an order of magnitude more\n"
      "bytes than Ceph MDSs (client kernel caches absorb Ceph's reads);\n"
      "metadata servers use no disk in either system (all state is in NDB\n"
      "or the OSDs).\n");
}

// ---- Figures 7 and 9: single-operation workloads --------------------------

// A table row of Figs. 7 and 9: one setup or variant at FixedServerCount()
// servers, running one operation type with `clients` closed-loop clients
// per server (0 = scale default).
struct MicroRow {
  const char* label;
  std::function<workload::DriverResults(FsOp op, int clients)> run;
};

std::vector<MicroRow> MicroRows() {
  std::vector<MicroRow> rows;
  for (PaperSetup s : AllHopsFsSetups()) {
    rows.push_back({hopsfs::PaperSetupName(s), [s](FsOp op, int clients) {
                      RunConfig cfg;
                      cfg.deployment = DeploymentOptions::FromPaperSetup(
                          s, FixedServerCount());
                      cfg.clients_per_nn = clients;
                      cfg.op_source_factory = MicroOpSourceFactory(op);
                      return RunHopsFsWorkload(cfg).results;
                    }});
  }
  for (auto v : AllCephVariants()) {
    rows.push_back({CephVariantName(v), [v](FsOp op, int clients) {
                      CephRunConfig cfg;
                      cfg.variant = v;
                      cfg.num_mds = FixedServerCount();
                      cfg.clients_per_mds = clients;
                      cfg.op_source_factory = MicroOpSourceFactory(op);
                      return RunCephWorkload(cfg).results;
                    }});
  }
  return rows;
}

double OpsPerSec(const workload::DriverResults& r, FsOp op) {
  auto it = r.per_op.find(op);
  if (it == r.per_op.end()) return 0;
  return static_cast<double>(it->second.count()) / ToSeconds(r.window);
}

// Throughput of mkdir, createFile, deleteFile and readFile. Shape targets:
// replication 2->3 costs mutation throughput but reads gain slightly;
// HopsFS-CL beats CephFS on mutations, CephFS wins reads via its kernel
// cache and loses them once the cache is skipped.
void Fig7() {
  PrintHeader(StrFormat("Micro-benchmark throughput, %d metadata servers",
                        FixedServerCount()),
              "Figure 7");
  std::printf("\n%-22s%12s%12s%12s%12s\n", "setup", "mkdir", "createFile",
              "deleteFile", "readFile");
  for (const MicroRow& row : MicroRows()) {
    std::printf("%-22s", row.label);
    for (FsOp op :
         {FsOp::kMkdir, FsOp::kCreate, FsOp::kDelete, FsOp::kOpenRead}) {
      std::printf("%12s", Mops(OpsPerSec(row.run(op, 0), op)).c_str());
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf(
      "\nPaper shapes: replication 3 costs mutations up to 45%% (1 AZ) /\n"
      "23%% (3 AZs) but gains ~6%% on reads; HopsFS-CL up to 11.8x CephFS\n"
      "on mutations; CephFS reads 1.9x faster via kernel cache (81x slower\n"
      "with SkipKCache).\n");
}

// Latency percentiles in an unloaded cluster (~50% of peak load). Shape
// target: CephFS well below HopsFS/HopsFS-CL, since most operations are
// served from the kernel cache or MDS memory.
void Fig9() {
  PrintHeader(
      StrFormat("Latency percentiles at ~50%% load, %d metadata servers",
                FixedServerCount()),
      "Figure 9");
  const std::pair<FsOp, const char*> ops[] = {{FsOp::kCreate, "createFile"},
                                              {FsOp::kOpenRead, "readFile"},
                                              {FsOp::kDelete, "deleteFile"}};
  // Half the default closed-loop population = ~50% load.
  const int half_clients = (FullScale() ? 64 : 32) / 2;
  for (const auto& [op, name] : ops) {
    std::printf("\n--- %s (ms) ---\n%-22s%10s%10s%10s\n", name, "setup",
                "p50", "p90", "p99");
    for (const MicroRow& row : MicroRows()) {
      const auto r = row.run(op, half_clients);
      double p[3] = {0, 0, 0};  // stays zero if the op never ran
      auto it = r.per_op.find(op);
      if (it != r.per_op.end() && it->second.count() > 0) {
        p[0] = ToMillis(it->second.Percentile(0.50));
        p[1] = ToMillis(it->second.Percentile(0.90));
        p[2] = ToMillis(it->second.Percentile(0.99));
      }
      std::printf("%-22s%10.2f%10.2f%10.2f\n", row.label, p[0], p[1], p[2]);
      std::fflush(stdout);
    }
  }
  std::printf(
      "\nPaper shape: unloaded CephFS percentiles sit well below HopsFS /\n"
      "HopsFS-CL (kernel cache + in-memory MDS); the gap inverts under\n"
      "full load (Fig. 8).\n");
}

// ---- Figure 14 and the ablation: tweaked HopsFS-CL (3,3) runs -------------

RunOutput RunTweakedCl33(int nns, bool read_backup, bool az_tc, bool az_nn) {
  RunConfig cfg;
  cfg.deployment =
      DeploymentOptions::FromPaperSetup(PaperSetup::kHopsFsCl_3_3, nns);
  cfg.deployment.read_backup = read_backup;
  cfg.deployment.az_tc_selection = az_tc;
  cfg.deployment.az_nn_selection = az_nn;
  return RunHopsFsWorkload(cfg);
}

void PrintReplicaReads(const char* label, const RunOutput& out) {
  std::printf("\n--- Read Backup %s ---\n", label);
  std::printf("%-10s%12s%12s%12s%12s\n", "partition", "primary", "backup1",
              "backup2", "reads");
  double sum_primary = 0, sum_b1 = 0, sum_b2 = 0;
  int used = 0;
  for (int p = 0; p < 24 && p < static_cast<int>(out.replica_reads.size());
       ++p) {
    const auto& counts = out.replica_reads[p];
    const int64_t total = counts[0] + counts[1] + counts[2];
    if (total == 0) {
      std::printf("%-10d%12s%12s%12s%12d\n", p, "-", "-", "-", 0);
      continue;
    }
    const double f0 = 100.0 * counts[0] / total;
    const double f1 = 100.0 * counts[1] / total;
    const double f2 = 100.0 * counts[2] / total;
    std::printf("%-10d%11.1f%%%11.1f%%%11.1f%%%12lld\n", p, f0, f1, f2,
                static_cast<long long>(total));
    sum_primary += f0;
    sum_b1 += f1;
    sum_b2 += f2;
    ++used;
  }
  if (used > 0) {
    std::printf("%-10s%11.1f%%%11.1f%%%11.1f%%\n", "average",
                sum_primary / used, sum_b1 / used, sum_b2 / used);
  }
}

// Reads served by each replica of the first 24 partitions, with the Read
// Backup table option enabled (the HopsFS-CL default) vs disabled (§V-E).
void Fig14() {
  PrintHeader("Reads per partition replica with/without Read Backup",
              "Figure 14");
  const int nns = FullScale() ? 24 : 12;
  PrintReplicaReads("ENABLED", HopsCell(PaperSetup::kHopsFsCl_3_3, nns));
  PrintReplicaReads("DISABLED", RunTweakedCl33(nns, false, true, true));
  std::printf(
      "\nPaper: disabled -> 100%% of reads on the primary; enabled -> the\n"
      "expected ~50%% primary / 25%% / 25%% split (locked reads pin to the\n"
      "primary, committed reads go AZ-local).\n");
}

// ---- §V-F: the failure matrix ---------------------------------------------

// The five failures §V-F says HopsFS-CL serves through, each one chaos
// episode: one fault 1 s into the fault window, healed 4 s later where a
// heal exists, then the harness's scorecard and invariant verdicts.
void Failures() {
  PrintHeader("Failure matrix: one chaos episode per failure", "Section V-F");
  using chaos::FaultType;
  struct Row {
    const char* name;
    const char* claim;
    std::vector<chaos::FaultEvent> events;
  };
  chaos::ChaosOptions opts;
  opts.seed = 21;
  const Nanos at = opts.warmup + kSecond;
  const Nanos heal = at + 4 * kSecond;
  const Row rows[] = {
      {"NDB datanode crash",
       "the node group's backups take over; no acked write is lost",
       {{at, FaultType::kCrashNdbNode, 0}}},
      {"leader namenode crash",
       "the surviving namenodes elect one new leader",
       {{at, FaultType::kCrashLeaderNn}}},
      {"AZ outage (AZ 0, restored)",
       "a replica in every AZ keeps metadata served from the other two",
       {{at, FaultType::kAzOutage, 0}, {heal, FaultType::kAzRestore, 0}}},
      {"AZ partition (AZ 2 cut off, healed)",
       "the arbitrator keeps one side; there is no split brain",
       {{at, FaultType::kPartitionAzs, 2, 0},
        {at, FaultType::kPartitionAzs, 2, 1},
        {heal, FaultType::kHealAllPartitions}}},
      {"block datanode loss",
       "the leader re-replicates the lost replicas",
       {{at, FaultType::kCrashBlockDn}}},
  };
  for (const Row& row : rows) {
    chaos::FaultSchedule schedule;
    for (const auto& e : row.events) schedule.Add(e);
    const chaos::ChaosReport report = chaos::RunChaosSchedule(opts, schedule);
    std::printf("\n--- %s ---\npaper: %s\n", row.name, row.claim);
    for (size_t i = 0; i < row.events.size(); ++i) {
      std::printf("  fault %s\n", report.trace[i].c_str());
    }
    std::printf("%s", report.Scorecard().c_str());
    std::fflush(stdout);
  }
}

// Which of HopsFS-CL's AZ-awareness mechanisms (§IV) buys what? Each row
// disables one mechanism of the full HopsFS-CL (3,3) deployment: Read
// Backup + delayed commit ack (§IV-A3), AZ-aware TC selection and read
// routing (§IV-A4/5), AZ-local namenode selection (§IV-B3); the last row
// disables all three (= vanilla HopsFS (3,3)).
void Ablation() {
  PrintHeader("AZ-awareness feature ablation on HopsFS-CL (3,3)",
              "design-choice ablation (DESIGN.md §6)");

  struct Variant {
    const char* name;
    bool read_backup;
    bool az_tc;
    bool az_nn;
  };
  const Variant variants[] = {
      {"full HopsFS-CL", true, true, true},
      {"- read backup", false, true, true},
      {"- AZ-aware TC/read routing", true, false, true},
      {"- AZ-local NN selection", true, true, false},
      {"none (= HopsFS 3,3)", false, false, false},
  };

  std::printf("\n%-30s%12s%12s%14s\n", "variant", "ops/s", "mean ms",
              "interAZ MB/s");
  const int nns = FixedServerCount();
  double baseline = 0;
  for (const auto& v : variants) {
    const bool full = v.read_backup && v.az_tc && v.az_nn;
    const RunOutput out =
        full ? HopsCell(PaperSetup::kHopsFsCl_3_3, nns)
             : RunTweakedCl33(nns, v.read_backup, v.az_tc, v.az_nn);
    const double tput = out.results.ops_per_sec();
    if (baseline == 0) baseline = tput;
    std::printf("%-30s%12s%12.2f%14.1f   (%+.1f%%)\n", v.name,
                Mops(tput).c_str(), out.results.all.MeanMillis(),
                out.resources.inter_az_mbps,
                100.0 * (tput - baseline) / baseline);
    std::fflush(stdout);
  }

  std::printf(
      "\nReading: read backup + AZ-aware routing carry most of the gain\n"
      "(they keep committed reads AZ-local); NN selection mostly trims\n"
      "client-to-NN latency and inter-AZ bytes.\n");
}

struct Section {
  const char* name;
  void (*run)();
};

constexpr Section kSections[] = {
    {"table1", Table1}, {"fig5", Fig5},   {"fig6", Fig6},
    {"fig7", Fig7},     {"fig8", Fig8},   {"fig9", Fig9},
    {"fig10", Fig10},   {"fig11", Fig11}, {"fig12", Fig12},
    {"fig13", Fig13},   {"fig14", Fig14}, {"failures", Failures},
    {"ablation", Ablation},
};

const Section* FindSection(const char* name) {
  for (const auto& s : kSections) {
    if (std::strcmp(s.name, name) == 0) return &s;
  }
  return nullptr;
}

}  // namespace
}  // namespace repro::bench

int main(int argc, char** argv) {
  using repro::bench::Section;
  std::vector<const Section*> sections;
  for (int i = 1; i < argc; ++i) {
    const Section* s = repro::bench::FindSection(argv[i]);
    if (s == nullptr) {
      std::fprintf(stderr, "unknown section '%s'\nusage: %s [section...]\n"
                           "sections:", argv[i], argv[0]);
      for (const auto& k : repro::bench::kSections) {
        std::fprintf(stderr, " %s", k.name);
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    sections.push_back(s);
  }
  if (sections.empty()) {
    for (const auto& s : repro::bench::kSections) sections.push_back(&s);
  }
  const std::clock_t t0 = std::clock();
  for (const Section* s : sections) s->run();
  std::fprintf(stderr, "[wall: %.1fs cpu]\n",
               static_cast<double>(std::clock() - t0) / CLOCKS_PER_SEC);
  return 0;
}
