// Chaos soak: N seeded randomized fault schedules against HopsFS-CL (3,3).
//
// Each seed builds a fresh deployment, runs the Spotify workload through
// warm-up -> fault window -> settle while a randomized schedule injects
// crashes, AZ outages, partitions (symmetric and one-way), latency
// inflation, message drops and grey-slow nodes, then checks the safety
// invariants and prints an availability scorecard. A final run with the
// deliberate lost-acked-write bug enabled demonstrates that the
// durability invariant actually catches violations.
//
// The bench contract is bench_report.h: 20 seeds, 40 under REPRO_FULL=1,
// REPRO_SEEDS=n overrides (CI smoke uses a small pinned value). Exit
// status is non-zero if any clean run violates an invariant, a replay
// diverges or the planted bug goes undetected. Artifacts:
// $REPRO_CSV_DIR/chaos_soak.csv and BENCH_chaos_soak.json.
#include <cstdio>
#include <set>

#include "bench_common.h"
#include "chaos/harness.h"
#include "metrics/timeseries.h"
#include "util/file.h"
#include "util/strings.h"

namespace repro::bench {
namespace {

int Main(int argc, char** argv) {
  RejectArguments(argc, argv);
  PrintHeader("Chaos soak (deterministic fault schedules)",
              "robustness harness; no single paper figure");
  Report out("chaos_soak");
  const int seeds = SeedCount(20);
  std::printf("\nrunning %d seeded schedules against HopsFS-CL (3,3)...\n\n",
              seeds);

  std::set<chaos::FaultType> types_seen;
  std::vector<double> col_seed, col_warmup, col_fault, col_settle, col_ok;
  for (int i = 0; i < seeds; ++i) {
    chaos::ChaosOptions opts;
    opts.seed = 1000 + i;
    chaos::ChaosReport report = chaos::RunChaosSchedule(opts);
    for (chaos::FaultType t :
         chaos::FaultSchedule::Random(opts.seed, chaos::RandomFaultOptions{})
             .FaultTypes()) {
      types_seen.insert(t);
    }
    std::printf("%s\n", report.Scorecard().c_str());
    out.Check(report.invariants_ok(),
              StrFormat("seed %llu: every safety invariant holds",
                        static_cast<unsigned long long>(opts.seed)));
    col_seed.push_back(static_cast<double>(opts.seed));
    col_warmup.push_back(report.goodput.warmup_ops_per_sec);
    col_fault.push_back(report.goodput.fault_ops_per_sec);
    col_settle.push_back(report.goodput.settle_ops_per_sec);
    col_ok.push_back(report.invariants_ok() ? 1 : 0);
  }
  std::printf("distinct fault types exercised across schedules: %d\n",
              static_cast<int>(types_seen.size()));
  out.Value("seeds", seeds);
  out.Value("fault_types", static_cast<double>(types_seen.size()));

  // Replay check: the determinism invariant across full runs. Seed 1000
  // must reproduce its event trace byte-for-byte; a different seed must
  // not.
  {
    chaos::ChaosOptions opts;
    opts.seed = 1000;
    const std::string trace_a = chaos::RunChaosSchedule(opts).TraceString();
    const std::string trace_b = chaos::RunChaosSchedule(opts).TraceString();
    opts.seed = 1001;
    const std::string trace_c = chaos::RunChaosSchedule(opts).TraceString();
    std::printf("replay determinism: same seed %s, different seed %s\n",
                trace_a == trace_b ? "identical" : "DIVERGED (BUG)",
                trace_a != trace_c ? "differs" : "IDENTICAL (BUG)");
    out.Check(trace_a == trace_b && trace_a != trace_c,
              "replay: same seed identical, different seed differs");
  }

  // Planted-bug run: the TC-level lost-acked-write hook fires mid-window;
  // the durability invariant MUST flag it.
  {
    chaos::ChaosOptions opts;
    opts.seed = 4242;
    opts.enable_test_ack_loss_bug = true;
    chaos::ChaosReport buggy = chaos::RunChaosSchedule(opts);
    bool durability_failed = false;
    for (const auto& r : buggy.invariants) {
      if (r.name == "durability" && !r.ok) durability_failed = true;
    }
    std::printf("\nplanted lost-acked-write bug: %s\n",
                durability_failed
                    ? "caught by the durability invariant (good)"
                    : "NOT DETECTED (checker is broken)");
    std::printf("%s\n", buggy.Scorecard().c_str());
    out.Check(durability_failed,
              "planted lost-acked-write bug caught by durability");
  }

  WriteFile(metrics::CsvDir() + "/chaos_soak.csv",
            metrics::CsvText({{"seed", col_seed},
                              {"warmup_ops_per_sec", col_warmup},
                              {"fault_ops_per_sec", col_fault},
                              {"settle_ops_per_sec", col_settle},
                              {"invariants_ok", col_ok}}));
  return out.Finish();
}

}  // namespace
}  // namespace repro::bench

int main(int argc, char** argv) { return repro::bench::Main(argc, argv); }
