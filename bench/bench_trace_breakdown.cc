// Critical-path latency breakdown: a Fig. 8/9-style HopsFS-CL run with
// full-rate tracing, decomposed by the span-tree analyzer.
//
// Every operation is sampled (sample_every=1), streamed through the
// BreakdownAggregator, and the report prints the top critical-path
// contributors per op type plus the per-AZ-pair network-hop table — the
// "where did the p99 go?" instrument the perf PRs build on.
//
// Invariants checked (exit status is non-zero on failure):
//   * attribution: critical-path segment durations sum to the measured
//     end-to-end latency within 1% (they are exact by construction; the
//     1% bound guards aggregation bugs);
//   * Table I consistency: every inter-AZ hop takes at least the
//     topology's one-way inter-AZ latency, and inter-AZ hops are slower
//     than intra-AZ hops on average.
//
// Quick scale runs 3 NNs with 16 clients each; REPRO_FULL=1 runs 6 NNs at
// the full-scale client defaults (bench_report.h has the contract).
// Artifacts: a sampled Chrome-trace (chrome://tracing / Perfetto) JSON at
// $REPRO_CSV_DIR/trace_breakdown.json, and BENCH_trace_breakdown.json.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "metrics/timeseries.h"
#include "trace/chrome_trace.h"
#include "trace/critical_path.h"
#include "util/file.h"
#include "util/strings.h"

namespace repro::bench {
namespace {

int Main(int argc, char** argv) {
  RejectArguments(argc, argv);
  PrintHeader("Critical-path latency breakdown (HopsFS-CL, 3 AZs)",
              "Fig. 8/9 decomposition");
  Report report("trace_breakdown");
  const bool full = FullScale();

  trace::BreakdownAggregator agg;
  std::vector<trace::Trace> kept;  // first traces, exported as Chrome JSON
  const size_t keep = full ? 64 : 32;

  RunConfig cfg;
  cfg.setup = hopsfs::PaperSetup::kHopsFsCl_3_3;
  cfg.num_namenodes = full ? 6 : 3;
  cfg.seed = 42;  // pinned: the acceptance numbers reference this run
  if (!full) {
    cfg.clients_per_nn = 16;
    cfg.warmup = 100 * kMillisecond;
    cfg.measure = 400 * kMillisecond;
  }
  cfg.sim_setup = [&](Simulation& sim) {
    sim.tracer().set_sample_every(1);
    sim.tracer().set_keep_last(0);  // the sink below does the retention
    sim.tracer().set_sink([&agg, &kept, keep](const trace::Trace& t) {
      agg.Add(t);
      if (kept.size() < keep) kept.push_back(t);
    });
  };

  const auto out = RunHopsFsWorkload(cfg);
  std::printf("\nworkload: %.0f ops/s, mean %.2f ms, %lld traces\n",
              out.results.ops_per_sec(), out.results.all.MeanMillis(),
              static_cast<long long>(agg.traces()));
  report.Value("workload.ops_per_s", out.results.ops_per_sec());
  report.Value("workload.mean_ms", out.results.all.MeanMillis());
  report.Value("traces", static_cast<double>(agg.traces()));

  std::printf("\n%s\n", agg.Report().c_str());

  // Attribution invariant: per-trace critical-path segments partition the
  // root interval, so the totals must match (1% tolerance).
  const double measured = static_cast<double>(agg.measured_total());
  const double attributed = static_cast<double>(agg.attributed_total());
  const double rel_err =
      measured > 0 ? std::abs(attributed - measured) / measured : 1.0;
  std::printf("attribution: %.3f ms attributed vs %.3f ms measured "
              "(rel err %.4f%%) -> %s\n",
              attributed / 1e6, measured / 1e6, 100.0 * rel_err,
              rel_err <= 0.01 ? "OK" : "FAIL");
  report.Value("attribution.rel_err", rel_err);
  report.Check(agg.traces() > 0 && rel_err <= 0.01,
               "critical-path segments sum to the measured latency (1%)");

  // Table I consistency: inter-AZ hops are bounded below by the one-way
  // inter-AZ latency and sit above intra-AZ hops.
  const AzLatencyTable table = AzLatencyTable::UsWest1();
  double intra_mean_sum = 0, inter_mean_sum = 0;
  int intra_pairs = 0, inter_pairs = 0;
  bool floors_ok = true;
  std::printf("\nAZ-pair network hops (mean ms; Table I one-way floor):\n");
  for (const auto& [pair, hist] : agg.az_pair_net()) {
    const auto [src, dst] = pair;
    if (src < 0 || dst < 0 || hist.count() == 0) continue;
    const double mean_ns =
        static_cast<double>(hist.sum()) / static_cast<double>(hist.count());
    const double mean_ms = mean_ns / 1e6;
    const double floor_ms =
        static_cast<double>(table.one_way[src][dst]) / 1e6;
    const bool inter = src != dst;
    const bool ok = mean_ns >= static_cast<double>(table.one_way[src][dst]);
    std::printf("  az%d -> az%d: %8.3f ms over %7lld hops (floor %.3f) %s\n",
                src, dst, mean_ms, static_cast<long long>(hist.count()),
                floor_ms, ok ? "" : "BELOW FLOOR");
    report.Value(StrFormat("net.az%d_az%d.mean_ms", src, dst), mean_ms);
    floors_ok = floors_ok && (ok || !inter);
    if (inter) {
      inter_mean_sum += mean_ms;
      ++inter_pairs;
    } else {
      intra_mean_sum += mean_ms;
      ++intra_pairs;
    }
  }
  report.Check(floors_ok, "every inter-AZ hop mean at or above its floor");
  report.Check(inter_pairs > 0, "inter-AZ hops observed");
  report.Check(inter_pairs == 0 || intra_pairs == 0 ||
                   inter_mean_sum / inter_pairs > intra_mean_sum / intra_pairs,
               "inter-AZ hops slower than intra-AZ hops on average");

  const std::string json_path =
      metrics::CsvDir() + "/trace_breakdown.json";
  if (report.Check(WriteFile(json_path, trace::ChromeTraceJson(kept)),
                   "sampled Chrome trace written")) {
    std::printf("\nwrote %zu sampled traces to %s\n", kept.size(),
                json_path.c_str());
  }
  return report.Finish();
}

}  // namespace
}  // namespace repro::bench

int main(int argc, char** argv) { return repro::bench::Main(argc, argv); }
