// Trace-layer tests: span nesting, sim-time monotonicity, sampling
// determinism, critical-path attribution, Chrome export, and the
// chaos+trace flight-recorder integration.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "chaos/harness.h"
#include "chaos/schedule.h"
#include "trace/chrome_trace.h"
#include "trace/critical_path.h"
#include "trace/trace.h"

namespace repro::trace {
namespace {

// A tracer driven by a hand-cranked clock (no Simulation needed).
struct Clocked {
  Nanos now = 0;
  Tracer tracer{[this] { return now; }};
  Clocked() { tracer.set_sample_every(1); }
};

TEST(Trace, NestingRecordsParentChildAndLabels) {
  Clocked c;
  const SpanId root =
      c.tracer.StartTrace("mkdir", Layer::kClient, /*host=*/3, /*az=*/0);
  ASSERT_NE(root, 0u);
  c.now = 100;
  const SpanId rpc = c.tracer.StartSpan(root, "rpc", Layer::kClient,
                                        Cause::kWork, 3, 0);
  c.now = 150;
  const SpanId net = c.tracer.StartSpan(rpc, "net.request", Layer::kClient,
                                        Cause::kNetworkInterAz, 3, 0, 1);
  c.now = 400;
  c.tracer.EndSpan(net);
  c.now = 500;
  c.tracer.EndSpan(rpc);
  c.now = 600;
  c.tracer.EndTrace(root);

  ASSERT_EQ(c.tracer.finished().size(), 1u);
  const Trace& t = c.tracer.finished().front();
  ASSERT_EQ(t.spans.size(), 3u);
  EXPECT_EQ(t.spans[0].name, "mkdir");
  EXPECT_EQ(t.spans[0].parent, 0u);
  EXPECT_EQ(t.spans[1].parent, t.spans[0].id);
  EXPECT_EQ(t.spans[2].parent, t.spans[1].id);
  EXPECT_EQ(t.spans[2].dst_az, 1);
  EXPECT_EQ(t.spans[2].cause, Cause::kNetworkInterAz);
  EXPECT_EQ(t.duration(), 600);
}

TEST(Trace, SimTimeMonotonicityAndClamping) {
  Clocked c;
  const SpanId root = c.tracer.StartTrace("op", Layer::kClient, 0, 0);
  c.now = 10;
  const SpanId a = c.tracer.StartSpan(root, "a", Layer::kNdb, Cause::kCpu,
                                      1, 1);
  c.now = 50;
  c.tracer.EndSpan(a);
  c.now = 60;
  // An attempt that never completes: left open, must clamp to the root end.
  c.tracer.StartSpan(root, "attempt", Layer::kNdb, Cause::kRetry, 1, 1);
  c.now = 90;
  c.tracer.EndTrace(root);

  const Trace& t = c.tracer.finished().front();
  for (const Span& s : t.spans) {
    EXPECT_LE(s.start, s.end) << s.name;
    EXPECT_GE(s.start, t.root().start) << s.name;
    EXPECT_LE(s.end, t.root().end) << s.name;
  }
  EXPECT_EQ(t.spans.back().end, 90);  // clamped open span

  // Late EndSpan on a finalized trace is inert (a late reply).
  c.now = 200;
  c.tracer.EndSpan(a);
  EXPECT_EQ(c.tracer.finished().front().spans[1].end, 50);
}

// A span id names its trace's serial number, and serials are never
// reused: ids of a finalized trace stay inert while a newer trace is open
// and never reach into it.
TEST(Trace, FinalizedIdsStayInertWhileANewerTraceIsOpen) {
  Clocked c;
  const SpanId old_root = c.tracer.StartTrace("old", Layer::kClient, 0, 0);
  const SpanId old_span =
      c.tracer.StartSpan(old_root, "rpc", Layer::kClient, Cause::kWork, 0, 0);
  c.now = 10;
  c.tracer.EndTrace(old_root);

  const SpanId root = c.tracer.StartTrace("new", Layer::kClient, 0, 0);
  const SpanId open =
      c.tracer.StartSpan(root, "rpc", Layer::kClient, Cause::kWork, 0, 0);
  EXPECT_NE(TraceSerial(root), TraceSerial(old_root));
  c.now = 20;
  c.tracer.EndSpan(old_span);
  c.tracer.EndSpan(old_root);
  EXPECT_EQ(c.tracer.AddSpanAt(old_span, "late", Layer::kNdb, Cause::kCpu, 0,
                               0, 20, 30),
            0u);
  c.tracer.EndTrace(old_root);
  EXPECT_EQ(c.tracer.traces_finished(), 1u);

  c.now = 40;
  c.tracer.EndTrace(root);
  ASSERT_EQ(c.tracer.finished().size(), 2u);
  const Trace& t = c.tracer.finished().back();
  ASSERT_EQ(t.spans.size(), 2u);  // nothing late joined the newer trace
  EXPECT_EQ(t.spans[1].id, open);
  EXPECT_EQ(t.spans[1].end, 40);  // still open until the root closed
  EXPECT_EQ(c.tracer.finished().front().spans[1].end, 10);
}

TEST(Trace, SamplingIsDeterministicCounterNotRng) {
  for (int run = 0; run < 2; ++run) {
    Clocked c;
    c.tracer.set_sample_every(3);
    std::vector<bool> sampled;
    for (int i = 0; i < 9; ++i) {
      const SpanId id = c.tracer.StartTrace("op", Layer::kClient, 0, 0);
      sampled.push_back(id != 0);
      if (id != 0) c.tracer.EndTrace(id);
    }
    // Exactly one in three, at fixed positions, identical across runs.
    const std::vector<bool> expect = {true, false, false, true, false,
                                      false, true, false, false};
    EXPECT_EQ(sampled, expect);
    EXPECT_EQ(c.tracer.traces_finished(), 3u);
    EXPECT_EQ(c.tracer.ops_seen(), 9u);
  }
}

TEST(Trace, DisabledTracerIsInert) {
  Clocked c;
  c.tracer.set_sample_every(0);
  const SpanId root = c.tracer.StartTrace("op", Layer::kClient, 0, 0);
  EXPECT_EQ(root, 0u);
  // Every downstream call with a zero handle is a no-op.
  EXPECT_EQ(c.tracer.StartSpan(root, "x", Layer::kNdb, Cause::kCpu, 0, 0),
            0u);
  c.tracer.EndSpan(0);
  c.tracer.EndTrace(0);
  EXPECT_TRUE(c.tracer.finished().empty());
}

TEST(CriticalPath, AttributionSumsToEndToEndLatency) {
  Clocked c;
  const SpanId root = c.tracer.StartTrace("op", Layer::kClient, 0, 0);
  // Overlapping children: [10,60] cpu and [40,120] net overlap in
  // [40,60]; [150,180] disk leaves uncovered gaps either side.
  c.tracer.AddSpanAt(root, "cpu", Layer::kNamenode, Cause::kCpu, 1, 0, 10,
                     60);
  c.tracer.AddSpanAt(root, "net", Layer::kNdb, Cause::kNetworkInterAz, 1, 0,
                     40, 120, 1);
  c.tracer.AddSpanAt(root, "disk", Layer::kNdb, Cause::kDisk, 2, 1, 150,
                     180);
  c.now = 200;
  c.tracer.EndTrace(root);

  const Trace& t = c.tracer.finished().front();
  const auto segs = CriticalPath(t);
  Nanos total = 0;
  std::map<Cause, Nanos> by_cause;
  for (const auto& s : segs) {
    EXPECT_LT(s.start, s.end);
    total += s.duration();
    by_cause[s.span->cause] += s.duration();
  }
  EXPECT_EQ(total, t.duration());
  // Overlap [40,60] goes to the covering child ending last (net).
  EXPECT_EQ(by_cause[Cause::kCpu], 30);              // [10,40]
  EXPECT_EQ(by_cause[Cause::kNetworkInterAz], 80);   // [40,120]
  EXPECT_EQ(by_cause[Cause::kDisk], 30);             // [150,180]
  EXPECT_EQ(by_cause[Cause::kWork], 60);             // [0,10]+[120,150]+[180,200]
}

TEST(CriticalPath, AggregatorAttributionMatchesMeasured) {
  Clocked c;
  BreakdownAggregator agg;
  c.tracer.set_sink([&agg](const Trace& t) { agg.Add(t); });
  for (int i = 0; i < 16; ++i) {
    const Nanos base = c.now;
    const SpanId root = c.tracer.StartTrace(i % 2 ? "stat" : "mkdir",
                                            Layer::kClient, 0, 0);
    c.tracer.AddSpanAt(root, "cpu", Layer::kNamenode, Cause::kCpu, 1, 0,
                       base + 5, base + 20 + i);
    c.now = base + 30 + i;
    c.tracer.EndTrace(root);
  }
  EXPECT_EQ(agg.traces(), 16);
  EXPECT_EQ(agg.attributed_total(), agg.measured_total());
  EXPECT_EQ(agg.per_op().size(), 2u);
}

TEST(ChromeTrace, ExportsCompleteEventsJson) {
  Clocked c;
  const SpanId root = c.tracer.StartTrace("mkdir", Layer::kClient, 7, 2);
  c.now = 1000;
  c.tracer.EndTrace(root);
  const std::string json =
      ChromeTraceJson({c.tracer.finished().begin(),
                       c.tracer.finished().end()});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("mkdir"), std::string::npos);

  // Extra events join the same array after the host metadata; with no
  // spans they are the whole array.
  const std::string extra = "{\"name\":\"z\",\"ph\":\"X\"}";
  const std::string with_extra = ChromeTraceJson(
      {c.tracer.finished().begin(), c.tracer.finished().end()}, extra);
  EXPECT_EQ(with_extra,
            json.substr(0, json.size() - 2) + "," + extra + "]}");
  EXPECT_EQ(ChromeTraceJson({}, extra), "{\"traceEvents\":[" + extra + "]}");
  EXPECT_EQ(ChromeTraceJson({}), "{\"traceEvents\":[]}");
}

// Chaos + trace integration: tracing must observe the run without
// perturbing it, and the flight recorder must dump traces when an
// invariant fires.
TEST(ChaosTraceIntegration, TracingDoesNotPerturbTheEpisode) {
  chaos::ChaosOptions opts;
  opts.seed = 11;
  opts.warmup = 500 * kMillisecond;
  opts.fault_window = 1 * kSecond;
  opts.settle = 1 * kSecond;
  opts.workload_clients = 4;
  opts.ns = {/*users=*/16, /*dirs_per_user=*/2, /*files_per_dir=*/2,
             /*zipf_theta=*/0.75};
  chaos::FaultSchedule schedule;  // fault-free: determinism is the point

  const chaos::ChaosReport off = RunChaosSchedule(opts, schedule);
  opts.trace_sample_every = 7;
  const chaos::ChaosReport on = RunChaosSchedule(opts, schedule);

  // Identical event trace and op counts: spans draw no RNG and schedule
  // no events.
  EXPECT_EQ(off.TraceString(), on.TraceString());
  EXPECT_EQ(off.completed, on.completed);
  EXPECT_EQ(off.failed, on.failed);
  EXPECT_EQ(off.acked_writes, on.acked_writes);
  EXPECT_EQ(off.traces_captured, 0);
  EXPECT_GT(on.traces_captured, 0);
  EXPECT_TRUE(on.invariants_ok());
  EXPECT_TRUE(on.trace_dump_path.empty());  // nothing fired, no dump
}

TEST(ChaosTraceIntegration, InvariantFailureDumpsFlightRecorder) {
  chaos::ChaosOptions opts;
  opts.seed = 5;
  opts.warmup = 500 * kMillisecond;
  opts.fault_window = 1 * kSecond;
  opts.settle = 1 * kSecond;
  opts.workload_clients = 4;
  opts.ns = {/*users=*/16, /*dirs_per_user=*/2, /*files_per_dir=*/2,
             /*zipf_theta=*/0.75};
  opts.enable_test_ack_loss_bug = true;  // durability invariant MUST fail
  opts.trace_sample_every = 5;
  opts.trace_dump_path = "trace_test_flight_recorder.json";
  chaos::FaultSchedule schedule;

  const chaos::ChaosReport report = RunChaosSchedule(opts, schedule);
  EXPECT_FALSE(report.invariants_ok());
  EXPECT_EQ(report.trace_dump_path, opts.trace_dump_path);

  FILE* f = std::fopen(opts.trace_dump_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(opts.trace_dump_path.c_str());
}

}  // namespace
}  // namespace repro::trace
