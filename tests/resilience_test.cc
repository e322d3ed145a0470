// Tests for the overload-protection primitives (src/resilience/) and
// their end-to-end integration: retry budget accounting, circuit-breaker
// state machine (incl. the half-open probe slot), AIMD admission limiter,
// per-hop deadline arithmetic, and deployment-level behaviour — sheds
// under overload, zero successes delivered past a deadline, and the chaos
// surge episode's invariants.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chaos/harness.h"
#include "hopsfs/deployment.h"
#include "resilience/admission.h"
#include "resilience/circuit_breaker.h"
#include "resilience/deadline.h"
#include "resilience/retry_budget.h"
#include "workload/driver.h"
#include "workload/fs_interface.h"
#include "workload/spotify.h"

namespace repro::resilience {
namespace {

// ---------------------------------------------------------------- budget

TEST(RetryBudget, AccruesFractionPerRequestAndCaps) {
  RetryBudgetConfig cfg;
  cfg.token_ratio = 0.25;  // exactly representable: 4 requests = 1 token
  cfg.max_tokens = 2.0;
  cfg.initial_tokens = 0.0;
  RetryBudget budget(cfg);
  EXPECT_FALSE(budget.Withdraw()) << "empty bucket must deny";
  EXPECT_EQ(budget.denied(), 1);

  for (int i = 0; i < 4; ++i) budget.OnRequest();
  EXPECT_DOUBLE_EQ(budget.tokens(), 1.0);
  EXPECT_TRUE(budget.Withdraw());
  EXPECT_EQ(budget.withdrawn(), 1);
  EXPECT_FALSE(budget.Withdraw()) << "only one token was earned";

  for (int i = 0; i < 1000; ++i) budget.OnRequest();
  EXPECT_DOUBLE_EQ(budget.tokens(), cfg.max_tokens) << "bucket must cap";
}

TEST(RetryBudget, InitialFillRidesOutEarlyBlip) {
  RetryBudgetConfig cfg;
  cfg.initial_tokens = 3.0;
  RetryBudget budget(cfg);
  EXPECT_TRUE(budget.Withdraw());
  EXPECT_TRUE(budget.Withdraw());
  EXPECT_TRUE(budget.Withdraw());
  EXPECT_FALSE(budget.Withdraw());
}

// --------------------------------------------------------------- breaker

TEST(CircuitBreaker, TripsOpenAfterConsecutiveFailures) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 3;
  cfg.open_interval = Millis(100);
  CircuitBreaker b(cfg);

  EXPECT_TRUE(b.CanAttempt(0));
  b.OnFailure(0);
  b.OnFailure(0);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed)
      << "below threshold stays closed";
  b.OnFailure(0);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(b.CanAttempt(Millis(50))) << "open inside the interval";
  EXPECT_TRUE(b.CanAttempt(Millis(100))) << "probe allowed after interval";
}

TEST(CircuitBreaker, SuccessResetsConsecutiveFailureCount) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 3;
  CircuitBreaker b(cfg);
  b.OnFailure(0);
  b.OnFailure(0);
  b.OnSuccess();
  b.OnFailure(0);
  b.OnFailure(0);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed)
      << "threshold counts *consecutive* failures";
}

TEST(CircuitBreaker, HalfOpenProbeSlotSemantics) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.open_interval = Millis(100);
  CircuitBreaker b(cfg);
  b.OnFailure(0);
  ASSERT_EQ(b.state(), CircuitBreaker::State::kOpen);

  // Filtering candidates must not consume the probe slot.
  EXPECT_TRUE(b.CanAttempt(Millis(150)));
  EXPECT_TRUE(b.CanAttempt(Millis(150)));
  ASSERT_EQ(b.state(), CircuitBreaker::State::kOpen);

  // Committing does: exactly one probe is admitted.
  b.OnPicked(Millis(150));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(b.CanAttempt(Millis(151))) << "probe already in flight";

  // Probe success closes the breaker.
  b.OnSuccess();
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(b.CanAttempt(Millis(152)));
}

TEST(CircuitBreaker, FailedProbeReopensWithIntervalRearmed) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.open_interval = Millis(100);
  CircuitBreaker b(cfg);
  b.OnFailure(0);
  b.OnPicked(Millis(100));
  ASSERT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);
  b.OnFailure(Millis(120));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(b.CanAttempt(Millis(219))) << "interval restarts at re-open";
  EXPECT_TRUE(b.CanAttempt(Millis(220)));
  EXPECT_GE(b.transitions(), 3) << "closed->open->half-open->open";
}

// -------------------------------------------------------------- admission

TEST(AimdLimiter, ShedsAtTheLimitAndReleasesSlots) {
  AimdLimiterConfig cfg;
  cfg.min_limit = 1;
  cfg.initial_limit = 2;
  cfg.max_limit = 4;
  AimdLimiter limiter(cfg);
  EXPECT_TRUE(limiter.TryAcquire());
  EXPECT_TRUE(limiter.TryAcquire());
  EXPECT_FALSE(limiter.TryAcquire()) << "third op exceeds limit 2";
  EXPECT_EQ(limiter.shed(), 1);
  limiter.Release(/*latency=*/0, /*now=*/0);
  EXPECT_TRUE(limiter.TryAcquire()) << "released slot is reusable";
}

TEST(AimdLimiter, FastCompletionsGrowAdditively) {
  AimdLimiterConfig cfg;
  cfg.min_limit = 1;
  cfg.initial_limit = 2;
  cfg.max_limit = 8;
  cfg.latency_target = Millis(10);
  cfg.increase_per_ok = 0.5;
  AimdLimiter limiter(cfg);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(limiter.TryAcquire());
    limiter.Release(Millis(1), /*now=*/i);
  }
  EXPECT_EQ(limiter.limit(), 4) << "2 + 4 * 0.5";
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(limiter.TryAcquire());
    limiter.Release(Millis(1), /*now=*/i);
  }
  EXPECT_EQ(limiter.limit(), cfg.max_limit) << "growth is bounded";
}

TEST(AimdLimiter, SlowCompletionsShrinkMultiplicativelyWithCooldown) {
  AimdLimiterConfig cfg;
  cfg.min_limit = 2;
  cfg.initial_limit = 100;
  cfg.max_limit = 200;
  cfg.latency_target = Millis(10);
  cfg.backoff_ratio = 0.5;
  cfg.decrease_cooldown = Millis(100);
  AimdLimiter limiter(cfg);

  ASSERT_TRUE(limiter.TryAcquire());
  limiter.Release(Millis(50), /*now=*/0);
  EXPECT_EQ(limiter.limit(), 50);

  // Inside the cooldown a second slow completion must not decrease again.
  ASSERT_TRUE(limiter.TryAcquire());
  limiter.Release(Millis(50), Millis(50));
  EXPECT_EQ(limiter.limit(), 50);

  // Past the cooldown it does, and the floor holds.
  for (Nanos t = Millis(100); t < Millis(2000); t += Millis(100)) {
    ASSERT_TRUE(limiter.TryAcquire());
    limiter.Release(Millis(50), t);
  }
  EXPECT_EQ(limiter.limit(), cfg.min_limit);
}

TEST(AimdLimiter, DisabledControllerKeepsStaticLimit) {
  AimdLimiterConfig cfg;
  cfg.min_limit = 1;
  cfg.initial_limit = 3;
  cfg.max_limit = 10;
  cfg.latency_target = 0;  // controller off: pure static limit
  AimdLimiter limiter(cfg);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(limiter.TryAcquire());
    limiter.Release(kSecond, /*now=*/i);
  }
  EXPECT_EQ(limiter.limit(), 3);
}

// --------------------------------------------------------------- deadline

TEST(Deadline, RemainingAndClampArithmetic) {
  EXPECT_FALSE(HasDeadline(kNoDeadline));
  EXPECT_FALSE(DeadlineExpired(kNoDeadline, kSecond));
  EXPECT_TRUE(DeadlineExpired(Millis(10), Millis(10)))
      << "deadline instant counts as expired";
  EXPECT_EQ(DeadlineRemaining(kNoDeadline, 123), INT64_MAX);
  EXPECT_EQ(DeadlineRemaining(Millis(10), Millis(4)), Millis(6));
  EXPECT_EQ(DeadlineRemaining(Millis(10), Millis(40)), 0);
  EXPECT_EQ(ClampToDeadline(kSecond, Millis(10), Millis(4)), Millis(6));
  EXPECT_EQ(ClampToDeadline(Millis(2), Millis(10), Millis(4)), Millis(2));
  EXPECT_EQ(ClampToDeadline(kSecond, kNoDeadline, 0), kSecond);
}

TEST(Deadline, RetryBackoffCapsAndClamps) {
  const Nanos base = Millis(10);
  // Exponent grows with attempt then saturates at exp_cap.
  EXPECT_EQ(RetryBackoff(base, 1, 4, 0, 0, kNoDeadline, 0), base);
  EXPECT_EQ(RetryBackoff(base, 3, 4, 0, 0, kNoDeadline, 0), 4 * base);
  EXPECT_EQ(RetryBackoff(base, 10, 4, 0, 0, kNoDeadline, 0), 16 * base);
  EXPECT_EQ(RetryBackoff(base, 20, 6, 0, 0, kNoDeadline, 0), 64 * base);
  // Absolute ceiling.
  EXPECT_EQ(RetryBackoff(base, 10, 4, Millis(25), 0, kNoDeadline, 0),
            Millis(25));
  // Jitter adds before the caps apply.
  EXPECT_EQ(RetryBackoff(base, 1, 4, 0, Millis(3), kNoDeadline, 0),
            Millis(13));
  // Remaining deadline clamps everything; exhausted budget returns 0.
  EXPECT_EQ(RetryBackoff(base, 10, 4, 0, 0, Millis(100), Millis(95)),
            Millis(5));
  EXPECT_EQ(RetryBackoff(base, 1, 4, 0, 0, Millis(100), Millis(100)), 0);
}

// ------------------------------------------------------------ integration

// Overload a tiny deployment through the open-loop driver: admission must
// shed (OVERLOADED reaches the driver), tight deadlines must produce
// DEADLINE_EXCEEDED failures, and no client may ever deliver a success
// past its deadline.
TEST(ResilienceIntegration, OverloadShedsAndNeverCompletesPastDeadline) {
  Simulation sim(7);
  auto dopts = hopsfs::DeploymentOptions::FromPaperSetup(
      hopsfs::PaperSetup::kHopsFsCl_3_3, /*num_namenodes=*/2);
  // Force admission to bite at tiny concurrency and deadlines to bite at
  // millisecond scale.
  dopts.nn.admission_min_limit = 2;
  dopts.nn.admission_initial_limit = 2;
  dopts.nn.admission_max_limit = 2;
  dopts.client.op_deadline = 40 * kMillisecond;
  dopts.client.retry_budget.initial_tokens = 2.0;
  hopsfs::Deployment dep(sim, dopts);
  dep.Start();

  workload::NamespaceConfig ns{/*users=*/8, /*dirs_per_user=*/2,
                               /*files_per_dir=*/2, /*zipf_theta=*/0.75};
  workload::SpotifyWorkload wl(ns, 7);
  dep.BootstrapNamespace(wl.all_dirs(), wl.all_files());
  std::vector<std::unique_ptr<workload::HopsFsTarget>> targets;
  std::vector<workload::FsTarget*> ptrs;
  for (int i = 0; i < 8; ++i) {
    targets.push_back(
        std::make_unique<workload::HopsFsTarget>(dep.AddClient()));
    ptrs.push_back(targets.back().get());
  }
  sim.RunFor(1 * kSecond);

  workload::OpenLoopDriver driver(
      sim, ptrs, [&wl](Rng& rng, std::vector<std::string>& owned) {
        return wl.Next(rng, owned);
      });
  auto res = driver.Run(/*ops_per_sec=*/4000, /*warmup=*/500 * kMillisecond,
                        /*measure=*/2 * kSecond);

  EXPECT_GT(res.issued, 0);
  EXPECT_GT(res.completed, 0) << "overload must not starve everyone";
  EXPECT_GT(res.sheds(), 0) << "a 2-slot limit at 4k ops/s must shed";
  for (const auto& client : dep.clients()) {
    EXPECT_EQ(client->post_deadline_successes(), 0)
        << "no success may be delivered after its deadline passed";
  }
  const auto snapshot = dep.metrics().Snapshot();
  int64_t nn_sheds = 0;
  for (const auto& [name, value] : snapshot) {
    if (name == "hopsfs.nn.admission_shed") nn_sheds = value;
  }
  EXPECT_GT(nn_sheds, 0) << "shed counter must be wired through metrics";
}

// Chaos episode with an open-loop surge: the harness must emit the
// surge-goodput and deadlines invariants and both must hold on a healthy
// build.
TEST(ResilienceIntegration, ChaosSurgeEpisodeInvariantsHold) {
  chaos::ChaosOptions opts;
  opts.seed = 321;
  opts.deployment.num_namenodes = 3;
  opts.deployment.block_datanodes = 0;
  opts.workload_clients = 4;
  opts.ns = workload::NamespaceConfig{/*users=*/16, /*dirs_per_user=*/2,
                                      /*files_per_dir=*/2,
                                      /*zipf_theta=*/0.75};
  opts.warmup = 1 * kSecond;
  opts.fault_window = 3 * kSecond;
  opts.settle = 2 * kSecond;

  chaos::FaultSchedule schedule;
  schedule.Add({opts.warmup + 200 * kMillisecond,
                chaos::FaultType::kOpenLoopSurge, 3000, -1, 1.0});
  schedule.Add({opts.warmup + 2500 * kMillisecond,
                chaos::FaultType::kOpenLoopSurgeStop, -1, -1, 1.0});

  chaos::ChaosReport report = chaos::RunChaosSchedule(opts, schedule);
  bool saw_deadlines = false;
  bool saw_surge = false;
  for (const auto& inv : report.invariants) {
    if (inv.name == "deadlines") saw_deadlines = true;
    if (inv.name == "surge-goodput") saw_surge = true;
    EXPECT_TRUE(inv.ok) << inv.name << ": " << inv.detail;
  }
  EXPECT_TRUE(saw_deadlines);
  EXPECT_TRUE(saw_surge);
}

}  // namespace
}  // namespace repro::resilience
