// Direct unit tests for the strict-2PL row lock manager.
#include <gtest/gtest.h>

#include <vector>

#include "ndb/lock_manager.h"
#include "prof/profiler.h"
#include "util/strings.h"

namespace repro::ndb {
namespace {

struct LockRig {
  LockRig() : sim(1), locks(sim, /*wait_timeout=*/Millis(100)) {}

  // Convenience: acquire and record the outcome.
  void Acquire(TxnId txn, const Key& key, LockMode mode, Code* out) {
    *out = Code::kInternal;
    locks.Acquire(txn, 0, key, mode, [out](Status s) { *out = s.code(); });
  }

  Simulation sim;
  LockManager locks;
};

TEST(LockManager, ExclusiveExcludesEverything) {
  LockRig rig;
  Code a, b, c;
  rig.Acquire(1, "k", LockMode::kExclusive, &a);
  EXPECT_EQ(a, Code::kOk);
  rig.Acquire(2, "k", LockMode::kExclusive, &b);
  rig.Acquire(3, "k", LockMode::kShared, &c);
  EXPECT_EQ(b, Code::kInternal);  // still waiting
  EXPECT_EQ(c, Code::kInternal);
  rig.locks.Release(1, 0, "k");
  EXPECT_EQ(b, Code::kOk) << "FIFO: the exclusive waiter goes first";
  EXPECT_EQ(c, Code::kInternal);
  rig.locks.Release(2, 0, "k");
  EXPECT_EQ(c, Code::kOk);
}

TEST(LockManager, SharedHoldersCoexistAndBlockExclusive) {
  LockRig rig;
  Code a, b, x;
  rig.Acquire(1, "k", LockMode::kShared, &a);
  rig.Acquire(2, "k", LockMode::kShared, &b);
  EXPECT_EQ(a, Code::kOk);
  EXPECT_EQ(b, Code::kOk);
  rig.Acquire(3, "k", LockMode::kExclusive, &x);
  EXPECT_EQ(x, Code::kInternal);
  rig.locks.Release(1, 0, "k");
  EXPECT_EQ(x, Code::kInternal) << "one shared holder remains";
  rig.locks.Release(2, 0, "k");
  EXPECT_EQ(x, Code::kOk);
}

TEST(LockManager, SoleSharedHolderUpgradesInPlace) {
  LockRig rig;
  Code s, x;
  rig.Acquire(1, "k", LockMode::kShared, &s);
  rig.Acquire(1, "k", LockMode::kExclusive, &x);
  EXPECT_EQ(x, Code::kOk) << "sole holder may upgrade S -> X";
  // A second shared request must now wait.
  Code other;
  rig.Acquire(2, "k", LockMode::kShared, &other);
  EXPECT_EQ(other, Code::kInternal);
}

TEST(LockManager, ReentrantAcquireSucceeds) {
  LockRig rig;
  Code a, again;
  rig.Acquire(1, "k", LockMode::kExclusive, &a);
  rig.Acquire(1, "k", LockMode::kExclusive, &again);
  EXPECT_EQ(again, Code::kOk);
  // One release is enough in this model (no hold counting).
  rig.locks.Release(1, 0, "k");
  EXPECT_FALSE(rig.locks.IsLocked(0, "k"));
}

TEST(LockManager, GrantCancelsTheWaitTimeout) {
  LockRig rig;
  Code a, b;
  rig.Acquire(1, "k", LockMode::kExclusive, &a);
  rig.Acquire(2, "k", LockMode::kExclusive, &b);
  EXPECT_EQ(rig.sim.pending(), 1u);
  rig.locks.Release(1, 0, "k");
  EXPECT_EQ(b, Code::kOk);
  EXPECT_EQ(rig.sim.pending(), 0u) << "a granted waiter leaves no timer";
  rig.sim.Run();
  EXPECT_EQ(rig.sim.events_processed(), 0u);
}

TEST(LockManager, WaiterTimesOut) {
  LockRig rig;
  Code a, b;
  rig.Acquire(1, "k", LockMode::kExclusive, &a);
  rig.Acquire(2, "k", LockMode::kExclusive, &b);
  rig.sim.RunFor(Millis(200));
  EXPECT_EQ(b, Code::kTimedOut);
  EXPECT_EQ(rig.locks.total_timeouts(), 1);
  // The holder is unaffected.
  EXPECT_TRUE(rig.locks.IsLocked(0, "k"));
}

TEST(LockManager, ClearDropsHoldersAndWaitersSilently) {
  LockRig rig;
  Code a, b, waiting;
  rig.Acquire(1, "x", LockMode::kExclusive, &a);
  rig.Acquire(2, "y", LockMode::kShared, &b);
  rig.Acquire(3, "x", LockMode::kExclusive, &waiting);  // queued behind 1
  EXPECT_EQ(rig.sim.pending(), 1u) << "the waiter's timeout";
  rig.locks.Clear();
  EXPECT_EQ(rig.sim.pending(), 0u) << "Clear cancels the waiter's timeout";
  EXPECT_FALSE(rig.locks.IsLocked(0, "x"));
  EXPECT_FALSE(rig.locks.IsLocked(0, "y"));
  // A new holder of "x" outlives the forgotten waiter's timeout, which
  // neither fires its callback nor counts as a timeout.
  Code fresh;
  rig.Acquire(4, "x", LockMode::kExclusive, &fresh);
  EXPECT_EQ(fresh, Code::kOk);
  rig.sim.RunFor(Millis(300));
  EXPECT_EQ(waiting, Code::kInternal) << "a cleared waiter must never fire";
  EXPECT_EQ(rig.locks.total_timeouts(), 0);
  EXPECT_TRUE(rig.locks.IsLocked(0, "x"));
}

TEST(LockManager, DistinctKeysAreIndependent) {
  LockRig rig;
  Code a, b;
  rig.Acquire(1, "k1", LockMode::kExclusive, &a);
  rig.Acquire(2, "k2", LockMode::kExclusive, &b);
  EXPECT_EQ(a, Code::kOk);
  EXPECT_EQ(b, Code::kOk);
}

TEST(LockManager, FifoOrderAmongWaiters) {
  LockRig rig;
  Code a, w1, w2;
  rig.Acquire(1, "k", LockMode::kExclusive, &a);
  rig.Acquire(2, "k", LockMode::kExclusive, &w1);
  rig.Acquire(3, "k", LockMode::kExclusive, &w2);
  rig.locks.Release(1, 0, "k");
  EXPECT_EQ(w1, Code::kOk);
  EXPECT_EQ(w2, Code::kInternal);
  rig.locks.Release(2, 0, "k");
  EXPECT_EQ(w2, Code::kOk);
}

TEST(LockManager, FifoGrantStopsAtTheFirstIncompatibleWaiter) {
  LockRig rig;
  Code x1, s2, s3, x4, s5;
  rig.Acquire(1, "k", LockMode::kExclusive, &x1);
  rig.Acquire(2, "k", LockMode::kShared, &s2);
  rig.Acquire(3, "k", LockMode::kShared, &s3);
  rig.Acquire(4, "k", LockMode::kExclusive, &x4);
  rig.Acquire(5, "k", LockMode::kShared, &s5);
  rig.locks.Release(1, 0, "k");
  EXPECT_EQ(s2, Code::kOk);
  EXPECT_EQ(s3, Code::kOk) << "consecutive shared waiters are granted together";
  EXPECT_EQ(x4, Code::kInternal);
  EXPECT_EQ(s5, Code::kInternal)
      << "a shared waiter behind a blocked exclusive one keeps its place";
  rig.locks.Release(2, 0, "k");
  EXPECT_EQ(x4, Code::kInternal) << "one shared holder remains";
  rig.locks.Release(3, 0, "k");
  EXPECT_EQ(x4, Code::kOk);
  EXPECT_EQ(s5, Code::kInternal);
  rig.locks.Release(4, 0, "k");
  EXPECT_EQ(s5, Code::kOk);
  EXPECT_EQ(rig.locks.total_waits(), 4);
  EXPECT_EQ(rig.locks.total_grants(), 5);
}

TEST(LockManager, UpgradeWaitsForTheOtherSharedHolderThenJumpsNoQueue) {
  LockRig rig;
  Code s1, s2, up, x3;
  rig.Acquire(1, "k", LockMode::kShared, &s1);
  rig.Acquire(2, "k", LockMode::kShared, &s2);
  rig.Acquire(1, "k", LockMode::kExclusive, &up);
  EXPECT_EQ(up, Code::kInternal) << "two shared holders: no upgrade yet";
  rig.Acquire(3, "k", LockMode::kExclusive, &x3);
  rig.locks.Release(2, 0, "k");
  EXPECT_EQ(up, Code::kOk) << "now the sole holder, txn 1 upgrades";
  EXPECT_EQ(x3, Code::kInternal);
  rig.locks.Release(1, 0, "k");
  EXPECT_EQ(x3, Code::kOk);
}

TEST(LockManager, ReentrantSharedAcquireHoldsOnce) {
  LockRig rig;
  Code x, s, s_again;
  rig.Acquire(1, "k", LockMode::kExclusive, &x);
  rig.Acquire(1, "k", LockMode::kShared, &s);
  EXPECT_EQ(s, Code::kOk) << "an exclusive holder may also read shared";
  rig.locks.Release(1, 0, "k");
  EXPECT_FALSE(rig.locks.IsLocked(0, "k"));
  rig.Acquire(2, "k", LockMode::kShared, &s);
  rig.Acquire(2, "k", LockMode::kShared, &s_again);
  EXPECT_EQ(s_again, Code::kOk);
  rig.locks.Release(2, 0, "k");
  EXPECT_FALSE(rig.locks.IsLocked(0, "k")) << "no hold counting for shared";
}

// With one timeout for every waiter, the oldest waiter always times out
// first; the waiters queued behind it must keep their order and be
// granted as before.
TEST(LockManager, TimedOutWaiterLeavesTheRestOfTheQueueInOrder) {
  LockRig rig;
  Code x1, w2, w3, w4;
  rig.Acquire(1, "k", LockMode::kExclusive, &x1);
  rig.Acquire(2, "k", LockMode::kExclusive, &w2);
  rig.sim.RunFor(Millis(30));
  rig.Acquire(3, "k", LockMode::kExclusive, &w3);
  rig.sim.RunFor(Millis(30));
  rig.Acquire(4, "k", LockMode::kExclusive, &w4);
  rig.sim.RunFor(Millis(45));  // t = 105 ms: only txn 2 has waited 100 ms
  EXPECT_EQ(w2, Code::kTimedOut);
  EXPECT_EQ(w3, Code::kInternal);
  EXPECT_EQ(w4, Code::kInternal);
  rig.locks.Release(1, 0, "k");
  EXPECT_EQ(w3, Code::kOk);
  EXPECT_EQ(w4, Code::kInternal);
  rig.locks.Release(3, 0, "k");
  EXPECT_EQ(w4, Code::kOk);
  rig.sim.RunFor(Millis(200));
  EXPECT_EQ(rig.locks.total_timeouts(), 1);
  EXPECT_TRUE(rig.locks.IsLocked(0, "k"));
}

TEST(LockManager, GrantCallbackMayReenterTheSameKey) {
  LockRig rig;
  Code x1, x3, x5 = Code::kInternal;
  rig.Acquire(1, "k", LockMode::kExclusive, &x1);
  // Txn 2's grant releases its lock at once and queues txn 5 on the same
  // row, all from inside the grant.
  Code x2 = Code::kInternal;
  rig.locks.Acquire(2, 0, "k", LockMode::kExclusive, [&](Status s) {
    x2 = s.code();
    rig.locks.Release(2, 0, "k");
    rig.locks.Acquire(5, 0, "k", LockMode::kExclusive,
                      [&](Status s5) { x5 = s5.code(); });
  });
  rig.Acquire(3, "k", LockMode::kExclusive, &x3);
  rig.locks.Release(1, 0, "k");
  EXPECT_EQ(x2, Code::kOk);
  EXPECT_EQ(x3, Code::kOk) << "txn 2's release granted the next waiter";
  EXPECT_EQ(x5, Code::kInternal) << "txn 5 queued behind txn 3";
  rig.locks.Release(3, 0, "k");
  EXPECT_EQ(x5, Code::kOk);
  rig.locks.Release(5, 0, "k");
  EXPECT_FALSE(rig.locks.IsLocked(0, "k"));
}

TEST(LockManager, ClearThenChurnOverManyDistinctKeys) {
  LockRig rig;
  Code c;
  for (int i = 0; i < 100; ++i) {
    rig.Acquire(1, StrFormat("pre/%d", i), LockMode::kExclusive, &c);
  }
  rig.locks.Clear();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rig.locks.IsLocked(0, StrFormat("pre/%d", i)));
  }
  // 10k distinct rows: each locked, contended once, released.
  for (int i = 0; i < 10000; ++i) {
    const Key key = StrFormat("row/%05d/with-a-long-name", i);
    Code first, second;
    rig.Acquire(10 + i, key, LockMode::kExclusive, &first);
    rig.Acquire(20000 + i, key, LockMode::kShared, &second);
    ASSERT_EQ(first, Code::kOk);
    ASSERT_EQ(second, Code::kInternal);
    rig.locks.Release(10 + i, 0, key);
    ASSERT_EQ(second, Code::kOk);
    rig.locks.Release(20000 + i, 0, key);
    ASSERT_FALSE(rig.locks.IsLocked(0, key));
  }
  EXPECT_EQ(rig.sim.pending(), 0u) << "each grant cancels its wait timer";
  rig.sim.RunFor(Millis(200));
  EXPECT_EQ(rig.locks.total_timeouts(), 0);
  EXPECT_EQ(rig.locks.total_waits(), 10000);
}

// Steady state: the table, its entries and their holder/waiter lists
// reuse pooled memory, so locking recycled rows allocates nothing.
TEST(LockManager, RecycledKeysAllocateNothingOnceWarm) {
  LockRig rig;
  std::vector<Key> keys;
  for (int i = 0; i < 64; ++i) keys.push_back(StrFormat("%d/f", i));
  Code first, second;
  const auto round = [&] {
    for (TxnId t = 1; t <= keys.size(); ++t) {
      const Key& key = keys[t - 1];
      rig.locks.Acquire(t, 0, key, LockMode::kExclusive,
                        [&](Status s) { first = s.code(); });
      rig.locks.Acquire(t + 1000, 0, key, LockMode::kShared,
                        [&](Status s) { second = s.code(); });
      rig.locks.Acquire(t + 2000, 0, key, LockMode::kShared,
                        [&](Status s) { second = s.code(); });
      rig.locks.Release(t, 0, key);
      rig.locks.Release(t + 1000, 0, key);
      rig.locks.Release(t + 2000, 0, key);
    }
    rig.sim.RunFor(Millis(150));  // drain the waiters' timers
  };
  for (int i = 0; i < 4; ++i) round();
  prof::SetAllocCounting(true);
  const uint64_t before = prof::TotalAllocs().count;
  for (int i = 0; i < 8; ++i) round();
  const uint64_t allocs = prof::TotalAllocs().count - before;
  prof::SetAllocCounting(false);
  EXPECT_EQ(allocs, 0u) << "8 warm rounds of lock churn allocated";
  EXPECT_EQ(first, Code::kOk);
  EXPECT_EQ(second, Code::kOk);
}

}  // namespace
}  // namespace repro::ndb
