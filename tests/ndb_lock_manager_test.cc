// Direct unit tests for the strict-2PL row lock manager.
#include <gtest/gtest.h>

#include "ndb/lock_manager.h"

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
  rig.locks.Clear();
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

}  // namespace
}  // namespace repro::ndb
