// Row-level lock table (strict two-phase locking, §II-B2).
//
// Locks are only ever taken on the primary replica first (NDB's deadlock-
// avoidance ordering); backups are locked implicitly by the prepare chain.
// Shared locks coexist; exclusive locks are exclusive; a sole shared
// holder may upgrade in place. Waiters are granted FIFO and time out after
// TransactionDeadlockDetectionTimeout, which breaks deadlocks by aborting
// one transaction — the aborted file-system operation is retried by the
// client (HopsFS's backpressure mechanism).
#pragma once

#include <cstdint>
#include <functional>
#include <memory_resource>
#include <unordered_map>
#include <vector>

#include "ndb/types.h"
#include "sim/callback.h"
#include "sim/engine.h"
#include "util/status.h"

namespace repro::ndb {

class LockManager {
 public:
  LockManager(Simulation& sim, Nanos wait_timeout);

  // Move-only, so a grant continuation can own its signal record.
  using GrantCb = SmallCall<void(Status)>;

  // Grants the lock now or later via `granted`; on timeout `granted` is
  // invoked with kTimedOut and the request is dropped. `key` is copied
  // before `granted` can run, so it may point into state `granted` owns.
  void Acquire(TxnId txn, TableId table, const Key& key, LockMode mode,
               GrantCb granted);

  // Releases one row lock held by txn (no-op if not held).
  void Release(TxnId txn, TableId table, const Key& key);

  // Crash: forgets every holder and waiter without running a callback,
  // and cancels the waiters' timeouts.
  void Clear();

  bool IsLocked(TableId table, const Key& key) const;
  int64_t total_grants() const { return total_grants_; }
  int64_t total_timeouts() const { return total_timeouts_; }
  int64_t total_waits() const { return total_waits_; }   // granted after queueing
  Nanos total_wait_ns() const { return total_wait_ns_; }

 private:
  struct LockKey {
    TableId table;
    Key key;
    bool operator==(const LockKey&) const = default;
  };
  struct LockKeyHash {
    size_t operator()(const LockKey& k) const {
      return std::hash<std::string>{}(k.key) * 31 +
             std::hash<int>{}(k.table);
    }
  };
  struct Waiter {
    uint64_t id;
    TxnId txn;
    LockMode mode;
    GrantCb granted;
    Nanos enqueued = 0;
    Simulation::Timer timeout;  // cancelled by a grant or Clear
  };
  // Allocator-aware: its lists draw from the table's pool (pool_).
  struct Entry {
    using allocator_type = std::pmr::polymorphic_allocator<>;
    explicit Entry(const allocator_type& alloc)
        : holders(alloc), waiters(alloc) {}

    // Holders: multiple for shared, one for exclusive.
    std::pmr::vector<TxnId> holders;
    bool exclusive = false;
    std::pmr::vector<Waiter> waiters;  // FIFO: granted from the front
  };

  void GrantWaiters(const LockKey& lk);
  bool TryGrant(Entry& entry, TxnId txn, LockMode mode);
  void EraseIfIdle(const LockKey& lk);

  Simulation& sim_;
  Nanos wait_timeout_;
  uint64_t next_waiter_id_ = 1;
  // Row locks. Entries and their lists come from this table's own pool,
  // so lock churn on recycled rows allocates nothing once it is warm.
  std::pmr::unsynchronized_pool_resource pool_;
  std::pmr::unordered_map<LockKey, Entry, LockKeyHash> locks_{&pool_};
  int64_t total_grants_ = 0;
  int64_t total_timeouts_ = 0;
  int64_t total_waits_ = 0;
  Nanos total_wait_ns_ = 0;
};

}  // namespace repro::ndb
