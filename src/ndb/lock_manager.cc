#include "ndb/lock_manager.h"

#include <algorithm>
#include <cassert>

namespace repro::ndb {

LockManager::LockManager(Simulation& sim, Nanos wait_timeout)
    : sim_(sim), wait_timeout_(wait_timeout) {}

bool LockManager::TryGrant(Entry& entry, TxnId txn, LockMode mode) {
  assert(mode != LockMode::kReadCommitted);
  const bool want_exclusive = mode == LockMode::kExclusive;
  const bool already_holds =
      std::find(entry.holders.begin(), entry.holders.end(), txn) !=
      entry.holders.end();

  if (entry.holders.empty()) {
    entry.holders.push_back(txn);
    entry.exclusive = want_exclusive;
    return true;
  }
  if (already_holds) {
    if (!want_exclusive || entry.exclusive) return true;  // re-entrant
    if (entry.holders.size() == 1) {
      entry.exclusive = true;  // sole-holder upgrade S -> X
      return true;
    }
    return false;
  }
  if (!entry.exclusive && !want_exclusive) {
    entry.holders.push_back(txn);
    return true;
  }
  return false;
}

void LockManager::Acquire(TxnId txn, TableId table, const Key& key,
                          LockMode mode,
                          GrantCb granted) {
  // Not const: the timeout below captures a copy, and a const key member
  // would make the closure throwing-movable, which SmallFn boxes on the
  // heap instead of keeping inline.
  LockKey lk{table, key};
  Entry& entry = locks_[lk];
  if (TryGrant(entry, txn, mode)) {
    ++total_grants_;
    granted(OkStatus());
    return;
  }

  // Deadlock / starvation breaker: abandon the wait after the timeout.
  // A grant, or Clear, cancels it.
  const uint64_t waiter_id = next_waiter_id_++;
  const Simulation::Timer timer = sim_.After(wait_timeout_, [this, lk,
                                                            waiter_id] {
    auto it = locks_.find(lk);
    if (it == locks_.end()) return;
    auto& waiters = it->second.waiters;
    for (auto w = waiters.begin(); w != waiters.end(); ++w) {
      if (w->id == waiter_id) {
        auto cb = std::move(w->granted);
        waiters.erase(w);
        ++total_timeouts_;
        EraseIfIdle(lk);
        cb(TimedOut("lock wait timeout (deadlock detection)"));
        return;
      }
    }
  });
  entry.waiters.push_back(
      Waiter{waiter_id, txn, mode, std::move(granted), sim_.now(), timer});
}

void LockManager::GrantWaiters(const LockKey& lk) {
  // The granted callback may synchronously re-enter the lock manager
  // (release, acquire, even erase this entry), so no Entry reference can
  // be held across it — re-find the entry on every iteration.
  while (true) {
    auto it = locks_.find(lk);
    if (it == locks_.end() || it->second.waiters.empty()) return;
    Entry& entry = it->second;
    Waiter& w = entry.waiters.front();
    if (!TryGrant(entry, w.txn, w.mode)) return;
    ++total_grants_;
    ++total_waits_;
    total_wait_ns_ += sim_.now() - w.enqueued;
    sim_.Cancel(w.timeout);
    auto cb = std::move(w.granted);
    entry.waiters.erase(entry.waiters.begin());
    cb(OkStatus());
  }
}

void LockManager::EraseIfIdle(const LockKey& lk) {
  auto it = locks_.find(lk);
  if (it != locks_.end() && it->second.holders.empty() &&
      it->second.waiters.empty()) {
    locks_.erase(it);
  }
}

void LockManager::Release(TxnId txn, TableId table, const Key& key) {
  const LockKey lk{table, key};
  auto it = locks_.find(lk);
  if (it == locks_.end()) return;
  Entry& entry = it->second;
  auto h = std::find(entry.holders.begin(), entry.holders.end(), txn);
  if (h == entry.holders.end()) return;
  entry.holders.erase(h);
  if (entry.holders.empty()) entry.exclusive = false;
  GrantWaiters(lk);
  EraseIfIdle(lk);
}

void LockManager::Clear() {
  for (auto& [lk, entry] : locks_) {
    for (const Waiter& w : entry.waiters) sim_.Cancel(w.timeout);
  }
  locks_.clear();
}

bool LockManager::IsLocked(TableId table, const Key& key) const {
  auto it = locks_.find(LockKey{table, key});
  return it != locks_.end() && !it->second.holders.empty();
}

}  // namespace repro::ndb
