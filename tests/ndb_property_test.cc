// Property-based tests of the NDB substrate, parameterised over cluster
// shapes and feature flags: after an arbitrary mix of concurrent
// transactions (with conflicts, aborts, and optionally a node failure),
// the storage must reach a clean, convergent state:
//   P1. all alive replicas of every row hold identical committed values,
//   P2. no row locks remain held,
//   P3. no pending (uncommitted) versions remain,
//   P4. the final committed value of each key is the value of some
//       acknowledged-committed write to that key (no invented data).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "ndb_test_util.h"
#include "util/strings.h"

namespace repro::ndb {
namespace {

struct PropParam {
  int datanodes;
  int replication;
  bool az_aware;
  bool read_backup;
  bool kill_a_node;
  uint64_t seed;
};

class NdbPropertyTest : public ::testing::TestWithParam<PropParam> {};

TEST_P(NdbPropertyTest, RandomTransactionsConverge) {
  const auto p = GetParam();
  testing::TestCluster tc(p.datanodes, p.replication, p.az_aware,
                          p.read_backup);
  tc.cluster->StartProtocols();
  Rng rng(p.seed);

  constexpr int kKeys = 12;
  constexpr int kClients = 8;
  constexpr int kOpsPerClient = 30;
  auto key_of = [](int k) { return StrFormat("%d/k", k); };

  // Acknowledged committed values per key (what P4 checks against).
  auto acked = std::make_shared<std::map<std::string, std::set<std::string>>>();
  for (int k = 0; k < kKeys; ++k) {
    (*acked)[key_of(k)].insert("");  // "never written" is acceptable
  }
  auto outstanding = std::make_shared<int>(kClients);

  // Each simulated client runs a chain of small transactions.
  for (int c = 0; c < kClients; ++c) {
    auto run = std::make_shared<std::function<void(int)>>();
    std::weak_ptr<std::function<void(int)>> weak = run;
    auto client_rng = std::make_shared<Rng>(rng.Split());
    *run = [&tc, acked, outstanding, weak, client_rng, c,
            key_of](int remaining) {
      auto self = weak.lock();
      if (!self) return;
      if (remaining == 0) {
        --*outstanding;
        return;
      }
      Rng& rng = *client_rng;
      const std::string key = key_of(static_cast<int>(rng.NextBelow(kKeys)));
      const std::string value = StrFormat("c%d-%d", c, remaining);
      const TxnId txn = tc.api->Begin(tc.inode_table, key);
      if (txn == 0) {
        tc.sim->After(Millis(10), [self, remaining] { (*self)(remaining); });
        return;
      }
      const int action = static_cast<int>(rng.NextBelow(4));
      auto next = [&tc, self, remaining](Nanos delay) {
        tc.sim->After(delay, [self, remaining] { (*self)(remaining - 1); });
      };
      switch (action) {
        case 0:  // blind upsert + commit
          tc.api->Write(txn, tc.inode_table, key, RowImage::Of(value),
                        [&tc, txn, key, value, acked, next](Code code) {
                          if (code != Code::kOk) {
                            tc.api->Abort(txn);
                            next(Millis(5));
                            return;
                          }
                          tc.api->Commit(txn, [key, value, acked,
                                               next](Code c2) {
                            if (c2 == Code::kOk) (*acked)[key].insert(value);
                            next(0);
                          });
                        });
          break;
        case 1:  // locked read-modify-write
          tc.api->Read(
              txn, tc.inode_table, key, LockMode::kExclusive,
              [&tc, txn, key, value, acked, next](Code code, auto) {
                if (code != Code::kOk && code != Code::kNotFound) {
                  tc.api->Abort(txn);
                  next(Millis(5));
                  return;
                }
                tc.api->Write(txn, tc.inode_table, key, RowImage::Of(value),
                              [&tc, txn, key, value, acked, next](Code c2) {
                                if (c2 != Code::kOk) {
                                  tc.api->Abort(txn);
                                  next(Millis(5));
                                  return;
                                }
                                tc.api->Commit(
                                    txn, [key, value, acked, next](Code c3) {
                                      if (c3 == Code::kOk) {
                                        (*acked)[key].insert(value);
                                      }
                                      next(0);
                                    });
                              });
              });
          break;
        case 2:  // write then abort (must leave no trace)
          tc.api->Write(txn, tc.inode_table, key, RowImage::Of(value),
                        [&tc, txn, next](Code) {
                          tc.api->Abort(txn);
                          next(0);
                        });
          break;
        default:  // committed read (routing exercise)
          tc.api->Read(txn, tc.inode_table, key, LockMode::kReadCommitted,
                       [&tc, txn, next](Code, auto) {
                         tc.api->Commit(txn, [next](Code) { next(0); });
                       });
          break;
      }
    };
    (*run)(kOpsPerClient);
  }

  if (p.kill_a_node) {
    tc.sim->After(Millis(80), [&tc] { tc.cluster->CrashDatanode(1); });
  }

  // Drive until all clients finished (plus quiesce time for Complete
  // phases, lock releases and failure handling).
  const Nanos deadline = Seconds(120);
  while (*outstanding > 0 && tc.sim->now() < deadline) {
    tc.sim->RunFor(Millis(10));
  }
  ASSERT_EQ(*outstanding, 0) << "clients did not finish";
  tc.sim->RunFor(Seconds(5));

  auto& layout = tc.cluster->layout();
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = key_of(k);
    const PartitionId part = layout.PartitionOf(tc.inode_table, key);

    // P1 + P4: all alive replicas agree, on an acknowledged value.
    std::set<std::string> values;
    for (NodeId n : layout.ReplicaChain(part)) {
      if (!layout.alive(n)) continue;
      auto v = tc.cluster->datanode(n).store().Read(tc.inode_table, key, 0);
      values.insert(std::string(v.view()));
    }
    EXPECT_LE(values.size(), 1u)
        << "replicas diverge on " << key << " (" << values.size()
        << " distinct values)";
    if (!values.empty()) {
      EXPECT_TRUE((*acked)[key].count(*values.begin()))
          << "committed value of " << key
          << " was never acknowledged to any client";
    }

    // P2 + P3: no leaked locks or pending versions anywhere.
    for (int n = 0; n < tc.cluster->num_datanodes(); ++n) {
      if (!layout.alive(n)) continue;
      EXPECT_FALSE(tc.cluster->datanode(n).locks().IsLocked(tc.inode_table,
                                                            key))
          << "lock leaked on " << key << " at node " << n;
      EXPECT_FALSE(
          tc.cluster->datanode(n).store().HasPending(tc.inode_table, key))
          << "pending version leaked on " << key << " at node " << n;
    }
  }

  // P2 global: coordinators hold no transaction state.
  for (int n = 0; n < tc.cluster->num_datanodes(); ++n) {
    if (layout.alive(n)) {
      EXPECT_EQ(tc.cluster->datanode(n).active_txns(), 0)
          << "node " << n << " still coordinates transactions";
    }
  }
}

std::vector<PropParam> AllPropParams() {
  std::vector<PropParam> out;
  for (bool cl : {false, true}) {
    for (bool kill : {false, true}) {
      for (uint64_t seed : {101ull, 202ull}) {
        out.push_back(PropParam{6, 3, cl, cl, kill, seed});
        out.push_back(PropParam{6, 2, cl, cl, kill, seed + 1});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NdbPropertyTest, ::testing::ValuesIn(AllPropParams()),
    [](const ::testing::TestParamInfo<PropParam>& info) {
      const auto& p = info.param;
      return StrFormat("n%d_r%d_%s_%s_s%llu", p.datanodes, p.replication,
                       p.az_aware ? "cl" : "vanilla",
                       p.kill_a_node ? "kill" : "steady",
                       static_cast<unsigned long long>(p.seed));
    });

}  // namespace
}  // namespace repro::ndb
