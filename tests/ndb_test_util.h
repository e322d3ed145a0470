// Shared fixture pieces for NDB-layer tests: a 3-AZ cluster with a small
// catalog, plus helpers to run async operations to completion.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <string_view>

#include "ndb/client.h"
#include "ndb/cluster.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "sim/topology.h"

namespace repro::ndb {

// gtest prints a row image as its bytes, or as absent.
inline void PrintTo(const RowImage& v, std::ostream* os) {
  if (!v) {
    *os << "(absent)";
  } else {
    *os << '"' << v.view() << '"';
  }
}

namespace testing {

struct TestCluster {
  explicit TestCluster(int num_datanodes = 6, int replication = 3,
                       bool az_aware = true, bool read_backup = true) {
    sim = std::make_unique<Simulation>(42);
    topology = std::make_unique<Topology>(3, AzLatencyTable::UsWest1());
    topology->set_jitter_fraction(0);  // exact determinism for tests
    network = std::make_unique<Network>(*sim, *topology);

    TableDef inodes;
    inodes.name = "inodes";
    inodes.part_key = PartKeyRule::kPrefixBeforeSlash;
    inodes.read_backup = read_backup;
    inode_table = catalog.AddTable(inodes);

    TableDef dict;
    dict.name = "dict";
    dict.read_backup = read_backup;
    dict.fully_replicated = true;
    dict_table = catalog.AddTable(dict);

    NdbClusterConfig config;
    config.layout.num_datanodes = num_datanodes;
    config.layout.replication_factor = replication;
    config.layout.node_az =
        AssignNodeAzs(num_datanodes, replication, {0, 1, 2});
    config.layout.num_ldm_threads = 4;
    config.flags.az_aware = az_aware;
    cluster =
        std::make_unique<NdbCluster>(*sim, *network, &catalog, config);

    const HostId api_host = topology->AddHost(0, "api-0");
    api = std::make_unique<NdbApiNode>(*cluster, api_host, /*az=*/0);
  }

  // Convenience synchronous wrappers (drive the simulation until done).
  Code InsertCommit(TableId table, const Key& key, std::string_view value) {
    const TxnId txn = api->Begin(table, key);
    Code result = Code::kInternal;
    bool done = false;
    api->Insert(txn, table, key, RowImage::Of(value), [&](Code c) {
      if (c != Code::kOk) {
        api->Abort(txn);
        result = c;
        done = true;
        return;
      }
      api->Commit(txn, [&](Code c2) {
        result = c2;
        done = true;
      });
    });
    RunUntil(done);
    return result;
  }

  std::pair<Code, RowImage> ReadCommitted(TableId table, const Key& key) {
    const TxnId txn = api->Begin(table, key);
    std::pair<Code, RowImage> out{Code::kInternal, {}};
    bool done = false;
    api->Read(txn, table, key, LockMode::kReadCommitted,
              [&](Code c, RowImage v) {
                out = {c, std::move(v)};
                api->Commit(txn, [&](Code) { done = true; });
              });
    RunUntil(done);
    return out;
  }

  void RunUntil(bool& flag, Nanos limit = 30 * kSecond) {
    const Nanos deadline = sim->now() + limit;
    while (!flag && sim->now() < deadline && !sim->Empty()) {
      sim->RunUntil(sim->now() + kMillisecond);
    }
    ASSERT_TRUE(flag) << "operation did not finish within the time limit";
  }

  Catalog catalog;
  TableId inode_table = 0;
  TableId dict_table = 0;
  std::unique_ptr<Simulation> sim;
  std::unique_ptr<Topology> topology;
  std::unique_ptr<Network> network;
  std::unique_ptr<NdbCluster> cluster;
  std::unique_ptr<NdbApiNode> api;
};

}  // namespace testing
}  // namespace repro::ndb
