#include "chaos/invariants.h"

#include <algorithm>
#include <map>
#include <set>

#include "ndb/datanode.h"
#include "util/strings.h"

namespace repro::chaos {

InvariantChecker::InvariantChecker(hopsfs::Deployment& deployment)
    : deployment_(deployment) {}

void InvariantChecker::StartSampling(Nanos interval) {
  if (sampling_) return;
  sampling_ = true;
  sample_timer_ = deployment_.sim().Every(interval, [this] {
    SampleLeadership();
    SampleRedoBacklog();
  });
}

void InvariantChecker::RecordAckedWrite(const std::string& path) {
  acked_paths_.push_back(path);
}

void InvariantChecker::SampleLeadership() {
  Topology& topo = deployment_.topology();
  std::vector<const hopsfs::Namenode*> leaders;
  for (const auto& nn : deployment_.namenodes()) {
    if (nn->alive() && nn->is_leader()) leaders.push_back(nn.get());
  }
  // Two simultaneous claimants are only a split brain if they could talk
  // to each other: a partitioned-away stale leader that has not yet missed
  // enough election rounds is expected behaviour, not a violation.
  for (size_t i = 0; i < leaders.size(); ++i) {
    for (size_t j = i + 1; j < leaders.size(); ++j) {
      if (topo.Reachable(leaders[i]->host(), leaders[j]->host()) &&
          topo.Reachable(leaders[j]->host(), leaders[i]->host())) {
        live_leader_violations_.push_back(StrFormat(
            "[t=%.3fs] NN %d and NN %d both lead while mutually reachable",
            ToSeconds(deployment_.sim().now()), leaders[i]->id(),
            leaders[j]->id()));
      }
    }
  }
  // Trace leadership transitions (not every sample) so traces stay small
  // but still capture the observable election history.
  std::string set;
  for (const auto* nn : leaders) set += StrFormat(" %d", nn->id());
  if (!have_leader_set_ || set != last_leader_set_) {
    have_leader_set_ = true;
    last_leader_set_ = set;
    trace_.push_back(StrFormat("[t=%.3fs] leaders:%s",
                               ToSeconds(deployment_.sim().now()),
                               set.c_str()));
  }
}

InvariantResult InvariantChecker::CheckDurability(hopsfs::HopsFsClient& probe,
                                                 Nanos deadline) {
  InvariantResult result{"durability", true, ""};
  if (acked_paths_.empty()) {
    result.detail = "no acked writes to probe";
    return result;
  }
  Simulation& sim = deployment_.sim();
  // A handful of probes in flight at a time: enough to finish thousands of
  // paths quickly, few enough that queueing cannot push a probe past its
  // own RPC timeout.
  constexpr int kMaxInFlight = 8;
  size_t next = 0;
  int in_flight = 0;
  int64_t missing = 0;
  std::string first_missing;

  std::function<void()> pump = [&] {
    while (in_flight < kMaxInFlight && next < acked_paths_.size()) {
      const std::string path = acked_paths_[next++];
      ++in_flight;
      probe.Stat(path, [&, path](Status s) {
        --in_flight;
        if (!s.ok()) {
          ++missing;
          if (first_missing.empty()) {
            first_missing = StrFormat("%s: %s", path.c_str(),
                                      CodeName(s.code()));
          }
        }
        pump();
      });
    }
  };
  pump();
  while ((in_flight > 0 || next < acked_paths_.size()) &&
         sim.now() < deadline) {
    if (!sim.RunOne()) break;
  }

  const int64_t unprobed =
      static_cast<int64_t>(acked_paths_.size() - next) + in_flight;
  if (missing > 0) {
    result.ok = false;
    result.detail =
        StrFormat("%lld of %lld acked writes unreadable after heal (first: %s)",
                  static_cast<long long>(missing),
                  static_cast<long long>(acked_paths_.size()),
                  first_missing.c_str());
  } else if (unprobed > 0) {
    result.ok = false;
    result.detail = StrFormat("probe deadline hit with %lld paths unverified",
                              static_cast<long long>(unprobed));
  } else {
    result.detail = StrFormat("%lld acked writes all readable",
                              static_cast<long long>(acked_paths_.size()));
  }
  trace_.push_back(StrFormat("[t=%.3fs] durability: %s",
                             ToSeconds(sim.now()), result.detail.c_str()));
  return result;
}

InvariantResult InvariantChecker::CheckArbitration() {
  InvariantResult result{"arbitration", true, ""};
  ndb::NdbCluster& ndb = deployment_.ndb();
  int64_t decisions = 0;
  int64_t episodes = 0;
  for (int m = 0; m < ndb.num_mgmt(); ++m) {
    const auto& log = ndb.mgmt(m).decision_log();
    decisions += static_cast<int64_t>(log.size());
    // Replay the log: each new_episode decision blesses the view for the
    // following kEpisodeWindow; inside that window there must be no second
    // blessing and every grant must go to a member of the blessed view.
    Nanos episode_start = -1;
    std::vector<bool> blessed;
    for (const auto& d : log) {
      if (d.new_episode) {
        ++episodes;
        if (episode_start >= 0 &&
            d.time - episode_start <= ndb::NdbMgmtNode::kEpisodeWindow) {
          result.ok = false;
          if (result.detail.empty()) {
            result.detail = StrFormat(
                "mgmt %d blessed a second view %.3fs into an episode", m,
                ToSeconds(d.time - episode_start));
          }
        }
        episode_start = d.time;
        blessed = d.view;
        continue;
      }
      if (d.granted) {
        const bool member = d.requester >= 0 &&
                            d.requester < static_cast<ndb::NodeId>(blessed.size()) &&
                            blessed[d.requester];
        if (!member) {
          result.ok = false;
          if (result.detail.empty()) {
            result.detail = StrFormat(
                "mgmt %d granted arbitration to node %d outside the blessed "
                "view at t=%.3fs",
                m, d.requester, ToSeconds(d.time));
          }
        }
      }
    }
  }
  if (result.ok) {
    result.detail = StrFormat(
        "%lld decisions, %lld episodes, one blessed view per episode",
        static_cast<long long>(decisions), static_cast<long long>(episodes));
  }
  trace_.push_back(StrFormat("[t=%.3fs] arbitration: %s",
                             ToSeconds(deployment_.sim().now()),
                             result.detail.c_str()));
  return result;
}

InvariantResult InvariantChecker::CheckLeadership() {
  InvariantResult result{"leadership", true, ""};
  if (!live_leader_violations_.empty()) {
    result.ok = false;
    result.detail = StrFormat(
        "%lld split-brain samples during run (first: %s)",
        static_cast<long long>(live_leader_violations_.size()),
        live_leader_violations_.front().c_str());
    return result;
  }
  int leaders = 0;
  int leader_id = -1;
  for (const auto& nn : deployment_.namenodes()) {
    if (nn->alive() && nn->is_leader()) {
      ++leaders;
      leader_id = nn->id();
    }
  }
  if (leaders != 1) {
    result.ok = false;
    result.detail =
        StrFormat("%d leaders after heal + settle (want exactly 1)", leaders);
  } else {
    result.detail =
        StrFormat("single leader NN %d, no split-brain samples", leader_id);
  }
  trace_.push_back(StrFormat("[t=%.3fs] leadership: %s",
                             ToSeconds(deployment_.sim().now()),
                             result.detail.c_str()));
  return result;
}

InvariantResult InvariantChecker::CheckReplication() {
  InvariantResult result{"replication", true, ""};
  const auto& dns = deployment_.block_dns();
  if (dns.empty()) {
    result.detail = "no block layer configured";
    return result;
  }
  ndb::NdbCluster& ndb = deployment_.ndb();
  const ndb::TableId blocks_table = deployment_.tables().blocks;

  // White-box union of the committed blocks table across alive replicas
  // (each datanode stores only its partitions).
  std::map<ndb::Key, ndb::RowImage> rows;
  for (ndb::NodeId n = 0; n < ndb.num_datanodes(); ++n) {
    if (!ndb.layout().alive(n)) continue;
    ndb.datanode(n).store().ForEachCommitted(
        blocks_table,
        [&](const ndb::Key& key, const ndb::RowImage& value) {
          rows[key] = value;
        });
  }

  const int want_rf =
      std::min<int>(hopsfs::kBlockReplication, static_cast<int>(dns.size()));
  const bool want_az_coverage = hopsfs::IsHopsFsCl(deployment_.options().setup);
  const int num_azs = deployment_.topology().num_azs();
  int64_t checked = 0;
  for (const auto& [key, value] : rows) {
    hopsfs::BlockRow row;
    if (!hopsfs::BlockRow::Decode(value.view(), &row)) continue;
    ++checked;
    std::set<AzId> azs;
    std::string problem;
    if (static_cast<int>(row.replicas.size()) < want_rf) {
      problem = StrFormat("has %d replicas (want %d)",
                          static_cast<int>(row.replicas.size()), want_rf);
    }
    for (int32_t dn : row.replicas) {
      if (dn < 0 || dn >= static_cast<int32_t>(dns.size())) {
        problem = StrFormat("lists invalid DN %d", dn);
        break;
      }
      if (!dns[dn]->alive()) {
        problem = StrFormat("lists dead DN %d", dn);
        break;
      }
      if (!dns[dn]->HasBlock(row.block_id)) {
        problem = StrFormat("DN %d does not hold the block", dn);
        break;
      }
      azs.insert(dns[dn]->az());
    }
    if (problem.empty() && want_az_coverage &&
        static_cast<int>(azs.size()) < std::min(num_azs, want_rf)) {
      problem = StrFormat("covers %d AZs (want %d)",
                          static_cast<int>(azs.size()),
                          std::min(num_azs, want_rf));
    }
    if (!problem.empty()) {
      result.ok = false;
      if (result.detail.empty()) {
        result.detail =
            StrFormat("block %s %s", key.c_str(), problem.c_str());
      }
    }
  }
  if (result.ok) {
    result.detail = StrFormat(
        "%lld blocks at rf>=%d%s", static_cast<long long>(checked), want_rf,
        want_az_coverage ? ", every AZ covered" : "");
  }
  trace_.push_back(StrFormat("[t=%.3fs] replication: %s",
                             ToSeconds(deployment_.sim().now()),
                             result.detail.c_str()));
  return result;
}

InvariantResult InvariantChecker::CheckDeadlines() {
  InvariantResult result{"deadlines", true, ""};
  int64_t violations = 0;
  int64_t clients = 0;
  for (const auto& c : deployment_.clients()) {
    ++clients;
    violations += c->post_deadline_successes();
  }
  if (violations > 0) {
    result.ok = false;
    result.detail = StrFormat(
        "%lld success(es) delivered after the op's deadline had passed",
        static_cast<long long>(violations));
  } else {
    result.detail = StrFormat(
        "no success delivered past its deadline across %lld clients",
        static_cast<long long>(clients));
  }
  trace_.push_back(StrFormat("[t=%.3fs] deadlines: %s",
                             ToSeconds(deployment_.sim().now()),
                             result.detail.c_str()));
  return result;
}

void InvariantChecker::SampleRedoBacklog() {
  ndb::NdbCluster& ndb = deployment_.ndb();
  const int64_t bound = 2 * ndb.node_config().redo_stall_backlog_bytes;
  for (ndb::NodeId n = 0; n < ndb.num_datanodes(); ++n) {
    const ndb::NdbDatanode& dn = ndb.datanode(n);
    // Catch-up backups log (and must flush) live chain writes too — an
    // unbounded backlog there sheds every write routed through them.
    if (!dn.alive() && !dn.catchup_accepting()) continue;
    const int64_t backlog = dn.journal().backlog_bytes();
    if (backlog > bound) {
      live_backlog_violations_.push_back(StrFormat(
          "[t=%.3fs] node %d redo backlog %lld bytes exceeds bound %lld",
          ToSeconds(deployment_.sim().now()), n,
          static_cast<long long>(backlog), static_cast<long long>(bound)));
    }
  }
}

InvariantResult InvariantChecker::CheckRedoBacklog() {
  SampleRedoBacklog();  // one final sample at check time
  InvariantResult result{"redo-backlog", true, ""};
  if (!live_backlog_violations_.empty()) {
    result.ok = false;
    result.detail = StrFormat(
        "%lld sample(s) over bound; first: %s",
        static_cast<long long>(live_backlog_violations_.size()),
        live_backlog_violations_.front().c_str());
  } else {
    result.detail = StrFormat(
        "unflushed redo stayed under 2x the %lld-byte stall threshold on "
        "every alive or catch-up node",
        static_cast<long long>(
            deployment_.ndb().node_config().redo_stall_backlog_bytes));
  }
  trace_.push_back(StrFormat("[t=%.3fs] redo-backlog: %s",
                             ToSeconds(deployment_.sim().now()),
                             result.detail.c_str()));
  return result;
}

InvariantResult InvariantChecker::CheckRecovery() {
  InvariantResult result{"recovery", true, ""};
  const auto& log = deployment_.ndb().recovery_log();
  int64_t completed = 0;
  int64_t abandoned = 0;
  for (size_t i = 0; i < log.size(); ++i) {
    const auto& rec = log[i];
    // One deterministic timeline line per recovery, in start order —
    // part of the run's event trace and the CI recovery artifact.
    std::string outcome;
    if (rec.aborted) {
      outcome = "abandoned: " + rec.abort_reason;
    } else if (rec.serving_at >= 0) {
      outcome = StrFormat("served at %.3fs", ToSeconds(rec.serving_at));
    } else {
      outcome = "in flight";
    }
    trace_.push_back(StrFormat(
        "[t=%.3fs] recovery node=%d attempts=%d replay=%lld entries "
        "%lld+%lld bytes resync=%lld bytes %s",
        ToSeconds(rec.started), rec.node, rec.attempts,
        static_cast<long long>(rec.replay_entries),
        static_cast<long long>(rec.replay_log_bytes),
        static_cast<long long>(rec.replay_image_bytes),
        static_cast<long long>(rec.resync_bytes), outcome.c_str()));
    if (rec.aborted) {
      ++abandoned;
      if (rec.abort_reason.empty()) {
        result.ok = false;
        if (result.detail.empty()) {
          result.detail =
              StrFormat("recovery #%d of node %d abandoned without a reason",
                        static_cast<int>(i), rec.node);
        }
      }
      continue;
    }
    if (rec.serving_at < 0) continue;  // still in flight at check time
    ++completed;
    if (!rec.replay_deterministic) {
      result.ok = false;
      if (result.detail.empty()) {
        result.detail = StrFormat(
            "node %d replay non-deterministic (digest mismatch, recovery #%d)",
            rec.node, static_cast<int>(i));
      }
    }
    if (!rec.replay_covered) {
      result.ok = false;
      if (result.detail.empty()) {
        result.detail = StrFormat(
            "node %d replay did not cover the durable prefix (recovery #%d)",
            rec.node, static_cast<int>(i));
      }
    }
  }
  if (result.ok) {
    result.detail = StrFormat(
        "%lld recover(ies) replayed deterministically over the durable "
        "prefix, %lld abandoned with reason",
        static_cast<long long>(completed), static_cast<long long>(abandoned));
  }
  trace_.push_back(StrFormat("[t=%.3fs] recovery: %s",
                             ToSeconds(deployment_.sim().now()),
                             result.detail.c_str()));
  return result;
}

std::vector<InvariantResult> InvariantChecker::CheckAll(
    hopsfs::HopsFsClient& probe, Nanos deadline) {
  std::vector<InvariantResult> results;
  results.push_back(CheckDurability(probe, deadline));
  results.push_back(CheckArbitration());
  results.push_back(CheckLeadership());
  results.push_back(CheckReplication());
  results.push_back(CheckDeadlines());
  results.push_back(CheckRecovery());
  results.push_back(CheckRedoBacklog());
  return results;
}

}  // namespace repro::chaos
