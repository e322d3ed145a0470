// Leader election through the database (§II-A2, §IV-B) and the leader's
// housekeeping duties (block re-replication, §IV-C2).
//
// Following the HopsFS leader-election protocol, every namenode bumps a
// counter row in NDB each round (default 2 s) — extended by the paper to
// carry the namenode's locationDomainId so clients can discover AZ-local
// namenodes — then reads everyone's rows. A namenode whose counter has
// not advanced for two consecutive rounds is considered dead; the alive
// namenode with the smallest id is the leader.
#include <algorithm>

#include "hopsfs/namenode.h"
#include "hopsfs/op_context.h"
#include "prof/profiler.h"
#include "util/logging.h"

namespace repro::hopsfs {

namespace {
constexpr const char* kLog = "hopsfs.le";
constexpr int kMissesForDead = 2;
}  // namespace

void Namenode::LeaderElectionRound() {
  // Leader lease: peers declare us dead once our counter stops advancing
  // for kMissesForDead of their rounds, so we may keep leading only while
  // our own publishes are landing. Checked up front — a leader whose NDB
  // access is cut entirely never reaches the election callbacks below and
  // would otherwise keep claiming leadership through the outage.
  if (is_leader_ && (le_publish_ok_at_ < 0 ||
                     sim_.now() - le_publish_ok_at_ >
                         kMissesForDead * kLeaderInterval)) {
    RLOG_INFO(kLog, "nn %d relinquishing leadership (own heartbeat row "
              "not advancing)",
              nn_id_);
    is_leader_ = false;
    rep_timer_.Cancel();
  }

  // Phase 1: publish our heartbeat row.
  NnHeartbeatRow hb;
  hb.nn_id = nn_id_;
  hb.counter = ++le_counter_;
  hb.location_domain_id = az_;
  hb.host = host_;
  const ndb::TxnId txn = api_->Begin(tables_.vars, NnHeartbeatKey(nn_id_));
  if (txn == 0) return;  // NDB unreachable; try again next round
  api_->Write(txn, tables_.vars, NnHeartbeatKey(nn_id_), hb.Encode(),
              [this, txn](Code code) {
                if (code != Code::kOk) {
                  RLOG_DEBUG(kLog, "nn %d heartbeat write failed (code %d)",
                             nn_id_, static_cast<int>(code));
                  api_->Abort(txn);
                  return;
                }
                api_->Commit(txn, [this](Code commit_code) {
                  if (commit_code == Code::kOk) {
                    le_publish_ok_at_ = sim_.now();
                  } else {
                    RLOG_DEBUG(kLog, "nn %d heartbeat commit failed (code %d)",
                               nn_id_, static_cast<int>(commit_code));
                  }
                  // Phase 2: read the whole membership table.
                  const ndb::TxnId scan_txn =
                      api_->Begin(tables_.vars, std::string(kNnHeartbeatPrefix));
                  if (scan_txn == 0) return;
                  api_->ScanPrefix(
                      scan_txn, tables_.vars, std::string(kNnHeartbeatPrefix),
                      [this, scan_txn](Code c2,
                                       ndb::NdbApiNode::Rows rows) {
                        api_->Commit(scan_txn, [](Code) {});
                        if (c2 != Code::kOk) return;

                        std::vector<ActiveNn> alive;
                        for (const auto& [k, v] : rows) {
                          NnHeartbeatRow row;
                          if (!NnHeartbeatRow::Decode(v.view(), &row)) {
                            continue;
                          }
                          auto& seen = le_seen_[row.nn_id];
                          if (row.nn_id == nn_id_ ||
                              row.counter != seen.first) {
                            seen = {row.counter, 0};
                          } else {
                            seen.second += 1;
                          }
                          if (seen.second < kMissesForDead) {
                            alive.push_back(ActiveNn{
                                row.nn_id,
                                static_cast<AzId>(row.location_domain_id),
                                static_cast<HostId>(row.host)});
                          }
                        }
                        std::sort(alive.begin(), alive.end(),
                                  [](const ActiveNn& a, const ActiveNn& b) {
                                    return a.nn_id < b.nn_id;
                                  });
                        active_nns_ = std::move(alive);

                        // Claiming (or keeping) leadership requires a live
                        // lease: our own publish must have landed recently,
                        // not just our row looking fresh in our own scan.
                        const bool lease_ok =
                            le_publish_ok_at_ >= 0 &&
                            sim_.now() - le_publish_ok_at_ <=
                                kMissesForDead * kLeaderInterval;
                        const bool lead = lease_ok && !active_nns_.empty() &&
                                          active_nns_.front().nn_id == nn_id_;
                        if (!lead) le_claim_pending_ = false;
                        if (lead && !is_leader_ && !le_claim_pending_) {
                          // Deferred claim: a displaced leader only learns
                          // of our return at ITS next election round, so
                          // claiming immediately can overlap two leaders
                          // for up to a round. Claim only after we have
                          // been the would-be leader for two consecutive
                          // rounds — the incumbent's round in between sees
                          // our counter advancing and steps down first.
                          le_claim_pending_ = true;
                        } else if (lead && !is_leader_) {
                          le_claim_pending_ = false;
                          RLOG_INFO(kLog, "nn %d became leader", nn_id_);
                          is_leader_ = true;
                          if (dn_registry_ != nullptr) {
                            rep_timer_ = sim_.Every(1 * kSecond, [this] {
                              ReplicationMonitorRound();
                            });
                          }
                        } else if (!lead && is_leader_) {
                          is_leader_ = false;
                          rep_timer_.Cancel();
                        }
                      });
                });
              });
}

struct Namenode::RepairQueue {
  blocks::DnId dn = -1;
  // The dead datanode's index rows: dn_blocks key -> block row key.
  ndb::NdbApiNode::Rows rows;
  size_t next = 0;  // the row repaired next
  // The block under repair and its transaction.
  ndb::TxnId txn = 0;
  BlockRow block;
  blocks::DnId source = -1;
  blocks::DnId target = -1;
  WriteJoin join;
};

void Namenode::ReplicationMonitorRound() {
  PROF_ZONE("nn.replication.round");
  const Nanos now = sim_.now();
  for (blocks::DnId dn = 0; dn < dn_registry_->size(); ++dn) {
    // React only to datanodes that once reported and then went silent
    // (never-registered DNs have nothing to re-replicate).
    if (dn_known_dead_[dn] || !dn_registry_->EverHeard(dn) ||
        dn_registry_->AliveAt(dn, now)) {
      continue;
    }
    dn_known_dead_[dn] = true;
    RLOG_INFO(kLog, "leader nn %d: datanode %d lost, re-replicating",
              nn_id_, dn);

    // Scan the dead datanode's block index and repair each block.
    const ndb::TxnId txn = api_->Begin(tables_.dn_blocks, DnBlocksPrefix(dn));
    if (txn == 0) return;
    api_->ScanPrefix(
        txn, tables_.dn_blocks, DnBlocksPrefix(dn),
        [this, txn, dn](Code code, ndb::NdbApiNode::Rows rows) {
          api_->Commit(txn, [](Code) {});
          if (code != Code::kOk) return;
          auto q = std::make_shared<RepairQueue>();
          q->dn = dn;
          q->rows = std::move(rows);
          RepairNext(std::move(q));
        });
  }
}

void Namenode::RepairNext(std::shared_ptr<RepairQueue> q) {
  if (q->next >= q->rows.size()) return;
  const std::string_view block_row_key = q->rows[q->next++].second.view();
  q->txn = api_->Begin(tables_.blocks, block_row_key);
  if (q->txn == 0) {
    RepairNext(std::move(q));
    return;
  }
  api_->Read(
      q->txn, tables_.blocks, ndb::Key(block_row_key),
      ndb::LockMode::kExclusive, [this, q](Code code, ndb::RowImage value) {
        auto give_up = [&](const char* why) {
          RLOG_WARN(kLog, "block repair skipped: %s", why);
          api_->Abort(q->txn);
          RepairNext(q);
        };
        BlockRow& block = q->block;
        block = BlockRow{};
        if (code != Code::kOk || !value ||
            !BlockRow::Decode(value.view(), &block)) {
          give_up("block row unreadable");
          return;
        }
        auto& reps = block.replicas;
        reps.erase(std::remove(reps.begin(), reps.end(), q->dn), reps.end());
        q->target = placement_->ChooseReplacement(reps, *dn_registry_,
                                                  sim_.now(), rng_);
        q->source = -1;
        for (blocks::DnId r : reps) {
          if (dn_registry_->AliveAt(r, sim_.now())) {
            q->source = r;
            break;
          }
        }
        if (q->target < 0 || q->source < 0) {
          give_up("no replacement target or surviving source");
          return;
        }
        reps.push_back(q->target);
        const auto& [dn_block_key, block_row_key] = q->rows[q->next - 1];
        auto joined = [this, &q] {
          q->join.Add();
          return [this, q](Code c) {
            if (q->join.Complete(c)) RepairDecided(q);
          };
        };
        q->join = WriteJoin{};
        api_->Update(q->txn, tables_.blocks, ndb::Key(block_row_key.view()),
                     block.Encode(), joined());
        api_->Delete(q->txn, tables_.dn_blocks, dn_block_key, joined());
        api_->Insert(q->txn, tables_.dn_blocks,
                     DnBlockKey(q->target, block.block_id), block_row_key,
                     joined());
        if (q->join.Arm()) RepairDecided(q);
      });
}

// Commits the repaired block's rows, then streams the new replica.
void Namenode::RepairDecided(std::shared_ptr<RepairQueue> q) {
  if (q->join.failed() != Code::kOk) {
    api_->Abort(q->txn);
    RepairNext(std::move(q));
    return;
  }
  api_->Commit(q->txn, [this, q](Code code) {
    if (code == Code::kOk) {
      auto* src = dn_registry_->dn(q->source);
      auto* dst = dn_registry_->dn(q->target);
      network_.Send(host_, src->host(), 128,
                    [src, dst, id = q->block.block_id] {
                      src->CopyBlockTo(*dst, id, nullptr);
                    });
    }
    RepairNext(q);
  });
}

}  // namespace repro::hopsfs
