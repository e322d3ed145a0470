// Tunable cost model and feature flags for the NDB substrate.
//
// CPU costs are calibrated so a 12-datanode cluster saturates in the same
// region as the paper's testbed (Figs. 5, 10, 11); message sizes are
// typical NDB signal sizes. The feature flags correspond one-to-one to
// the AZ-awareness mechanisms §IV introduces, so each can be ablated.
#pragma once

#include "util/time.h"

namespace repro::ndb {

struct CostModel {
  // Per-message costs on the RECV / SEND thread types.
  Nanos recv_per_msg = 2 * kMicrosecond;
  Nanos send_per_msg = 2 * kMicrosecond;

  // Transaction-coordinator thread costs.
  Nanos tc_begin = 2 * kMicrosecond;
  Nanos tc_route_op = 4 * kMicrosecond;       // per key operation routed
  Nanos tc_commit_row = 3 * kMicrosecond;     // per row chain commit mgmt
  Nanos tc_complete_row = 2 * kMicrosecond;

  // LDM (local data manager) thread costs.
  Nanos ldm_read = 10 * kMicrosecond;
  Nanos ldm_prepare = 16 * kMicrosecond;      // lock + stage pending write
  Nanos ldm_commit = 6 * kMicrosecond;
  Nanos ldm_complete = 2 * kMicrosecond;
  Nanos ldm_scan_base = 12 * kMicrosecond;
  Nanos ldm_scan_row = 1500;                  // 1.5 us per row returned

  // IO thread: redo-log bookkeeping per commit; the log itself is flushed
  // to disk in batches.
  Nanos io_redo_per_commit = 1 * kMicrosecond;

  // Write-ahead journal framing and node-recovery costs.
  int64_t redo_record_overhead_bytes = 32;   // per-record on-disk header
  int64_t redo_flush_overhead_bytes = 4096;  // fsync + page pad per group commit
  Nanos replay_per_entry = 2 * kMicrosecond; // CPU to re-apply one record
  Nanos recovery_setup = 20 * kMillisecond;  // per-phase protocol setup

  // Wire sizes (payload bytes; the network adds framing).
  int64_t msg_small = 64;      // Commit/Committed/Complete/Completed/acks
  int64_t msg_read_req = 160;
  int64_t msg_scan_req = 192;
  int64_t msg_write_base = 160;  // PrepareReq excluding the row image
};

struct NdbNodeConfig {
  // Thread counts per datanode — Table II of the paper (27 CPUs).
  int ldm_threads = 12;
  int tc_threads = 7;
  int recv_threads = 3;
  int send_threads = 2;
  // REP, IO and MAIN have one thread each; REP/MAIN are mostly idle and
  // act as helpers for overloaded RECV/SEND threads (§V-D1).
  Nanos helper_backlog_threshold = 30 * kMicrosecond;

  Nanos lock_wait_timeout = 400 * kMillisecond;   // deadlock detection
  Nanos txn_inactive_timeout = 2 * kSecond;       // abandoned transactions
  Nanos heartbeat_interval = 50 * kMillisecond;
  int heartbeat_misses_for_failure = 4;
  Nanos arbitration_timeout = 150 * kMillisecond;
  Nanos gcp_interval = 500 * kMillisecond;        // global checkpoints
  Nanos redo_flush_interval = 100 * kMillisecond; // group-commit cadence
  Nanos lcp_interval = 2 * kSecond;               // local checkpoints (LCP)
  // Redo-journal segment roll size; truncation at LCP drops whole
  // flushed segments, so memory overhang is about one segment per node.
  int64_t redo_segment_bytes = 256 << 10;
  // Redo backpressure: when the appended-but-unflushed journal backlog
  // exceeds this, the primary LDM refuses new prepares with
  // kResourceExhausted until the log disk catches up. Bounds journal
  // memory under a saturated or grey-slow log disk; surfaced through the
  // AIMD admission path (the code counts against availability).
  int64_t redo_stall_backlog_bytes = 4 << 20;
  // Bounded ring of per-recovery RecoveryStats kept by the cluster; long
  // restart-storm soaks evict the oldest entries past this.
  int recovery_log_cap = 512;
};

struct FeatureFlags {
  // AZ-aware TC selection at the API node (§IV-A5) and AZ-aware read
  // routing at the TC (§IV-A4). Off = classic NDB distribution-aware
  // behaviour (primary-replica oriented).
  bool az_aware = false;
  // Delay the commit ack until all replicas completed, enabling
  // consistent committed reads from backups (§IV-A3). Applies to tables
  // with the read_backup option.
  bool read_backup_commit_ack = true;
};

}  // namespace repro::ndb
