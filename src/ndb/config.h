// Calibrated costs, datanode settings and feature flags for the NDB
// substrate.
//
// CPU costs are calibrated so a 12-datanode cluster saturates in the same
// region as the paper's testbed (Figs. 5, 10, 11); message sizes are
// typical NDB signal sizes. The feature flags correspond one-to-one to
// the AZ-awareness mechanisms §IV introduces, so each can be ablated.
#pragma once

#include "util/time.h"

namespace repro::ndb {

// Costs and sizes read by more than one file; each file keeps the rest of
// its calibrated costs in its own anonymous namespace.
// Per-message cost on the SEND thread type.
constexpr Nanos kSendPerMsg = 2 * kMicrosecond;
// fsync + page pad per redo group commit.
constexpr int64_t kRedoFlushOverheadBytes = 4096;
// Wire sizes (payload bytes; the network adds framing).
constexpr int64_t kMsgSmall = 64;  // Commit/Committed/Complete/Completed/acks
constexpr int64_t kMsgReadReq = 160;
constexpr int64_t kMsgScanReq = 192;

// LDM threads per datanode (Table II of the paper, 27 CPUs); the layout's
// default partition count is derived from it.
constexpr int kLdmThreads = 12;
constexpr Nanos kTxnInactiveTimeout = 2 * kSecond;   // abandoned transactions
constexpr Nanos kArbitrationTimeout = 150 * kMillisecond;

struct NdbNodeConfig {
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
};

struct FeatureFlags {
  // AZ-aware TC selection at the API node (§IV-A5) and AZ-aware read
  // routing at the TC (§IV-A4). Off = classic NDB distribution-aware
  // behaviour (primary-replica oriented).
  bool az_aware = false;
};

}  // namespace repro::ndb
