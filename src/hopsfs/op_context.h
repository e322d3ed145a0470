// Per-operation context and the step helpers' state shared by the
// namenode's transaction bodies (namenode.cc, namenode_ops.cc, leader.cc).
#pragma once

#include <charconv>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hopsfs/namenode.h"

namespace repro::hopsfs {

// HDFS-style access check, reduced to owner/other classes (no groups).
// An empty user is the superuser. `want` is a POSIX permission bit mask
// evaluated against the owner triplet when the user owns the inode, the
// "other" triplet otherwise.
inline bool HasAccess(const InodeRow& inode, const std::string& user,
                      uint32_t want) {
  if (user.empty()) return true;  // superuser
  const uint32_t perms = inode.permissions;
  const uint32_t bits = user == inode.owner ? (perms >> 6) : perms;
  return (bits & want) == want;
}

constexpr uint32_t kRead = 04;
constexpr uint32_t kWrite = 02;

// Bump arena backing OpCtx's string_view fields: row keys and path
// slices live here instead of in per-field std::strings, so the dispatch
// hot path stops paying one heap allocation per component. The inline
// block covers every key of a typical operation; oversized interns spill
// to exact-size heap chunks freed on Reset. Reset runs at the top of
// each attempt — safe because every NDB op of attempt N resolves (reply
// or timeout) before MaybeRetry schedules attempt N+1, so no stale
// callback can read a recycled view.
class OpArena {
 public:
  char* Alloc(size_t n) {
    if (kInline - used_ >= n) {
      char* p = buf_ + used_;
      used_ += n;
      return p;
    }
    overflow_.push_back(std::make_unique<char[]>(n));
    return overflow_.back().get();
  }

  std::string_view Intern(std::string_view s) {
    if (s.empty()) return {};
    char* p = Alloc(s.size());
    std::memcpy(p, s.data(), s.size());
    return {p, s.size()};
  }

  // "parent/name" inode row key (fsschema InodeKey) built in the arena.
  std::string_view InodeKeyIn(InodeId parent, std::string_view name) {
    char digits[24];
    auto [dend, ec] = std::to_chars(digits, digits + sizeof(digits), parent);
    (void)ec;
    const size_t id_len = static_cast<size_t>(dend - digits);
    char* p = Alloc(id_len + 1 + name.size());
    std::memcpy(p, digits, id_len);
    p[id_len] = '/';
    if (!name.empty()) std::memcpy(p + id_len + 1, name.data(), name.size());
    return {p, id_len + 1 + name.size()};
  }

  void Reset() {
    used_ = 0;
    overflow_.clear();
  }

 private:
  static constexpr size_t kInline = 512;
  size_t used_ = 0;
  char buf_[kInline];
  std::vector<std::unique_ptr<char[]>> overflow_;
};

// Fan-out join over the writes one transaction step issues in parallel.
// Writes are counted as they are issued and the join is armed after the
// last one, so a write that fails synchronously (a broken transaction
// fails every op inline) cannot decide the step while later writes are
// still unissued. Exactly one call to Complete or Arm returns true: the
// one after which the join is armed and no write is outstanding.
class WriteJoin {
 public:
  void Add() { ++pending_; }
  bool Complete(Code code) {
    if (code != Code::kOk && failed_ == Code::kOk) failed_ = code;
    --pending_;
    return Decide();
  }
  bool Arm() {
    armed_ = true;
    return Decide();
  }
  // The first failure among the completed writes (kOk if none failed).
  Code failed() const { return failed_; }

 private:
  bool Decide() {
    if (!armed_ || pending_ > 0 || decided_) return false;
    decided_ = true;
    return true;
  }

  int pending_ = 0;
  bool armed_ = false;
  bool decided_ = false;
  Code failed_ = Code::kOk;
};

// One inode read of an op body: its status messages and the checks the
// row must pass before the body continues (see Namenode::ReadInode).
struct InodeRead {
  const char* failed;   // message of a failed read (retried)
  const char* missing;  // message of a missing row (NotFound, retried)
  uint32_t access = 0;  // permission bits the caller needs (0 = none)
  const char* denied = nullptr;  // message of a failed access check
  bool dir = false;     // a row that is not a directory counts as missing
};

struct Namenode::OpCtx {
  RequestRef req;               // the client's request record, shared
  trace::SpanId span = 0;       // the client's RPC attempt span
  FsResultCb done;
  int attempt = 0;
  ndb::TxnId txn = 0;
  bool used_cache = false;      // this attempt relied on the path cache
  bool cache_retry_done = false;
  bool admitted = false;        // holds an admission-limiter slot
  Nanos admit_time = 0;         // when the slot was acquired
  trace::SpanId txn_span = 0;   // current transaction attempt's span

  // Backing store for the views below; reset per attempt.
  OpArena arena;

  // Filled by path resolution (parent directory of the target). The
  // views point into the request record or `arena`, both of which
  // outlive every callback of the attempt that wrote them: the context
  // holds its reference to the request until it returns to the pool.
  InodeId dir = 0;
  std::string_view dir_row_key;  // row key of the parent directory inode
  std::string_view base;         // final path component

  // Rename: destination parent.
  InodeId dst_dir = 0;
  std::string_view dst_dir_row_key;
  std::string_view dst_base;

  // Rows an op body reads in one step and writes in a later one.
  InodeRow parent;  // the locked parent directory
  InodeRow target;  // delete: the inode being removed

  // The attempt's fan-out writes, and the status messages of its
  // decision (a failed write, a failed commit).
  WriteJoin join;
  const char* write_what = nullptr;
  const char* commit_what = nullptr;
  // Blocks whose rows this attempt deletes; the replicas are dropped
  // from the datanodes once the transaction commits.
  std::vector<BlockRow> removed_blocks;

  // The reply, built up by the op body; reset per attempt.
  FsResult result;
};

}  // namespace repro::hopsfs
