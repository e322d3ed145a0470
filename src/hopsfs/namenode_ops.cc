// Transaction bodies of the file-system operations (§II-A2).
//
// Every operation follows HopsFS's hierarchical (implicit) locking
// discipline: resolve the path with committed reads, take a row lock only
// on the target inode (exclusive for mutations, shared for reads) and on
// the parent directory for namespace mutations, read associated metadata
// with read committed, then commit. Rename is a single transaction over
// both directory entries — the atomic-rename capability object stores
// lack (§I).
//
// The bodies are written over a few steps (DESIGN.md §15): ReadInode
// reads and checks one inode row, WriteThen chains one write to the next
// step, Joined/ArmJoin fan writes out and join them before the commit,
// CommitAndFinish is the commit tail and Fail the abort tail. Each
// continuation captures only {this, ctx} or {this, ctx, state}, so it
// stays inside SmallCall's inline slot. A continuation owns the op's
// pooled context and hands it on to the next step; a call that reads the
// context and moves it in the same expression reads it into a local
// first, since argument evaluation order is unspecified.
#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>

#include "hopsfs/namenode.h"
#include "hopsfs/op_context.h"
#include "prof/profiler.h"
#include "resilience/deadline.h"
#include "util/strings.h"

namespace repro::hopsfs {

namespace {

using Rows = ndb::NdbApiNode::Rows;
constexpr ndb::LockMode kLocked = ndb::LockMode::kExclusive;
constexpr ndb::LockMode kCommitted = ndb::LockMode::kReadCommitted;

// The inode reads of the op bodies, one per call site.
constexpr InodeRead kMkdirParent{"mkdir: parent lock", "mkdir: parent missing",
                                 kWrite, "mkdir: no write access to parent",
                                 /*dir=*/true};
constexpr InodeRead kCreateParent{
    "create: parent lock", "create: parent missing", kWrite,
    "create: no write access to parent", /*dir=*/true};
constexpr InodeRead kStatTarget{"stat: read", "stat: no such path", kRead,
                                "stat: no read access"};
constexpr InodeRead kOpenTarget{"read: stat", "read: no such file", kRead,
                                "read: no read access"};
constexpr InodeRead kDeleteParent{"delete: parent lock",
                                  "delete: parent missing", kWrite,
                                  "delete: no write access to parent"};
constexpr InodeRead kDeleteTarget{"delete: target lock",
                                  "delete: no such path"};
constexpr InodeRead kListTarget{"ls: read", "ls: no such path", kRead,
                                "ls: no read access"};
constexpr InodeRead kRenameParent{"rename: parent lock",
                                  "rename: parent missing", kWrite,
                                  "rename: no write access to parent"};
constexpr InodeRead kRenameSource{"rename: src lock", "rename: source missing"};
constexpr InodeRead kSetAttrTarget{"setattr: lock", "setattr: no such path"};
constexpr InodeRead kAppendTarget{"append: lock", "append: no such file",
                                  kWrite, "append: no write access"};
constexpr InodeRead kDuTarget{"du: read", "du: no such path"};
constexpr InodeRead kRmrParent{"rmr: parent lock", "rmr: parent missing",
                               kWrite, "rmr: no write access to parent"};
constexpr InodeRead kRmrRoot{"rmr: root lock", "rmr: no such path"};

// A small file's payload row (§II-A3).
ndb::RowImage InlineData(int64_t size) {
  return ndb::RowImage::Filled(static_cast<size_t>(size), 'd');
}

std::vector<BlockRow> DecodeBlocks(const Rows& rows) {
  std::vector<BlockRow> blocks;
  for (const auto& [k, v] : rows) {
    BlockRow b;
    if (BlockRow::Decode(v.view(), &b)) blocks.push_back(std::move(b));
  }
  return blocks;
}

}  // namespace

// ---------------------------------------------------------------------------
// Transaction steps
// ---------------------------------------------------------------------------

// A failed read and a missing (or, with `what.dir`, non-directory) row go
// to MaybeRetry: under a stale path hint both only mean "re-resolve". A
// failed access check is final.
template <typename Then>
void Namenode::ReadInode(OpPtr ctx, ndb::Key key, ndb::LockMode mode,
                         const InodeRead& what, Then then) {
  const ndb::TxnId txn = ctx->txn;
  api_->Read(txn, tables_.inodes, std::move(key), mode,
             [this, ctx = std::move(ctx), &what, then](
                 Code code, ndb::RowImage value) mutable {
               if (code != Code::kOk) {
                 MaybeRetry(std::move(ctx), Status(code, what.failed));
                 return;
               }
               InodeRow row;
               if (!value || !InodeRow::Decode(value.view(), &row) ||
                   (what.dir && !row.is_dir)) {
                 MaybeRetry(std::move(ctx), NotFound(what.missing));
                 return;
               }
               if (!HasAccess(row, ctx->req->user, what.access)) {
                 Fail(*ctx, Status(Code::kPermissionDenied, what.denied));
                 return;
               }
               then(std::move(ctx), row);
             });
}

template <typename Then>
Namenode::WriteCb Namenode::WriteThen(OpPtr ctx, const char* what,
                                      Then then) {
  return [this, ctx = std::move(ctx), what, then](Code code) mutable {
    if (code != Code::kOk) {
      MaybeRetry(std::move(ctx), Status(code, what));
      return;
    }
    then(std::move(ctx));
  };
}

Namenode::WriteCb Namenode::Joined(const OpPtr& ctx) {
  ctx->join.Add();
  return [this, ctx = ctx.Share()](Code code) mutable {
    if (ctx->join.Complete(code)) JoinDecided(std::move(ctx));
  };
}

// Arms the join after the attempt's last write: the first failed write
// retries the attempt, otherwise the transaction commits.
void Namenode::ArmJoin(OpPtr ctx, const char* write_what,
                       const char* commit_what) {
  ctx->write_what = write_what;
  ctx->commit_what = commit_what;
  if (ctx->join.Arm()) JoinDecided(std::move(ctx));
}

void Namenode::JoinDecided(OpPtr ctx) {
  if (ctx->join.failed() != Code::kOk) {
    const Status failure(ctx->join.failed(), ctx->write_what);
    MaybeRetry(std::move(ctx), failure);
    return;
  }
  const char* what = ctx->commit_what;
  CommitAndFinish(std::move(ctx), what);
}

// Commits, runs the op's post-commit work and replies with ctx->result.
void Namenode::CommitAndFinish(OpPtr ctx, const char* what) {
  const ndb::TxnId txn = ctx->txn;
  api_->Commit(txn, [this, ctx = std::move(ctx), what](Code code) mutable {
    ctx->txn = 0;
    if (code != Code::kOk) {
      MaybeRetry(std::move(ctx), Status(code, what));
      return;
    }
    // Tell the datanodes to drop the replicas of removed blocks.
    if (dn_registry_ != nullptr) {
      for (const BlockRow& b : ctx->removed_blocks) {
        for (blocks::DnId d : b.replicas) {
          auto* dn = dn_registry_->dn(d);
          network_.Send(host_, dn->host(), 96,
                        [dn, id = b.block_id] { dn->DeleteBlock(id); });
        }
      }
    }
    if (ctx->req->op == FsOp::kRename) {
      // Drop the hints for the moved path and everything under it: the
      // keys in [src + "/", src + "0"), '0' being the character after '/'.
      const std::string_view src = ctx->req->path;
      auto bound = [&](char last) {
        char* k = ctx->arena.Alloc(src.size() + 1);
        std::memcpy(k, src.data(), src.size());
        k[src.size()] = last;
        return path_cache_.map().lower_bound(
            std::string_view(k, src.size() + 1));
      };
      path_cache_.EraseRange(bound('/'), bound('0'));
      const uint32_t hash = PathCache::Hash(src);
      if (const auto* self = path_cache_.Find(src, hash)) {
        path_cache_.Erase(*self, hash);
      }
    }
    Finish(*ctx, std::move(ctx->result));
  });
}

// Ends the op with a final status. Unlike MaybeRetry it neither retries
// nor checks the deadline, so a denial is never reported as a timeout.
void Namenode::Fail(OpCtx& ctx, Status status) {
  api_->Abort(ctx.txn);
  ctx.txn = 0;
  Finish(ctx, FsResult{std::move(status)});
}

void Namenode::TouchParent(OpCtx& ctx, WriteCb cb) {
  ctx.parent.mtime_ns = sim_.now();
  api_->Update(ctx.txn, tables_.inodes, std::string(ctx.dir_row_key),
               ctx.parent.Encode(), std::move(cb));
}

// Allocates blocks [from, to) of a `size`-byte file into
// ctx.result.new_blocks and places their replicas. False when block
// datanodes exist but none is alive to take a block: like HDFS below its
// minimum replication, the write fails rather than store bytes nothing
// holds.
bool Namenode::PlaceBlocks(OpCtx& ctx, int32_t from, int32_t to,
                           int64_t size) {
  const AzId writer = ctx.req->client_az != kNoAz ? ctx.req->client_az : az_;
  for (int32_t i = from; i < to; ++i) {
    BlockRow& b = ctx.result.new_blocks.emplace_back();
    b.block_id = NextBlockId();
    b.num_bytes = std::min<int64_t>(kDefaultBlockSize,
                                    size - int64_t{i} * kDefaultBlockSize);
    if (dn_registry_ == nullptr || placement_ == nullptr) continue;
    for (blocks::DnId d :
         placement_->ChooseTargets(kBlockReplication, writer, *dn_registry_,
                                   sim_.now(), rng_)) {
      b.replicas.push_back(d);
    }
    if (b.replicas.empty()) return false;
  }
  return true;
}

// Joins the block and index row inserts of the placed blocks, the first
// of which is block `from` of `file`. The client streams them through
// their replica pipelines.
void Namenode::InsertBlocks(const OpPtr& ctx, InodeId file, int32_t from) {
  for (const BlockRow& b : ctx->result.new_blocks) {
    const std::string bkey = BlockKey(file, from++);
    api_->Insert(ctx->txn, tables_.blocks, bkey, b.Encode(), Joined(ctx));
    // Each replica's index row holds the block row's key.
    const ndb::RowImage index_row = ndb::RowImage::Of(bkey);
    for (blocks::DnId d : b.replicas) {
      api_->Insert(ctx->txn, tables_.dn_blocks, DnBlockKey(d, b.block_id),
                   index_row, Joined(ctx));
    }
  }
}

// Joins the deletes of one inode's rows: the inode, its inline payload,
// its block rows and their index rows. The replicas go after the commit.
void Namenode::RemoveInode(const OpPtr& ctx, ndb::Key key,
                           const InodeRow& inode,
                           std::vector<BlockRow> blocks) {
  api_->Delete(ctx->txn, tables_.inodes, std::move(key), Joined(ctx));
  if (inode.has_inline_data) {
    api_->Delete(ctx->txn, tables_.inline_data, InlineDataKey(inode.id),
                 Joined(ctx));
  }
  for (size_t i = 0; i < blocks.size(); ++i) {
    api_->Delete(ctx->txn, tables_.blocks,
                 BlockKey(inode.id, static_cast<int32_t>(i)), Joined(ctx));
    for (blocks::DnId d : blocks[i].replicas) {
      api_->Delete(ctx->txn, tables_.dn_blocks,
                   DnBlockKey(d, blocks[i].block_id), Joined(ctx));
    }
  }
  ctx->removed_blocks.insert(ctx->removed_blocks.end(),
                             std::make_move_iterator(blocks.begin()),
                             std::make_move_iterator(blocks.end()));
}

// ---------------------------------------------------------------------------
// mkdir / create
// ---------------------------------------------------------------------------

void Namenode::DoMkdir(OpPtr ctx) {
  PROF_ZONE("nn.op.mkdir");
  if (ctx->req->path == "/") {
    Fail(*ctx, AlreadyExists("/"));
    return;
  }
  // Exclusive lock on the parent directory serialises same-directory
  // namespace mutations (the implicit lock of the subtree entry).
  ndb::Key parent_key(ctx->dir_row_key);
  ReadInode(
      std::move(ctx), std::move(parent_key), kLocked, kMkdirParent,
      [this](OpPtr ctx, InodeRow& parent) {
        ctx->parent = std::move(parent);
        InodeRow child;
        child.id = NextInodeId();
        child.is_dir = true;
        child.permissions = ctx->req->permissions;
        child.owner = ctx->req->user;
        child.mtime_ns = sim_.now();
        const ndb::TxnId txn = ctx->txn;
        ndb::Key key = InodeKey(ctx->dir, ctx->base);
        api_->Insert(
            txn, tables_.inodes, std::move(key), child.Encode(),
            WriteThen(std::move(ctx), "mkdir: insert", [this](OpPtr ctx) {
              OpCtx& c = *ctx;
              TouchParent(c, WriteThen(std::move(ctx), "mkdir: touch",
                                       [this](OpPtr ctx) {
                                         CommitAndFinish(std::move(ctx),
                                                         "mkdir: commit");
                                       }));
            }));
      });
}

void Namenode::DoCreate(OpPtr ctx) {
  PROF_ZONE("nn.op.create");
  ndb::Key parent_key(ctx->dir_row_key);
  ReadInode(
      std::move(ctx), std::move(parent_key), kLocked, kCreateParent,
      [this](OpPtr ctx, InodeRow& parent) {
        ctx->parent = std::move(parent);
        const int64_t size = ctx->req->size;
        InodeRow& file = ctx->result.inode;
        file.id = NextInodeId();
        file.is_dir = false;
        file.size = size;
        file.permissions = ctx->req->permissions;
        file.owner = ctx->req->user;
        file.mtime_ns = sim_.now();
        file.has_inline_data = size > 0 && size < kSmallFileThreshold;
        file.num_blocks =
            size >= kSmallFileThreshold
                ? static_cast<int32_t>((size + kDefaultBlockSize - 1) /
                                       kDefaultBlockSize)
                : 0;
        if (!PlaceBlocks(*ctx, 0, file.num_blocks, size)) {
          Fail(*ctx, Unavailable("create: no live datanode for a block"));
          return;
        }
        // Every row write goes out at once; the commit waits for all.
        api_->Insert(ctx->txn, tables_.inodes, InodeKey(ctx->dir, ctx->base),
                     file.Encode(), Joined(ctx));
        if (file.has_inline_data) {
          api_->Write(ctx->txn, tables_.inline_data, InlineDataKey(file.id),
                      InlineData(size),
                      Joined(ctx));
        }
        InsertBlocks(ctx, file.id, 0);
        TouchParent(*ctx, Joined(ctx));
        ArmJoin(std::move(ctx), "create: write", "create: commit");
      });
}

// ---------------------------------------------------------------------------
// stat / open / listdir
// ---------------------------------------------------------------------------

// Read-only operations (stat, listing, open) read the target inode with
// read committed instead of a shared lock (§I: "read and fstat ... prefer
// reading replicas local to the client's AZ - enabled by synchronous
// replication"): with Read Backup the commit ack guarantees every replica
// is current, so the lock-free read is consistent and AZ-local.
void Namenode::DoStat(OpPtr ctx) {
  PROF_ZONE("nn.op.stat");
  ndb::Key key = InodeKey(ctx->dir, ctx->base);
  ReadInode(std::move(ctx), std::move(key), kCommitted, kStatTarget,
            [this](OpPtr ctx, InodeRow& row) {
              ctx->result.inode = std::move(row);
              CommitAndFinish(std::move(ctx), "stat: commit");
            });
}

void Namenode::DoOpenRead(OpPtr ctx) {
  PROF_ZONE("nn.op.open_read");
  ndb::Key key = InodeKey(ctx->dir, ctx->base);
  ReadInode(
      std::move(ctx), std::move(key), kCommitted, kOpenTarget,
      [this](OpPtr ctx, InodeRow& row) {
        if (row.is_dir) {
          Fail(*ctx, FailedPrecondition("read: is a directory"));
          return;
        }
        ctx->result.inode = row;
        const ndb::TxnId txn = ctx->txn;
        if (row.has_inline_data) {
          // Small file: the payload lives with the metadata (§II-A3).
          api_->Read(txn, tables_.inline_data, InlineDataKey(row.id),
                     kCommitted,
                     [this, ctx = std::move(ctx)](Code code,
                                                  ndb::RowImage data) mutable {
                       if (code != Code::kOk) {
                         MaybeRetry(std::move(ctx),
                                    Status(code, "read: inline data"));
                         return;
                       }
                       ctx->result.inline_bytes =
                           static_cast<int64_t>(data.size());
                       CommitAndFinish(std::move(ctx), "read: commit");
                     });
          return;
        }
        if (row.num_blocks > 0) {
          api_->ScanPrefix(txn, tables_.blocks, BlocksOfInodePrefix(row.id),
                           [this, ctx = std::move(ctx)](Code code,
                                                        Rows rows) mutable {
                             if (code != Code::kOk) {
                               MaybeRetry(std::move(ctx),
                                          Status(code, "read: block scan"));
                               return;
                             }
                             ctx->result.blocks = DecodeBlocks(rows);
                             OrderReplicas(ctx->result.blocks,
                                           ctx->req->client_az);
                             CommitAndFinish(std::move(ctx), "read: commit");
                           });
          return;
        }
        CommitAndFinish(std::move(ctx), "read: commit");
      });
}

// Lists each block's replicas in the order the reader should try them,
// as HDFS's sortLocatedBlocks does: the ones the registry counts live
// before the dead ones (a dead one never answers, so the reader would
// wait out its RPC timeout), and AZ-local before remote within each
// group when reads prefer the reader's AZ. The order is otherwise the
// block row's.
void Namenode::OrderReplicas(std::vector<BlockRow>& blocks,
                             AzId reader) const {
  if (dn_registry_ == nullptr) return;
  const Nanos now = sim_.now();
  const bool local_first = az_local_reads_ && reader != kNoAz;
  const auto rank = [&](blocks::DnId d) {
    return (dn_registry_->AliveAt(d, now) ? 0 : 2) +
           (local_first && dn_registry_->az_of(d) != reader ? 1 : 0);
  };
  for (BlockRow& b : blocks) {
    // A stable insertion sort: a block has a handful of replicas, and
    // std::stable_sort would allocate a buffer.
    std::vector<int32_t>& r = b.replicas;
    for (size_t i = 1; i < r.size(); ++i) {
      for (size_t j = i; j > 0 && rank(r[j]) < rank(r[j - 1]); --j) {
        std::swap(r[j], r[j - 1]);
      }
    }
  }
}

void Namenode::DoListDir(OpPtr ctx) {
  PROF_ZONE("nn.op.list_dir");
  ndb::Key key = InodeKey(ctx->dir, ctx->base);
  ReadInode(
      std::move(ctx), std::move(key), kCommitted, kListTarget,
      [this](OpPtr ctx, InodeRow& row) {
        ctx->result.inode = row;
        if (!row.is_dir) {
          // HDFS semantics: listing a file returns the file itself.
          ctx->result.children.emplace_back(ctx->base);
          CommitAndFinish(std::move(ctx), "ls: commit");
          return;
        }
        const ndb::TxnId txn = ctx->txn;
        api_->ScanPrefix(
            txn, tables_.inodes, InodeChildrenPrefix(row.id),
            [this, ctx = std::move(ctx)](Code code, Rows rows) mutable {
              if (code != Code::kOk) {
                MaybeRetry(std::move(ctx), Status(code, "ls: scan"));
                return;
              }
              // A child's key is "<dir id>/<name>".
              std::vector<std::string>& children = ctx->result.children;
              children.reserve(rows.size());
              for (const auto& [k, v] : rows) {
                children.push_back(k.substr(k.find('/') + 1));
              }
              CommitAndFinish(std::move(ctx), "ls: commit");
            });
      });
}

// ---------------------------------------------------------------------------
// delete
// ---------------------------------------------------------------------------

void Namenode::DoDelete(OpPtr ctx) {
  PROF_ZONE("nn.op.delete");
  ndb::Key parent_key(ctx->dir_row_key);
  ReadInode(
      std::move(ctx), std::move(parent_key), kLocked, kDeleteParent,
      [this](OpPtr ctx, InodeRow& parent) {
        ctx->parent = std::move(parent);
        ndb::Key key = InodeKey(ctx->dir, ctx->base);
        ReadInode(
            std::move(ctx), std::move(key), kLocked, kDeleteTarget,
            [this](OpPtr ctx, InodeRow& row) {
              ctx->target = std::move(row);
              auto remove = [this](OpPtr ctx, std::vector<BlockRow> blocks) {
                RemoveInode(ctx, InodeKey(ctx->dir, ctx->base), ctx->target,
                            std::move(blocks));
                TouchParent(*ctx, Joined(ctx));
                ArmJoin(std::move(ctx), "delete: write", "delete: commit");
              };
              const ndb::TxnId txn = ctx->txn;
              const InodeId id = ctx->target.id;
              if (ctx->target.is_dir) {
                api_->ScanPrefix(
                    txn, tables_.inodes, InodeChildrenPrefix(id),
                    [this, ctx = std::move(ctx), remove](Code code,
                                                         Rows rows) mutable {
                      if (code != Code::kOk) {
                        MaybeRetry(std::move(ctx),
                                   Status(code, "delete: child scan"));
                        return;
                      }
                      if (!rows.empty()) {
                        Fail(*ctx,
                             FailedPrecondition("delete: directory not empty"));
                        return;
                      }
                      remove(std::move(ctx), {});
                    });
                return;
              }
              if (ctx->target.num_blocks > 0) {
                api_->ScanPrefix(
                    txn, tables_.blocks, BlocksOfInodePrefix(id),
                    [this, ctx = std::move(ctx), remove](Code code,
                                                         Rows rows) mutable {
                      if (code != Code::kOk) {
                        MaybeRetry(std::move(ctx),
                                   Status(code, "delete: block scan"));
                        return;
                      }
                      remove(std::move(ctx), DecodeBlocks(rows));
                    });
                return;
              }
              remove(std::move(ctx), {});
            });
      });
}

// ---------------------------------------------------------------------------
// rename
// ---------------------------------------------------------------------------

void Namenode::DoRename(OpPtr ctx) {
  PROF_ZONE("nn.op.rename");
  const std::string& src_path = ctx->req->path;
  const std::string& dst_path = ctx->req->path2;
  // "dst under src" check without materialising src + "/".
  const bool dst_inside_src = StartsWith(dst_path, src_path) &&
                              dst_path.size() > src_path.size() &&
                              dst_path[src_path.size()] == '/';
  if (src_path == "/" || dst_path.empty() || dst_path == "/" ||
      dst_inside_src) {
    Fail(*ctx, InvalidArgument("rename: bad paths"));
    return;
  }
  auto [dst_parent, dst_base] = SplitParentView(dst_path);
  ctx->dst_base = dst_base;  // view into the request's path2
  const auto* hint = path_cache_.Find(dst_parent);
  ResolveDir(std::move(ctx), dst_parent,
             hint != nullptr ? &hint->second : nullptr,
             &Namenode::RenameDstResolved);
}

void Namenode::RenameDstResolved(OpPtr ctx, InodeId dst_dir,
                                 std::string_view dst_key) {
  ctx->dst_dir = dst_dir;
  ctx->dst_dir_row_key = dst_key;
  LockRenameParents(std::move(ctx), 0);
}

// X-locks the parent directories one at a time in row-key order
// (deadlock avoidance), then moves the entry.
void Namenode::LockRenameParents(OpPtr ctx, size_t i) {
  std::string_view first = ctx->dir_row_key;
  std::string_view second = ctx->dst_dir_row_key;
  if (second < first) std::swap(first, second);
  const size_t locks = first == second ? 1 : 2;
  if (i < locks) {
    ndb::Key key(i == 0 ? first : second);
    ReadInode(std::move(ctx), std::move(key), kLocked, kRenameParent,
              [this, i](OpPtr ctx, InodeRow&) {
                LockRenameParents(std::move(ctx), i + 1);
              });
    return;
  }
  ndb::Key key = InodeKey(ctx->dir, ctx->base);
  ReadInode(
      std::move(ctx), std::move(key), kLocked, kRenameSource,
      [this](OpPtr ctx, InodeRow& row) {
        const ndb::TxnId txn = ctx->txn;
        ndb::Key dst = InodeKey(ctx->dst_dir, ctx->dst_base);
        api_->Insert(
            txn, tables_.inodes, std::move(dst), row.Encode(),
            WriteThen(std::move(ctx), "rename: dst insert", [this](OpPtr ctx) {
              const ndb::TxnId txn = ctx->txn;
              ndb::Key src = InodeKey(ctx->dir, ctx->base);
              api_->Delete(txn, tables_.inodes, std::move(src),
                           WriteThen(std::move(ctx), "rename: src delete",
                                     [this](OpPtr ctx) {
                                       CommitAndFinish(std::move(ctx),
                                                       "rename: commit");
                                     }));
            }));
      });
}

// ---------------------------------------------------------------------------
// chmod / chown / setTimes (attribute read-modify-write)
// ---------------------------------------------------------------------------

void Namenode::DoSetAttr(OpPtr ctx) {
  PROF_ZONE("nn.op.set_attr");
  ndb::Key key = InodeKey(ctx->dir, ctx->base);
  ReadInode(
      std::move(ctx), std::move(key), kLocked, kSetAttrTarget,
      [this](OpPtr ctx, InodeRow& row) {
        // chmod/chown require ownership (or the superuser); setTimes
        // requires write access.
        const FsRequest& req = *ctx->req;
        const FsOp op = req.op;
        const std::string& user = req.user;
        const bool is_owner = user.empty() || user == row.owner;
        if ((op == FsOp::kChmod || op == FsOp::kChown) && !is_owner) {
          Fail(*ctx, Status(Code::kPermissionDenied, "setattr: not the owner"));
          return;
        }
        if (op == FsOp::kSetTimes && !HasAccess(row, user, kWrite)) {
          Fail(*ctx,
               Status(Code::kPermissionDenied, "setattr: no write access"));
          return;
        }
        switch (op) {
          case FsOp::kChmod:
            row.permissions = req.permissions;
            row.mtime_ns = sim_.now();
            break;
          case FsOp::kChown:
            row.owner = req.owner;
            row.mtime_ns = sim_.now();
            break;
          case FsOp::kSetTimes:
          default:
            row.mtime_ns = req.mtime_ns;
            break;
        }
        const ndb::TxnId txn = ctx->txn;
        ndb::Key key = InodeKey(ctx->dir, ctx->base);
        api_->Update(txn, tables_.inodes, std::move(key), row.Encode(),
                     WriteThen(std::move(ctx), "setattr: update",
                               [this](OpPtr ctx) {
                                 CommitAndFinish(std::move(ctx),
                                                 "setattr: commit");
                               }));
      });
}

// ---------------------------------------------------------------------------
// append
// ---------------------------------------------------------------------------

void Namenode::DoAppend(OpPtr ctx) {
  PROF_ZONE("nn.op.append");
  ndb::Key key = InodeKey(ctx->dir, ctx->base);
  ReadInode(
      std::move(ctx), std::move(key), kLocked, kAppendTarget,
      [this](OpPtr ctx, InodeRow& row) {
        if (row.is_dir) {
          Fail(*ctx, FailedPrecondition("append: is a directory"));
          return;
        }
        const int64_t new_size = row.size + ctx->req->size;
        const int32_t blocks_needed =
            new_size < kSmallFileThreshold
                ? row.num_blocks
                : static_cast<int32_t>(
                      (new_size + kDefaultBlockSize - 1) / kDefaultBlockSize);
        if (!PlaceBlocks(*ctx, row.num_blocks, blocks_needed, new_size)) {
          Fail(*ctx, Unavailable("append: no live datanode for a block"));
          return;
        }
        InodeRow& updated = ctx->result.inode;
        updated = std::move(row);
        updated.size = new_size;
        updated.mtime_ns = sim_.now();
        if (new_size < kSmallFileThreshold) {
          // Still small: grow the inline payload (§II-A3).
          updated.has_inline_data = new_size > 0;
          if (updated.has_inline_data) {
            api_->Write(ctx->txn, tables_.inline_data,
                        InlineDataKey(updated.id),
                        InlineData(new_size),
                        Joined(ctx));
          }
        } else {
          // Crosses (or is already past) the threshold: block storage.
          if (updated.has_inline_data) {
            api_->Delete(ctx->txn, tables_.inline_data,
                         InlineDataKey(updated.id), Joined(ctx));
            updated.has_inline_data = false;
          }
          InsertBlocks(ctx, updated.id, updated.num_blocks);
          updated.num_blocks = blocks_needed;
        }
        api_->Update(ctx->txn, tables_.inodes, InodeKey(ctx->dir, ctx->base),
                     updated.Encode(), Joined(ctx));
        ArmJoin(std::move(ctx), "append: write", "append: commit");
      });
}

// ---------------------------------------------------------------------------
// content summary (du) and recursive delete (subtree operation)
// ---------------------------------------------------------------------------

// A depth-first walk over directory partitions with committed scans.
struct Namenode::SubtreeWalk {
  struct Entry {
    std::string key;
    InodeRow inode;
    std::vector<BlockRow> blocks;
  };
  std::vector<InodeId> frontier;  // directories still to scan
  std::vector<Entry> doomed;      // rmr: every inode of the subtree
  size_t next = 0;                // rmr: the entry whose blocks come next
};

void Namenode::DoContentSummary(OpPtr ctx) {
  PROF_ZONE("nn.op.content_summary");
  ndb::Key key = InodeKey(ctx->dir, ctx->base);
  ReadInode(std::move(ctx), std::move(key), kCommitted, kDuTarget,
            [this](OpPtr ctx, InodeRow& row) {
              if (!row.is_dir) {
                ctx->result.cs_files = 1;
                ctx->result.cs_bytes = row.size;
                CommitAndFinish(std::move(ctx), "du: commit");
                return;
              }
              // Read-only: no locks, so a concurrent mutation may be
              // half-visible, like HDFS's du.
              ctx->result.cs_dirs = 1;
              auto w = std::make_shared<SubtreeWalk>();
              w->frontier.push_back(row.id);
              WalkSubtree(std::move(ctx), std::move(w));
            });
}

void Namenode::DoDeleteRecursive(OpPtr ctx) {
  PROF_ZONE("nn.op.delete_recursive");
  if (ctx->req->path == "/") {
    Fail(*ctx, InvalidArgument("cannot delete the root"));
    return;
  }
  // Lock the parent and the subtree root exclusively (the implicit
  // subtree lock of HopsFS's subtree-operation protocol, condensed into
  // one transaction at simulator scale), gather the subtree, then delete
  // everything in one commit.
  ndb::Key parent_key(ctx->dir_row_key);
  ReadInode(std::move(ctx), std::move(parent_key), kLocked, kRmrParent,
            [this](OpPtr ctx, InodeRow&) {
              ndb::Key key = InodeKey(ctx->dir, ctx->base);
              ReadInode(std::move(ctx), std::move(key), kLocked, kRmrRoot,
                        [this](OpPtr ctx, InodeRow& row) {
                          auto w = std::make_shared<SubtreeWalk>();
                          if (row.is_dir) w->frontier.push_back(row.id);
                          w->doomed.push_back({InodeKey(ctx->dir, ctx->base),
                                               std::move(row), {}});
                          WalkSubtree(std::move(ctx), std::move(w));
                        });
            });
}

void Namenode::WalkSubtree(OpPtr ctx, std::shared_ptr<SubtreeWalk> w) {
  const bool rmr = ctx->req->op == FsOp::kDeleteRecursive;
  // A walk over a huge subtree can outlive its deadline: stop between
  // scan batches rather than finishing doomed work.
  if (resilience::DeadlineExpired(ctx->req->deadline, sim_.now())) {
    MaybeRetry(std::move(ctx), DeadlineExceeded(rmr ? "rmr: deadline passed"
                                                    : "du: deadline passed"));
    return;
  }
  if (w->frontier.empty()) {
    if (rmr) {
      ScanRemovedBlocks(std::move(ctx), std::move(w));
    } else {
      CommitAndFinish(std::move(ctx), "du: commit");
    }
    return;
  }
  const InodeId dir = w->frontier.back();
  w->frontier.pop_back();
  const ndb::TxnId txn = ctx->txn;
  api_->ScanPrefix(
      txn, tables_.inodes, InodeChildrenPrefix(dir),
      [this, ctx = std::move(ctx), w, rmr](Code code, Rows rows) mutable {
        if (code != Code::kOk) {
          MaybeRetry(std::move(ctx),
                     Status(code, rmr ? "rmr: scan" : "du: scan"));
          return;
        }
        FsResult& r = ctx->result;
        for (auto& [k, v] : rows) {
          InodeRow child;
          if (!InodeRow::Decode(v.view(), &child)) continue;
          if (child.is_dir) w->frontier.push_back(child.id);
          if (rmr) {
            w->doomed.push_back({std::move(k), std::move(child), {}});
          } else if (child.is_dir) {
            r.cs_dirs += 1;
          } else {
            r.cs_files += 1;
            r.cs_bytes += child.size;
          }
        }
        WalkSubtree(std::move(ctx), w);
      });
}

// rmr: scans the block rows of each gathered file that has blocks, then
// removes every row of the subtree in one commit.
void Namenode::ScanRemovedBlocks(OpPtr ctx, std::shared_ptr<SubtreeWalk> w) {
  while (w->next < w->doomed.size() &&
         w->doomed[w->next].inode.num_blocks == 0) {
    ++w->next;
  }
  if (w->next < w->doomed.size()) {
    const ndb::TxnId txn = ctx->txn;
    api_->ScanPrefix(txn, tables_.blocks,
                     BlocksOfInodePrefix(w->doomed[w->next].inode.id),
                     [this, ctx = std::move(ctx), w](Code code,
                                                     Rows rows) mutable {
                       if (code != Code::kOk) {
                         MaybeRetry(std::move(ctx),
                                    Status(code, "rmr: block scan"));
                         return;
                       }
                       w->doomed[w->next++].blocks = DecodeBlocks(rows);
                       ScanRemovedBlocks(std::move(ctx), w);
                     });
    return;
  }
  for (SubtreeWalk::Entry& e : w->doomed) {
    RemoveInode(ctx, std::move(e.key), e.inode, std::move(e.blocks));
  }
  ArmJoin(std::move(ctx), "rmr: delete", "rmr: commit");
}

}  // namespace repro::hopsfs
