// Transaction bodies of the file-system operations (§II-A2).
//
// Every operation follows HopsFS's hierarchical (implicit) locking
// discipline: resolve the path with committed reads, take a row lock only
// on the target inode (exclusive for mutations, shared for reads) and on
// the parent directory for namespace mutations, read associated metadata
// with read committed, then commit. Rename is a single transaction over
// both directory entries — the atomic-rename capability object stores
// lack (§I).
#include <algorithm>
#include <cstring>
#include <memory>

#include "hopsfs/namenode.h"
#include "hopsfs/op_context.h"
#include "prof/profiler.h"
#include "resilience/deadline.h"
#include "util/strings.h"

namespace repro::hopsfs {

namespace {

// Decodes an inode row delivered by a locked read; nullopt on any failure.
std::optional<InodeRow> DecodeInode(const std::optional<std::string>& value) {
  if (!value) return std::nullopt;
  InodeRow row;
  if (!InodeRow::Decode(*value, &row)) return std::nullopt;
  return row;
}

// Finishes the operation with PERMISSION_DENIED (non-retryable).
#define REPRO_DENY(ctx, what)                                 \
  do {                                                        \
    api_->Abort((ctx)->txn);                                  \
    (ctx)->txn = 0;                                           \
    FsResult r;                                               \
    r.status = Status(Code::kPermissionDenied, what);         \
    Finish((ctx), std::move(r));                              \
  } while (0)

}  // namespace

// ---------------------------------------------------------------------------
// mkdir
// ---------------------------------------------------------------------------

void Namenode::DoMkdir(std::shared_ptr<OpCtx> ctx) {
  PROF_ZONE("nn.op.mkdir");
  if (ctx->req.path == "/") {
    FsResult r;
    r.status = AlreadyExists("/");
    Finish(ctx, std::move(r));
    return;
  }
  // Exclusive lock on the parent directory serialises same-directory
  // namespace mutations (the implicit lock of the subtree entry).
  api_->Read(ctx->txn, tables_.inodes, std::string(ctx->dir_row_key),
             ndb::LockMode::kExclusive,
             [this, ctx](Code code, std::optional<std::string> value) {
               if (code != Code::kOk) {
                 MaybeRetry(ctx, Status(code, "mkdir: parent lock"));
                 return;
               }
               auto parent = DecodeInode(value);
               if (!parent || !parent->is_dir) {
                 MaybeRetry(ctx, NotFound("mkdir: parent missing"));
                 return;
               }
               if (!HasAccess(*parent, ctx->req.user, kWrite)) {
                 REPRO_DENY(ctx, "mkdir: no write access to parent");
                 return;
               }
               InodeRow child;
               child.id = NextInodeId();
               child.is_dir = true;
               child.permissions = ctx->req.permissions;
               child.owner = ctx->req.user;
               child.mtime_ns = sim_.now();
               api_->Insert(
                   ctx->txn, tables_.inodes, InodeKey(ctx->dir, ctx->base),
                   child.Encode(), [this, ctx, parent](Code c2) {
                     if (c2 != Code::kOk) {
                       MaybeRetry(ctx, Status(c2, "mkdir: insert"));
                       return;
                     }
                     InodeRow p = *parent;
                     p.mtime_ns = sim_.now();
                     api_->Update(ctx->txn, tables_.inodes,
                                  std::string(ctx->dir_row_key),
                                  p.Encode(), [this, ctx](Code c3) {
                                    if (c3 != Code::kOk) {
                                      MaybeRetry(ctx,
                                                 Status(c3, "mkdir: touch"));
                                      return;
                                    }
                                    api_->Commit(ctx->txn, [this,
                                                            ctx](Code c4) {
                                      ctx->txn = 0;
                                      if (c4 != Code::kOk) {
                                        MaybeRetry(ctx,
                                                   Status(c4, "mkdir: commit"));
                                        return;
                                      }
                                      Finish(ctx, FsResult{});
                                    });
                                  });
                   });
             });
}

// ---------------------------------------------------------------------------
// create
// ---------------------------------------------------------------------------

void Namenode::DoCreate(std::shared_ptr<OpCtx> ctx) {
  PROF_ZONE("nn.op.create");
  api_->Read(ctx->txn, tables_.inodes, std::string(ctx->dir_row_key),
             ndb::LockMode::kExclusive,
             [this, ctx](Code code, std::optional<std::string> value) {
               if (code != Code::kOk) {
                 MaybeRetry(ctx, Status(code, "create: parent lock"));
                 return;
               }
               auto parent = DecodeInode(value);
               if (!parent || !parent->is_dir) {
                 MaybeRetry(ctx, NotFound("create: parent missing"));
                 return;
               }
               if (!HasAccess(*parent, ctx->req.user, kWrite)) {
                 REPRO_DENY(ctx, "create: no write access to parent");
                 return;
               }

               const int64_t size = ctx->req.size;
               InodeRow file;
               file.id = NextInodeId();
               file.is_dir = false;
               file.size = size;
               file.permissions = ctx->req.permissions;
               file.owner = ctx->req.user;
               file.mtime_ns = sim_.now();
               file.has_inline_data = size > 0 && size < kSmallFileThreshold;
               file.num_blocks =
                   size >= kSmallFileThreshold
                       ? static_cast<int32_t>((size + kDefaultBlockSize - 1) /
                                              kDefaultBlockSize)
                       : 0;

               // Collect all row writes of this transaction, then commit
               // once every prepare has been acknowledged.
               auto pending = std::make_shared<int>(0);
               auto failed = std::make_shared<Code>(Code::kOk);
               auto result = std::make_shared<FsResult>();
               auto one_done = [this, ctx, pending, failed,
                                result](Code c) mutable {
                 if (c != Code::kOk && *failed == Code::kOk) *failed = c;
                 if (--*pending > 0) return;
                 if (*failed != Code::kOk) {
                   MaybeRetry(ctx, Status(*failed, "create: write"));
                   return;
                 }
                 api_->Commit(ctx->txn, [this, ctx, result](Code c2) {
                   ctx->txn = 0;
                   if (c2 != Code::kOk) {
                     MaybeRetry(ctx, Status(c2, "create: commit"));
                     return;
                   }
                   Finish(ctx, std::move(*result));
                 });
               };

               // Reserve every completion slot before issuing any
               // operation: a synchronously-failing op must not drive the
               // counter to zero while later ops are still unissued.
               *pending += 1;  // the inode insert
               if (file.has_inline_data) *pending += 1;
               *pending += 1;  // the parent mtime touch
               std::vector<BlockRow> blocks;
               if (file.num_blocks > 0) {
                 int64_t remaining = size;
                 for (int32_t i = 0; i < file.num_blocks; ++i) {
                   BlockRow b;
                   b.block_id = NextBlockId();
                   b.num_bytes = std::min<int64_t>(remaining,
                                                   kDefaultBlockSize);
                   remaining -= b.num_bytes;
                   if (dn_registry_ != nullptr && placement_ != nullptr) {
                     const AzId writer = ctx->req.client_az != kNoAz
                                             ? ctx->req.client_az
                                             : az_;
                     for (blocks::DnId d : placement_->ChooseTargets(
                              config_.block_replication, writer,
                              *dn_registry_, sim_.now(), rng_)) {
                       b.replicas.push_back(d);
                     }
                   }
                   *pending += 1;                                  // block row
                   *pending += static_cast<int>(b.replicas.size());  // index
                   blocks.push_back(std::move(b));
                 }
               }
               result->new_blocks = blocks;
               result->inode = file;

               api_->Insert(ctx->txn, tables_.inodes,
                            InodeKey(ctx->dir, ctx->base), file.Encode(),
                            one_done);
               if (file.has_inline_data) {
                 api_->Write(ctx->txn, tables_.inline_data,
                             InlineDataKey(file.id),
                             std::string(static_cast<size_t>(size), 'd'),
                             one_done);
               }
               for (size_t i = 0; i < blocks.size(); ++i) {
                 const std::string bkey =
                     BlockKey(file.id, static_cast<int32_t>(i));
                 api_->Insert(ctx->txn, tables_.blocks, bkey,
                              blocks[i].Encode(), one_done);
                 for (blocks::DnId d : blocks[i].replicas) {
                   api_->Insert(ctx->txn, tables_.dn_blocks,
                                DnBlockKey(d, blocks[i].block_id), bkey,
                                one_done);
                 }
               }
               InodeRow p = *parent;
               p.mtime_ns = sim_.now();
               api_->Update(ctx->txn, tables_.inodes,
                            std::string(ctx->dir_row_key), p.Encode(),
                            one_done);
             });
}

// ---------------------------------------------------------------------------
// stat
// ---------------------------------------------------------------------------

// Read-only operations (stat, listing, open) read the target inode with
// read committed instead of a shared lock (§I: "read and fstat ... prefer
// reading replicas local to the client's AZ - enabled by synchronous
// replication"): with Read Backup the commit ack guarantees every replica
// is current, so the lock-free read is consistent and AZ-local.
void Namenode::DoStat(std::shared_ptr<OpCtx> ctx) {
  PROF_ZONE("nn.op.stat");
  // The wire key is built directly in the call: one string materialised,
  // no named copy (this runs synchronously inside nn.op.dispatch).
  api_->Read(ctx->txn, tables_.inodes,
             ctx->req.path == "/" ? InodeKey(0, "")
                                  : InodeKey(ctx->dir, ctx->base),
             ndb::LockMode::kReadCommitted,
             [this, ctx](Code code, std::optional<std::string> value) {
               if (code != Code::kOk) {
                 MaybeRetry(ctx, Status(code, "stat: read"));
                 return;
               }
               auto row = DecodeInode(value);
               if (!row) {
                 MaybeRetry(ctx, NotFound("stat: no such path"));
                 return;
               }
               if (!HasAccess(*row, ctx->req.user, kRead)) {
                 REPRO_DENY(ctx, "stat: no read access");
                 return;
               }
               FsResult r;
               r.inode = *row;
               api_->Commit(ctx->txn, [this, ctx, r](Code c2) mutable {
                 ctx->txn = 0;
                 if (c2 != Code::kOk) {
                   MaybeRetry(ctx, Status(c2, "stat: commit"));
                   return;
                 }
                 Finish(ctx, std::move(r));
               });
             });
}

// ---------------------------------------------------------------------------
// open / read file
// ---------------------------------------------------------------------------

void Namenode::DoOpenRead(std::shared_ptr<OpCtx> ctx) {
  PROF_ZONE("nn.op.open_read");
  api_->Read(
      ctx->txn, tables_.inodes,
      ctx->req.path == "/" ? InodeKey(0, "") : InodeKey(ctx->dir, ctx->base),
      ndb::LockMode::kReadCommitted,
      [this, ctx](Code code, std::optional<std::string> value) {
        if (code != Code::kOk) {
          MaybeRetry(ctx, Status(code, "read: stat"));
          return;
        }
        auto row = DecodeInode(value);
        if (!row) {
          MaybeRetry(ctx, NotFound("read: no such file"));
          return;
        }
        if (!HasAccess(*row, ctx->req.user, kRead)) {
          REPRO_DENY(ctx, "read: no read access");
          return;
        }
        if (row->is_dir) {
          api_->Abort(ctx->txn);
          ctx->txn = 0;
          FsResult r;
          r.status = FailedPrecondition("read: is a directory");
          Finish(ctx, std::move(r));
          return;
        }
        auto finish_with = [this, ctx](FsResult r) {
          api_->Commit(ctx->txn, [this, ctx, r](Code c) mutable {
            ctx->txn = 0;
            if (c != Code::kOk) {
              MaybeRetry(ctx, Status(c, "read: commit"));
              return;
            }
            Finish(ctx, std::move(r));
          });
        };
        FsResult r;
        r.inode = *row;
        if (row->has_inline_data) {
          // Small file: the payload lives with the metadata (§II-A3).
          api_->Read(ctx->txn, tables_.inline_data, InlineDataKey(row->id),
                     ndb::LockMode::kReadCommitted,
                     [this, ctx, r, finish_with](
                         Code c2, std::optional<std::string> data) mutable {
                       if (c2 != Code::kOk) {
                         MaybeRetry(ctx, Status(c2, "read: inline data"));
                         return;
                       }
                       r.inline_bytes =
                           data ? static_cast<int64_t>(data->size()) : 0;
                       finish_with(std::move(r));
                     });
          return;
        }
        if (row->num_blocks > 0) {
          api_->ScanPrefix(
              ctx->txn, tables_.blocks, BlocksOfInodePrefix(row->id),
              [this, ctx, r, finish_with](
                  Code c2,
                  std::vector<std::pair<ndb::Key, std::string>> rows) mutable {
                if (c2 != Code::kOk) {
                  MaybeRetry(ctx, Status(c2, "read: block scan"));
                  return;
                }
                for (const auto& [k, v] : rows) {
                  BlockRow b;
                  if (BlockRow::Decode(v, &b)) r.blocks.push_back(b);
                }
                finish_with(std::move(r));
              });
          return;
        }
        finish_with(std::move(r));
      });
}

// ---------------------------------------------------------------------------
// delete
// ---------------------------------------------------------------------------

void Namenode::DoDelete(std::shared_ptr<OpCtx> ctx) {
  PROF_ZONE("nn.op.delete");
  api_->Read(
      ctx->txn, tables_.inodes, std::string(ctx->dir_row_key),
      ndb::LockMode::kExclusive,
      [this, ctx](Code code, std::optional<std::string> pvalue) {
        if (code != Code::kOk) {
          MaybeRetry(ctx, Status(code, "delete: parent lock"));
          return;
        }
        auto parent = DecodeInode(pvalue);
        if (!parent) {
          MaybeRetry(ctx, NotFound("delete: parent missing"));
          return;
        }
        if (!HasAccess(*parent, ctx->req.user, kWrite)) {
          REPRO_DENY(ctx, "delete: no write access to parent");
          return;
        }
        api_->Read(
            ctx->txn, tables_.inodes, InodeKey(ctx->dir, ctx->base),
            ndb::LockMode::kExclusive,
            [this, ctx, parent](Code c2, std::optional<std::string> value) {
              if (c2 != Code::kOk) {
                MaybeRetry(ctx, Status(c2, "delete: target lock"));
                return;
              }
              auto row = DecodeInode(value);
              if (!row) {
                MaybeRetry(ctx, NotFound("delete: no such path"));
                return;
              }
              auto proceed = [this, ctx, parent,
                              row](std::vector<BlockRow> blocks) {
                auto pending = std::make_shared<int>(0);
                auto failed = std::make_shared<Code>(Code::kOk);
                auto blocks_copy =
                    std::make_shared<std::vector<BlockRow>>(blocks);
                auto one_done = [this, ctx, pending, failed,
                                 blocks_copy](Code c) {
                  if (c != Code::kOk && *failed == Code::kOk) *failed = c;
                  if (--*pending > 0) return;
                  if (*failed != Code::kOk) {
                    MaybeRetry(ctx, Status(*failed, "delete: write"));
                    return;
                  }
                  api_->Commit(ctx->txn, [this, ctx, blocks_copy](Code cc) {
                    ctx->txn = 0;
                    if (cc != Code::kOk) {
                      MaybeRetry(ctx, Status(cc, "delete: commit"));
                      return;
                    }
                    // Post-commit: tell the datanodes to drop replicas.
                    if (dn_registry_ != nullptr) {
                      for (const auto& b : *blocks_copy) {
                        for (blocks::DnId d : b.replicas) {
                          auto* dn = dn_registry_->dn(d);
                          network_.Send(host_, dn->host(), 96,
                                        [dn, id = b.block_id] {
                                          dn->DeleteBlock(id);
                                        });
                        }
                      }
                    }
                    Finish(ctx, FsResult{});
                  });
                };

                *pending += 1;  // target delete
                if (row->has_inline_data) *pending += 1;
                for (const auto& b : blocks) {
                  *pending += 1;  // block row
                  *pending += static_cast<int>(b.replicas.size());
                }
                *pending += 1;  // parent touch

                api_->Delete(ctx->txn, tables_.inodes,
                             InodeKey(ctx->dir, ctx->base), one_done);
                if (row->has_inline_data) {
                  api_->Delete(ctx->txn, tables_.inline_data,
                               InlineDataKey(row->id), one_done);
                }
                for (size_t i = 0; i < blocks.size(); ++i) {
                  api_->Delete(ctx->txn, tables_.blocks,
                               BlockKey(row->id, static_cast<int32_t>(i)),
                               one_done);
                  for (blocks::DnId d : blocks[i].replicas) {
                    api_->Delete(ctx->txn, tables_.dn_blocks,
                                 DnBlockKey(d, blocks[i].block_id), one_done);
                  }
                }
                InodeRow p = *parent;
                p.mtime_ns = sim_.now();
                api_->Update(ctx->txn, tables_.inodes,
                             std::string(ctx->dir_row_key), p.Encode(),
                             one_done);
              };

              if (row->is_dir) {
                api_->ScanPrefix(
                    ctx->txn, tables_.inodes, InodeChildrenPrefix(row->id),
                    [this, ctx, proceed](
                        Code c3,
                        std::vector<std::pair<ndb::Key, std::string>> rows) {
                      if (c3 != Code::kOk) {
                        MaybeRetry(ctx, Status(c3, "delete: child scan"));
                        return;
                      }
                      if (!rows.empty()) {
                        api_->Abort(ctx->txn);
                        ctx->txn = 0;
                        FsResult r;
                        r.status =
                            FailedPrecondition("delete: directory not empty");
                        Finish(ctx, std::move(r));
                        return;
                      }
                      proceed({});
                    });
                return;
              }
              if (row->num_blocks > 0) {
                api_->ScanPrefix(
                    ctx->txn, tables_.blocks, BlocksOfInodePrefix(row->id),
                    [this, ctx, proceed](
                        Code c3,
                        std::vector<std::pair<ndb::Key, std::string>> rows) {
                      if (c3 != Code::kOk) {
                        MaybeRetry(ctx, Status(c3, "delete: block scan"));
                        return;
                      }
                      std::vector<BlockRow> blocks;
                      for (const auto& [k, v] : rows) {
                        BlockRow b;
                        if (BlockRow::Decode(v, &b)) blocks.push_back(b);
                      }
                      proceed(std::move(blocks));
                    });
                return;
              }
              proceed({});
            });
      });
}

// ---------------------------------------------------------------------------
// listdir
// ---------------------------------------------------------------------------

void Namenode::DoListDir(std::shared_ptr<OpCtx> ctx) {
  PROF_ZONE("nn.op.list_dir");
  api_->Read(
      ctx->txn, tables_.inodes,
      ctx->req.path == "/" ? InodeKey(0, "") : InodeKey(ctx->dir, ctx->base),
      ndb::LockMode::kReadCommitted,
      [this, ctx](Code code, std::optional<std::string> value) {
        if (code != Code::kOk) {
          MaybeRetry(ctx, Status(code, "ls: read"));
          return;
        }
        auto row = DecodeInode(value);
        if (!row) {
          MaybeRetry(ctx, NotFound("ls: no such path"));
          return;
        }
        if (!HasAccess(*row, ctx->req.user, kRead)) {
          REPRO_DENY(ctx, "ls: no read access");
          return;
        }
        FsResult r;
        r.inode = *row;
        if (!row->is_dir) {
          // HDFS semantics: listing a file returns the file itself.
          r.children.emplace_back(ctx->base);
          api_->Commit(ctx->txn, [this, ctx, r](Code c2) mutable {
            ctx->txn = 0;
            if (c2 != Code::kOk) {
              MaybeRetry(ctx, Status(c2, "ls: commit"));
              return;
            }
            Finish(ctx, std::move(r));
          });
          return;
        }
        const std::string prefix = InodeChildrenPrefix(row->id);
        api_->ScanPrefix(
            ctx->txn, tables_.inodes, prefix,
            [this, ctx, r, prefix](
                Code c2,
                std::vector<std::pair<ndb::Key, std::string>> rows) mutable {
              if (c2 != Code::kOk) {
                MaybeRetry(ctx, Status(c2, "ls: scan"));
                return;
              }
              for (const auto& [k, v] : rows) {
                r.children.push_back(k.substr(prefix.size()));
              }
              api_->Commit(ctx->txn, [this, ctx, r](Code c3) mutable {
                ctx->txn = 0;
                if (c3 != Code::kOk) {
                  MaybeRetry(ctx, Status(c3, "ls: commit"));
                  return;
                }
                Finish(ctx, std::move(r));
              });
            });
      });
}

// ---------------------------------------------------------------------------
// rename
// ---------------------------------------------------------------------------

void Namenode::DoRename(std::shared_ptr<OpCtx> ctx) {
  PROF_ZONE("nn.op.rename");
  const std::string& src_path = ctx->req.path;
  const std::string& dst_path = ctx->req.path2;
  // "dst under src" check without materialising src + "/".
  const bool dst_inside_src = StartsWith(dst_path, src_path) &&
                              dst_path.size() > src_path.size() &&
                              dst_path[src_path.size()] == '/';
  if (src_path == "/" || dst_path.empty() || dst_path == "/" ||
      dst_inside_src) {
    FsResult r;
    r.status = InvalidArgument("rename: bad paths");
    Finish(ctx, std::move(r));
    return;
  }
  auto [dst_parent, dst_base] = SplitParentView(dst_path);
  ctx->dst_base = dst_base;  // view into req.path2, stable for the op
  ResolveDir(ctx, dst_parent, [this, ctx](InodeId dst_dir,
                                          std::string_view dst_key) {
    ctx->dst_dir = dst_dir;
    ctx->dst_dir_row_key = ctx->arena.Intern(dst_key);

    // Lock the two parent directories in row-key order (deadlock
    // avoidance), then move the entry.
    std::vector<std::string> parent_keys;
    parent_keys.emplace_back(ctx->dir_row_key);
    if (ctx->dst_dir_row_key != ctx->dir_row_key) {
      parent_keys.emplace_back(ctx->dst_dir_row_key);
    }
    std::sort(parent_keys.begin(), parent_keys.end());

    auto after_parent_locks = [this, ctx] {
      api_->Read(
          ctx->txn, tables_.inodes, InodeKey(ctx->dir, ctx->base),
          ndb::LockMode::kExclusive,
          [this, ctx](Code code, std::optional<std::string> value) {
            if (code != Code::kOk) {
              MaybeRetry(ctx, Status(code, "rename: src lock"));
              return;
            }
            auto row = DecodeInode(value);
            if (!row) {
              MaybeRetry(ctx, NotFound("rename: source missing"));
              return;
            }
            api_->Insert(
                ctx->txn, tables_.inodes,
                InodeKey(ctx->dst_dir, ctx->dst_base), row->Encode(),
                [this, ctx](Code c2) {
                  if (c2 != Code::kOk) {
                    MaybeRetry(ctx, Status(c2, "rename: dst insert"));
                    return;
                  }
                  api_->Delete(
                      ctx->txn, tables_.inodes, InodeKey(ctx->dir, ctx->base),
                      [this, ctx](Code c3) {
                        if (c3 != Code::kOk) {
                          MaybeRetry(ctx, Status(c3, "rename: src delete"));
                          return;
                        }
                        api_->Commit(ctx->txn, [this, ctx](Code c4) {
                          ctx->txn = 0;
                          if (c4 != Code::kOk) {
                            MaybeRetry(ctx, Status(c4, "rename: commit"));
                            return;
                          }
                          // Drop the hints for the moved path and
                          // everything under it: the keys in
                          // [src + "/", src + "0"), '0' being the
                          // character after '/'.
                          const std::string_view src = ctx->req.path;
                          auto bound = [&](char last) {
                            char* k = ctx->arena.Alloc(src.size() + 1);
                            std::memcpy(k, src.data(), src.size());
                            k[src.size()] = last;
                            return path_cache_.lower_bound(
                                std::string_view(k, src.size() + 1));
                          };
                          path_cache_.erase(bound('/'), bound('0'));
                          auto self = path_cache_.find(src);
                          if (self != path_cache_.end()) {
                            path_cache_.erase(self);
                          }
                          Finish(ctx, FsResult{});
                        });
                      });
                });
          });
      };

    // Sequentially X-lock the parents in sorted order. The self-
    // referencing closure captures itself weakly (see ResolveDir).
    auto lock_parent = std::make_shared<std::function<void(size_t)>>();
    auto keys = std::make_shared<std::vector<std::string>>(parent_keys);
    std::weak_ptr<std::function<void(size_t)>> weak_lock = lock_parent;
    *lock_parent = [this, ctx, keys, weak_lock,
                    after_parent_locks](size_t i) {
      auto self = weak_lock.lock();
      if (!self) return;
      if (i == keys->size()) {
        after_parent_locks();
        return;
      }
      api_->Read(ctx->txn, tables_.inodes, (*keys)[i],
                 ndb::LockMode::kExclusive,
                 [this, ctx, self, i](
                     Code code, std::optional<std::string> value) {
                   if (code != Code::kOk) {
                     MaybeRetry(ctx, Status(code, "rename: parent lock"));
                     return;
                   }
                   auto parent = DecodeInode(value);
                   if (!parent) {
                     MaybeRetry(ctx, NotFound("rename: parent missing"));
                     return;
                   }
                   if (!HasAccess(*parent, ctx->req.user, kWrite)) {
                     REPRO_DENY(ctx, "rename: no write access to parent");
                     return;
                   }
                   (*self)(i + 1);
                 });
    };
    (*lock_parent)(0);
  });
}

// ---------------------------------------------------------------------------
// chmod / chown / setTimes (attribute read-modify-write)
// ---------------------------------------------------------------------------

void Namenode::DoSetAttr(std::shared_ptr<OpCtx> ctx) {
  PROF_ZONE("nn.op.set_attr");
  const std::string key =
      ctx->req.path == "/" ? InodeKey(0, "") : InodeKey(ctx->dir, ctx->base);
  api_->Read(ctx->txn, tables_.inodes, key, ndb::LockMode::kExclusive,
             [this, ctx, key](Code code, std::optional<std::string> value) {
               if (code != Code::kOk) {
                 MaybeRetry(ctx, Status(code, "setattr: lock"));
                 return;
               }
               auto row = DecodeInode(value);
               if (!row) {
                 MaybeRetry(ctx, NotFound("setattr: no such path"));
                 return;
               }
               // chmod/chown require ownership (or the superuser);
               // setTimes requires write access.
               const std::string& user = ctx->req.user;
               const bool is_owner = user.empty() || user == row->owner;
               if ((ctx->req.op == FsOp::kChmod ||
                    ctx->req.op == FsOp::kChown) &&
                   !is_owner) {
                 REPRO_DENY(ctx, "setattr: not the owner");
                 return;
               }
               if (ctx->req.op == FsOp::kSetTimes &&
                   !HasAccess(*row, user, kWrite)) {
                 REPRO_DENY(ctx, "setattr: no write access");
                 return;
               }
               switch (ctx->req.op) {
                 case FsOp::kChmod:
                   row->permissions = ctx->req.permissions;
                   row->mtime_ns = sim_.now();
                   break;
                 case FsOp::kChown:
                   row->owner = ctx->req.owner;
                   row->mtime_ns = sim_.now();
                   break;
                 case FsOp::kSetTimes:
                 default:
                   row->mtime_ns = ctx->req.mtime_ns;
                   break;
               }
               api_->Update(ctx->txn, tables_.inodes, key, row->Encode(),
                            [this, ctx](Code c2) {
                              if (c2 != Code::kOk) {
                                MaybeRetry(ctx, Status(c2, "setattr: update"));
                                return;
                              }
                              api_->Commit(ctx->txn, [this, ctx](Code c3) {
                                ctx->txn = 0;
                                if (c3 != Code::kOk) {
                                  MaybeRetry(ctx,
                                             Status(c3, "setattr: commit"));
                                  return;
                                }
                                Finish(ctx, FsResult{});
                              });
                            });
             });
}

// ---------------------------------------------------------------------------
// append
// ---------------------------------------------------------------------------

void Namenode::DoAppend(std::shared_ptr<OpCtx> ctx) {
  PROF_ZONE("nn.op.append");
  const std::string key = InodeKey(ctx->dir, ctx->base);
  api_->Read(
      ctx->txn, tables_.inodes, key, ndb::LockMode::kExclusive,
      [this, ctx, key](Code code, std::optional<std::string> value) {
        if (code != Code::kOk) {
          MaybeRetry(ctx, Status(code, "append: lock"));
          return;
        }
        auto row = DecodeInode(value);
        if (!row) {
          MaybeRetry(ctx, NotFound("append: no such file"));
          return;
        }
        if (!HasAccess(*row, ctx->req.user, kWrite)) {
          REPRO_DENY(ctx, "append: no write access");
          return;
        }
        if (row->is_dir) {
          api_->Abort(ctx->txn);
          ctx->txn = 0;
          FsResult r;
          r.status = FailedPrecondition("append: is a directory");
          Finish(ctx, std::move(r));
          return;
        }

        const int64_t old_size = row->size;
        const int64_t new_size = old_size + ctx->req.size;
        InodeRow updated = *row;
        updated.size = new_size;
        updated.mtime_ns = sim_.now();

        auto pending = std::make_shared<int>(0);
        auto failed = std::make_shared<Code>(Code::kOk);
        auto result = std::make_shared<FsResult>();
        auto one_done = [this, ctx, pending, failed, result](Code c) {
          if (c != Code::kOk && *failed == Code::kOk) *failed = c;
          if (--*pending > 0) return;
          if (*failed != Code::kOk) {
            MaybeRetry(ctx, Status(*failed, "append: write"));
            return;
          }
          api_->Commit(ctx->txn, [this, ctx, result](Code c2) {
            ctx->txn = 0;
            if (c2 != Code::kOk) {
              MaybeRetry(ctx, Status(c2, "append: commit"));
              return;
            }
            Finish(ctx, std::move(*result));
          });
        };

        // Reserve the inode-update slot up front (see DoCreate).
        *pending += 1;
        std::vector<BlockRow> new_blocks;
        if (new_size < kSmallFileThreshold) {
          // Still small: grow the inline payload (§II-A3).
          updated.has_inline_data = new_size > 0;
          if (updated.has_inline_data) {
            *pending += 1;
            api_->Write(ctx->txn, tables_.inline_data,
                        InlineDataKey(updated.id),
                        std::string(static_cast<size_t>(new_size), 'd'),
                        one_done);
          }
        } else {
          // Crosses (or is already past) the threshold: block storage.
          if (row->has_inline_data) {
            *pending += 1;
            api_->Delete(ctx->txn, tables_.inline_data,
                         InlineDataKey(updated.id), one_done);
            updated.has_inline_data = false;
          }
          const int32_t blocks_needed = static_cast<int32_t>(
              (new_size + kDefaultBlockSize - 1) / kDefaultBlockSize);
          for (int32_t i = updated.num_blocks; i < blocks_needed; ++i) {
            BlockRow b;
            b.block_id = NextBlockId();
            b.num_bytes =
                std::min<int64_t>(kDefaultBlockSize,
                                  new_size - int64_t{i} * kDefaultBlockSize);
            if (dn_registry_ != nullptr && placement_ != nullptr) {
              const AzId writer = ctx->req.client_az != kNoAz
                                      ? ctx->req.client_az
                                      : az_;
              for (blocks::DnId d : placement_->ChooseTargets(
                       config_.block_replication, writer, *dn_registry_,
                       sim_.now(), rng_)) {
                b.replicas.push_back(d);
              }
            }
            *pending += 1;
            api_->Insert(ctx->txn, tables_.blocks, BlockKey(updated.id, i),
                         b.Encode(), one_done);
            for (blocks::DnId d : b.replicas) {
              *pending += 1;
              api_->Insert(ctx->txn, tables_.dn_blocks,
                           DnBlockKey(d, b.block_id), BlockKey(updated.id, i),
                           one_done);
            }
            new_blocks.push_back(std::move(b));
          }
          updated.num_blocks = blocks_needed;
        }
        result->new_blocks = std::move(new_blocks);
        result->inode = updated;
        api_->Update(ctx->txn, tables_.inodes, key, updated.Encode(),
                     one_done);
      });
}

// ---------------------------------------------------------------------------
// content summary (du)
// ---------------------------------------------------------------------------

void Namenode::DoContentSummary(std::shared_ptr<OpCtx> ctx) {
  PROF_ZONE("nn.op.content_summary");
  api_->Read(
      ctx->txn, tables_.inodes,
      ctx->req.path == "/" ? InodeKey(0, "") : InodeKey(ctx->dir, ctx->base),
      ndb::LockMode::kReadCommitted,
      [this, ctx](Code code, std::optional<std::string> value) {
        if (code != Code::kOk) {
          MaybeRetry(ctx, Status(code, "du: read"));
          return;
        }
        auto row = DecodeInode(value);
        if (!row) {
          MaybeRetry(ctx, NotFound("du: no such path"));
          return;
        }
        auto result = std::make_shared<FsResult>();
        if (!row->is_dir) {
          result->cs_files = 1;
          result->cs_bytes = row->size;
          api_->Commit(ctx->txn, [this, ctx, result](Code c) {
            ctx->txn = 0;
            if (c != Code::kOk) {
              MaybeRetry(ctx, Status(c, "du: commit"));
              return;
            }
            Finish(ctx, std::move(*result));
          });
          return;
        }
        result->cs_dirs = 1;
        // Breadth-first walk over directory partitions with committed
        // scans (read-only: no locks; a concurrent mutation may be
        // half-visible, like HDFS's du).
        auto frontier = std::make_shared<std::vector<InodeId>>();
        frontier->push_back(row->id);
        auto step = std::make_shared<std::function<void()>>();
        std::weak_ptr<std::function<void()>> weak = step;
        *step = [this, ctx, result, frontier, weak] {
          auto self = weak.lock();
          if (!self) return;
          // A du over a huge subtree can outlive its deadline mid-walk:
          // stop between scan batches rather than finishing doomed work.
          if (resilience::DeadlineExpired(ctx->req.deadline, sim_.now())) {
            MaybeRetry(ctx, DeadlineExceeded("du: deadline passed"));
            return;
          }
          if (frontier->empty()) {
            api_->Commit(ctx->txn, [this, ctx, result](Code c) {
              ctx->txn = 0;
              if (c != Code::kOk) {
                MaybeRetry(ctx, Status(c, "du: commit"));
                return;
              }
              Finish(ctx, std::move(*result));
            });
            return;
          }
          const InodeId dir = frontier->back();
          frontier->pop_back();
          api_->ScanPrefix(
              ctx->txn, tables_.inodes, InodeChildrenPrefix(dir),
              [this, ctx, result, frontier, self](
                  Code c, std::vector<std::pair<ndb::Key, std::string>> rows) {
                if (c != Code::kOk) {
                  MaybeRetry(ctx, Status(c, "du: scan"));
                  return;
                }
                for (const auto& [k, v] : rows) {
                  InodeRow child;
                  if (!InodeRow::Decode(v, &child)) continue;
                  if (child.is_dir) {
                    result->cs_dirs += 1;
                    frontier->push_back(child.id);
                  } else {
                    result->cs_files += 1;
                    result->cs_bytes += child.size;
                  }
                }
                (*self)();
              });
        };
        (*step)();
      });
}

// ---------------------------------------------------------------------------
// recursive delete (subtree operation)
// ---------------------------------------------------------------------------

void Namenode::DoDeleteRecursive(std::shared_ptr<OpCtx> ctx) {
  PROF_ZONE("nn.op.delete_recursive");
  if (ctx->req.path == "/") {
    FsResult r;
    r.status = InvalidArgument("cannot delete the root");
    Finish(ctx, std::move(r));
    return;
  }
  // Lock the parent and the subtree root exclusively (the implicit
  // subtree lock of HopsFS's subtree-operation protocol, condensed into
  // one transaction at simulator scale).
  api_->Read(
      ctx->txn, tables_.inodes, std::string(ctx->dir_row_key),
      ndb::LockMode::kExclusive,
      [this, ctx](Code code, std::optional<std::string> pvalue) {
        if (code != Code::kOk) {
          MaybeRetry(ctx, Status(code, "rmr: parent lock"));
          return;
        }
        auto rparent = DecodeInode(pvalue);
        if (!rparent) {
          MaybeRetry(ctx, NotFound("rmr: parent missing"));
          return;
        }
        if (!HasAccess(*rparent, ctx->req.user, kWrite)) {
          REPRO_DENY(ctx, "rmr: no write access to parent");
          return;
        }
        const std::string root_key = InodeKey(ctx->dir, ctx->base);
        api_->Read(
            ctx->txn, tables_.inodes, root_key, ndb::LockMode::kExclusive,
            [this, ctx, root_key](Code c2,
                                  std::optional<std::string> value) {
              if (c2 != Code::kOk) {
                MaybeRetry(ctx, Status(c2, "rmr: root lock"));
                return;
              }
              auto row = DecodeInode(value);
              if (!row) {
                MaybeRetry(ctx, NotFound("rmr: no such path"));
                return;
              }
              // Gather the subtree (keys + inode rows) breadth-first,
              // then delete everything in one commit.
              struct Gather {
                std::vector<std::pair<std::string, InodeRow>> doomed;
                std::vector<InodeId> frontier;
              };
              auto g = std::make_shared<Gather>();
              g->doomed.emplace_back(root_key, *row);
              if (row->is_dir) g->frontier.push_back(row->id);

              auto step = std::make_shared<std::function<void()>>();
              std::weak_ptr<std::function<void()>> weak = step;
              *step = [this, ctx, g, weak] {
                auto self = weak.lock();
                if (!self) return;
                if (resilience::DeadlineExpired(ctx->req.deadline,
                                                sim_.now())) {
                  MaybeRetry(ctx, DeadlineExceeded("rmr: deadline passed"));
                  return;
                }
                if (!g->frontier.empty()) {
                  const InodeId dir = g->frontier.back();
                  g->frontier.pop_back();
                  api_->ScanPrefix(
                      ctx->txn, tables_.inodes, InodeChildrenPrefix(dir),
                      [this, ctx, g, dir, self](
                          Code c,
                          std::vector<std::pair<ndb::Key, std::string>> rows) {
                        if (c != Code::kOk) {
                          MaybeRetry(ctx, Status(c, "rmr: scan"));
                          return;
                        }
                        for (const auto& [k, v] : rows) {
                          InodeRow child;
                          if (!InodeRow::Decode(v, &child)) continue;
                          g->doomed.emplace_back(k, child);
                          if (child.is_dir) g->frontier.push_back(child.id);
                        }
                        (*self)();
                      });
                  return;
                }
                // Delete every gathered row (plus inline payloads).
                auto pending = std::make_shared<int>(0);
                auto failed = std::make_shared<Code>(Code::kOk);
                auto one_done = [this, ctx, pending, failed](Code c) {
                  if (c != Code::kOk && *failed == Code::kOk) *failed = c;
                  if (--*pending > 0) return;
                  if (*failed != Code::kOk) {
                    MaybeRetry(ctx, Status(*failed, "rmr: delete"));
                    return;
                  }
                  api_->Commit(ctx->txn, [this, ctx](Code c2) {
                    ctx->txn = 0;
                    if (c2 != Code::kOk) {
                      MaybeRetry(ctx, Status(c2, "rmr: commit"));
                      return;
                    }
                    Finish(ctx, FsResult{});
                  });
                };
                for (const auto& [k, inode] : g->doomed) {
                  *pending += 1;
                  if (inode.has_inline_data) *pending += 1;
                }
                for (const auto& [k, inode] : g->doomed) {
                  api_->Delete(ctx->txn, tables_.inodes, k, one_done);
                  if (inode.has_inline_data) {
                    api_->Delete(ctx->txn, tables_.inline_data,
                                 InlineDataKey(inode.id), one_done);
                  }
                }
              };
              (*step)();
            });
      });
}

}  // namespace repro::hopsfs
