// End-to-end tests of the HopsFS file-system operations over the full
// stack: client -> namenode -> NDB transactions.
#include <gtest/gtest.h>

#include <algorithm>

#include "hopsfs/op_context.h"
#include "hopsfs_test_util.h"
#include "util/strings.h"

namespace repro::hopsfs {
namespace {

using testing::TestFs;

TEST(HopsFsOps, MkdirAndStat) {
  TestFs fs;
  EXPECT_TRUE(fs.Mkdir("/user").ok());
  EXPECT_TRUE(fs.Mkdir("/user/alice").ok());
  const auto r = fs.StatFull("/user/alice");
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.inode.is_dir);
}

TEST(HopsFsOps, MkdirDuplicateFails) {
  TestFs fs;
  EXPECT_TRUE(fs.Mkdir("/d").ok());
  EXPECT_EQ(fs.Mkdir("/d").code(), Code::kAlreadyExists);
}

TEST(HopsFsOps, MkdirMissingParentFails) {
  TestFs fs;
  EXPECT_EQ(fs.Mkdir("/no/such/parent").code(), Code::kNotFound);
}

TEST(HopsFsOps, CreateAndStatEmptyFile) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/data").ok());
  EXPECT_TRUE(fs.Create("/data/f1").ok());
  const auto r = fs.StatFull("/data/f1");
  ASSERT_TRUE(r.status.ok());
  EXPECT_FALSE(r.inode.is_dir);
  EXPECT_EQ(r.inode.size, 0);
}

TEST(HopsFsOps, StatMissingFileFails) {
  TestFs fs;
  EXPECT_EQ(fs.Stat("/nope").code(), Code::kNotFound);
}

TEST(HopsFsOps, StatRoot) {
  TestFs fs;
  const auto r = fs.StatFull("/");
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.inode.is_dir);
}

TEST(HopsFsOps, SmallFileStoredInline) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/small").ok());
  ASSERT_TRUE(fs.Create("/small/cfg", 4096).ok());
  const auto r = fs.Open("/small/cfg");
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.inode.has_inline_data);
  EXPECT_EQ(r.inline_bytes, 4096);
  EXPECT_TRUE(r.blocks.empty());
}

TEST(HopsFsOps, ListDirReturnsChildrenSorted) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/ls").ok());
  ASSERT_TRUE(fs.Create("/ls/b").ok());
  ASSERT_TRUE(fs.Create("/ls/a").ok());
  ASSERT_TRUE(fs.Mkdir("/ls/c").ok());
  const auto r = fs.List("/ls");
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.children.size(), 3u);
  EXPECT_EQ(r.children[0], "a");
  EXPECT_EQ(r.children[1], "b");
  EXPECT_EQ(r.children[2], "c");
}

TEST(HopsFsOps, ListFileReturnsItself) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/lf").ok());
  ASSERT_TRUE(fs.Create("/lf/only").ok());
  const auto r = fs.List("/lf/only");
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.children.size(), 1u);
  EXPECT_EQ(r.children[0], "only");
}

TEST(HopsFsOps, DeleteFile) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/del").ok());
  ASSERT_TRUE(fs.Create("/del/f").ok());
  EXPECT_TRUE(fs.Delete("/del/f").ok());
  EXPECT_EQ(fs.Stat("/del/f").code(), Code::kNotFound);
}

TEST(HopsFsOps, DeleteNonEmptyDirectoryFails) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/full").ok());
  ASSERT_TRUE(fs.Create("/full/f").ok());
  EXPECT_EQ(fs.Delete("/full").code(), Code::kFailedPrecondition);
  // After emptying it, the delete succeeds.
  ASSERT_TRUE(fs.Delete("/full/f").ok());
  EXPECT_TRUE(fs.Delete("/full").ok());
}

TEST(HopsFsOps, RenameFile) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Mkdir("/b").ok());
  ASSERT_TRUE(fs.Create("/a/f").ok());
  EXPECT_TRUE(fs.Rename("/a/f", "/b/g").ok());
  EXPECT_EQ(fs.Stat("/a/f").code(), Code::kNotFound);
  EXPECT_TRUE(fs.Stat("/b/g").ok());
}

TEST(HopsFsOps, RenameToExistingTargetFails) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/r").ok());
  ASSERT_TRUE(fs.Create("/r/x").ok());
  ASSERT_TRUE(fs.Create("/r/y").ok());
  EXPECT_EQ(fs.Rename("/r/x", "/r/y").code(), Code::kAlreadyExists);
  // Source must be intact after the failed rename (atomicity).
  EXPECT_TRUE(fs.Stat("/r/x").ok());
}

TEST(HopsFsOps, RenameDirectoryMovesSubtree) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/proj").ok());
  ASSERT_TRUE(fs.Mkdir("/proj/v1").ok());
  ASSERT_TRUE(fs.Create("/proj/v1/data").ok());
  ASSERT_TRUE(fs.Mkdir("/archive").ok());
  // The atomic directory rename object stores lack (§I): one transaction,
  // no data copying, children follow automatically.
  EXPECT_TRUE(fs.Rename("/proj/v1", "/archive/v1").ok());
  EXPECT_TRUE(fs.Stat("/archive/v1/data").ok());
  EXPECT_EQ(fs.Stat("/proj/v1/data").code(), Code::kNotFound);
}

TEST(HopsFsOps, RenameDropsExactlyTheMovedPathHints) {
  TestFs fs;
  // Siblings whose names extend "b" with characters just below '/'
  // ('.', '-'), just above it ('0') and far above it ('c'): a hint-drop
  // range off by one at either end takes one of them along.
  for (const char* dir : {"/a", "/a/b", "/a/b/c", "/a/b/c/d", "/a/b0",
                          "/a/b-x", "/a/b.x", "/a/bc"}) {
    ASSERT_TRUE(fs.Mkdir(dir).ok()) << dir;
  }
  // A create resolves its parent directory, caching every prefix.
  for (const char* file :
       {"/a/b/c/d/f", "/a/b0/f", "/a/b-x/f", "/a/b.x/f", "/a/bc/f"}) {
    ASSERT_TRUE(fs.Create(file).ok()) << file;
  }
  Namenode* nn = fs.client->current_nn();
  ASSERT_NE(nn, nullptr);
  const char* kDropped[] = {"/a/b", "/a/b/c/d"};
  const char* kKept[] = {"/a", "/a/b0", "/a/b-x", "/a/b.x", "/a/bc"};
  for (const char* p : kDropped) ASSERT_TRUE(nn->HasPathHint(p)) << p;
  for (const char* p : kKept) ASSERT_TRUE(nn->HasPathHint(p)) << p;

  ASSERT_TRUE(fs.Rename("/a/b", "/a/moved").ok());
  ASSERT_EQ(fs.client->current_nn(), nn);
  for (const char* p : kDropped) EXPECT_FALSE(nn->HasPathHint(p)) << p;
  for (const char* p : kKept) EXPECT_TRUE(nn->HasPathHint(p)) << p;
}

TEST(HopsFsOps, ChmodUpdatesPermissions) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/perm").ok());
  ASSERT_TRUE(fs.Create("/perm/f").ok());
  ASSERT_TRUE(fs.Chmod("/perm/f", 0600).ok());
  const auto r = fs.StatFull("/perm/f");
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.inode.permissions, 0600u);
}

TEST(HopsFsOps, DeepPathsResolve) {
  TestFs fs;
  std::string path;
  for (int i = 0; i < 8; ++i) {
    path += repro::StrFormat("/d%d", i);
    ASSERT_TRUE(fs.Mkdir(path).ok()) << path;
  }
  ASSERT_TRUE(fs.Create(path + "/leaf").ok());
  EXPECT_TRUE(fs.Stat(path + "/leaf").ok());
}

TEST(HopsFsOps, LeaderElected) {
  TestFs fs;
  Namenode* leader = fs.deployment->leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_TRUE(leader->is_leader());
  // Exactly one leader, and it is the lowest-id alive namenode (§II-A2).
  int leaders = 0;
  for (const auto& nn : fs.deployment->namenodes()) {
    if (nn->is_leader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_EQ(leader->id(), 0);
}

TEST(HopsFsOps, LeaderFailoverElectsNextNn) {
  TestFs fs;
  ASSERT_EQ(fs.deployment->leader()->id(), 0);
  fs.deployment->namenode(0)->Crash();
  fs.sim->RunFor(Seconds(10));  // several election rounds
  Namenode* leader = fs.deployment->leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_EQ(leader->id(), 1);
  EXPECT_TRUE(leader->is_leader());
}

TEST(HopsFsOps, ClientFailsOverWhenNamenodeDies) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/ha").ok());
  ASSERT_TRUE(fs.Create("/ha/f").ok());
  Namenode* sticky = fs.client->current_nn();
  ASSERT_NE(sticky, nullptr);
  sticky->Crash();
  // The next op times out on the dead NN, re-picks, and succeeds.
  EXPECT_TRUE(fs.Run([&](auto cb) { fs.client->Stat("/ha/f", cb); },
                     Seconds(60))
                  .ok());
  EXPECT_NE(fs.client->current_nn(), sticky);
}

TEST(HopsFsOps, SurvivesNdbDatanodeFailure) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/ndbha").ok());
  ASSERT_TRUE(fs.Create("/ndbha/f").ok());
  // Kill one NDB datanode; its node-group peers promote their backups.
  fs.deployment->ndb().CrashDatanode(0);
  fs.sim->RunFor(Seconds(2));  // detection + failover
  EXPECT_TRUE(fs.deployment->ndb().cluster_up());
  EXPECT_TRUE(fs.Run([&](auto cb) { fs.client->Stat("/ndbha/f", cb); },
                     Seconds(60))
                  .ok());
  EXPECT_TRUE(fs.Create("/ndbha/g").ok());
}

}  // namespace
}  // namespace repro::hopsfs

namespace repro::hopsfs {
namespace {

int64_t TotalLockWaits(TestFs& fs) {
  int64_t waits = 0;
  ndb::NdbCluster& ndb = fs.deployment->ndb();
  for (int n = 0; n < ndb.num_datanodes(); ++n) {
    waits += ndb.datanode(n).locks().total_waits();
  }
  return waits;
}

// Fewest events pending over the next 100 ms: the cluster's background
// rounds (leader election, heartbeats) come and go, and between them only
// the periodic timers and whatever is parked remain.
uint64_t QuietPending(TestFs& fs) {
  uint64_t fewest = fs.sim->pending();
  for (int i = 0; i < 100; ++i) {
    fs.sim->RunFor(kMillisecond);
    fewest = std::min(fewest, fs.sim->pending());
  }
  return fewest;
}

// A resolved op disarms its timeouts: the client's 5 s RPC timer, the
// API node's 1.5 s per-op timers and the 400 ms lock-wait timer are
// cancelled by the reply (or grant) instead of staying parked in the
// engine until they fire as no-ops.
TEST(HopsFsTimers, ResolvedOpsLeaveNoParkedTimers) {
  TestFs fs;  // settled: the leader is elected
  const uint64_t baseline = QuietPending(fs);
  ASSERT_EQ(fs.client->rpcs_live(), 0u);

  EXPECT_TRUE(fs.Mkdir("/t").ok());
  EXPECT_TRUE(fs.Create("/t/a").ok());
  EXPECT_TRUE(fs.Mkdir("/t/d").ok());
  EXPECT_TRUE(fs.Create("/t/b", 100).ok());
  EXPECT_TRUE(fs.Stat("/t/a").ok());
  EXPECT_TRUE(fs.ReadFile("/t/b").ok());
  EXPECT_TRUE(fs.List("/t").status.ok());
  EXPECT_TRUE(fs.Rename("/t/b", "/t/d/b").ok());
  EXPECT_TRUE(fs.Chmod("/t/a", 0600).ok());
  EXPECT_TRUE(fs.Delete("/t/d/b").ok());
  // Two chmods of one file at once: the second waits for the first's
  // exclusive row lock.
  const int64_t waits_before = TotalLockWaits(fs);
  int done = 0;
  for (uint32_t perm : {0640u, 0644u}) {
    fs.client->Chmod("/t/a", perm, [&](Status s) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      ++done;
    });
  }
  while (done < 2) fs.sim->RunFor(kMillisecond);
  EXPECT_GT(TotalLockWaits(fs), waits_before) << "no lock wait was forced";

  EXPECT_EQ(fs.client->rpcs_live(), 0u);
  EXPECT_EQ(QuietPending(fs), baseline);
}

// Crash stops every timer the namenode holds, so no timer body needs to
// check that its namenode is alive or still leading: before the
// staggered first election round its one-shot is the only timer, and the
// settled leader of a deployment with block datanodes holds the election
// ticks and the re-replication monitor.
TEST(HopsFsTimers, CrashCancelsEveryNamenodeTimer) {
  {
    Simulation sim(5);
    auto options =
        DeploymentOptions::FromPaperSetup(PaperSetup::kHopsFsCl_3_3, 3);
    options.ndb_datanodes = 6;
    Deployment dep(sim, options);
    dep.Start();
    const uint64_t before = sim.pending();
    dep.namenode(2)->Crash();
    EXPECT_EQ(sim.pending(), before - 1);
  }
  TestFs fs(PaperSetup::kHopsFsCl_3_3, 3, /*block_dns=*/3);
  Namenode* leader = fs.deployment->leader();
  ASSERT_TRUE(leader->is_leader());
  const uint64_t before = fs.sim->pending();
  leader->Crash();
  EXPECT_EQ(fs.sim->pending(), before - 2);
  fs.sim->RunFor(Seconds(5));
  EXPECT_FALSE(leader->is_leader());
  EXPECT_NE(fs.deployment->leader(), leader);
}

TEST(HopsFsDurability, FilesystemSurvivesFullClusterRestart) {
  // Full-stack version of the NDB durability test: after a whole-cluster
  // outage, everything covered by a durable global checkpoint — the
  // namespace included — is still there.
  Simulation sim(31);
  auto options = DeploymentOptions::FromPaperSetup(
      PaperSetup::kHopsFsCl_3_3, /*num_namenodes=*/3);
  options.ndb_datanodes = 6;
  Deployment dep(sim, options);
  dep.Start();
  sim.RunFor(Seconds(3));
  HopsFsClient* client = dep.AddClient(0);

  auto run = [&](auto op) {
    Status out = Internal("hung");
    bool done = false;
    op([&](Status s) {
      out = s;
      done = true;
    });
    while (!done) sim.RunFor(kMillisecond);
    return out;
  };
  ASSERT_TRUE(run([&](auto cb) { client->Mkdir("/crashsafe", cb); }).ok());
  ASSERT_TRUE(
      run([&](auto cb) { client->Create("/crashsafe/f", 2048, cb); }).ok());

  // Let a global checkpoint cover the writes, then lose the cluster.
  sim.RunFor(Seconds(2));
  dep.ndb().RecoverFromCheckpoint();
  sim.RunFor(Seconds(1));

  EXPECT_TRUE(run([&](auto cb) { client->Stat("/crashsafe/f", cb); }).ok())
      << "checkpointed namespace lost across the outage";
  EXPECT_TRUE(
      run([&](auto cb) { client->Create("/crashsafe/post", 0, cb); }).ok())
      << "recovered cluster refuses new transactions";
}

// The fan-out join of a transaction's writes. A broken transaction fails
// every write synchronously, inside the issuing call: such a completion
// must not decide the step while later writes are still unissued, and
// the commit-or-retry decision fires exactly once.
TEST(WriteJoin, SynchronousFailureWaitsForArm) {
  WriteJoin join;
  int decisions = 0;
  const auto complete = [&](Code code) {
    if (join.Complete(code)) ++decisions;
  };
  join.Add();
  complete(Code::kAborted);  // fails before the next write is issued
  EXPECT_EQ(decisions, 0);
  join.Add();
  join.Add();
  complete(Code::kAborted);
  EXPECT_EQ(decisions, 0);
  if (join.Arm()) ++decisions;
  EXPECT_EQ(decisions, 0) << "one write is still outstanding";
  complete(Code::kTimedOut);
  EXPECT_EQ(decisions, 1);
  EXPECT_EQ(join.failed(), Code::kAborted) << "the first failure decides";
  if (join.Arm()) ++decisions;
  EXPECT_EQ(decisions, 1);
}

TEST(WriteJoin, AllWritesDoneBeforeArmDecideAtArm) {
  WriteJoin join;
  join.Add();
  EXPECT_FALSE(join.Complete(Code::kOk));
  join.Add();
  EXPECT_FALSE(join.Complete(Code::kOk));
  EXPECT_TRUE(join.Arm());
  EXPECT_EQ(join.failed(), Code::kOk);
  EXPECT_FALSE(join.Arm());
}

}  // namespace
}  // namespace repro::hopsfs
