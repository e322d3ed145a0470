// End-to-end tests of the HopsFS file-system operations over the full
// stack: client -> namenode -> NDB transactions.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace repro::hopsfs
