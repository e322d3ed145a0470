// block_storage: large files through the block storage layer (§IV-C).
// Shows AZ-aware block placement (one replica per AZ), AZ-local reads,
// replica failover when a datanode dies, and automatic re-replication
// after the loss.
//
//   ./build/examples/block_storage
#include <cstdio>

#include "hopsfs/deployment.h"

using namespace repro;
using namespace repro::hopsfs;

int main() {
  std::printf("== Block storage layer: AZ-aware placement & repair ==\n\n");

  Simulation sim(5);
  auto options =
      DeploymentOptions::FromPaperSetup(PaperSetup::kHopsFsCl_3_3, 3);
  options.block_datanodes = 9;  // 3 per AZ
  Deployment fs(sim, options);
  fs.Start();
  sim.RunFor(Seconds(4));  // elections + DN heartbeats

  HopsFsClient* client = fs.AddClient(0);
  bool ok = false;
  client->Mkdir("/video", [&](Status s) { ok = s.ok(); });
  while (!ok) sim.RunFor(kMillisecond);

  // A 300 MB file = 3 blocks (128 MB each), each replicated 3x with at
  // least one replica per AZ.
  std::printf("writing /video/movie.mkv (300 MB -> 3 blocks, RF 3)...\n");
  FsRequest req;
  req.op = FsOp::kCreate;
  req.path = "/video/movie.mkv";
  req.size = 300LL << 20;
  FsResult created;
  bool done = false;
  client->Submit(req, [&](FsResult r) {
    created = std::move(r);
    done = true;
  });
  while (!done) sim.RunFor(Millis(10));
  std::printf("  create: %s (%.1f s simulated, includes pipeline "
              "replication)\n",
              created.status.ToString().c_str(), ToSeconds(sim.now()) - 4);

  auto* registry = fs.dn_registry();
  for (const auto& b : created.new_blocks) {
    std::printf("  block %llu (%lld MB) replicas on AZs: ",
                static_cast<unsigned long long>(b.block_id),
                static_cast<long long>(b.num_bytes >> 20));
    for (auto d : b.replicas) std::printf("az%d(dn%d) ", registry->az_of(d), d);
    std::printf("\n");
  }

  // Read it back: each block streams from the AZ-closest replica.
  std::printf("\nreading it back from AZ 0 (AZ-local replicas preferred)...\n");
  done = false;
  client->ReadFile("/video/movie.mkv", [&](Status s) {
    std::printf("  read: %s\n", s.ToString().c_str());
    done = true;
  });
  while (!done) sim.RunFor(Millis(10));

  // Kill the datanode holding the first block's AZ-0 replica. The
  // namenode lists a replica it counts dead last, so a read right away
  // goes to a live replica in another AZ instead of waiting out an RPC
  // timeout on the dead one; the leader namenode's replication monitor
  // then restores the replication level.
  blocks::DnId victim = created.new_blocks[0].replicas[0];
  for (auto d : created.new_blocks[0].replicas) {
    if (registry->az_of(d) == 0) victim = d;
  }
  std::printf("\ncrashing dn%d (az%d) which holds %lld block(s)...\n",
              victim, registry->az_of(victim),
              static_cast<long long>(registry->dn(victim)->block_count()));
  registry->dn(victim)->Crash();
  std::printf("reading before the repair (fails over to another AZ)...\n");
  const Nanos read_start = sim.now();
  done = false;
  client->ReadFile("/video/movie.mkv", [&](Status s) {
    std::printf("  read: %s (%.1f s simulated)\n", s.ToString().c_str(),
                ToSeconds(sim.now() - read_start));
    done = true;
  });
  while (!done) sim.RunFor(Millis(10));
  sim.RunFor(Seconds(25));  // heartbeat loss -> repair -> copy

  int64_t replicas_elsewhere = 0;
  for (int d = 0; d < registry->size(); ++d) {
    if (d != victim) replicas_elsewhere += registry->dn(d)->block_count();
  }
  std::printf("after repair: %lld block replicas on surviving datanodes "
              "(expected >= 9)\n",
              static_cast<long long>(replicas_elsewhere));
  std::printf("\nre-reading the file after the failure...\n");
  done = false;
  client->ReadFile("/video/movie.mkv", [&](Status s) {
    std::printf("  read: %s\n", s.ToString().c_str());
    done = true;
  });
  while (!done) sim.RunFor(Millis(10));
  return 0;
}
