// Fixture helpers for HopsFS-layer tests: a small HopsFS-CL deployment
// plus synchronous wrappers that drive the simulation.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "hopsfs/deployment.h"

namespace repro::hopsfs::testing {

struct TestFs {
  // `tweak` edits the options last, before the deployment is built.
  explicit TestFs(PaperSetup setup = PaperSetup::kHopsFsCl_3_3,
                  int num_nns = 3, int block_dns = 0,
                  const std::function<void(DeploymentOptions&)>& tweak = {}) {
    sim = std::make_unique<Simulation>(7);
    auto options = DeploymentOptions::FromPaperSetup(setup, num_nns);
    options.ndb_datanodes = 6;
    options.block_datanodes = block_dns;
    if (tweak) tweak(options);
    deployment = std::make_unique<Deployment>(*sim, options);
    deployment->topology().set_jitter_fraction(0);
    deployment->Start();
    // Let the leader election settle (first round ran at Start).
    sim->RunFor(Seconds(3));
    client = deployment->AddClient(0);
  }

  Status Run(std::function<void(HopsFsClient::StatusCb)> op,
             Nanos limit = 30 * kSecond) {
    Status out = Internal("never completed");
    bool done = false;
    op([&](Status s) {
      out = s;
      done = true;
    });
    const Nanos deadline = sim->now() + limit;
    while (!done && sim->now() < deadline) {
      sim->RunUntil(sim->now() + kMillisecond);
    }
    EXPECT_TRUE(done) << "fs operation hung";
    return out;
  }

  Status Mkdir(const std::string& p) {
    return Run([&](auto cb) { client->Mkdir(p, cb); });
  }
  Status Create(const std::string& p, int64_t size = 0) {
    return Run([&](auto cb) { client->Create(p, size, cb); });
  }
  Status Stat(const std::string& p) {
    return Run([&](auto cb) { client->Stat(p, cb); });
  }
  Status ReadFile(const std::string& p) {
    return Run([&](auto cb) { client->ReadFile(p, cb); });
  }
  Status Delete(const std::string& p) {
    return Run([&](auto cb) { client->Delete(p, cb); });
  }
  Status Rename(const std::string& a, const std::string& b) {
    return Run([&](auto cb) { client->Rename(a, b, cb); });
  }
  Status Chmod(const std::string& p, uint32_t perm) {
    return Run([&](auto cb) { client->Chmod(p, perm, cb); });
  }

  FsResult Submit(FsRequest req, Nanos limit = 30 * kSecond) {
    FsResult out;
    out.status = Internal("never completed");
    bool done = false;
    client->Submit(std::move(req), [&](FsResult r) {
      out = std::move(r);
      done = true;
    });
    const Nanos deadline = sim->now() + limit;
    while (!done && sim->now() < deadline) {
      sim->RunUntil(sim->now() + kMillisecond);
    }
    EXPECT_TRUE(done) << "fs operation hung";
    return out;
  }

  FsResult List(const std::string& p) {
    FsRequest r;
    r.op = FsOp::kListDir;
    r.path = p;
    return Submit(std::move(r));
  }
  FsResult Open(const std::string& p) {
    FsRequest r;
    r.op = FsOp::kOpenRead;
    r.path = p;
    return Submit(std::move(r));
  }
  FsResult StatFull(const std::string& p) {
    FsRequest r;
    r.op = FsOp::kStat;
    r.path = p;
    return Submit(std::move(r));
  }

  std::unique_ptr<Simulation> sim;
  std::unique_ptr<Deployment> deployment;
  HopsFsClient* client = nullptr;
};

}  // namespace repro::hopsfs::testing
