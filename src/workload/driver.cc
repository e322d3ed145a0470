#include "workload/driver.h"

#include <algorithm>

namespace repro::workload {

ClosedLoopDriver::ClosedLoopDriver(Simulation& sim,
                                   std::vector<FsTarget*> targets,
                                   OpSource source)
    : sim_(sim), source_(std::move(source)) {
  clients_.reserve(targets.size());
  for (FsTarget* t : targets) {
    clients_.push_back(ClientState{t, sim_.rng().Split(), {}});
  }
}

void ClosedLoopDriver::IssueNext(int client, int generation) {
  if (stopped_ || generation != generation_) return;
  ClientState& c = clients_[client];
  auto op = source_(c.rng, c.owned);
  const Nanos start = sim_.now();
  const bool counted = measuring_;
  c.target->Execute(
      op.op, op.path, op.path2, op.size,
      [this, client, start, counted, generation, op_type = op.op](Status s) {
        const Nanos latency = sim_.now() - start;
        if (s.ok()) {
          results_.timeline.Record(sim_.now());
        } else {
          ++results_.errors_by_code[s.code()];
        }
        if (counted && measuring_) {
          if (s.ok()) {
            results_.all.Record(latency);
            results_.per_op[op_type].Record(latency);
            ++results_.completed;
          } else {
            ++results_.failed;
          }
        }
        IssueNext(client, generation);
      });
}

OpenLoopDriver::OpenLoopDriver(Simulation& sim,
                               std::vector<FsTarget*> targets,
                               OpSource source)
    : sim_(sim), source_(std::move(source)) {
  clients_.reserve(targets.size());
  for (FsTarget* t : targets) {
    clients_.push_back(ClientState{t, sim_.rng().Split(), {}});
  }
}

OpenLoopResults OpenLoopDriver::Run(double ops_per_sec, Nanos warmup,
                                    Nanos measure) {
  // Shared by the completion callbacks, which can straggle past the
  // measurement window (that is the point of an open loop).
  struct Shared {
    OpenLoopResults results;
    bool measuring = false;
    Nanos window_end = 0;
    int64_t pending_measured = 0;
    size_t next_client = 0;
  };
  auto st = std::make_shared<Shared>();

  const Nanos interval =
      std::max<Nanos>(1, static_cast<Nanos>(kSecond / ops_per_sec));
  auto timer = sim_.Every(interval, [this, st] {
    ClientState& c = clients_[st->next_client++ % clients_.size()];
    auto op = source_(c.rng, c.owned);
    const Nanos start = sim_.now();
    const bool counted = st->measuring;
    if (counted) {
      ++st->results.issued;
      ++st->pending_measured;
    }
    c.target->Execute(
        op.op, op.path, op.path2, op.size,
        [this, st, start, counted](Status s) {
          if (!counted) return;
          --st->pending_measured;
          if (s.ok()) {
            // Goodput only counts completions inside the window: an answer
            // that arrives long after the caller stopped waiting is not
            // useful work, it is the signature of congestion collapse.
            if (sim_.now() <= st->window_end) {
              ++st->results.completed;
            } else {
              ++st->results.late_ok;
            }
            st->results.ok_latency.Record(sim_.now() - start);
          } else {
            ++st->results.failed;
            ++st->results.errors_by_code[s.code()];
          }
        });
  });

  sim_.RunFor(warmup);
  st->measuring = true;
  st->window_end = sim_.now() + measure;
  sim_.RunFor(measure);
  st->measuring = false;
  timer.Cancel();

  // Drain stragglers: give late completions a bounded grace window so
  // "slow" and "never" both land in the stats instead of vanishing.
  const Nanos drain_deadline = sim_.now() + 60 * kSecond;
  while (st->pending_measured > 0 && sim_.now() < drain_deadline) {
    if (!sim_.RunOne()) break;
  }
  if (st->pending_measured > 0) {
    st->results.failed += st->pending_measured;
    st->results.errors_by_code[Code::kTimedOut] += st->pending_measured;
    st->pending_measured = 0;
  }
  st->results.window = measure;
  return st->results;
}

DriverResults ClosedLoopDriver::Run(Nanos warmup, Nanos measure,
                                    std::function<void()> on_measure_start) {
  results_ = DriverResults();
  stopped_ = false;
  measuring_ = false;
  ++generation_;
  for (size_t i = 0; i < clients_.size(); ++i) {
    IssueNext(static_cast<int>(i), generation_);
  }
  sim_.RunFor(warmup);
  if (on_measure_start) on_measure_start();
  measuring_ = true;
  sim_.RunFor(measure);
  measuring_ = false;
  stopped_ = true;
  results_.window = measure;
  return results_;
}

}  // namespace repro::workload
