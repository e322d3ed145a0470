#include "sim/resources.h"

#include <algorithm>
#include <cassert>

#include "prof/profiler.h"

namespace repro {

ThreadPool::ThreadPool(Simulation& sim, std::string name, int num_threads)
    : sim_(sim), name_(std::move(name)) {
  assert(num_threads > 0);
  free_at_.assign(num_threads, 0);
  finishes_.resize(num_threads);
}

int ThreadPool::EarliestFree() const {
  int best = 0;
  for (int i = 1; i < num_threads(); ++i) {
    if (free_at_[i] < free_at_[best]) best = i;
  }
  return best;
}

Booking ThreadPool::Submit(Nanos cost, SmallFn done) {
  return SubmitTo(EarliestFree(), cost, std::move(done));
}

Booking ThreadPool::SubmitTo(int thread, Nanos cost, SmallFn done) {
  assert(thread >= 0 && thread < num_threads());
  assert(cost >= 0);
  if (slowdown_ != 1.0) {
    cost = static_cast<Nanos>(static_cast<double>(cost) * slowdown_);
  }
  prof::ChargeSimCpu(cost);  // attribute booked service to the active zone
  const Nanos start = std::max(free_at_[thread], sim_.now());
  free_at_[thread] = start + cost;
  booked_ns_ += cost;
  ReapThread(finishes_[thread]);
  finishes_[thread].push_back(free_at_[thread]);
  if (done) {
    sim_.At(free_at_[thread], std::move(done));
  }
  return Booking{sim_.now(), start, start + cost};
}

int64_t ThreadPool::OutstandingNs() const {
  const Nanos now = sim_.now();
  int64_t out = 0;
  for (Nanos f : free_at_) out += std::max<Nanos>(0, f - now);
  return out;
}

void ThreadPool::FinishRing::push_back(Nanos t) {
  if (size_ == buf_.size()) {
    std::vector<Nanos> grown(std::max<size_t>(8, 2 * buf_.size()));
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = buf_[(head_ + i) % buf_.size()];
    }
    buf_ = std::move(grown);
    head_ = 0;
  }
  buf_[(head_ + size_) % buf_.size()] = t;
  ++size_;
}

void ThreadPool::ReapThread(FinishRing& q) const {
  const Nanos now = sim_.now();
  while (!q.empty() && q.front() <= now) {
    q.pop_front();
    ++completed_;
  }
}

void ThreadPool::Reap() const {
  for (auto& q : finishes_) ReapThread(q);
}

int64_t ThreadPool::busy_ns() const { return booked_ns_ - OutstandingNs(); }

int64_t ThreadPool::completed() const {
  Reap();
  return completed_;
}

Nanos ThreadPool::Backlog() const {
  const Nanos now = sim_.now();
  Nanos best = free_at_[0];
  for (Nanos f : free_at_) best = std::min(best, f);
  return std::max<Nanos>(0, best - now);
}

Nanos ThreadPool::BacklogOf(int thread) const {
  return std::max<Nanos>(0, free_at_[thread] - sim_.now());
}

double ThreadPool::Utilization(Nanos window_start) const {
  // A zero-length window (window_start == now) yields 0, never NaN/inf —
  // the telemetry grey-slow detector reads this on scrape boundaries.
  const Nanos window = sim_.now() - window_start;
  if (window <= 0) return 0;
  return std::min(
      1.0, static_cast<double>(busy_ns()) /
               (static_cast<double>(window) * num_threads()));
}

void ThreadPool::ResetStats() {
  // Work still in flight carries over: its not-yet-elapsed service accrues
  // into the new window as simulated time passes through it, and its
  // completion is counted when it lands.
  booked_ns_ = OutstandingNs();
  const Nanos now = sim_.now();
  for (auto& q : finishes_) {
    while (!q.empty() && q.front() <= now) q.pop_front();
  }
  completed_ = 0;
}

Disk::Disk(Simulation& sim, std::string name, Nanos access_time,
           double read_bytes_per_sec, double write_bytes_per_sec)
    : sim_(sim), name_(std::move(name)), access_time_(access_time),
      read_rate_(read_bytes_per_sec), write_rate_(write_bytes_per_sec) {}

Booking Disk::SubmitIo(Nanos service, SmallFn done) {
  if (slowdown_ != 1.0) {
    service = static_cast<Nanos>(static_cast<double>(service) * slowdown_);
  }
  const Nanos start = std::max(free_at_, sim_.now());
  free_at_ = start + service;
  booked_ns_ += service;
  ++stats_.ops;
  if (done) sim_.At(free_at_, std::move(done));
  return Booking{sim_.now(), start, start + service};
}

int64_t Disk::AccruedBusyNs() const {
  return booked_ns_ - std::max<Nanos>(0, free_at_ - sim_.now());
}

const DiskStats& Disk::stats() const {
  stats_.busy_ns = AccruedBusyNs();
  return stats_;
}

void Disk::ResetStats() {
  stats_ = DiskStats{};
  // In-flight service carries into the new window (see ThreadPool).
  booked_ns_ = std::max<Nanos>(0, free_at_ - sim_.now());
}

Booking Disk::Read(int64_t bytes, SmallFn done) {
  prof::ChargeSimDisk(bytes);
  stats_.bytes_read += bytes;
  const Nanos service =
      access_time_ +
      static_cast<Nanos>(static_cast<double>(bytes) / read_rate_ * 1e9);
  return SubmitIo(service, std::move(done));
}

Booking Disk::Write(int64_t bytes, SmallFn done) {
  prof::ChargeSimDisk(bytes);
  stats_.bytes_written += bytes;
  const Nanos service =
      access_time_ +
      static_cast<Nanos>(static_cast<double>(bytes) / write_rate_ * 1e9);
  return SubmitIo(service, std::move(done));
}

double Disk::Utilization(Nanos window_start) const {
  // Zero-length window -> 0, never NaN/inf (see ThreadPool::Utilization).
  const Nanos window = sim_.now() - window_start;
  if (window <= 0) return 0;
  return std::min(1.0,
                  static_cast<double>(AccruedBusyNs()) /
                      static_cast<double>(window));
}

Nanos Disk::Backlog() const {
  return std::max<Nanos>(0, free_at_ - sim_.now());
}

}  // namespace repro
