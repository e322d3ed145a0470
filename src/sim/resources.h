// CPU and disk service resources.
//
// Server CPUs are modelled as pools of FIFO threads: submitting work picks
// the earliest-free thread, or a caller-chosen thread for partition-affine
// work (NDB pins each table partition to one LDM thread — the reason
// Read Backup spreads hot-partition reads across replicas, §IV-A). Pools
// track busy time so benchmarks can report per-thread-type utilisation
// (Fig. 11) and per-node CPU utilisation (Fig. 10).
//
// Disks are single FIFO servers with a seek constant plus a byte rate,
// enough to reproduce CephFS's journal-bound OSD disk curve (Fig. 12d).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/callback.h"
#include "sim/engine.h"
#include "util/time.h"

namespace repro {

// How one piece of submitted work was scheduled: when it started waiting,
// when a server (thread / disk) picked it up, and when it finishes.
// Returned so callers can emit exact queue-vs-service trace spans without
// the resource knowing anything about tracing.
struct Booking {
  Nanos submit = 0;   // submission time (queue-wait start)
  Nanos start = 0;    // service start (queue-wait end)
  Nanos finish = 0;   // service end == completion callback time
  Nanos queued() const { return start - submit; }
  Nanos service() const { return finish - start; }
};

class ThreadPool {
 public:
  ThreadPool(Simulation& sim, std::string name, int num_threads);

  // Runs `cost` of CPU work on the earliest-free thread; `done` fires when
  // the work completes (after queueing). `done` may be null.
  Booking Submit(Nanos cost, SmallFn done);

  // Runs work on a specific thread (partition affinity).
  Booking SubmitTo(int thread, Nanos cost, SmallFn done);

  // How far ahead of `now` the least-loaded thread is booked. Used for
  // overflow decisions (NDB's idle helper threads) and backpressure.
  Nanos Backlog() const;
  // Backlog of one specific thread.
  Nanos BacklogOf(int thread) const;

  int num_threads() const { return static_cast<int>(free_at_.size()); }
  const std::string& name() const { return name_; }

  // Busy nanoseconds accumulated since the last ResetStats, summed over
  // threads, clipped to work that has already been performed: service
  // booked into the future (free_at_ > now) is excluded until simulated
  // time actually passes through it. Telemetry scrapes this mid-run, so
  // charging whole bookings at submit time (the old behaviour) inflated
  // utilisation and the grey-slow detector's Δbusy/Δwork ratio whenever a
  // queue was deep.
  int64_t busy_ns() const;
  // Work items whose service has finished (not merely been submitted).
  int64_t completed() const;

  // Utilisation over a window that started at window_start and ends now.
  double Utilization(Nanos window_start) const;

  void ResetStats();

  // Grey-failure injection: multiplies the service time of every piece of
  // work submitted while the factor is > 1 (a CPU-stalled node that still
  // answers heartbeats, just slowly). Factor 1.0 restores normal speed.
  void set_slowdown(double factor) { slowdown_ = factor; }
  double slowdown() const { return slowdown_; }

 private:
  int EarliestFree() const;
  // Service time booked but not yet elapsed, summed over threads. Each
  // thread's future bookings are contiguous and end at free_at_[t] (gaps
  // only ever form in the past), so the outstanding portion is exactly
  // max(0, free_at_[t] - now).
  int64_t OutstandingNs() const;
  // Counts finish times that have passed into completed_ and drops them.
  void Reap() const;

  Simulation& sim_;
  std::string name_;
  std::vector<Nanos> free_at_;
  // Total service booked since the last ResetStats, including the
  // then-outstanding carryover; busy_ns() = booked_ns_ - OutstandingNs().
  int64_t booked_ns_ = 0;
  // Finish times of one thread's booked work, oldest first: a ring that
  // grows only when more work is in flight than ever before, so a
  // steady-state Submit allocates nothing.
  class FinishRing {
   public:
    bool empty() const { return size_ == 0; }
    Nanos front() const { return buf_[head_]; }
    void pop_front() {
      head_ = head_ + 1 == buf_.size() ? 0 : head_ + 1;
      --size_;
    }
    void push_back(Nanos t);

   private:
    std::vector<Nanos> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
  };
  // Counts one thread's finish times that have passed into completed_.
  void ReapThread(FinishRing& q) const;
  // Per-thread finish times of in-flight work, monotone within a thread;
  // reaped on submit to that thread and on read (mutable: reads are
  // logically const).
  mutable std::vector<FinishRing> finishes_;
  mutable int64_t completed_ = 0;
  double slowdown_ = 1.0;
};

struct DiskStats {
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t ops = 0;
  int64_t busy_ns = 0;
};

class Disk {
 public:
  // NVMe-ish defaults: 50 us access, ~1.2 GB/s write, ~2.4 GB/s read.
  Disk(Simulation& sim, std::string name,
       Nanos access_time = 50 * kMicrosecond,
       double read_bytes_per_sec = 2.4e9, double write_bytes_per_sec = 1.2e9);

  Booking Read(int64_t bytes, SmallFn done);
  Booking Write(int64_t bytes, SmallFn done);

  // stats().busy_ns is clipped to service already performed, like
  // ThreadPool::busy_ns(); bytes/ops count at submission.
  const DiskStats& stats() const;
  double Utilization(Nanos window_start) const;
  void ResetStats();
  Nanos Backlog() const;

  // Grey-failure injection: a slow disk (degraded media / noisy
  // neighbour). Multiplies the service time of subsequent I/Os.
  void set_slowdown(double factor) { slowdown_ = factor; }
  double slowdown() const { return slowdown_; }

 private:
  Booking SubmitIo(Nanos service, SmallFn done);
  int64_t AccruedBusyNs() const;

  Simulation& sim_;
  std::string name_;
  Nanos access_time_;
  double read_rate_;
  double write_rate_;
  Nanos free_at_ = 0;
  // Total service booked since the last ResetStats (incl. outstanding
  // carryover); the disk is a single FIFO server, so the un-elapsed part
  // is max(0, free_at_ - now). stats_.busy_ns is refreshed from these on
  // read (mutable: reads are logically const).
  int64_t booked_ns_ = 0;
  mutable DiskStats stats_;
  double slowdown_ = 1.0;
};

}  // namespace repro
