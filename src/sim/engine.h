// Discrete-event simulation engine.
//
// The engine substitutes for the paper's GCP testbed (see DESIGN.md §2):
// every protocol in the repository — the NDB commit protocol, heartbeats,
// leader election, block re-replication, CephFS journaling — runs as real
// message-passing code whose delays come from this engine rather than from
// a datacenter network. Events at equal timestamps are ordered by insertion
// sequence, so runs are bit-for-bit reproducible from the RNG seed.
//
// Scheduler hot path (DESIGN.md §2.1): pending events live in a slab pool
// and are ordered by a 4-level hierarchical timer wheel whose expired
// slots feed a small flat binary heap (the "imminent" heap). Periodic
// timers — the O(hosts) heartbeats, GCP ticks, redo flushes and scrapes
// that dominate large runs — insert in O(1) and reschedule in place, so
// a tick performs no allocation and never copies its closure. Every
// event, one-shot or periodic, cancels by `Timer` id: O(1) unlink from
// the doubly-linked wheel slot, or a tombstone once the event has left
// the wheel (Varghese & Lauck's StopTimer), so a timer disarmed early
// stops occupying a slab slot at once. Dispatch order is the exact global
// (time, insertion-seq) order the pre-wheel binary heap produced; the
// schedule_seed_* behaviour digests (tests/behaviour_digest_test.cc) pin
// it on randomized schedules.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "trace/trace.h"
#include "util/rng.h"
#include "util/time.h"

namespace repro {

class Simulation {
 public:
  explicit Simulation(uint64_t seed = 1);
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Nanos now() const { return now_; }
  Rng& rng() { return rng_; }
  uint64_t events_processed() const { return events_processed_; }

  // Per-run distributed tracer, clocked by simulated time. Sampling is
  // off by default (sample_every == 0); benches and the chaos harness
  // turn it on. A deterministic counter — never the sim RNG — decides
  // sampling, so enabling traces cannot perturb the run being traced.
  trace::Tracer& tracer() { return tracer_; }
  const trace::Tracer& tracer() const { return tracer_; }

  // Names one scheduled event for Cancel: its slab index plus the slot's
  // generation at scheduling time. A periodic keeps its generation across
  // reschedules, so one Timer names it for its whole life. A plain
  // value, not an owner; a default Timer names nothing.
  struct Timer {
    uint32_t idx = 0xffffffffu;  // kNil
    uint32_t gen = 0;
  };

  // Schedules fn at an absolute simulated time. Scheduling into the past
  // is a hard error in every build type: it would silently rewind now()
  // at dispatch and corrupt every Booking downstream, so the engine logs
  // and aborts instead (see SchedulePanic).
  Timer At(Nanos time, SmallFn fn);

  // Schedules fn after a relative delay (>= 0; negative delays abort).
  Timer After(Nanos delay, SmallFn fn);

  // Cancels an event: it never runs again, its callback is destroyed
  // now, and pending() drops now. A no-op when the timer is stale: a
  // one-shot already fired or is firing, the event was cancelled, or its
  // slot was reused. An event still in the wheel is unlinked in O(1); one
  // already queued for dispatch becomes a tombstone that is freed when
  // reached, without counting as a dispatch or moving now(). A periodic
  // cancelled from inside its own tick finishes that tick and is freed
  // when the callback returns.
  void Cancel(Timer timer);

  // Runs fn every `interval`, starting after one interval, until the
  // returned handle is cancelled or dropped. Used for heartbeats,
  // leader-election rounds, and checkpoint ticks. The callback is moved
  // once into the pooled event, which is rescheduled in place: a tick
  // copies and allocates nothing.
  //
  // The handle is the timer's only owner: move-only, and destroying or
  // move-assigning over it cancels the timer, so it must not outlive the
  // simulation.
  class PeriodicHandle {
   public:
    PeriodicHandle() = default;
    PeriodicHandle(PeriodicHandle&& o) noexcept
        : sim_(std::exchange(o.sim_, nullptr)), timer_(o.timer_) {}
    // Takes `o` by value: the timer this handle owned leaves with it.
    PeriodicHandle& operator=(PeriodicHandle o) noexcept {
      std::swap(sim_, o.sim_);
      std::swap(timer_, o.timer_);
      return *this;
    }
    ~PeriodicHandle() { Cancel(); }

    void Cancel() {
      if (sim_ != nullptr) std::exchange(sim_, nullptr)->Cancel(timer_);
    }

   private:
    friend class Simulation;
    PeriodicHandle(Simulation* sim, Timer timer) : sim_(sim), timer_(timer) {}
    Simulation* sim_ = nullptr;  // null once cancelled or moved from
    Timer timer_;
  };
  PeriodicHandle Every(Nanos interval, SmallFn fn);

  // Drains the event queue completely.
  void Run();

  // Runs events with time <= t, then sets now() = t.
  void RunUntil(Nanos t);
  void RunFor(Nanos d) { RunUntil(now_ + d); }

  // Dispatches exactly one event (the earliest pending). Returns false if
  // the queue was empty. Lets callers run the engine until an external
  // condition holds — e.g. "until this reply arrives or a scheduled
  // deadline event fires" — without polling in fixed time steps.
  bool RunOne();

  bool Empty() const { return pending_ == 0; }
  uint64_t pending() const { return pending_; }
  // Event slabs mapped so far (4096 events each); the pool never shrinks.
  size_t slabs() const { return slabs_.size(); }

 private:
  static constexpr uint32_t kNil = 0xffffffffu;

  // ---- Timer wheel geometry -------------------------------------------
  // Level 0 has 16384 slots of 2^16 ns (~65.5 us) — one revolution covers
  // ~1.07 s, so every timer up to heartbeat scale (even a full 100 ms-class
  // reschedule from anywhere in the revolution) inserts in O(1) and is
  // touched exactly once more at expiry, and even 10k hosts spread over a
  // 100 ms interval put only a handful of events in each slot (small
  // imminent heap). Levels 1–3 have 64 slots each of 2^30/2^36/2^42 ns;
  // an upper-level slot width equals the full horizon of the level below,
  // so expiring one upper slot redistributes its events exactly one level
  // down. Events beyond level 3's ~78 h horizon wait in a far-future
  // heap. Each level only ever holds events of its *current* revolution
  // (Insert places anything past the revolution end one level up), which
  // keeps "next occupied slot" scans exact and lets the cursor jump over
  // empty regions via per-level occupancy bitmaps.
  static constexpr int kL0Bits = 14;                   // 16384 slots
  static constexpr int kLnBits = 6;                    // 64 slots
  static constexpr int kLevels = 4;
  static constexpr int kShift[kLevels] = {16, 30, 36, 42};
  static constexpr int kSlots[kLevels] = {1 << kL0Bits, 1 << kLnBits,
                                          1 << kLnBits, 1 << kLnBits};
  // Horizon of level l == slot width of level l+1 == 1 << kHorizonShift[l].
  static constexpr int kHorizonShift[kLevels] = {30, 36, 42, 48};

  // Where an event waits: a wheel level (0..3), or kQueued once it has
  // left the wheel for the sorted run, the spill heap or the far heap,
  // or kTombstone once cancelled there. A periodic is kFiring while its
  // tick runs; a Cancel from inside the tick turns that into kTombstone.
  static constexpr uint8_t kQueued = 4;
  static constexpr uint8_t kTombstone = 5;
  static constexpr uint8_t kFiring = 6;

  // 128-byte aligned: exactly two cache lines — the scheduling head in the
  // first, the callback in the second. Periodic state (the interval)
  // lives in the event itself: a tick touches no record besides the event
  // it is already dispatching.
  struct alignas(128) Event {
    Nanos time = 0;
    uint64_t seq = 0;
    uint32_t next = kNil;         // wheel-slot chain / free-list link
    uint32_t prev = kNil;         // wheel-slot chain back link (kNil: head)
    uint32_t gen = 0;             // bumped when a one-shot fires or at Cancel
    uint8_t periodic = 0;         // 1 if a periodic tick
    uint8_t where = kQueued;      // wheel level, kQueued, kTombstone, kFiring
    uint16_t slot = 0;            // wheel slot while where < kLevels
    Nanos interval = 0;           // periodic reschedule interval
    // Pinned to the second cache line so the dispatch prefetcher can pull
    // it in ahead of the call.
    alignas(64) SmallFn fn;       // the callback, fired in place
  };
  static_assert(sizeof(SmallFn) == 64, "event layout assumes 64B SmallFn");
  static_assert(sizeof(Event) == 128, "Event must stay two cache lines");

  // Flat-heap entry: all ordering decisions compare 16 bytes, never the
  // event body.
  struct HeapEntry {
    Nanos time;
    uint64_t seq;
    uint32_t idx;
    bool operator<(const HeapEntry& o) const {
      return time != o.time ? time < o.time : seq < o.seq;
    }
  };

  [[noreturn]] void SchedulePanic(const char* what, Nanos time) const;

  uint32_t AllocEvent();
  void FreeEvent(uint32_t idx);
  void FreeTombstone(uint32_t idx);  // a cancelled event, reached at last
  Event& Ev(uint32_t idx) {
    return slabs_[idx >> kSlabBits].get()[idx & kSlabMask];
  }

  void Insert(HeapEntry h);
  // Takes a wheel event out of its slot chain (O(1), doubly linked).
  void Unlink(uint32_t idx);
  // Skips tombstones at the front of the sorted run and the spill heap;
  // returns the live front, or nullptr when both are drained.
  const HeapEntry* LiveFront();
  // First occupied slot index >= `from` at `level`, or -1 (bitmap scan).
  int FindOccupied(int level, int from) const;
  void ImminentPush(HeapEntry e);
  HeapEntry ImminentPop();

  // Global minimum across the sorted run and the spill heap, or nullptr
  // when both are drained (callers then AdvanceWheel for the next batch).
  const HeapEntry* PeekImminent() const;
  uint32_t PopImminent();

  // Moves the chain of the next occupied wheel slot into the imminent
  // heap, jumping over empty regions. Returns false if wheel + far heap
  // are empty.
  bool AdvanceWheel();
  void MigrateFar();
  // A lower bound on every event in the wheel and the far heap: the start
  // of each level's first occupied slot, and the far heap's front.
  Nanos WheelFloor() const;

  void Dispatch(uint32_t idx);
  void FirePeriodic(uint32_t event_idx);

  Nanos now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  uint64_t pending_ = 0;  // imminent + wheel + far, tombstones excluded
  uint64_t tombstones_ = 0;  // cancelled events still in run_/imminent_/far_

  // ---- Event pool ------------------------------------------------------
  static constexpr int kSlabBits = 12;  // 4096 events per slab
  static constexpr uint32_t kSlabEvents = 1u << kSlabBits;
  static constexpr uint32_t kSlabMask = kSlabEvents - 1;
  // Each slab is its own anonymous mapping (see AllocEvent).
  struct SlabRelease {
    void operator()(Event* slab) const;
  };
  std::vector<std::unique_ptr<Event, SlabRelease>> slabs_;
  uint32_t free_events_ = kNil;

  // ---- Wheel state -----------------------------------------------------
  // All wheel events have time >= wheel_time_ (a multiple of the level-0
  // slot width); everything earlier has been moved to the dispatch run or
  // the spill heap. Slots are intrusive LIFO chains through Event::next
  // and Event::prev: an insert touches the slot-head word, the event's
  // own head line (still hot from the caller writing time/seq) and the
  // old head's back link, and Cancel unlinks from anywhere in O(1).
  Nanos wheel_time_ = 0;
  uint64_t wheel_count_ = 0;
  std::vector<uint32_t> slot_head_[kLevels];
  uint64_t occupancy_[kLevels][1 << (kL0Bits - 6)];  // bitmap per level

  // Expired events (times < wheel_time_) waiting to dispatch. The common
  // case is the sorted run: one expired level-0 slot, sorted once at drain
  // time and consumed front-to-back — no per-event heap maintenance, and
  // the known next event is prefetched while the current callback runs.
  // Events scheduled *into the already-expired window* (zero/short delays
  // from inside a running callback) spill into a tiny binary heap that is
  // merged entry-by-entry at dispatch; it is empty in steady state.
  std::vector<HeapEntry> run_;       // sorted batch from the last slot drain
  size_t run_pos_ = 0;
  std::vector<HeapEntry> imminent_;  // spill heap, times < wheel_time_
  std::vector<HeapEntry> far_;       // binary min-heap, beyond L3 horizon

  Rng rng_;
  trace::Tracer tracer_{[this] { return now_; }};
};

}  // namespace repro
