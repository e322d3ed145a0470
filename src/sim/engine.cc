#include "sim/engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>

#include <sys/mman.h>

#include "util/logging.h"

namespace repro {

// std::push_heap/pop_heap build a max-heap w.r.t. the comparator; with
// "greater" the front is the global (time, seq) minimum.
namespace {
constexpr auto kHeapGreater = [](const auto& a, const auto& b) {
  return b < a;
};
}  // namespace

Simulation::Simulation(uint64_t seed) : rng_(seed) {
  Logger::Get().set_clock([this] { return now_; });
  for (int l = 0; l < kLevels; ++l) {
    slot_head_[l].assign(kSlots[l], kNil);
    for (auto& word : occupancy_[l]) word = 0;
  }
}

Simulation::~Simulation() = default;

void Simulation::SchedulePanic(const char* what, Nanos time) const {
  // A past-time schedule would silently rewind now() at dispatch and
  // corrupt every Booking downstream; fail hard in ALL build types (the
  // old `assert` compiled out in Release).
  std::fprintf(stderr,
               "sim: FATAL: %s (argument=%lld ns, now=%lld ns) — "
               "scheduling into the past is a protocol bug\n",
               what, static_cast<long long>(time),
               static_cast<long long>(now_));
  RLOG_ERROR("sim", "FATAL: %s (argument=%lld ns, now=%lld ns)", what,
             static_cast<long long>(time), static_cast<long long>(now_));
  std::abort();
}

// ---- Event pool ---------------------------------------------------------

// Slabs are anonymous mappings, not heap blocks. A slab is 512 KB, and
// on a busy run the slabs are about half of the live memory. Taken from
// malloc they land in the main heap among small objects that outlive
// the run, so how much of that memory stays resident after the engine
// is destroyed depends on which objects happen to sit above it. A
// mapping goes back to the OS whole when its slab is released.
void Simulation::SlabRelease::operator()(Event* slab) const {
  for (uint32_t i = 0; i < kSlabEvents; ++i) slab[i].~Event();
  munmap(slab, sizeof(Event) * kSlabEvents);
}

uint32_t Simulation::AllocEvent() {
  if (free_events_ == kNil) {
    const uint32_t base = static_cast<uint32_t>(slabs_.size()) << kSlabBits;
    void* mem = mmap(nullptr, sizeof(Event) * kSlabEvents,
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) throw std::bad_alloc();
    Event* slab = static_cast<Event*>(mem);
    for (uint32_t i = 0; i < kSlabEvents; ++i) new (&slab[i]) Event();
    std::unique_ptr<Event, SlabRelease> owned(slab);
    slabs_.push_back(std::move(owned));
    // Thread the fresh slab onto the free list in ascending-index order.
    for (uint32_t i = kSlabEvents; i-- > 0;) {
      slab[i].next = free_events_;
      free_events_ = base + i;
    }
  }
  const uint32_t idx = free_events_;
  Event& e = Ev(idx);
  free_events_ = e.next;
  e.next = kNil;
  return idx;
}

void Simulation::FreeTombstone(uint32_t idx) {
  --tombstones_;
  FreeEvent(idx);
}

void Simulation::FreeEvent(uint32_t idx) {
  Event& e = Ev(idx);
  e.fn.Reset();
  e.periodic = 0;
  e.next = free_events_;
  free_events_ = idx;
}

// ---- Heap helpers -------------------------------------------------------

void Simulation::ImminentPush(HeapEntry e) {
  imminent_.push_back(e);
  std::push_heap(imminent_.begin(), imminent_.end(), kHeapGreater);
}

Simulation::HeapEntry Simulation::ImminentPop() {
  std::pop_heap(imminent_.begin(), imminent_.end(), kHeapGreater);
  HeapEntry e = imminent_.back();
  imminent_.pop_back();
  return e;
}

// ---- Wheel --------------------------------------------------------------

void Simulation::Insert(HeapEntry h) {
  Event& e = Ev(h.idx);
  if (h.time < wheel_time_) {
    // The wheel has already expired past this instant (the event was
    // scheduled from inside the currently-draining slot); it competes in
    // the spill heap, where (time, seq) ordering keeps FIFO exact.
    e.where = kQueued;
    ImminentPush(h);
    return;
  }
  for (int l = 0; l < kLevels; ++l) {
    const Nanos horizon = Nanos{1} << kHorizonShift[l];
    const Nanos rev_end = (wheel_time_ & ~(horizon - 1)) + horizon;
    if (h.time < rev_end) {
      // Within level l's current revolution: the slot is strictly ahead
      // of the cursor (upper-level revolution ends coincide with slot
      // boundaries one level up), so it has not been expired yet.
      const int slot =
          static_cast<int>((h.time >> kShift[l]) & (kSlots[l] - 1));
      const uint32_t head = slot_head_[l][slot];
      e.where = static_cast<uint8_t>(l);
      e.slot = static_cast<uint16_t>(slot);
      e.prev = kNil;
      e.next = head;
      if (head != kNil) Ev(head).prev = h.idx;
      slot_head_[l][slot] = h.idx;
      occupancy_[l][slot >> 6] |= uint64_t{1} << (slot & 63);
      ++wheel_count_;
      return;
    }
  }
  e.where = kQueued;
  far_.push_back(h);
  std::push_heap(far_.begin(), far_.end(), kHeapGreater);
}

void Simulation::Unlink(uint32_t idx) {
  Event& e = Ev(idx);
  const int l = e.where;
  if (e.prev == kNil) {
    slot_head_[l][e.slot] = e.next;
    if (e.next == kNil) {
      occupancy_[l][e.slot >> 6] &= ~(uint64_t{1} << (e.slot & 63));
    }
  } else {
    Ev(e.prev).next = e.next;
  }
  if (e.next != kNil) Ev(e.next).prev = e.prev;
  e.next = e.prev = kNil;
  e.where = kQueued;
  --wheel_count_;
}

int Simulation::FindOccupied(int level, int from) const {
  const int nslots = kSlots[level];
  if (from >= nslots) return -1;
  int word = from >> 6;
  uint64_t bits = occupancy_[level][word] & (~uint64_t{0} << (from & 63));
  while (true) {
    if (bits != 0) return (word << 6) + std::countr_zero(bits);
    if (++word >= (nslots >> 6)) return -1;
    bits = occupancy_[level][word];
  }
}

void Simulation::MigrateFar() {
  const Nanos horizon = Nanos{1} << kHorizonShift[kLevels - 1];
  const Nanos rev_end = (wheel_time_ & ~(horizon - 1)) + horizon;
  while (!far_.empty() && far_.front().time < rev_end) {
    std::pop_heap(far_.begin(), far_.end(), kHeapGreater);
    HeapEntry e = far_.back();
    far_.pop_back();
    if (Ev(e.idx).where == kTombstone) {
      FreeTombstone(e.idx);
    } else {
      Insert(e);
    }
  }
}

Nanos Simulation::WheelFloor() const {
  Nanos floor = far_.empty() ? std::numeric_limits<Nanos>::max()
                             : far_.front().time;
  for (int l = 0; l < kLevels; ++l) {
    // Scans start at the cursor slot: level 0's may still be due, and an
    // upper level's holds events while it waits to cascade (its start is
    // at or before the cursor, so the bound stays safe).
    const int cur =
        static_cast<int>((wheel_time_ >> kShift[l]) & (kSlots[l] - 1));
    const int i = FindOccupied(l, cur);
    if (i < 0) continue;
    const Nanos horizon = Nanos{1} << kHorizonShift[l];
    floor = std::min(floor,
                     (wheel_time_ & ~(horizon - 1)) + (Nanos{i} << kShift[l]));
  }
  return floor;
}

bool Simulation::AdvanceWheel() {
  while (true) {
    if (wheel_count_ == 0) {
      // Never fast-forward onto a cancelled event: the cursor would jump
      // to its far-future time, and everything scheduled before that
      // would then go through the spill heap instead of the wheel.
      while (!far_.empty() && Ev(far_.front().idx).where == kTombstone) {
        std::pop_heap(far_.begin(), far_.end(), kHeapGreater);
        FreeTombstone(far_.back().idx);
        far_.pop_back();
      }
      if (far_.empty()) return false;
      // Fast-forward an empty wheel straight to the far heap's earliest
      // event (aligned down to a level-0 slot boundary).
      wheel_time_ = far_.front().time & ~((Nanos{1} << kShift[0]) - 1);
      MigrateFar();
      continue;
    }
    MigrateFar();

    // Cascade first: if level-0 expiry carried the cursor exactly onto an
    // upper-level slot boundary (a level's revolution end is the next
    // level's slot boundary), that slot is now current and must be
    // redistributed one level down before level 0 is scanned — its events
    // may be earlier than anything left in level 0. Insert() guarantees
    // every event in the slot has time >= wheel_time_ and lands one level
    // lower, so this terminates.
    {
      bool cascaded = false;
      for (int l = 1; l < kLevels; ++l) {
        const int cur =
            static_cast<int>((wheel_time_ >> kShift[l]) & (kSlots[l] - 1));
        uint32_t n = slot_head_[l][cur];
        if (n == kNil) continue;
        slot_head_[l][cur] = kNil;
        occupancy_[l][cur >> 6] &= ~(uint64_t{1} << (cur & 63));
        while (n != kNil) {
          Event& e = Ev(n);
          const uint32_t next = e.next;
          e.next = kNil;
          --wheel_count_;
          Insert(HeapEntry{e.time, e.seq, n});
          n = next;
        }
        cascaded = true;
      }
      if (cascaded) continue;
    }

    // Level 0: expire the next occupied slot of the current revolution as
    // a sorted run. One sort per slot replaces per-event heap churn, and
    // knowing the dispatch order up front lets PopImminent prefetch each
    // event while its predecessor's callback runs; the loop below pulls
    // in every callback line (the event's second half) for the batch.
    {
      const int cur =
          static_cast<int>((wheel_time_ >> kShift[0]) & (kSlots[0] - 1));
      const int i = FindOccupied(0, cur);
      if (i >= 0) {
        const Nanos horizon = Nanos{1} << kHorizonShift[0];
        const Nanos rev_start = wheel_time_ & ~(horizon - 1);
        const Nanos slot_start = rev_start + (Nanos{i} << kShift[0]);
        uint32_t n = slot_head_[0][i];
        slot_head_[0][i] = kNil;
        occupancy_[0][i >> 6] &= ~(uint64_t{1} << (i & 63));
        run_.clear();
        run_pos_ = 0;
        while (n != kNil) {
          Event& e = Ev(n);
          e.where = kQueued;
          run_.push_back(HeapEntry{e.time, e.seq, n});
          // The walk already has the head line: start the callback line
          // on its way to the cache now, so dispatch never stalls on it.
          __builtin_prefetch(reinterpret_cast<const char*>(&e) + 64);
          const uint32_t next = e.next;
          e.next = kNil;
          --wheel_count_;
          n = next;
        }
        std::sort(run_.begin(), run_.end());
        // Warm the next occupied slot's first event too: its chain walk
        // otherwise starts with a cold dependent load.
        const int j = FindOccupied(0, i + 1);
        if (j >= 0) __builtin_prefetch(&Ev(slot_head_[0][j]));
        wheel_time_ = slot_start + (Nanos{1} << kShift[0]);
        return true;
      }
    }

    // Upper levels: jump the cursor to the next occupied slot and
    // redistribute its chain one level down (Insert re-buckets by the
    // updated cursor), then retry level 0. Scans start strictly past the
    // cursor slot: the cursor's own slot was drained by the cascade
    // above, and Insert never adds to it (anything that close goes to a
    // lower level).
    bool redistributed = false;
    for (int l = 1; l < kLevels; ++l) {
      const int cur =
          static_cast<int>((wheel_time_ >> kShift[l]) & (kSlots[l] - 1));
      const int i = FindOccupied(l, cur + 1);
      if (i < 0) continue;
      const Nanos horizon = Nanos{1} << kHorizonShift[l];
      const Nanos rev_start = wheel_time_ & ~(horizon - 1);
      wheel_time_ = rev_start + (Nanos{i} << kShift[l]);
      uint32_t n = slot_head_[l][i];
      slot_head_[l][i] = kNil;
      occupancy_[l][i >> 6] &= ~(uint64_t{1} << (i & 63));
      while (n != kNil) {
        Event& e = Ev(n);
        const uint32_t next = e.next;
        e.next = kNil;
        --wheel_count_;
        Insert(HeapEntry{e.time, e.seq, n});
        n = next;
      }
      redistributed = true;
      break;
    }
    assert(redistributed && "wheel_count_ > 0 but no occupied slot found");
    if (!redistributed) return false;
  }
}

// ---- Scheduling API -----------------------------------------------------

Simulation::Timer Simulation::At(Nanos time, SmallFn fn) {
  if (time < now_) SchedulePanic("At() scheduled before now()", time);
  if (!fn) SchedulePanic("At() scheduled with an empty callback", time);
  const uint32_t idx = AllocEvent();
  Event& e = Ev(idx);
  e.time = time;
  e.seq = next_seq_++;
  e.periodic = 0;
  e.fn = std::move(fn);
  Insert(HeapEntry{time, e.seq, idx});
  ++pending_;
  return Timer{idx, e.gen};
}

Simulation::Timer Simulation::After(Nanos delay, SmallFn fn) {
  if (delay < 0) SchedulePanic("After() scheduled with negative delay", delay);
  return At(now_ + delay, std::move(fn));
}

void Simulation::Cancel(Timer timer) {
  if (timer.idx >= (slabs_.size() << kSlabBits)) return;
  Event& e = Ev(timer.idx);
  // The generation moves on when a one-shot fires and when any event is
  // cancelled, so a match means the event is still waiting, or is a
  // periodic whose tick is running.
  if (e.gen != timer.gen) return;
  ++e.gen;
  if (e.where == kFiring) {
    // Cancelled by its own tick: the closure is running, so FirePeriodic
    // frees the event once it returns. pending() already excludes it.
    e.where = kTombstone;
    return;
  }
  --pending_;
  if (e.where < kLevels) {
    Unlink(timer.idx);
    FreeEvent(timer.idx);
    return;
  }
  // Already in the sorted run or a heap, whose order a removal would
  // break: leave a tombstone there and drop the callback now.
  e.where = kTombstone;
  ++tombstones_;
  e.fn.Reset();
}

Simulation::PeriodicHandle Simulation::Every(Nanos interval, SmallFn fn) {
  if (interval <= 0) {
    SchedulePanic("Every() scheduled with non-positive interval", interval);
  }
  // The whole subscription lives in the pooled event: the closure fires
  // and reschedules in place, and the interval rides in the line a tick
  // already touches.
  const uint32_t idx = AllocEvent();
  Event& e = Ev(idx);
  e.time = now_ + interval;
  e.seq = next_seq_++;
  e.periodic = 1;
  e.interval = interval;
  e.fn = std::move(fn);
  Insert(HeapEntry{e.time, e.seq, idx});
  ++pending_;
  return PeriodicHandle(this, Timer{idx, e.gen});
}

void Simulation::FirePeriodic(uint32_t idx) {
  Event& e = Ev(idx);
  e.where = kFiring;
  e.fn();
  // Unless the tick cancelled its own timer, reschedule the SAME pooled
  // event, generation unchanged: no allocation, no callback copy. The
  // sequence number is taken after the tick body ran, so events the tick
  // scheduled keep their FIFO priority over the next tick (identical to
  // the old After-inside-tick order).
  if (e.where == kTombstone) {
    FreeEvent(idx);
    return;
  }
  e.time = now_ + e.interval;
  e.seq = next_seq_++;
  Insert(HeapEntry{e.time, e.seq, idx});
  ++pending_;
}

// ---- Dispatch loops -----------------------------------------------------

void Simulation::Dispatch(uint32_t idx) {
  Event& e = Ev(idx);
  now_ = e.time;
  ++events_processed_;
  --pending_;
  if (e.periodic) {
    FirePeriodic(idx);
    return;
  }
  ++e.gen;  // a Cancel from inside the callback is stale
  // Invoke in place: slab addresses are stable, so callbacks may freely
  // schedule (and grow the pool) while running.
  e.fn();
  FreeEvent(idx);
}

const Simulation::HeapEntry* Simulation::PeekImminent() const {
  if (run_pos_ >= run_.size()) {
    return imminent_.empty() ? nullptr : &imminent_.front();
  }
  const HeapEntry* r = &run_[run_pos_];
  if (!imminent_.empty() && imminent_.front() < *r) return &imminent_.front();
  return r;
}

uint32_t Simulation::PopImminent() {
  if (run_pos_ < run_.size() &&
      (imminent_.empty() || run_[run_pos_] < imminent_.front())) {
    const uint32_t idx = run_[run_pos_++].idx;
    if (run_pos_ < run_.size()) {
      // Pull the next event's head line while this one's callback runs
      // (its callback line was prefetched at drain time).
      __builtin_prefetch(&Ev(run_[run_pos_].idx));
    }
    return idx;
  }
  return ImminentPop().idx;
}

const Simulation::HeapEntry* Simulation::LiveFront() {
  while (true) {
    const HeapEntry* front = PeekImminent();
    if (front == nullptr || tombstones_ == 0 ||
        Ev(front->idx).where != kTombstone) {
      return front;
    }
    FreeTombstone(PopImminent());
  }
}

// A drained wheel slot holds no tombstones (Cancel unlinks those), so
// after AdvanceWheel the front is live.
bool Simulation::RunOne() {
  if (LiveFront() == nullptr && !AdvanceWheel()) return false;
  Dispatch(PopImminent());
  return true;
}

void Simulation::Run() {
  while (RunOne()) {
  }
}

void Simulation::RunUntil(Nanos t) {
  while (true) {
    const HeapEntry* front = LiveFront();
    if (front == nullptr) {
      // Drain only a wheel that may hold an event due by t: a drain moves
      // the cursor past the whole slot, and whatever is scheduled before
      // the next RunUntil would then spill into the heap, not the wheel.
      if (WheelFloor() > t || !AdvanceWheel()) break;
      front = PeekImminent();
    }
    if (front->time > t) break;
    Dispatch(PopImminent());
  }
  if (t > now_) now_ = t;
}

}  // namespace repro
