// Pooled message records with owning, move-only references.
//
// Protocol code hands one piece of data through several scheduled stages
// (send thread, wire, receive thread, handler). Capturing that data by
// value in each stage's closure re-boxes it on the heap whenever it
// outgrows SmallFn's 56-byte inline slot. A RecordPool<T> stores the data
// once, in a recycled slab, and each stage captures only a 16-byte `Ref`
// to it — so `[this, ref]` closures stay inline and a steady-state hop
// allocates nothing. Dropping the last Ref resets the record to `T{}`
// (freeing its strings and vectors) and puts it back on the free list.
//
// Lifetime: pending events own Refs, and the engine destroys its queue
// last — after the objects that created the records may already be gone
// (a cluster torn down with signals in flight). The pool therefore lives
// until both its Handles and its live records are gone; whichever drops
// last frees it. Nothing here touches simulated time or the RNG.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace repro {

template <typename T>
class RecordPool {
  struct Slot {
    T value{};
    uint32_t refs = 0;
    Slot* next_free = nullptr;
  };

 public:
  // Owning reference to one record. Move-only; `Share()` makes a second
  // owner explicitly (the record returns to the pool when the last one
  // goes).
  class Ref {
   public:
    Ref() noexcept = default;
    Ref(Ref&& o) noexcept : pool_(o.pool_), slot_(o.slot_) {
      o.pool_ = nullptr;
      o.slot_ = nullptr;
    }
    Ref& operator=(Ref&& o) noexcept {
      if (this != &o) {
        Reset();
        pool_ = std::exchange(o.pool_, nullptr);
        slot_ = std::exchange(o.slot_, nullptr);
      }
      return *this;
    }
    Ref(const Ref&) = delete;
    Ref& operator=(const Ref&) = delete;
    ~Ref() { Reset(); }

    T& operator*() const { return slot_->value; }
    T* operator->() const { return &slot_->value; }
    explicit operator bool() const { return slot_ != nullptr; }

    Ref Share() const {
      ++slot_->refs;
      return Ref(pool_, slot_);
    }
    void Reset() noexcept {
      if (slot_ == nullptr) return;
      RecordPool* pool = std::exchange(pool_, nullptr);
      pool->Release(std::exchange(slot_, nullptr));
    }

   private:
    friend class RecordPool;
    Ref(RecordPool* pool, Slot* slot) noexcept : pool_(pool), slot_(slot) {}
    RecordPool* pool_ = nullptr;
    Slot* slot_ = nullptr;
  };

  // Shared owner handle of a pool (copyable).
  class Handle {
   public:
    Handle() noexcept = default;
    static Handle Make() { return Handle(new RecordPool()); }
    Handle(const Handle& o) noexcept : pool_(o.pool_) {
      if (pool_ != nullptr) ++pool_->handles_;
    }
    Handle& operator=(Handle o) noexcept {
      std::swap(pool_, o.pool_);
      return *this;
    }
    ~Handle() {
      if (pool_ == nullptr) return;
      --pool_->handles_;
      pool_->MaybeFree();
    }
    RecordPool* operator->() const { return pool_; }
    RecordPool& operator*() const { return *pool_; }

   private:
    explicit Handle(RecordPool* pool) noexcept : pool_(pool) {
      ++pool_->handles_;
    }
    RecordPool* pool_ = nullptr;
  };

  Ref Acquire() {
    if (free_ == nullptr) Grow();
    Slot* s = free_;
    free_ = s->next_free;
    s->next_free = nullptr;
    s->refs = 1;
    ++live_;
    return Ref(this, s);
  }

  // Records currently held by at least one Ref.
  size_t live() const { return live_; }
  // Records allocated so far (live + free). Slabs double from one record
  // up to kMaxSlab, so a pool that never holds more than a few records
  // stays a few records big; the pool never shrinks.
  size_t capacity() const { return capacity_; }

 private:
  static constexpr size_t kMaxSlab = 64;

  RecordPool() = default;
  ~RecordPool() = default;
  RecordPool(const RecordPool&) = delete;
  RecordPool& operator=(const RecordPool&) = delete;

  void Grow() {
    const size_t n = capacity_ == 0 ? 1 : std::min(capacity_, kMaxSlab);
    auto slab = std::make_unique<Slot[]>(n);
    for (size_t i = n; i-- > 0;) {
      slab[i].next_free = free_;
      free_ = &slab[i];
    }
    slabs_.push_back(std::move(slab));
    capacity_ += n;
  }

  void Release(Slot* s) noexcept {
    if (--s->refs > 0) return;
    s->value = T{};
    s->next_free = free_;
    free_ = s;
    --live_;
    MaybeFree();
  }

  void MaybeFree() noexcept {
    if (handles_ == 0 && live_ == 0) delete this;
  }

  std::vector<std::unique_ptr<Slot[]>> slabs_;
  Slot* free_ = nullptr;
  size_t capacity_ = 0;
  size_t live_ = 0;
  size_t handles_ = 0;
};

}  // namespace repro
