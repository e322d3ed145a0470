// One written row value, shared by every holder (DESIGN.md "Row images").
//
// A row's bytes are born once, when the namenode encodes the row, and
// from then on only travel: down the prepare chain, into each replica's
// pending and committed row, its redo record, the checkpoint base image,
// and back out in read replies and scans (§II-B2). Every holder keeps the
// same buffer. A `RowImage` is an 8-byte handle to one allocation (a
// header and the bytes), intrusively refcounted and immutable once built,
// so copying a handle costs no allocation and no byte copy.
//
// A null image means "absent row", and an empty image is still a present
// row, exactly as an optional string behaves. Equality compares bytes,
// never buffers. The simulation charges wire and disk bytes from
// `size()`, so sharing changes no simulated cost.
//
// The refcount is not atomic: an image never leaves the `Simulation` that
// created it, and one simulation runs on one thread.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <string_view>
#include <utility>

#include "util/codec.h"

namespace repro::ndb {

class RowImage {
 public:
  RowImage() noexcept = default;  // null: the row is absent

  // A present row holding a copy of `bytes` (one allocation).
  static RowImage Of(std::string_view bytes) {
    Rep* rep = Allocate(bytes.size());
    if (!bytes.empty()) {
      std::char_traits<char>::copy(rep->bytes(), bytes.data(), bytes.size());
    }
    return RowImage(rep);
  }

  // A present row of `size` copies of `byte` (the model's file payloads).
  static RowImage Filled(size_t size, char byte) {
    Rep* rep = Allocate(size);
    std::char_traits<char>::assign(rep->bytes(), size, byte);
    return RowImage(rep);
  }

  // A present row built by `fields(Encoder&)`: one counting pass sizes
  // the image exactly, a second writes the bytes into it (and aborts
  // rather than run past them).
  template <typename Fields>
  static RowImage Encode(const Fields& fields) {
    Encoder count;
    fields(count);
    Rep* rep = Allocate(count.size());
    Encoder out(rep->bytes(), count.size());
    fields(out);
    assert(out.size() == count.size());
    return RowImage(rep);
  }

  RowImage(const RowImage& o) noexcept : rep_(o.rep_) {
    if (rep_ != nullptr) ++rep_->refs;
  }
  RowImage(RowImage&& o) noexcept : rep_(std::exchange(o.rep_, nullptr)) {}
  RowImage& operator=(const RowImage& o) noexcept {
    RowImage(o).swap(*this);
    return *this;
  }
  RowImage& operator=(RowImage&& o) noexcept {
    RowImage(std::move(o)).swap(*this);
    return *this;
  }
  ~RowImage() {
    if (rep_ != nullptr && --rep_->refs == 0) Free(rep_);
  }

  void swap(RowImage& o) noexcept { std::swap(rep_, o.rep_); }
  void reset() noexcept { RowImage().swap(*this); }

  bool has_value() const noexcept { return rep_ != nullptr; }
  explicit operator bool() const noexcept { return has_value(); }
  const char* data() const noexcept {
    return rep_ != nullptr ? rep_->bytes() : nullptr;
  }
  size_t size() const noexcept { return rep_ != nullptr ? rep_->size : 0; }
  std::string_view view() const noexcept { return {data(), size()}; }

  // Handles on this buffer (0 for null), and whether two handles name
  // the same buffer: for tests that pin the sharing, never for equality.
  uint32_t use_count() const noexcept {
    return rep_ != nullptr ? rep_->refs : 0;
  }
  bool SharesBuffer(const RowImage& o) const noexcept {
    return rep_ != nullptr && rep_ == o.rep_;
  }

  // Equal when both are absent, or both present with equal bytes.
  friend bool operator==(const RowImage& a, const RowImage& b) noexcept {
    if (!a || !b) return !a && !b;
    return a.view() == b.view();
  }
  friend bool operator==(const RowImage& a, std::string_view b) noexcept {
    return a && a.view() == b;
  }

 private:
  struct Rep {
    uint32_t refs;
    uint32_t size;
    char* bytes() { return reinterpret_cast<char*>(this + 1); }
  };

  static Rep* Allocate(size_t size) {
    assert(size <= std::numeric_limits<uint32_t>::max());
    Rep* rep = static_cast<Rep*>(::operator new(sizeof(Rep) + size));
    rep->refs = 1;
    rep->size = static_cast<uint32_t>(size);
    return rep;
  }

  // Out of line: with the delete inlined into every destructor, GCC 12
  // flags a later read through another handle as a use after free.
  [[gnu::noinline]] static void Free(Rep* rep) noexcept {
    ::operator delete(rep);
  }

  explicit RowImage(Rep* rep) noexcept : rep_(rep) {}

  Rep* rep_ = nullptr;
};

}  // namespace repro::ndb
