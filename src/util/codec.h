// Binary row encoding.
//
// NDB stores opaque byte strings; the file-system layers serialise their
// row structs (inodes, block records, leases, ...) with this little-endian
// length-prefixed codec. Keeping the storage engine schema-free mirrors the
// pluggable-storage design of HopsFS (§II-A1) and keeps the two layers
// decoupled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace repro {

// Writes little-endian fields into a caller's buffer of `cap` bytes, or,
// given none, only counts their bytes. A row runs its fields once through
// a counting Encoder to size its buffer exactly and once more to fill it
// (ndb::RowImage::Encode), so no buffer ever regrows. A field that would
// run past `cap` aborts the process in every build type: the two passes
// disagreed, which is a bug in the row's encoder.
class Encoder {
 public:
  Encoder() = default;  // counts only
  Encoder(char* out, size_t cap) : out_(out), cap_(cap) {}

  void PutU8(uint8_t v) { Put(&v, 1); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutString(std::string_view s);
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  // Bytes put so far.
  size_t size() const { return pos_; }

 private:
  void Put(const void* bytes, size_t n) {
    if (out_ != nullptr && n > 0) {
      if (n > cap_ - pos_) Overrun(n);
      std::memcpy(out_ + pos_, bytes, n);
    }
    pos_ += n;
  }
  [[noreturn]] void Overrun(size_t n) const;

  char* out_ = nullptr;
  size_t cap_ = 0;
  size_t pos_ = 0;
};

class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  uint8_t GetU8();
  uint32_t GetU32();
  uint64_t GetU64();
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  std::string GetString();
  bool GetBool() { return GetU8() != 0; }

  bool ok() const { return ok_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  bool Ensure(size_t n);

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace repro
