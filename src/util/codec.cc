#include "util/codec.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace repro {

void Encoder::Overrun(size_t n) const {
  std::fprintf(stderr,
               "Encoder: FATAL: a %zu-byte field at offset %zu overruns the "
               "%zu-byte buffer\n",
               n, pos_, cap_);
  std::abort();
}

void Encoder::PutU32(uint32_t v) {
  uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
  Put(b, sizeof b);
}

void Encoder::PutU64(uint64_t v) {
  uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
  Put(b, sizeof b);
}

void Encoder::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  Put(s.data(), s.size());
}

bool Decoder::Ensure(size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t Decoder::GetU8() {
  if (!Ensure(1)) return 0;
  return static_cast<uint8_t>(data_[pos_++]);
}

uint32_t Decoder::GetU32() {
  uint32_t v = 0;
  if (!Ensure(4)) return 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

uint64_t Decoder::GetU64() {
  uint64_t v = 0;
  if (!Ensure(8)) return 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

std::string Decoder::GetString() {
  const uint32_t len = GetU32();
  if (!Ensure(len)) return {};
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

}  // namespace repro
