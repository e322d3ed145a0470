// String-keyed ordered map with a hash index for point lookups.
//
// NDB gives each table two access paths: primary-key operations go
// through a hash index and range scans through an ordered index. The
// same split serves every string-keyed map here that is looked up by
// exact key far more often than it is walked in order: a RowStore
// table (rows by key; a directory listing is a range scan) and the
// namenode's inode hint cache (directories by path; a rename drops a
// subtree's hints as one key range). A `std::map` alone costs an
// O(log n) walk of string compares per lookup, each a likely cache miss.
//
// `IndexedMap` keeps the map as the owner of the entries and the only
// structure ever iterated, and beside it a flat open-addressed index of
// the map's entries: power-of-two capacity, linear probing, and at most
// kMaxLoadQuarters entries per four slots (see below). A slot is one map
// iterator (the node pointer) and
// its key's 32-bit hash (kEmpty, which `Hash` never returns, marks a free
// slot), stored in pairs so that a slot takes 12 bytes rather than a
// padded 16. A probe compares hashes and reads an entry's node only on a
// hash match, so looking up an absent key reads no node. Growth re-places
// slots from their stored hashes, and erasure shifts the rest of the
// probe chain back instead of leaving tombstones; neither reads a node
// or rehashes a key. The index has no iteration API, so its order cannot
// reach the simulation.
//
// Every insertion and erasure goes through this class, which keeps the
// index and the map in step; `map()` is read-only. Callers that look a
// key up more than once pass its `Hash` along instead of recomputing it.
//
// The load limit trades memory for probe length. With linear probing at
// load a, finding a present key reads about (1 + 1/(1-a))/2 slots and
// missing an absent one (1 + 1/(1-a)^2)/2: 1.5 and 2.5 at a = 1/2, 2.5
// and 8.5 at a = 3/4. The default, 2 (half full at most), suits a table
// that looks up absent keys often (a RowStore table: every new row). A
// map that mostly finds present keys and is kept in many copies (the
// namenodes' hint caches) takes 3, which halves its index.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace repro::util {

template <typename V, int kMaxLoadQuarters = 2>
class IndexedMap {
  static_assert(kMaxLoadQuarters >= 1 && kMaxLoadQuarters <= 3);

 public:
  using Map = std::map<std::string, V, std::less<>>;
  using Entry = typename Map::value_type;
  using const_iterator = typename Map::const_iterator;

  IndexedMap() = default;
  // The index holds iterators into this map, so a copy would index the
  // source's entries.
  IndexedMap(const IndexedMap&) = delete;
  IndexedMap& operator=(const IndexedMap&) = delete;

  // The key's hash as the index stores it; never kEmpty.
  static uint32_t Hash(std::string_view key) {
    const auto hash =
        static_cast<uint32_t>(std::hash<std::string_view>{}(key));
    return hash == kEmpty ? 1 : hash;
  }

  // The entry with `key` (whose Hash is `hash`), or null.
  Entry* Find(std::string_view key, uint32_t hash) const {
    if (pairs_.empty()) return nullptr;
    const size_t i = Probe(key, hash);
    return hash_at(i) == kEmpty ? nullptr : &*row_at(i);
  }
  Entry* Find(std::string_view key) const { return Find(key, Hash(key)); }

  // The entry with `key`, created with a value-initialised V if absent.
  Entry& FindOrInsert(std::string_view key, uint32_t hash) {
    if ((map_.size() + 1) * 4 > capacity() * kMaxLoadQuarters) {
      Resize(capacity() * 2);
    }
    const size_t i = Probe(key, hash);
    if (hash_at(i) == kEmpty) {
      hash_at(i) = hash;
      // Hinted at the map's end: keys that arrive in increasing order (a
      // bulk load) go in without a tree walk; any other key costs one
      // more compare.
      row_at(i) = map_.try_emplace(map_.end(), std::string(key));
    }
    return *row_at(i);
  }
  Entry& FindOrInsert(std::string_view key) {
    return FindOrInsert(key, Hash(key));
  }

  // Unindexes `entry` (whose key hashes to `hash`), then erases it.
  void Erase(const Entry& entry, uint32_t hash) {
    const size_t slot = SlotOf(entry, hash);
    const auto it = row_at(slot);
    Unindex(slot);
    map_.erase(it);
  }

  // Erases the map's entries in [first, last).
  void EraseRange(const_iterator first, const_iterator last) {
    for (auto it = first; it != last; ++it) {
      Unindex(SlotOf(*it, Hash(it->first)));
    }
    map_.erase(first, last);
  }

  // Drops every entry; the index keeps its capacity.
  void Clear() {
    std::fill(pairs_.begin(), pairs_.end(), SlotPair{});
    map_.clear();
  }

  // Sizes the index for `n` entries at once, so that filling it to `n`
  // never regrows it.
  void Reserve(size_t n) {
    const size_t slots = (n * 4 + kMaxLoadQuarters - 1) / kMaxLoadQuarters;
    const size_t want = std::bit_ceil(std::max(slots, kMinSlots));
    if (want > capacity()) Resize(want);
  }

  const Map& map() const { return map_; }
  size_t size() const { return map_.size(); }
  // Slots in the index (a power of two, or 0 before the first insert).
  size_t capacity() const { return pairs_.size() * 2; }

 private:
  using iterator = typename Map::iterator;
  static constexpr uint32_t kEmpty = 0;
  // The first capacity. It doubles whenever an insert would take the
  // load past kMaxLoadQuarters / 4.
  static constexpr size_t kMinSlots = 16;

  // Two slots, stored so that each hash sits beside its iterator.
  struct SlotPair {
    iterator row[2];
    uint32_t hash[2] = {kEmpty, kEmpty};
  };
  uint32_t& hash_at(size_t i) { return pairs_[i / 2].hash[i % 2]; }
  uint32_t hash_at(size_t i) const { return pairs_[i / 2].hash[i % 2]; }
  iterator& row_at(size_t i) { return pairs_[i / 2].row[i % 2]; }
  iterator row_at(size_t i) const { return pairs_[i / 2].row[i % 2]; }

  // The slot holding `key`, or the free slot where it would go.
  size_t Probe(std::string_view key, uint32_t hash) const {
    const size_t mask = capacity() - 1;
    size_t i = hash & mask;
    for (; hash_at(i) != kEmpty; i = (i + 1) & mask) {
      if (hash_at(i) == hash && row_at(i)->first == key) break;
    }
    return i;
  }

  // The slot holding `entry`, which must be indexed.
  size_t SlotOf(const Entry& entry, uint32_t hash) const {
    const size_t mask = capacity() - 1;
    size_t i = hash & mask;
    while (hash_at(i) != hash || &*row_at(i) != &entry) i = (i + 1) & mask;
    return i;
  }

  // Frees slot `hole` by backward-shift deletion: each later member of
  // the probe chain whose home slot is not after the hole moves into it,
  // so that no probe ever stops at a gap before its key.
  void Unindex(size_t hole) {
    const size_t mask = capacity() - 1;
    for (size_t i = (hole + 1) & mask; hash_at(i) != kEmpty;
         i = (i + 1) & mask) {
      const size_t home = hash_at(i) & mask;
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        hash_at(hole) = hash_at(i);
        row_at(hole) = row_at(i);
        hole = i;
      }
    }
    hash_at(hole) = kEmpty;
  }

  // Re-places every slot in an index of `slots` slots (at least
  // kMinSlots), from the stored hashes.
  void Resize(size_t slots) {
    std::vector<SlotPair> old(std::max(slots, kMinSlots) / 2);
    old.swap(pairs_);
    const size_t mask = capacity() - 1;
    for (size_t j = 0; j < old.size() * 2; ++j) {
      const uint32_t h = old[j / 2].hash[j % 2];
      if (h == kEmpty) continue;
      size_t i = h & mask;
      while (hash_at(i) != kEmpty) i = (i + 1) & mask;
      hash_at(i) = h;
      row_at(i) = old[j / 2].row[j % 2];
    }
  }

  Map map_;
  // Every entry of `map_`, at most kMaxLoadQuarters per four slots.
  std::vector<SlotPair> pairs_;
};

}  // namespace repro::util
