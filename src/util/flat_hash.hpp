// Open-addressing hash map for hot-path dedup sets.
//
// One flat slot array, linear probing, power-of-two capacity, grown when
// more than half full. There is no erase: its users only ever insert, then
// clear or die. Keys compare with operator==, so a key built from exact
// bit patterns (PositionSink's packed coordinates) keeps every distinct
// input distinct. The hash is finalized with a 64-bit mixer before
// masking, so a Hash with weak low bits still spreads over the table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hipo::util {

template <typename Key, typename Value, typename Hash>
class FlatMap {
 public:
  FlatMap() { reset_slots(8); }

  /// The value stored for `key`, or nullptr.
  const Value* find(const Key& key) const {
    for (std::size_t s = home(key);; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (!slot.used) return nullptr;
      if (slot.key == key) return &slot.value;
    }
  }

  /// Inserts (key, value) unless `key` is present. Returns true iff it
  /// inserted.
  bool insert(const Key& key, const Value& value) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t s = home(key);
    for (; slots_[s].used; s = (s + 1) & mask_) {
      if (slots_[s].key == key) return false;
    }
    slots_[s] = Slot{key, value, true};
    ++size_;
    return true;
  }

  std::size_t size() const { return size_; }

  /// Drops every entry; keeps the slot array.
  void clear() {
    if (size_ == 0) return;
    for (Slot& slot : slots_) slot.used = false;
    size_ = 0;
  }

 private:
  struct Slot {
    Key key{};
    Value value{};
    bool used = false;
  };

  /// splitmix64's finalizer (a bijective 64-bit mix), then the mask.
  std::size_t home(const Key& key) const {
    std::uint64_t h = Hash{}(key);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return static_cast<std::size_t>(h) & mask_;
  }

  /// Empty slots for `capacity` entries at half load.
  void reset_slots(std::size_t capacity) {
    std::size_t n = 16;
    while (n < 2 * capacity) n *= 2;
    slots_.assign(n, Slot{});
    mask_ = n - 1;
    size_ = 0;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    reset_slots(old.size());
    for (const Slot& slot : old) {
      if (!slot.used) continue;
      std::size_t s = home(slot.key);
      while (slots_[s].used) s = (s + 1) & mask_;
      slots_[s] = slot;
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hipo::util
