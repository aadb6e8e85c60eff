// Open-addressed hash map and set keyed by 64-bit integers.
//
// The particle-system hot path is "is this lattice node occupied, and by
// which particle?" executed tens of millions of times per experiment.
// std::unordered_map's chained buckets are a poor fit, so we provide a
// linear-probing table with backward-shift deletion (no tombstones) and
// power-of-two capacity. Keys are already-packed integers; values are
// small trivially-copyable types.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/rng.hpp"

namespace sops::util {

/// Flat hash map from uint64 keys to trivially-copyable values.
/// Invariants: capacity is a power of two; load factor <= 7/8.
template <typename Value>
class FlatMap {
 public:
  struct Slot {
    std::uint64_t key;
    Value value;
    bool occupied;
  };

  FlatMap() : FlatMap(16) {}

  explicit FlatMap(std::size_t initial_capacity) {
    std::size_t cap = 16;
    while (cap < initial_capacity) cap <<= 1;
    slots_.assign(cap, Slot{0, Value{}, false});
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Grows capacity (never shrinks) so that `count` entries fit without
  /// any further rehash: count <= 7/8 * capacity after the call. A table
  /// reserved for its peak size keeps every slot pointer stable for the
  /// rest of its life — the particle system relies on this so no rehash
  /// ever lands mid-trajectory.
  void reserve(std::size_t count) {
    std::size_t cap = slots_.size();
    while (count + 1 > (cap * 7) / 8) cap <<= 1;
    if (cap != slots_.size()) rehash(cap);
  }

  void clear() noexcept {
    for (auto& s : slots_) s.occupied = false;
    size_ = 0;
  }

  /// Inserts or overwrites. Returns true if the key was newly inserted.
  bool insert(std::uint64_t key, const Value& value) {
    maybe_grow();
    std::size_t i = probe_start(key);
    while (slots_[i].occupied) {
      if (slots_[i].key == key) {
        slots_[i].value = value;
        return false;
      }
      i = next(i);
    }
    slots_[i] = Slot{key, value, true};
    ++size_;
    return true;
  }

  /// Pointer to the value for `key`, or nullptr if absent.
  [[nodiscard]] const Value* find(std::uint64_t key) const noexcept {
    std::size_t i = probe_start(key);
    while (slots_[i].occupied) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = next(i);
    }
    return nullptr;
  }

  [[nodiscard]] Value* find(std::uint64_t key) noexcept {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }

  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    return find(key) != nullptr;
  }

  /// Erases `key` if present using backward-shift deletion, preserving
  /// probe-sequence integrity without tombstones. Returns true if erased.
  bool erase(std::uint64_t key) noexcept {
    std::size_t i = probe_start(key);
    while (slots_[i].occupied) {
      if (slots_[i].key == key) {
        backward_shift(i);
        --size_;
        return true;
      }
      i = next(i);
    }
    return false;
  }

  /// Calls `fn(key, value)` for each entry, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& s : slots_) {
      if (s.occupied) fn(s.key, s.value);
    }
  }

 private:
  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }
  [[nodiscard]] std::size_t probe_start(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(mix64(key)) & mask();
  }
  [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
    return (i + 1) & mask();
  }

  void maybe_grow() {
    if (size_ + 1 <= (slots_.size() * 7) / 8) return;
    rehash(slots_.size() * 2);
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{0, Value{}, false});
    size_ = 0;
    for (const auto& s : old) {
      if (s.occupied) insert(s.key, s.value);
    }
  }

  void backward_shift(std::size_t hole) noexcept {
    std::size_t i = next(hole);
    while (slots_[i].occupied) {
      // An entry may move back into the hole only if its ideal position
      // does not lie strictly inside the (hole, i] probe gap.
      const std::size_t ideal = probe_start(slots_[i].key);
      const std::size_t dist_ideal_to_i = (i - ideal) & mask();
      const std::size_t dist_hole_to_i = (i - hole) & mask();
      if (dist_ideal_to_i >= dist_hole_to_i) {
        slots_[hole] = slots_[i];
        hole = i;
      }
      i = next(i);
    }
    slots_[hole].occupied = false;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// Flat hash set of uint64 keys, built on FlatMap with an empty payload.
class FlatSet {
 public:
  FlatSet() = default;
  explicit FlatSet(std::size_t initial_capacity) : map_(initial_capacity) {}

  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }
  [[nodiscard]] bool empty() const noexcept { return map_.empty(); }
  void clear() noexcept { map_.clear(); }
  void reserve(std::size_t count) { map_.reserve(count); }
  bool insert(std::uint64_t key) { return map_.insert(key, Unit{}); }
  bool erase(std::uint64_t key) noexcept { return map_.erase(key); }
  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    return map_.contains(key);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    map_.for_each([&](std::uint64_t k, const Unit&) { fn(k); });
  }

 private:
  struct Unit {};
  FlatMap<Unit> map_;
};

}  // namespace sops::util
