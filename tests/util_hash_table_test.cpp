#include "src/util/hash_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>

#include "src/util/rng.hpp"

namespace sops::util {
namespace {

TEST(FlatMap, InsertFindErase) {
  FlatMap<int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.insert(1, 10));
  EXPECT_TRUE(m.insert(2, 20));
  EXPECT_FALSE(m.insert(1, 11));  // overwrite
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), 11);
  EXPECT_EQ(m.find(3), nullptr);
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_FALSE(m.contains(1));
  EXPECT_TRUE(m.contains(2));
}

TEST(FlatMap, HandlesExtremeKeys) {
  FlatMap<int> m;
  m.insert(0, 1);
  m.insert(UINT64_MAX, 2);
  m.insert(UINT64_MAX - 1, 3);
  EXPECT_EQ(*m.find(0), 1);
  EXPECT_EQ(*m.find(UINT64_MAX), 2);
  EXPECT_EQ(*m.find(UINT64_MAX - 1), 3);
}

TEST(FlatMap, GrowsPastInitialCapacity) {
  FlatMap<std::uint64_t> m(16);
  for (std::uint64_t i = 0; i < 10000; ++i) m.insert(i * 7919, i);
  EXPECT_EQ(m.size(), 10000u);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    ASSERT_NE(m.find(i * 7919), nullptr) << i;
    EXPECT_EQ(*m.find(i * 7919), i);
  }
}

TEST(FlatMap, ClearResets) {
  FlatMap<int> m;
  for (std::uint64_t i = 0; i < 100; ++i) m.insert(i, 1);
  m.clear();
  EXPECT_TRUE(m.empty());
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_FALSE(m.contains(i));
  m.insert(5, 2);
  EXPECT_EQ(*m.find(5), 2);
}

TEST(FlatMap, ForEachVisitsAll) {
  FlatMap<int> m;
  for (std::uint64_t i = 0; i < 500; ++i) m.insert(i, static_cast<int>(i));
  std::set<std::uint64_t> keys;
  m.for_each([&](std::uint64_t k, int v) {
    EXPECT_EQ(static_cast<std::uint64_t>(v), k);
    keys.insert(k);
  });
  EXPECT_EQ(keys.size(), 500u);
}

// Differential test against std::map under random insert/erase churn —
// exercises backward-shift deletion heavily.
TEST(FlatMap, DifferentialChurn) {
  FlatMap<std::uint64_t> m;
  std::map<std::uint64_t, std::uint64_t> ref;
  Rng rng(2024);
  for (int step = 0; step < 200000; ++step) {
    const std::uint64_t key = rng.below(512);  // small key space → collisions
    if (rng.bernoulli(0.55)) {
      const std::uint64_t value = rng.next();
      m.insert(key, value);
      ref[key] = value;
    } else {
      EXPECT_EQ(m.erase(key), ref.erase(key) > 0);
    }
    if (step % 1000 == 0) {
      ASSERT_EQ(m.size(), ref.size());
    }
  }
  ASSERT_EQ(m.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_NE(m.find(k), nullptr);
    EXPECT_EQ(*m.find(k), v);
  }
}

TEST(FlatMap, ReserveGuaranteesCapacityUpFront) {
  FlatMap<int> m;
  m.reserve(1000);
  const std::size_t cap = m.capacity();
  // 1000 entries must fit under the 7/8 load-factor ceiling.
  EXPECT_LE(1000u + 1u, (cap * 7) / 8);
  for (std::uint64_t i = 0; i < 1000; ++i) m.insert(i * 7919, 1);
  EXPECT_EQ(m.capacity(), cap);
  // reserve never shrinks.
  m.reserve(10);
  EXPECT_EQ(m.capacity(), cap);
}

// The particle-system contract: a table reserved for 2x its resident
// count must never rehash across a long trajectory of erase+insert
// pairs (the occupancy churn of a chain run).
TEST(FlatMap, CapacityStableAcrossTrajectoryChurn) {
  const std::size_t n = 400;
  FlatMap<int> m;
  m.reserve(2 * n);
  const std::size_t cap = m.capacity();

  std::vector<std::uint64_t> keys;
  Rng rng(777);
  std::uint64_t next_key = 0;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(next_key);
    m.insert(next_key++, 1);
  }
  for (int step = 0; step < 200000; ++step) {
    // One chain move: vacate one node, occupy a fresh one.
    const std::size_t victim =
        static_cast<std::size_t>(rng.below(keys.size()));
    EXPECT_TRUE(m.erase(keys[victim]));
    keys[victim] = next_key;
    m.insert(next_key++, 1);
    ASSERT_EQ(m.capacity(), cap) << "rehash at step " << step;
  }
  EXPECT_EQ(m.size(), n);
  EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatSet, BasicOperations) {
  FlatSet s;
  EXPECT_TRUE(s.insert(10));
  EXPECT_FALSE(s.insert(10));
  EXPECT_TRUE(s.contains(10));
  EXPECT_FALSE(s.contains(11));
  EXPECT_TRUE(s.erase(10));
  EXPECT_FALSE(s.erase(10));
  EXPECT_TRUE(s.empty());
}

TEST(FlatSet, LargeInsertion) {
  FlatSet s;
  for (std::uint64_t i = 0; i < 50000; ++i) s.insert(i * i);
  for (std::uint64_t i = 0; i < 50000; ++i) {
    EXPECT_TRUE(s.contains(i * i)) << i;
  }
  EXPECT_EQ(s.size(), 50000u);
}

}  // namespace
}  // namespace sops::util
