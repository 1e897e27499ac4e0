// util::FlatMap with PositionSink's key shape: u64 keys through an identity
// hash. Values must survive growth, keys compare by exact bits, and a repeat
// insert changes nothing.
#include "src/util/flat_hash.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "src/util/rng.hpp"

namespace hipo::util {
namespace {

struct IdentityHash {
  std::uint64_t operator()(std::uint64_t key) const { return key; }
};

using BitMap = FlatMap<std::uint64_t, bool, IdentityHash>;

TEST(FlatMap, VerdictsSurviveTableGrowth) {
  // Far more keys than the initial slots: packed 32-bit lanes whose low lane
  // never changes (weak low bits, as PositionSink's keys along one row), and
  // the exact bit patterns of random doubles.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 300; ++k) keys.push_back((k << 32) | 7u);
  hipo::Rng rng(23);
  for (int k = 0; k < 300; ++k) {
    keys.push_back(std::bit_cast<std::uint64_t>(rng.uniform(-40, 40)));
  }
  const auto verdict = [](std::size_t i) { return i % 3 == 0; };

  BitMap map;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(map.find(keys[i]), nullptr) << i;
    EXPECT_TRUE(map.insert(keys[i], verdict(i))) << i;
  }
  EXPECT_EQ(map.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const bool* v = map.find(keys[i]);
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, verdict(i)) << i;
  }

  map.clear();
  EXPECT_EQ(map.size(), 0u);
  for (const std::uint64_t key : keys) EXPECT_EQ(map.find(key), nullptr);
}

TEST(FlatMap, SignedZerosAreDistinctKeys) {
  const std::uint64_t pos_zero = std::bit_cast<std::uint64_t>(0.0);
  const std::uint64_t neg_zero = std::bit_cast<std::uint64_t>(-0.0);
  ASSERT_NE(pos_zero, neg_zero);
  BitMap map;
  EXPECT_TRUE(map.insert(pos_zero, true));
  EXPECT_TRUE(map.insert(neg_zero, false));
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.find(pos_zero), nullptr);
  ASSERT_NE(map.find(neg_zero), nullptr);
  EXPECT_TRUE(*map.find(pos_zero));
  EXPECT_FALSE(*map.find(neg_zero));
}

TEST(FlatMap, InsertReturnsFalseOnRepeat) {
  BitMap map;
  EXPECT_TRUE(map.insert(42, true));
  EXPECT_FALSE(map.insert(42, false));
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.find(42), nullptr);
  EXPECT_TRUE(*map.find(42));
}

}  // namespace
}  // namespace hipo::util
