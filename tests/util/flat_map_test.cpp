#include "util/flat_map.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace fatih::util {
namespace {

TEST(FlatMap, SubscriptInsertsAndUpdates) {
  FlatMap<int, std::string> m;
  EXPECT_TRUE(m.empty());
  m[3] = "three";
  m[1] = "one";
  m[3] = "THREE";
  EXPECT_EQ(m.size(), 2U);
  EXPECT_EQ(m.at(3), "THREE");
  EXPECT_EQ(m.at(1), "one");
}

TEST(FlatMap, IterationIsSortedByKey) {
  FlatMap<int, int> m;
  for (int k : {5, 1, 4, 2, 3}) m[k] = k * 10;
  std::vector<int> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(FlatMap, FindContainsCount) {
  FlatMap<int, int> m;
  m[2] = 20;
  EXPECT_NE(m.find(2), m.end());
  EXPECT_EQ(m.find(7), m.end());
  EXPECT_TRUE(m.contains(2));
  EXPECT_FALSE(m.contains(7));
  EXPECT_EQ(m.count(2), 1U);
  EXPECT_EQ(m.count(7), 0U);
}

TEST(FlatMap, AtThrowsOnMissingKey) {
  FlatMap<int, int> m;
  EXPECT_THROW((void)m.at(1), std::out_of_range);
}

TEST(FlatMap, InsertDoesNotOverwrite) {
  FlatMap<int, int> m;
  auto [it1, ok1] = m.insert({1, 10});
  EXPECT_TRUE(ok1);
  auto [it2, ok2] = m.insert({1, 99});
  EXPECT_FALSE(ok2);
  EXPECT_EQ(it2->second, 10);
  auto [it3, ok3] = m.emplace(2, 20);
  EXPECT_TRUE(ok3);
  EXPECT_EQ(m.size(), 2U);
}

/// Counts every copy made of it (the signed envelopes the ledgers store).
struct CopyCounted {
  static inline int copies = 0;
  int value = 0;
  explicit CopyCounted(int v) : value(v) {}
  CopyCounted(const CopyCounted& o) : value(o.value) { ++copies; }
  CopyCounted& operator=(const CopyCounted& o) {
    value = o.value;
    ++copies;
    return *this;
  }
  CopyCounted(CopyCounted&&) noexcept = default;
  CopyCounted& operator=(CopyCounted&&) noexcept = default;
};

TEST(FlatMap, TryEmplaceCopiesNothingWhenKeyIsPresent) {
  FlatMap<int, CopyCounted> m;
  const CopyCounted first(10);
  const CopyCounted second(99);
  CopyCounted::copies = 0;
  auto [it1, ok1] = m.try_emplace(1, first);
  EXPECT_TRUE(ok1);
  EXPECT_EQ(it1->second.value, 10);
  EXPECT_EQ(CopyCounted::copies, 1);  // the one stored copy
  CopyCounted::copies = 0;
  auto [it2, ok2] = m.try_emplace(1, second);
  EXPECT_FALSE(ok2);
  EXPECT_EQ(it2->second.value, 10);  // the first value stays
  EXPECT_EQ(CopyCounted::copies, 0);
  auto [it3, ok3] = m.try_emplace(0, second);  // inserts in key order
  EXPECT_TRUE(ok3);
  EXPECT_EQ(m.begin()->first, 0);
  EXPECT_EQ(m.size(), 2U);
}

TEST(FlatMap, EraseByKeyAndIterator) {
  FlatMap<int, int> m;
  for (int k : {1, 2, 3, 4}) m[k] = k;
  EXPECT_EQ(m.erase(2), 1U);
  EXPECT_EQ(m.erase(2), 0U);
  const auto next = m.erase(m.find(3));
  EXPECT_EQ(next->first, 4);
  EXPECT_EQ(m.size(), 2U);
}

TEST(FlatMap, EraseIfPreservesSurvivorOrder) {
  FlatMap<int, int> m;
  for (int k = 0; k < 10; ++k) m[k] = k;
  const std::size_t removed = erase_if(m, [](const auto& kv) { return kv.first % 2 == 0; });
  EXPECT_EQ(removed, 5U);
  std::vector<int> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(FlatMap, CompositeKeysOrderLikeStdMap) {
  // The detection stores key on pairs/tuples; lexicographic order must
  // match std::map's exactly (determinism of round walks depends on it).
  FlatMap<std::pair<unsigned, std::int64_t>, int> flat;
  std::map<std::pair<unsigned, std::int64_t>, int> ref;
  std::mt19937 rng(42);
  for (int i = 0; i < 200; ++i) {
    const std::pair<unsigned, std::int64_t> k{rng() % 8, static_cast<std::int64_t>(rng() % 16)};
    flat[k] = i;
    ref[k] = i;
  }
  ASSERT_EQ(flat.size(), ref.size());
  auto fit = flat.begin();
  for (const auto& [k, v] : ref) {
    EXPECT_EQ(fit->first, k);
    EXPECT_EQ(fit->second, v);
    ++fit;
  }
}

TEST(FlatMap, RandomOpsMatchStdMap) {
  // Differential test: a random interleaving of insert/update/erase must
  // leave the flat map byte-for-byte equal (keys, values, order) to a
  // std::map driven by the same ops.
  FlatMap<int, int> flat;
  std::map<int, int> ref;
  std::mt19937 rng(20260805);
  for (int i = 0; i < 5000; ++i) {
    const int k = static_cast<int>(rng() % 64);
    switch (rng() % 3) {
      case 0:
        flat[k] = i;
        ref[k] = i;
        break;
      case 1:
        flat.insert({k, -i});
        ref.insert({k, -i});
        break;
      default:
        EXPECT_EQ(flat.erase(k), ref.erase(k));
        break;
    }
  }
  ASSERT_EQ(flat.size(), ref.size());
  EXPECT_TRUE(std::equal(flat.begin(), flat.end(), ref.begin(), [](const auto& a, const auto& b) {
    return a.first == b.first && a.second == b.second;
  }));
}

TEST(FlatSet, InsertFindEraseOrdered) {
  FlatSet<int> s;
  EXPECT_TRUE(s.insert(3).second);
  EXPECT_TRUE(s.insert(1).second);
  EXPECT_FALSE(s.insert(3).second);  // duplicate
  EXPECT_EQ(s.size(), 2U);
  EXPECT_TRUE(s.contains(1));
  EXPECT_FALSE(s.contains(2));
  EXPECT_EQ(s.count(3), 1U);
  std::vector<int> vals(s.begin(), s.end());
  EXPECT_EQ(vals, (std::vector<int>{1, 3}));
  EXPECT_EQ(s.erase(1), 1U);
  EXPECT_EQ(s.erase(1), 0U);
  EXPECT_EQ(s.size(), 1U);
}

TEST(FlatSet, RandomOpsMatchStdSet) {
  FlatSet<int> flat;
  std::set<int> ref;
  std::mt19937 rng(7);
  for (int i = 0; i < 3000; ++i) {
    const int k = static_cast<int>(rng() % 48);
    if (rng() % 2 == 0) {
      EXPECT_EQ(flat.insert(k).second, ref.insert(k).second);
    } else {
      EXPECT_EQ(flat.erase(k), ref.erase(k));
    }
  }
  ASSERT_EQ(flat.size(), ref.size());
  EXPECT_TRUE(std::equal(flat.begin(), flat.end(), ref.begin()));
}

}  // namespace
}  // namespace fatih::util
