#include "validation/summary.hpp"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

namespace fatih::validation {
namespace {

TEST(CounterSummary, Accumulates) {
  CounterSummary c;
  c.add(100);
  c.add(250);
  EXPECT_EQ(c.packets, 2U);
  EXPECT_EQ(c.bytes, 350U);
}

/// The sorted multiset TV hands to multiset_difference_size.
std::vector<Fingerprint> sorted_of(std::initializer_list<Fingerprint> fps) {
  std::vector<Fingerprint> v(fps);
  std::sort(v.begin(), v.end());
  return v;
}

TEST(MultisetDifferenceSize, DifferenceBasic) {
  const auto a = sorted_of({1, 2, 3, 4});
  const auto b = sorted_of({2, 4, 5});
  EXPECT_EQ(multiset_difference_size(a, b), 2U);  // {1, 3}
  EXPECT_EQ(multiset_difference_size(b, a), 1U);  // {5}
}

TEST(MultisetDifferenceSize, DifferenceRespectsMultiplicity) {
  const auto a = sorted_of({7, 7, 7});
  const auto b = sorted_of({7});
  EXPECT_EQ(multiset_difference_size(a, b), 2U);
  EXPECT_EQ(multiset_difference_size(b, a), 0U);
}

TEST(MultisetDifferenceSize, SymmetricDifferenceSize) {
  const auto a = sorted_of({1, 2, 3});
  const auto b = sorted_of({3, 4});
  const std::vector<Fingerprint> empty;
  auto symmetric = [](const auto& x, const auto& y) {
    return multiset_difference_size(x, y) + multiset_difference_size(y, x);
  };
  EXPECT_EQ(symmetric(a, b), 3U);
  EXPECT_EQ(symmetric(a, a), 0U);
  EXPECT_EQ(symmetric(a, empty), 3U);
  EXPECT_EQ(multiset_difference_size(a, empty), 3U);
  EXPECT_EQ(multiset_difference_size(empty, a), 0U);
}

TEST(ReorderCount, NoReorder) {
  const std::vector<Fingerprint> sent{1, 2, 3, 4, 5};
  EXPECT_EQ(reorder_count(sent, sent), 0U);
}

TEST(ReorderCount, SingleDisplacement) {
  const std::vector<Fingerprint> sent{1, 2, 3, 4, 5};
  const std::vector<Fingerprint> recv{2, 3, 4, 1, 5};  // 1 moved back
  EXPECT_EQ(reorder_count(sent, recv), 1U);
}

TEST(ReorderCount, FullReversal) {
  const std::vector<Fingerprint> sent{1, 2, 3, 4, 5};
  const std::vector<Fingerprint> recv{5, 4, 3, 2, 1};
  EXPECT_EQ(reorder_count(sent, recv), 4U);
}

TEST(ReorderCount, LossesExcludedFromMetric) {
  // §2.2.1: remove lost/fabricated packets from both streams first.
  const std::vector<Fingerprint> sent{1, 2, 3, 4, 5};
  const std::vector<Fingerprint> recv{1, 3, 5};  // 2 and 4 lost, order intact
  EXPECT_EQ(reorder_count(sent, recv), 0U);
}

TEST(ReorderCount, FabricationsExcludedFromMetric) {
  const std::vector<Fingerprint> sent{1, 2, 3};
  const std::vector<Fingerprint> recv{1, 9, 2, 3};  // 9 fabricated
  EXPECT_EQ(reorder_count(sent, recv), 0U);
}

TEST(ReorderCount, SwapAdjacent) {
  const std::vector<Fingerprint> sent{1, 2, 3, 4};
  const std::vector<Fingerprint> recv{1, 3, 2, 4};
  EXPECT_EQ(reorder_count(sent, recv), 1U);
}

TEST(ReorderCount, EmptyStreams) {
  const std::vector<Fingerprint> sent{1, 2};
  EXPECT_EQ(reorder_count({}, {}), 0U);
  EXPECT_EQ(reorder_count(sent, {}), 0U);
}

}  // namespace
}  // namespace fatih::validation
