#include "validation/reconcile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/rng.hpp"

namespace fatih::validation {
namespace {

TEST(Gf, AddSubInverse) {
  EXPECT_EQ(gf::add(gf::kP - 1, 1), 0U);
  EXPECT_EQ(gf::sub(0, 1), gf::kP - 1);
  EXPECT_EQ(gf::add(5, 7), 12U);
  EXPECT_EQ(gf::sub(gf::add(123456789, 987654321), 987654321), 123456789U);
}

TEST(Gf, MulMatchesSmallCases) {
  EXPECT_EQ(gf::mul(3, 7), 21U);
  EXPECT_EQ(gf::mul(gf::kP - 1, gf::kP - 1), 1U);  // (-1)^2 = 1
  EXPECT_EQ(gf::mul(0, 12345), 0U);
}

TEST(Gf, PowAndFermat) {
  EXPECT_EQ(gf::pow(2, 10), 1024U);
  // Fermat's little theorem: a^(p-1) = 1.
  EXPECT_EQ(gf::pow(123456789, gf::kP - 1), 1U);
}

TEST(Gf, InverseIsInverse) {
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t a = gf::reduce(rng.next_u64());
    if (a == 0) continue;
    EXPECT_EQ(gf::mul(a, gf::inv(a)), 1U);
  }
}

TEST(EvaluationPoints, DeterministicAndDistinct) {
  const auto p1 = evaluation_points(64);
  const auto p2 = evaluation_points(64);
  EXPECT_EQ(p1, p2);
  std::set<std::uint64_t> unique(p1.begin(), p1.end());
  EXPECT_EQ(unique.size(), 64U);
}

TEST(CharPoly, RootsEvaluateToZero) {
  const std::vector<std::uint64_t> set{5, 17, 99};
  const auto evals = char_poly_evaluations(set, set);
  for (auto v : evals) EXPECT_EQ(v, 0U);
  const std::vector<std::uint64_t> points{1};
  // chi(1) = (1-5)(1-17)(1-99).
  const auto at1 = char_poly_evaluations(set, points)[0];
  EXPECT_EQ(at1, gf::mul(gf::mul(gf::sub(1, 5), gf::sub(1, 17)), gf::sub(1, 99)));
}

TEST(FindRoots, RecoversFactoredPolynomial) {
  // (x - 3)(x - 11)(x - 42) expanded.
  // x^3 - 56x^2 + (33+126+462)x - 1386 = x^3 - 56x^2 + 621x - 1386.
  std::vector<std::uint64_t> coeffs{gf::sub(0, 1386), 621, gf::sub(0, 56), 1};
  const auto roots = find_roots(coeffs, 7);
  EXPECT_EQ(roots, (std::vector<std::uint64_t>{3, 11, 42}));
}

TEST(FindRoots, LinearAndEmpty) {
  EXPECT_EQ(find_roots({gf::sub(0, 9), 1}, 1), (std::vector<std::uint64_t>{9}));
  EXPECT_TRUE(find_roots({1}, 1).empty());  // constant
}

struct ReconcileCase {
  std::size_t common;
  std::size_t only_a;
  std::size_t only_b;
};

class ReconcileTest : public ::testing::TestWithParam<ReconcileCase> {};

TEST_P(ReconcileTest, RecoversExactDifference) {
  const auto [common, only_a, only_b] = GetParam();
  util::Rng rng(common * 31 + only_a * 7 + only_b);
  std::set<std::uint64_t> a_set;
  std::set<std::uint64_t> b_set;
  std::set<std::uint64_t> expected_only_a;
  std::set<std::uint64_t> expected_only_b;
  while (a_set.size() + b_set.size() < 2 * common) {
    const auto v = to_field(rng.next_u64());
    a_set.insert(v);
    b_set.insert(v);
  }
  while (expected_only_a.size() < only_a) {
    const auto v = to_field(rng.next_u64());
    if (b_set.contains(v)) continue;
    if (expected_only_a.insert(v).second) a_set.insert(v);
  }
  while (expected_only_b.size() < only_b) {
    const auto v = to_field(rng.next_u64());
    if (a_set.contains(v)) continue;
    if (expected_only_b.insert(v).second) b_set.insert(v);
  }

  const std::size_t bound = only_a + only_b + 2;
  const auto points = evaluation_points(bound + 4);
  const std::vector<std::uint64_t> a_vec(a_set.begin(), a_set.end());
  const std::vector<std::uint64_t> b_vec(b_set.begin(), b_set.end());
  const auto a_evals = char_poly_evaluations(a_vec, points);

  const auto result = reconcile(b_vec, a_evals, a_vec.size(), points, bound);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(std::set<std::uint64_t>(result->only_remote.begin(), result->only_remote.end()),
            expected_only_a);
  EXPECT_EQ(std::set<std::uint64_t>(result->only_local.begin(), result->only_local.end()),
            expected_only_b);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ReconcileTest,
    ::testing::Values(ReconcileCase{100, 0, 0}, ReconcileCase{100, 1, 0},
                      ReconcileCase{100, 0, 1}, ReconcileCase{100, 3, 3},
                      ReconcileCase{500, 10, 0}, ReconcileCase{500, 0, 10},
                      ReconcileCase{1000, 8, 12}, ReconcileCase{50, 20, 20},
                      ReconcileCase{0, 5, 5}));

TEST(Reconcile, BoundExceededReturnsNull) {
  util::Rng rng(9);
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  for (int i = 0; i < 100; ++i) {
    const auto v = to_field(rng.next_u64());
    a.push_back(v);
    b.push_back(v);
  }
  // 30 extra elements in a, but bound of 10.
  for (int i = 0; i < 30; ++i) a.push_back(to_field(rng.next_u64()));
  const auto points = evaluation_points(14);
  const auto a_evals = char_poly_evaluations(a, points);
  EXPECT_FALSE(reconcile(b, a_evals, a.size(), points, 10).has_value());
}

TEST(Reconcile, EvaluationCountMismatchReturnsNull) {
  // Evaluations at fewer (or more) points than agreed are not a summary
  // of ours to reconcile: rejected before any point is read.
  const std::vector<std::uint64_t> set{to_field(1), to_field(2), to_field(3)};
  const auto points = evaluation_points(12);
  const auto evals = char_poly_evaluations(set, points);
  const std::vector<std::uint64_t> one{evals.front()};
  EXPECT_FALSE(reconcile(set, one, set.size(), points, 8).has_value());
  std::vector<std::uint64_t> extra = evals;
  extra.push_back(7);
  EXPECT_FALSE(reconcile(set, extra, set.size(), points, 8).has_value());
  EXPECT_TRUE(reconcile(set, evals, set.size(), points, 8).has_value());
}

TEST(Reconcile, BandwidthIsBoundedByDifference) {
  // The whole point of Appendix A: shipping d+slack field elements,
  // independent of |A| (here |A| = 5000 but we only send 12 evals).
  util::Rng rng(10);
  std::vector<std::uint64_t> a;
  for (int i = 0; i < 5000; ++i) a.push_back(to_field(rng.next_u64()));
  std::vector<std::uint64_t> b = a;
  b.pop_back();
  b.pop_back();
  const auto points = evaluation_points(12);
  const auto a_evals = char_poly_evaluations(a, points);
  EXPECT_EQ(a_evals.size(), 12U);  // 96 bytes on the wire
  const auto result = reconcile(b, a_evals, a.size(), points, 8);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->only_remote.size(), 2U);
  EXPECT_TRUE(result->only_local.empty());
}

}  // namespace
}  // namespace fatih::validation
