// Unit tests for src/support: RNG, statistics, bitset, tables, heat maps,
// string utilities, the exp kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "support/bitset.hpp"
#include "support/exp_kernel.hpp"
#include "support/heatmap.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/string_utils.hpp"
#include "support/table.hpp"

namespace tadfa {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  const auto first = a.next();
  a.next();
  a.reseed(7);
  EXPECT_EQ(a.next(), first);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    seen.insert(rng.below(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(13);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformInHalfOpenUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(19);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.uniform();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(29);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(37);
  Rng child = a.split();
  EXPECT_NE(a.next(), child.next());
}

// ----------------------------------------------------------- statistics ----

TEST(Statistics, MeanAndVariance) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(stats::variance(xs), 1.25);
  EXPECT_DOUBLE_EQ(stats::stddev(xs), std::sqrt(1.25));
}

TEST(Statistics, MinMaxRange) {
  const std::vector<double> xs{3, -1, 4, 1, 5};
  EXPECT_DOUBLE_EQ(stats::min(xs), -1);
  EXPECT_DOUBLE_EQ(stats::max(xs), 5);
  EXPECT_DOUBLE_EQ(stats::range(xs), 6);
}

TEST(Statistics, PercentileInterpolates) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(stats::median(xs), 25);
}

TEST(Statistics, RmseAndMae) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{1, 2, 7};
  EXPECT_NEAR(stats::rmse(a, b), 4.0 / std::sqrt(3.0), 1e-12);
  EXPECT_NEAR(stats::mae(a, b), 4.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats::max_abs_error(a, b), 4.0);
}

TEST(Statistics, PearsonPerfectCorrelation) {
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{2, 4, 6, 8};
  EXPECT_NEAR(stats::pearson(a, b), 1.0, 1e-12);
  const std::vector<double> c{8, 6, 4, 2};
  EXPECT_NEAR(stats::pearson(a, c), -1.0, 1e-12);
}

TEST(Statistics, PearsonConstantIsZero) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{5, 5, 5};
  EXPECT_DOUBLE_EQ(stats::pearson(a, b), 0.0);
}

TEST(Statistics, Jaccard) {
  EXPECT_DOUBLE_EQ(stats::jaccard({1, 2, 3}, {2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(stats::jaccard({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(stats::jaccard({1}, {}), 0.0);
}

TEST(Statistics, TopKIndices) {
  const std::vector<double> xs{5, 1, 9, 3};
  const auto top = stats::top_k_indices(xs, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 2u);
  EXPECT_EQ(top[1], 0u);
}

TEST(Statistics, TopKClampsToSize) {
  const std::vector<double> xs{1, 2};
  EXPECT_EQ(stats::top_k_indices(xs, 10).size(), 2u);
}

TEST(Statistics, AccumulatorMatchesBatch) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  stats::Accumulator acc;
  for (double x : xs) {
    acc.add(x);
  }
  EXPECT_EQ(acc.count(), xs.size());
  EXPECT_NEAR(acc.mean(), stats::mean(xs), 1e-12);
  EXPECT_NEAR(acc.variance(), stats::variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2);
  EXPECT_DOUBLE_EQ(acc.max(), 9);
}

// -------------------------------------------------------------- bitset ----

TEST(DenseBitSet, SetTestReset) {
  DenseBitSet s(100);
  EXPECT_FALSE(s.test(63));
  s.set(63);
  s.set(64);
  s.set(99);
  EXPECT_TRUE(s.test(63));
  EXPECT_TRUE(s.test(64));
  EXPECT_TRUE(s.test(99));
  s.reset(64);
  EXPECT_FALSE(s.test(64));
  EXPECT_EQ(s.count(), 2u);
}

TEST(DenseBitSet, MergeReportsChange) {
  DenseBitSet a(10);
  DenseBitSet b(10);
  b.set(3);
  EXPECT_TRUE(a.merge(b));
  EXPECT_FALSE(a.merge(b));
  EXPECT_TRUE(a.test(3));
}

TEST(DenseBitSet, SubtractAndIntersect) {
  DenseBitSet a(10);
  DenseBitSet b(10);
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  DenseBitSet c = a;
  c.subtract(b);
  EXPECT_TRUE(c.test(1));
  EXPECT_FALSE(c.test(2));
  a.intersect(b);
  EXPECT_FALSE(a.test(1));
  EXPECT_TRUE(a.test(2));
}

TEST(DenseBitSet, ToIndicesSortedAscending) {
  DenseBitSet s(130);
  s.set(0);
  s.set(65);
  s.set(129);
  const auto idx = s.to_indices();
  EXPECT_EQ(idx, (std::vector<std::size_t>{0, 65, 129}));
}

TEST(DenseBitSet, AnyAndClear) {
  DenseBitSet s(5);
  EXPECT_FALSE(s.any());
  s.set(4);
  EXPECT_TRUE(s.any());
  s.clear();
  EXPECT_FALSE(s.any());
}

TEST(DenseBitSet, EqualityComparesContent) {
  DenseBitSet a(10);
  DenseBitSet b(10);
  EXPECT_EQ(a, b);
  a.set(5);
  EXPECT_NE(a, b);
  b.set(5);
  EXPECT_EQ(a, b);
}

// --------------------------------------------------------------- table ----

TEST(TextTable, AlignsColumns) {
  TextTable t("demo");
  t.set_header({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("| name"), std::string::npos);
}

TEST(TextTable, CsvQuotesSpecials) {
  TextTable t;
  t.set_header({"a", "b"});
  t.add_row({"x,y", "he said \"hi\""});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
  EXPECT_NE(os.str().find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

// -------------------------------------------------------------- heatmap ----

TEST(Heatmap, RendersExpectedShape) {
  const std::vector<double> v{0, 1, 2, 3, 4, 5};
  std::ostringstream os;
  HeatmapOptions opt;
  opt.legend = false;
  opt.glyph_width = 1;
  render_heatmap(os, v, 2, 3, opt);
  const auto lines = split(os.str(), '\n');
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0].size(), 3u);
  EXPECT_EQ(lines[1].size(), 3u);
}

TEST(Heatmap, HotterValuesGetLaterRampGlyphs) {
  const std::vector<double> v{0.0, 10.0};
  std::ostringstream os;
  HeatmapOptions opt;
  opt.legend = false;
  opt.glyph_width = 1;
  opt.ramp = "ab";
  render_heatmap(os, v, 1, 2, opt);
  EXPECT_EQ(os.str(), "ab\n");
}

TEST(Heatmap, FixedScaleClampsOutliers) {
  const std::vector<double> v{-100.0, 200.0};
  std::ostringstream os;
  HeatmapOptions opt;
  opt.legend = false;
  opt.glyph_width = 1;
  opt.ramp = "ab";
  opt.scale_min = 0.0;
  opt.scale_max = 1.0;
  render_heatmap(os, v, 1, 2, opt);
  EXPECT_EQ(os.str(), "ab\n");
}

TEST(Heatmap, PairRendersSideBySide) {
  const std::vector<double> l{0, 1};
  const std::vector<double> r{1, 0};
  std::ostringstream os;
  HeatmapOptions opt;
  opt.legend = false;
  render_heatmap_pair(os, l, r, 1, 2, "left", "right", opt);
  const std::string out = os.str();
  EXPECT_NE(out.find("left"), std::string::npos);
  EXPECT_NE(out.find("right"), std::string::npos);
}

// ------------------------------------------------------------- strings ----

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

TEST(Strings, SplitWhitespaceDropsEmpties) {
  EXPECT_EQ(split_whitespace("  a \t b  "),
            (std::vector<std::string>{"a", "b"}));
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("func @f", "func"));
  EXPECT_FALSE(starts_with("fun", "func"));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, ParseIntStrict) {
  long long v = 0;
  EXPECT_TRUE(parse_int("-42", v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(parse_int("42x", v));
  EXPECT_FALSE(parse_int("", v));
}

TEST(Strings, ParseDoubleStrict) {
  double v = 0;
  EXPECT_TRUE(parse_double("2.5", v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_FALSE(parse_double("2.5z", v));
}

// ---------------------------------------------------------- exp kernel ----

TEST(ExpKernel, WithinOneUlpOfExpl) {
  Rng rng(20);
  for (const auto& [lo, hi] : {std::pair{-20.0, 20.0}, {-708.0, 709.78}}) {
    for (int i = 0; i < 200000; ++i) {
      const double x = rng.uniform(lo, hi);
      const long double exact = std::exp(static_cast<long double>(x));
      // One ULP of the exact value's binade (the upper one at a tie).
      int e = 0;
      std::frexp(static_cast<double>(exact), &e);
      const long double ulp = std::ldexp(1.0L, e - 53);
      ASSERT_LE(std::fabs(exp_kernel(x) - exact), ulp)
          << std::hexfloat << "x = " << x;
    }
  }
}

TEST(ExpKernel, SpecialValuesMatchStdExpClass) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kStep = std::numeric_limits<double>::denorm_min();
  // The largest x with a finite exp and the next double; the smallest x
  // with a nonzero exp and the next one down.
  for (const double x :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf, 0.0, -0.0,
        0x1.62e42fefa39efp+9, 0x1.62e42fefa39f0p+9, 710.0, 746.0, 1e300,
        std::numeric_limits<double>::max(), -0x1.74910d52d3051p+9,
        -0x1.74910d52d3052p+9, -745.13, -746.0, -1e300,
        -std::numeric_limits<double>::max(), kStep, -kStep}) {
    const double want = std::exp(x);
    const double got = exp_kernel(x);
    EXPECT_EQ(std::fpclassify(got), std::fpclassify(want))
        << std::hexfloat << "x = " << x << ": " << got << " vs " << want;
    if (std::isfinite(want) && want < 1.0) {
      EXPECT_LE(std::fabs(got - want), kStep) << std::hexfloat << x;
    }
  }
  EXPECT_EQ(exp_kernel(0.0), 1.0);
  EXPECT_EQ(exp_kernel(-0.0), 1.0);
}

TEST(ExpKernel, SubnormalResultsWithinOneStep) {
  // exp is subnormal from x ≈ −708.4 down to −745.13, where it rounds
  // to the smallest subnormal; the kernel rounds twice there.
  constexpr double kStep = std::numeric_limits<double>::denorm_min();
  Rng rng(21);
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.uniform(-745.13, -708.4);
    const double want = std::exp(x);
    const double got = exp_kernel(x);
    ASSERT_EQ(std::fpclassify(got), std::fpclassify(want))
        << std::hexfloat << "x = " << x;
    ASSERT_LE(std::fabs(got - want), kStep) << std::hexfloat << "x = " << x;
  }
}

}  // namespace
}  // namespace tadfa
