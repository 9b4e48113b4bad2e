#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string_view>

#include "clock/clocks.h"
#include "metrics/metrics.h"
#include "util/check.h"
#include "util/fmt.h"
#include "util/ids.h"
#include "util/rng.h"

namespace discs {
namespace {

TEST(Ids, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<ProcessId, ObjectId>);
  ProcessId p(3);
  EXPECT_EQ(p.value(), 3u);
  EXPECT_TRUE(p.valid());
  EXPECT_FALSE(ProcessId::invalid().valid());
  EXPECT_EQ(to_string(p), "p3");
  EXPECT_EQ(to_string(ProcessId::invalid()), "-");
}

TEST(Ids, OrderingAndHash) {
  EXPECT_LT(TxId(1), TxId(2));
  std::set<TxId> s{TxId(1), TxId(2), TxId(1)};
  EXPECT_EQ(s.size(), 2u);
  std::hash<TxId> h;
  EXPECT_EQ(h(TxId(5)), h(TxId(5)));
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) differs |= (a2.next() != c.next());
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, SplitGivesIndependentStream) {
  Rng a(1);
  Rng child = a.split();
  EXPECT_NE(a.next(), child.next());
}

TEST(Zipf, SkewsTowardsLowIndices) {
  Rng rng(3);
  Zipf z(100, 0.99);
  std::size_t low = 0, total = 20000;
  for (std::size_t i = 0; i < total; ++i)
    if (z.sample(rng) < 10) ++low;
  // With theta=0.99 the top-10 of 100 keys draw well over a third of mass.
  EXPECT_GT(low, total / 3);
}

TEST(Zipf, UniformWhenThetaZero) {
  Rng rng(4);
  Zipf z(10, 0.0);
  std::vector<std::size_t> counts(10, 0);
  for (std::size_t i = 0; i < 20000; ++i) ++counts[z.sample(rng)];
  for (auto c : counts) EXPECT_GT(c, 20000u / 20);
}

TEST(Check, ThrowsCheckFailure) {
  EXPECT_THROW(DISCS_CHECK(false), CheckFailure);
  EXPECT_NO_THROW(DISCS_CHECK(true));
  try {
    DISCS_CHECK_MSG(1 == 2, "math broke: " << 42);
    FAIL();
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("math broke: 42"),
              std::string::npos);
  }
}

TEST(Fmt, CatAndJoin) {
  EXPECT_EQ(cat("a", 1, "b"), "a1b");
  std::vector<int> v{1, 2, 3};
  EXPECT_EQ(join(v, ","), "1,2,3");
  EXPECT_EQ(join(v, "-", [](int x) { return x * 2; }), "2-4-6");
}

// cat/join append strings, chars and decimal integers directly and stream
// everything else; either way the bytes must be what a default-formatted
// std::ostringstream produces for the same arguments.
template <class... Args>
std::string streamed(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

TEST(Fmt, CatMatchesTheStreamForEveryArgumentKind) {
  const std::string s = "str";
  const std::string_view sv = "view";
  const char* cs = "cstr";
  EXPECT_EQ(cat(s, sv, cs, 'c', "lit"), streamed(s, sv, cs, 'c', "lit"));
  EXPECT_EQ(cat(true, false), streamed(true, false));
  EXPECT_EQ(cat(true, false), "10");
  const std::int8_t i8 = 65;
  const std::uint8_t u8 = 66;
  EXPECT_EQ(cat(i8, u8), streamed(i8, u8));
  EXPECT_EQ(cat(i8, u8), "AB");
  const int neg = -42;
  const std::int64_t min64 = std::numeric_limits<std::int64_t>::min();
  const std::uint64_t max64 = std::numeric_limits<std::uint64_t>::max();
  const short sh = -7;
  const unsigned long ul = 123456789UL;
  EXPECT_EQ(cat(neg, min64, max64, sh, ul, 0),
            streamed(neg, min64, max64, sh, ul, 0));
  EXPECT_EQ(cat(max64), "18446744073709551615");
  for (double d : {0.1, 1.0 / 3, 2.5, 1e21, -0.0, 123456789.0})
    EXPECT_EQ(cat(d), streamed(d)) << d;
  EXPECT_EQ(cat(1.0 / 3), "0.333333");  // stream default precision 6
  EXPECT_EQ(cat(to_string(TxId(17)), to_string(ObjectId::invalid())),
            streamed(to_string(TxId(17)), to_string(ObjectId::invalid())));
  const clk::HlcTimestamp ts{12, max64};
  EXPECT_EQ(ts.str(), streamed(ts.physical, ".", ts.logical));
  clk::VectorClock vc(3);
  vc.set(0, 5);
  vc.set(2, max64);
  EXPECT_EQ(vc.str(), streamed("[", 5, ",", 0, ",", max64, "]"));
}

TEST(Fmt, JoinMatchesTheStream) {
  const std::vector<std::uint64_t> u{
      0, 7, std::numeric_limits<std::uint64_t>::max()};
  EXPECT_EQ(join(u, ","), streamed(u[0], ",", u[1], ",", u[2]));
  const std::vector<std::int8_t> c{72, 105};
  EXPECT_EQ(join(c, ""), "Hi");
  const std::vector<bool> b{true, false};
  EXPECT_EQ(join(b, "|"), "1|0");
  const std::vector<double> d{0.5, 1.0 / 7};
  EXPECT_EQ(join(d, " "), streamed(d[0], " ", d[1]));
  EXPECT_EQ(join(std::vector<int>{}, ","), "");
  EXPECT_EQ(join(std::vector<ObjectId>{ObjectId(1), ObjectId(20)}, ",",
                 [](ObjectId o) { return to_string(o); }),
            "X1,X20");
}

TEST(Fmt, AsciiTable) {
  auto t = ascii_table({{"h1", "h2"}, {"a", "bbb"}});
  EXPECT_NE(t.find("| h1 | h2  |"), std::string::npos);
  EXPECT_NE(t.find("| a  | bbb |"), std::string::npos);
}

TEST(Fmt, PadAndFixed) {
  EXPECT_EQ(pad("ab", 4), "ab  ");
  EXPECT_EQ(pad("abcd", 2), "abcd");
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
}

TEST(MetricsSummary, EmptyStatisticsAreNaN) {
  metrics::Summary s;
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  EXPECT_TRUE(std::isnan(s.percentile(0.0)));
  EXPECT_TRUE(std::isnan(s.percentile(0.5)));
  EXPECT_TRUE(std::isnan(s.percentile(1.0)));
  EXPECT_TRUE(std::isnan(s.p50()));
  EXPECT_TRUE(std::isnan(s.p95()));
  EXPECT_TRUE(std::isnan(s.p99()));
}

TEST(MetricsSummary, SingleSampleIsEveryStatistic) {
  metrics::Summary s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 42.0);
}

TEST(MetricsSummary, PercentileClampsOutOfRangeQuantiles) {
  metrics::Summary s;
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.percentile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.5), 3.0);
}

TEST(MetricsSummary, EmptyStrDoesNotThrow) {
  metrics::Summary s;
  EXPECT_NO_THROW({ auto str = s.str(); });
  EXPECT_NE(s.str().find("n=0"), std::string::npos);
}

}  // namespace
}  // namespace discs
