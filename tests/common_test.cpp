#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/bitvector.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace fades::common {
namespace {

// ---------------------------------------------------------------- Rng -----

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BetweenInclusiveBounds) {
  Rng rng(11);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.between(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    sawLo |= (v == 3);
    sawHi |= (v == 6);
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, Uniform01HalfOpenRange) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ForkedStreamsAreIndependentButDeterministic) {
  Rng parent1(99), parent2(99);
  Rng childA = parent1.fork(5);
  Rng childB = parent2.fork(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(childA(), childB());

  Rng parent3(99);
  Rng other = parent3.fork(6);
  int equal = 0;
  Rng childC = Rng(99).fork(5);
  for (int i = 0; i < 100; ++i) equal += (childC() == other());
  EXPECT_LT(equal, 3);
}

TEST(Rng, CoinIsRoughlyFair) {
  Rng rng(21);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.coin();
  EXPECT_GT(heads, 4500);
  EXPECT_LT(heads, 5500);
}

// ---------------------------------------------------------- BitVector -----

TEST(BitVector, StartsCleared) {
  BitVector bv(100);
  EXPECT_EQ(bv.size(), 100u);
  EXPECT_EQ(bv.popcount(), 0u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(bv.get(i));
}

TEST(BitVector, FillConstructorKeepsTailZero) {
  BitVector bv(70, true);
  EXPECT_EQ(bv.popcount(), 70u);
  BitVector other(70);
  other.setAll();
  EXPECT_EQ(bv, other);
}

TEST(BitVector, SetGetFlipRoundTrip) {
  BitVector bv(200);
  bv.set(0, true);
  bv.set(63, true);
  bv.set(64, true);
  bv.set(199, true);
  EXPECT_TRUE(bv.get(0));
  EXPECT_TRUE(bv.get(63));
  EXPECT_TRUE(bv.get(64));
  EXPECT_TRUE(bv.get(199));
  EXPECT_EQ(bv.popcount(), 4u);
  bv.flip(63);
  EXPECT_FALSE(bv.get(63));
  bv.flip(62);
  EXPECT_TRUE(bv.get(62));
}

TEST(BitVector, WordAccessRoundTrip) {
  BitVector bv(128);
  bv.setWord(5, 16, 0xBEEF);
  EXPECT_EQ(bv.getWord(5, 16), 0xBEEFu);
  // Neighbouring bits untouched.
  EXPECT_FALSE(bv.get(4));
  EXPECT_FALSE(bv.get(21));
}

TEST(BitVector, WordAccessAcrossWordBoundary) {
  BitVector bv(256);
  bv.setWord(60, 10, 0x3FF);
  EXPECT_EQ(bv.getWord(60, 10), 0x3FFu);
  EXPECT_EQ(bv.popcount(), 10u);
}

TEST(BitVector, WordAccessMatchesBitByBitReference) {
  // Random offsets, word-straddling ones included, at the widths where the
  // masks and shifts have their edge cases.
  Rng rng(17);
  BitVector bv(640);
  for (std::size_t i = 0; i < bv.size(); ++i) bv.set(i, rng.coin());
  for (const unsigned n : {0u, 1u, 5u, 16u, 63u, 64u}) {
    std::vector<std::size_t> offsets{0, 63, 64, 127, bv.size() - n};
    for (int k = 0; k < 200; ++k) offsets.push_back(rng.below(bv.size() - n + 1));
    for (const std::size_t off : offsets) {
      std::uint64_t want = 0;
      for (unsigned k = 0; k < n; ++k) {
        want |= std::uint64_t{bv.get(off + k)} << k;
      }
      ASSERT_EQ(bv.getWord(off, n), want) << "n=" << n << " off=" << off;

      BitVector written = bv;
      BitVector reference = bv;
      const std::uint64_t value = rng();
      written.setWord(off, n, value);
      for (unsigned k = 0; k < n; ++k) {
        reference.set(off + k, (value >> k) & 1u);
      }
      ASSERT_TRUE(written == reference) << "n=" << n << " off=" << off;
    }
  }
}

TEST(BitVector, ByteExportImportRoundTrip) {
  Rng rng(5);
  BitVector bv(333);
  for (std::size_t i = 0; i < bv.size(); ++i) bv.set(i, rng.coin());
  const auto bytes = bv.exportBytes(17, 200);
  BitVector copy(333);
  copy.importBytes(17, 200, bytes);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(copy.get(17 + i), bv.get(17 + i)) << "bit " << i;
  }
}

TEST(BitVector, DiffFindsExactlyTheFlippedBits) {
  BitVector a(500), b(500);
  b.flip(3);
  b.flip(64);
  b.flip(499);
  const auto d = a.diff(b);
  EXPECT_EQ(d, (std::vector<std::size_t>{3, 64, 499}));
}

TEST(BitVector, CopyBits) {
  BitVector src(64), dst(64);
  src.setWord(0, 8, 0xA5);
  BitVector::copyBits(src, 0, dst, 32, 8);
  EXPECT_EQ(dst.getWord(32, 8), 0xA5u);
  EXPECT_EQ(dst.popcount(), 4u);
}

TEST(BitVector, ToStringRendersBits) {
  BitVector bv(8);
  bv.set(1, true);
  bv.set(2, true);
  EXPECT_EQ(bv.toString(0, 4), "0110");
}

// -------------------------------------------------------------- errors -----

TEST(Error, RequireThrowsWithKind) {
  try {
    require(false, ErrorKind::RoutingError, "net n42 unroutable");
    FAIL() << "expected throw";
  } catch (const FadesError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::RoutingError);
    EXPECT_NE(std::string(e.what()).find("n42"), std::string::npos);
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(require(true, ErrorKind::ConfigError, "unused"));
}

// --------------------------------------------------------------- stats -----

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.13809, 1e-4);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, SumAccumulatesDirectly) {
  RunningStats s;
  double expect = 0.0;
  for (int i = 0; i < 60000; ++i) {
    const double x = 0.125 * ((i % 3) + 1);  // exact binary fractions
    s.add(x);
    expect += x;
  }
  // Exact equality: the sum is accumulated directly, not reconstructed as
  // mean * n, which would compound Welford rounding over the campaign.
  EXPECT_EQ(s.sum(), expect);
  EXPECT_EQ(s.sum(), 15000.0);  // 20000 triples of 0.125 + 0.25 + 0.375
}

TEST(Stats, EmptyStatsAreZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Stats, PercentHandlesZeroDenominator) {
  EXPECT_EQ(percent(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(percent(1, 4), 25.0);
}

TEST(Stats, FixedFormatting) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(10.0, 0), "10");
}

TEST(Stats, RenderTableAligns) {
  const auto t = renderTable({"a", "bbbb"}, {{"xx", "y"}});
  EXPECT_NE(t.find("| a  | bbbb |"), std::string::npos);
  EXPECT_NE(t.find("| xx | y    |"), std::string::npos);
}

TEST(Stats, FixedHandlesValuesWiderThanStackBuffer) {
  // 1e300 at 3 decimals is 305 characters - far past the 64-byte snprintf
  // buffer; the result must be the full rendering, not a truncation.
  const std::string s = fixed(1e300, 3);
  EXPECT_EQ(s.size(), 305u);
  EXPECT_EQ(s.front(), '1');
  EXPECT_EQ(s.substr(s.size() - 4), ".000");
  EXPECT_EQ(fixed(-1e300, 0).size(), 302u);
  EXPECT_EQ(fixed(2.5, 1), "2.5");  // narrow path unchanged
}

TEST(Stats, RenderTableKeepsExtraRowCells) {
  // Rows wider than the header must keep their extra cells and size the
  // extra columns to the widest cell, not silently drop them.
  const auto t = renderTable({"a"}, {{"x", "wide-cell"}, {"y"}});
  EXPECT_NE(t.find("wide-cell"), std::string::npos);
  EXPECT_NE(t.find("| x | wide-cell |"), std::string::npos);
  EXPECT_NE(t.find("| y |           |"), std::string::npos);
  EXPECT_NE(t.find("| a |           |"), std::string::npos);
}

}  // namespace
}  // namespace fades::common
