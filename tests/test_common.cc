/**
 * @file
 * Unit tests of the common substrate: RNG, strings.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/string_util.hh"

namespace wmr {
namespace {

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 4);
}

TEST(Rng, BelowIsBounded)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(11);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceRoughlyCalibrated)
{
    Rng r(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_GT(hits, 2500);
    EXPECT_LT(hits, 3500);
}

TEST(StringUtil, Split)
{
    const auto v = split("a,b,,c", ',');
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[2], "");
    EXPECT_EQ(v[3], "c");
}

TEST(StringUtil, SplitWhitespace)
{
    const auto v = splitWhitespace("  foo\t bar\nbaz  ");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "foo");
    EXPECT_EQ(v[1], "bar");
    EXPECT_EQ(v[2], "baz");
}

TEST(StringUtil, Trim)
{
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("ab"), "ab");
}

TEST(StringUtil, StartsWith)
{
    EXPECT_TRUE(startsWith("foobar", "foo"));
    EXPECT_FALSE(startsWith("fo", "foo"));
    EXPECT_TRUE(startsWith("x", ""));
}

TEST(StringUtil, Strformat)
{
    EXPECT_EQ(strformat("%d-%s", 7, "x"), "7-x");
}

TEST(StringUtil, WithCommas)
{
    EXPECT_EQ(withCommas(0), "0");
    EXPECT_EQ(withCommas(999), "999");
    EXPECT_EQ(withCommas(1000), "1,000");
    EXPECT_EQ(withCommas(1234567), "1,234,567");
}

} // namespace
} // namespace wmr
