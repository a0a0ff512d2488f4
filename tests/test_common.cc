/**
 * @file
 * Unit tests of the common substrate: RNG, strings, CRC-32.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/crc32.hh"
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

/** The bytewise reflected CRC-32 (polynomial 0xEDB88320), one bit at
 *  a time: the reference the table-driven crc32Update must match. */
std::uint32_t
referenceCrc32(const std::uint8_t *p, std::size_t n)
{
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
        crc ^= p[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & 1) ? (0xedb88320u ^ (crc >> 1)) : (crc >> 1);
    }
    return crc ^ 0xffffffffu;
}

TEST(Crc32, CheckValue)
{
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset)
{
    std::vector<std::uint8_t> buf(64 + 8);
    Rng rng(7);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.below(256));
    for (std::size_t off = 0; off < 8; ++off) {
        for (std::size_t len = 0; len <= 64; ++len) {
            const std::uint8_t *p = buf.data() + off;
            EXPECT_EQ(crc32(p, len), referenceCrc32(p, len))
                << "offset " << off << " length " << len;
        }
    }
}

TEST(Crc32, SplitUpdatesMatchOneShot)
{
    std::vector<std::uint8_t> buf(64 + 8);
    Rng rng(11);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.below(256));
    for (std::size_t off = 0; off < 8; ++off) {
        for (std::size_t len = 0; len <= 64; ++len) {
            const std::uint8_t *p = buf.data() + off;
            const std::uint32_t want = referenceCrc32(p, len);
            for (std::size_t cut = 0; cut <= len; ++cut) {
                std::uint32_t crc = crc32Init();
                crc = crc32Update(crc, p, cut);
                crc = crc32Update(crc, p + cut, len - cut);
                EXPECT_EQ(crc32Final(crc), want)
                    << "offset " << off << " length " << len
                    << " cut " << cut;
            }
        }
    }
}

} // namespace
} // namespace wmr
