#include "common/crc32.hh"

#include <array>

namespace wmr {

namespace {

/** The reflected IEEE 802.3 polynomial. */
constexpr std::uint32_t kPoly = 0xedb88320u;

/**
 * Slicing-by-8 tables: kTables[0] is the bytewise table, and
 * kTables[k][i] is the CRC of byte i followed by k zero bytes, so
 * eight tables fold eight input bytes in one step.
 */
constexpr std::array<std::array<std::uint32_t, 256>, 8>
makeTables()
{
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
    return t;
}

constexpr auto kTables = makeTables();

/** @return the little-endian 32-bit word at @p p. */
std::uint32_t
load32le(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32Update(std::uint32_t crc, const void *data, std::size_t n)
{
    const auto &t = kTables;
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (; n >= 8; n -= 8, p += 8) {
        const std::uint32_t lo = crc ^ load32le(p);
        const std::uint32_t hi = load32le(p + 4);
        crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
              t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
              t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
              t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    }
    for (; n > 0; --n, ++p)
        crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
    return crc;
}

} // namespace wmr
