/**
 * @file
 * CRC-32 (the IEEE 802.3 / zlib polynomial, reflected form) used by
 * the segmented trace container (src/trace/segmented_io.hh) to
 * checksum each spilled segment.
 *
 * The incremental API exists so a frame's checksum can be computed
 * over several buffers without concatenating them — the spill writer
 * checksums its fixed header and its growing payload separately, and
 * the crash-flush path (a fatal-signal handler) needs a computation
 * that allocates nothing: the lookup tables are built at compile
 * time.  Every WMRSEG01 frame, the serve disk tier and
 * contentHash64() go through it, so it folds eight bytes a step
 * (slicing-by-8); the values are those of the bytewise algorithm.
 */

#ifndef WMR_COMMON_CRC32_HH
#define WMR_COMMON_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace wmr {

/** @return the initial running value for crc32Update(). */
inline constexpr std::uint32_t
crc32Init()
{
    return 0xffffffffu;
}

/** Fold @p n bytes at @p data into running value @p crc. */
std::uint32_t crc32Update(std::uint32_t crc, const void *data,
                          std::size_t n);

/** @return the finished checksum of running value @p crc. */
inline constexpr std::uint32_t
crc32Final(std::uint32_t crc)
{
    return crc ^ 0xffffffffu;
}

/** One-shot convenience: checksum of @p n bytes at @p data. */
inline std::uint32_t
crc32(const void *data, std::size_t n)
{
    return crc32Final(crc32Update(crc32Init(), data, n));
}

} // namespace wmr

#endif // WMR_COMMON_CRC32_HH
