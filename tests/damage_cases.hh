/**
 * @file
 * Three damaged WMRSEG01 inputs that every read path — the strict
 * and salvage whole-buffer readers, `check --stream`, batch and
 * serve — must judge alike (same report bytes or same typed error):
 *
 *  (a) a 12-byte frame with a bad CRC appended after the FIN;
 *  (b) a CRC-valid frame with the unknown tag 'Z' inserted mid-file;
 *  (c) the magic alone: nothing is recoverable.
 *
 * All three derive from the bytes of `wmrace gen-trace --segmented
 * --procs 3 --events 150 --seed 8`.  Test-only.
 */

#ifndef WMR_TESTS_DAMAGE_CASES_HH
#define WMR_TESTS_DAMAGE_CASES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/crc32.hh"
#include "trace/segmented_io.hh"
#include "workload/synthetic_trace.hh"

namespace wmr::testing_damage {

struct DamageCase
{
    std::string name;
    std::vector<std::uint8_t> bytes;
};

inline void
appendFrame(std::vector<std::uint8_t> &out,
            const std::vector<std::uint8_t> &payload, std::uint32_t crc)
{
    const auto le32 = [&out](std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    le32(static_cast<std::uint32_t>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    le32(crc);
}

inline std::vector<DamageCase>
damageCases()
{
    SyntheticTraceOptions o;
    o.procs = 3;
    o.eventsPerProc = 150;
    o.seed = 8;
    const std::vector<std::uint8_t> base =
        serializeSegmentedTrace(makeSyntheticTrace(o));

    std::vector<DamageCase> out;

    DamageCase a{"bad frame after FIN", base};
    appendFrame(a.bytes, {'D', 'D', 'D', 'D'}, 0xdeadbeef);
    out.push_back(a);

    // Walk to the middle frame boundary, then splice the 'Z' frame.
    std::vector<std::size_t> starts;
    for (std::size_t pos = 8; pos + 4 <= base.size();) {
        starts.push_back(pos);
        const std::uint32_t len = base[pos] | base[pos + 1] << 8 |
                                  base[pos + 2] << 16 |
                                  static_cast<std::uint32_t>(
                                      base[pos + 3])
                                      << 24;
        pos += 8ull + len;
    }
    const std::size_t mid = starts[starts.size() / 2];
    DamageCase b{"unknown tag mid-file",
                 std::vector<std::uint8_t>(base.begin(),
                                           base.begin() + mid)};
    const std::vector<std::uint8_t> tagZ = {'Z'};
    appendFrame(b.bytes, tagZ, crc32(tagZ.data(), tagZ.size()));
    b.bytes.insert(b.bytes.end(), base.begin() + mid, base.end());
    out.push_back(b);

    out.push_back({"nothing recoverable",
                   std::vector<std::uint8_t>(base.begin(),
                                             base.begin() + 8)});
    return out;
}

} // namespace wmr::testing_damage

#endif // WMR_TESTS_DAMAGE_CASES_HH
