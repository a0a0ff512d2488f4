/**
 * @file
 * Robustness fuzzing: corrupted trace files and serve frames must
 * come back typed — a parse error or a valid decode — never crash,
 * hang, or allocate unboundedly.  Every parser returns its outcome
 * (none of them fatal()s), so mutations run in-process: a crash
 * fails the whole binary, a hang trips the CTest timeout.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>

#include <sys/socket.h>
#include <unistd.h>

#include "common/rng.hh"
#include "serve/protocol.hh"
#include "trace/segmented_io.hh"
#include "trace/trace_io.hh"
#include "workload/scenarios.hh"

namespace wmr {
namespace {

/** The legacy WMRTRC01 decoder's seed: a frozen golden fixture
 *  (no writer emits the container any more). */
std::vector<std::uint8_t>
baseline()
{
    std::ifstream in(std::string(WMR_GOLDEN_DIR) +
                         "/legacy_queue_wo_s5.trace",
                     std::ios::binary);
    EXPECT_TRUE(in.good());
    return std::vector<std::uint8_t>(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
}

/** A decode must come back typed: ok with a usable trace, or a
 *  FormatError with a reason. */
void
expectTyped(const std::vector<std::uint8_t> &bytes,
            const std::string &what)
{
    const auto res = tryDeserializeTrace(bytes);
    if (res.ok()) {
        (void)res.trace.events().size();
    } else {
        EXPECT_EQ(res.status, TraceIoStatus::FormatError) << what;
        EXPECT_FALSE(res.error.empty()) << what;
    }
}

TEST(TraceFuzz, SingleByteMutationsNeverCrash)
{
    const auto bytes = baseline();
    ASSERT_GT(bytes.size(), 8u);
    Rng rng(99);
    for (int trial = 0; trial < 25; ++trial) {
        auto mutated = bytes;
        const std::size_t pos =
            8 + rng.below(mutated.size() - 8); // keep the magic
        mutated[pos] ^= static_cast<std::uint8_t>(
            1u << rng.below(8));
        expectTyped(mutated, "trial " + std::to_string(trial) +
                                 " pos " + std::to_string(pos));
    }
}

TEST(TraceFuzz, TruncationsNeverCrash)
{
    const auto bytes = baseline();
    ASSERT_GT(bytes.size(), 8u);
    Rng rng(7);
    for (int trial = 0; trial < 15; ++trial) {
        auto mutated = bytes;
        mutated.resize(8 + rng.below(mutated.size() - 8));
        expectTyped(mutated, "trial " + std::to_string(trial));
    }
}

TEST(TraceFuzz, RandomGarbageNeverCrashes)
{
    Rng rng(13);
    for (int trial = 0; trial < 15; ++trial) {
        std::vector<std::uint8_t> junk(
            8 + rng.below(256));
        // Valid magic so we exercise the body parser, then noise.
        const char magic[8] = {'W', 'M', 'R', 'T', 'R', 'C', '0',
                               '1'};
        std::copy(std::begin(magic), std::end(magic), junk.begin());
        for (std::size_t i = 8; i < junk.size(); ++i)
            junk[i] = static_cast<std::uint8_t>(rng.below(256));
        expectTyped(junk, "trial " + std::to_string(trial));
    }
}

// ---------------------------------------------------------------
// Serve frames: structure-aware fuzzing of the wire parsers.  The
// parsers return typed FrameReadStatus / bool outcomes (they never
// fatal), so these run in-process — a crash fails the whole binary,
// a hang trips the CTest timeout.
// ---------------------------------------------------------------

namespace {

/** Feed @p bytes to readRequest over a socketpair (write side closed
 *  after the payload, so a hungry parser sees EOF, not a hang). */
serve::FrameReadStatus
parseRequestBytes(const std::vector<std::uint8_t> &bytes,
                  serve::Request &out, std::string &error)
{
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    if (!bytes.empty()) {
        EXPECT_TRUE(serve::writeAll(sv[1], bytes.data(),
                                    bytes.size()));
    }
    ::close(sv[1]);
    const serve::FrameReadStatus rs =
        serve::readRequest(sv[0], 1u << 20, out, error);
    ::close(sv[0]);
    return rs;
}

std::vector<std::uint8_t>
baselineRequestFrame()
{
    serve::Request req;
    req.command = serve::Command::Analyze;
    req.flags = serve::kReqSalvage;
    req.body.assign(64, 0xab);
    return serve::encodeRequestFrame(req);
}

std::vector<std::uint8_t>
baselineResponseFrame()
{
    serve::Response resp;
    resp.status = serve::RespStatus::Ok;
    resp.flags = serve::kRespAnyDataRace;
    resp.retryAfterMs = 250;
    resp.meta.events = 42;
    resp.meta.dataRaces = 1;
    resp.meta.anyDataRace = true;
    resp.meta.error = "";
    resp.report = "DATA RACES detected\nsome report text\n";
    return serve::encodeResponseFrame(resp);
}

} // namespace

TEST(ServeFrameFuzz, MutatedRequestFramesAlwaysReturnTyped)
{
    const auto frame = baselineRequestFrame();
    Rng rng(4242);
    for (int trial = 0; trial < 40; ++trial) {
        auto mutated = frame;
        // Bias half the trials into the 24-byte header, where the
        // length/command fields live.
        const std::size_t pos =
            (trial & 1) ? rng.below(24)
                        : rng.below(mutated.size());
        mutated[pos] ^= static_cast<std::uint8_t>(1u
                                                  << rng.below(8));
        serve::Request out;
        std::string error;
        const serve::FrameReadStatus rs =
            parseRequestBytes(mutated, out, error);
        if (rs == serve::FrameReadStatus::Ok) {
            // A surviving decode must be internally consistent.
            EXPECT_LE(out.body.size(), 1u << 20)
                << "trial " << trial;
        } else {
            EXPECT_FALSE(error.empty()) << "trial " << trial;
        }
    }
}

TEST(ServeFrameFuzz, TruncatedRequestFramesAreTypedNotOk)
{
    const auto frame = baselineRequestFrame();
    Rng rng(17);
    for (int trial = 0; trial < 20; ++trial) {
        auto mutated = frame;
        mutated.resize(rng.below(mutated.size())); // always short
        serve::Request out;
        std::string error;
        const serve::FrameReadStatus rs =
            parseRequestBytes(mutated, out, error);
        EXPECT_NE(rs, serve::FrameReadStatus::Ok)
            << "trial " << trial << " kept " << mutated.size();
        EXPECT_FALSE(error.empty()) << "trial " << trial;
    }
}

TEST(ServeFrameFuzz, MutatedResponseFramesNeverCrashTheDecoder)
{
    const auto frame = baselineResponseFrame();
    Rng rng(1001);
    for (int trial = 0; trial < 60; ++trial) {
        auto mutated = frame;
        const std::size_t pos =
            (trial & 1) ? rng.below(36) // response header
                        : rng.below(mutated.size());
        mutated[pos] ^= static_cast<std::uint8_t>(1u
                                                  << rng.below(8));
        serve::Response out;
        std::string error;
        if (!serve::decodeResponseFrame(mutated.data(),
                                        mutated.size(), out,
                                        error)) {
            EXPECT_FALSE(error.empty()) << "trial " << trial;
        } else {
            (void)out.report.size(); // decoded: must be usable
            (void)serve::metaJson(out);
        }
    }
}

// ---------------------------------------------------------------
// Segmented container: bit-flip fuzzing of both readers.  Strict
// must refuse damage with a typed error; salvage must always come
// back with a (possibly empty) recovered prefix.
// ---------------------------------------------------------------

TEST(SegFuzz, BitFlipsNeverCrashStrictOrSalvageReaders)
{
    const auto s = stageFigure2bExecution({.regionSize = 6,
                                           .staleOffset = 2});
    const auto bytes = serializeSegmentedTrace(
        buildTrace(s.result, {.keepMemberOps = true}), 4);
    Rng rng(555);
    for (int trial = 0; trial < 40; ++trial) {
        auto mutated = bytes;
        const std::size_t pos = rng.below(mutated.size());
        mutated[pos] ^= static_cast<std::uint8_t>(1u
                                                  << rng.below(8));
        const auto strict = tryReadSegmentedTrace(mutated);
        if (!strict.ok()) {
            EXPECT_FALSE(strict.error.empty())
                << "trial " << trial;
        }
        const auto salvage = trySalvageTrace(mutated);
        if (salvage.ok()) {
            // Whatever survived must answer basic queries.
            (void)salvage.trace.events().size();
        } else {
            EXPECT_FALSE(salvage.error.empty())
                << "trial " << trial;
        }
    }
}

// ---------------------------------------------------------------
// Committed regression corpus: tests/data/fuzz/ holds inputs that
// exercise (or once provoked) parser edge cases; the file prefix
// picks the parser (see the README there).
// ---------------------------------------------------------------

TEST(FuzzRegression, CommittedInputsStayTyped)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> inputs;
    for (const auto &ent : fs::directory_iterator(WMR_FUZZ_DIR)) {
        if (ent.path().extension() == ".bin")
            inputs.push_back(ent.path());
    }
    std::sort(inputs.begin(), inputs.end());
    ASSERT_FALSE(inputs.empty());

    for (const auto &path : inputs) {
        SCOPED_TRACE(path.filename().string());
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good());
        std::vector<std::uint8_t> bytes(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        const std::string name = path.filename().string();

        if (name.rfind("serve_req_", 0) == 0) {
            serve::Request out;
            std::string error;
            const serve::FrameReadStatus rs =
                parseRequestBytes(bytes, out, error);
            EXPECT_NE(rs, serve::FrameReadStatus::Ok);
            EXPECT_FALSE(error.empty());
        } else if (name.rfind("serve_resp_", 0) == 0) {
            serve::Response out;
            std::string error;
            EXPECT_FALSE(serve::decodeResponseFrame(
                bytes.data(), bytes.size(), out, error));
            EXPECT_FALSE(error.empty());
        } else if (name.rfind("seg_", 0) == 0) {
            const auto strict = tryReadSegmentedTrace(bytes);
            EXPECT_FALSE(strict.ok()); // all fixtures are damaged
            EXPECT_FALSE(strict.error.empty());
            const auto salvage = trySalvageTrace(bytes);
            if (salvage.ok())
                (void)salvage.trace.events().size();
            else
                EXPECT_FALSE(salvage.error.empty());
        } else {
            FAIL() << "unrecognized fuzz fixture prefix: " << name;
        }
    }
}

} // namespace
} // namespace wmr
