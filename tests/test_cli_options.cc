/**
 * @file
 * The CLI option table (tools/cli/options.hh): typed reads, defaults,
 * usage errors (exit 2), and the loud failure of a command that reads
 * an option it does not declare or into a field its bound overflows.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "options.hh"

namespace wmr::cli {
namespace {

int
noop(const CommandLine &)
{
    return 0;
}

const Command kDemo{
    .name = "demo",
    .operands = "<file>",
    .summary = "a command for the parser tests",
    .minOperands = 1,
    .maxOperands = 1,
    .options = {
        flag("fast", "go fast"),
        text("out", "FILE", "write here"),
        number("procs", 1, 65535, "processors"),
        fraction("share", "a share"),
        choice("model", {"SC", "WO"}, "memory model"),
    },
    .conflicts = {{"fast", "out"}},
    .needs = {{"share", "procs"}},
    .run = noop,
};

CommandLine
parse(std::vector<std::string> args)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    return CommandLine(kDemo, static_cast<int>(args.size()),
                       argv.data());
}

TEST(CliOptions, ReadsTypedValuesOnEitherSideOfTheOperand)
{
    const CommandLine cl = parse({"--procs", "8", "f.trace", "--share",
                                  "0.25", "--model", "wo", "--out", "x"});
    EXPECT_EQ(cl.operands(), std::vector<std::string>{"f.trace"});
    EXPECT_EQ(cl.number<std::uint16_t>("procs", 4), 8);
    EXPECT_DOUBLE_EQ(cl.fraction("share", 0.5), 0.25);
    EXPECT_EQ(cl.choice("model"), "WO");
    EXPECT_EQ(cl.text("out"), "x");
    EXPECT_FALSE(cl.has("fast"));
}

TEST(CliOptions, AbsentOptionsKeepTheirDefaults)
{
    const CommandLine cl = parse({"f.trace", "--fast"});
    EXPECT_TRUE(cl.has("fast"));
    EXPECT_EQ(cl.number<std::uint16_t>("procs", 4), 4);
    EXPECT_DOUBLE_EQ(cl.fraction("share", 0.5), 0.5);
    EXPECT_EQ(cl.choice("model"), "");
    EXPECT_EQ(cl.text("out"), "");
}

TEST(CliOptionsDeath, UsageErrorsExit2)
{
    const auto fails = [](std::vector<std::string> args,
                          const char *message) {
        EXPECT_EXIT(parse(std::move(args)), ::testing::ExitedWithCode(2),
                    message);
    };
    fails({"f", "--fsat"}, "demo: unknown option '--fsat'");
    fails({"f", "--procs", "0"},
          "invalid --procs '0': expected an integer between 1 and 65535");
    fails({"f", "--procs", "-5"}, "invalid --procs '-5'");
    fails({"f", "--procs", "8x"}, "invalid --procs '8x'");
    fails({"f", "--procs", "--fast"}, "--procs needs a value");
    fails({"f", "--procs"}, "--procs needs a value");
    fails({"f", "--procs", "2", "--share", "nan"}, "invalid --share 'nan'");
    fails({"f", "--model", "TSO"},
          "unknown --model 'TSO': expected one of SC, WO");
    fails({"f", "--fast", "--out", "x"}, "--fast conflicts with --out");
    fails({"f", "--share", "0.5"}, "--share requires --procs");
    fails({}, "demo: missing <file>");
    fails({"f", "g"}, "demo: unexpected argument 'g'");
}

TEST(CliOptionsDeath, UndeclaredOrNarrowerReadsPanic)
{
    const CommandLine cl = parse({"f"});
    EXPECT_DEATH(cl.has("slow"), "reads --slow, which it does not declare");
    EXPECT_DEATH(cl.text("procs"), "reads --procs as another kind");
    EXPECT_DEATH(cl.number<std::uint8_t>("procs", 1),
                 "into a narrower field");
}

} // namespace
} // namespace wmr::cli
