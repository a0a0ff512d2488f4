/**
 * @file
 * wmrace — the command-line driver.
 *
 * Each command lives in tools/cli/ next to its entry in the option
 * table (tools/cli/options.hh): its operands, its options with one
 * help line each, and the rules between them.  `wmrace` alone lists
 * the commands; a command given an unknown option, a bad value or a
 * missing operand names the problem, prints its generated usage and
 * exits 2.  Exit codes: 0 = no data race, 1 = data race found, 2 =
 * usage or input error, 3 = rejected or no analyzable trace.
 */

#include <cstdio>
#include <string>

#include "cli/commands.hh"

int
main(int argc, char **argv)
{
    using namespace wmr::cli;
    const Command *const commands[] = {
        &kRun,      &kCheck,   &kBatch,  &kServe,  &kSubmit, &kRecord,
        &kGenTrace, &kExplore, &kStatic, &kDisasm, &kModels,
    };
    if (argc >= 2) {
        for (const Command *cmd : commands) {
            if (cmd->name == argv[1])
                return cmd->run(CommandLine(*cmd, argc - 2, argv + 2));
        }
    }
    std::fprintf(stderr, "usage: wmrace <command> [args]\n");
    for (const Command *cmd : commands) {
        const std::string synopsis = cmd->name + " " + cmd->operands;
        std::fprintf(stderr, "  %-28s  %s\n", synopsis.c_str(),
                     cmd->summary.c_str());
    }
    std::fprintf(stderr, "a command given a bad or missing argument "
                         "prints its options\n");
    return 2;
}
