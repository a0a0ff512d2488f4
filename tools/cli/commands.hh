/**
 * @file
 * The wmrace commands (each defined next to its body) and what
 * several of them share.
 */

#ifndef WMR_TOOLS_CLI_COMMANDS_HH
#define WMR_TOOLS_CLI_COMMANDS_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/export.hh"
#include "obs/obs.hh"
#include "options.hh"
#include "serve/protocol.hh"

namespace wmr::cli {

extern const Command kRun;      ///< program.cc
extern const Command kCheck;    ///< check.cc
extern const Command kBatch;    ///< batch.cc
extern const Command kServe;    ///< serve.cc
extern const Command kSubmit;   ///< serve.cc
extern const Command kRecord;   ///< record.cc
extern const Command kGenTrace; ///< check.cc
extern const Command kExplore;  ///< program.cc
extern const Command kStatic;   ///< program.cc
extern const Command kDisasm;   ///< program.cc
extern const Command kModels;   ///< program.cc

/** The `--trace-out FILE` option of check, batch, record and serve. */
inline Option
traceOutOption()
{
    return text("trace-out", "FILE",
                "write a Chrome trace_event JSON timeline of the run");
}

/** The `--engine` names of batch and submit: those the serve protocol
 *  carries (the containment chain). */
inline std::vector<std::string>
wireEngineNames()
{
    std::vector<std::string> names;
    for (std::uint32_t id = 1; id <= serve::kWireEngineMax; ++id)
        names.emplace_back(serve::engineWireName(id));
    return names;
}

/**
 * `--trace-out FILE`: turn span/counter collection on for the whole
 * command and write a Chrome trace_event JSON file (loadable in
 * perfetto / chrome://tracing) when the command finishes.  Purely
 * additive: stdout and every report stay byte-identical.
 */
class TraceOut
{
  public:
    explicit TraceOut(const CommandLine &cl) : path_(cl.text("trace-out"))
    {
        if (!path_.empty())
            obs::setEnabled(true);
    }

    TraceOut(const TraceOut &) = delete;
    TraceOut &operator=(const TraceOut &) = delete;

    ~TraceOut()
    {
        if (path_.empty())
            return;
        if (!obs::writeChromeTrace(path_)) {
            std::fprintf(stderr,
                         "cannot write Chrome trace to '%s'\n",
                         path_.c_str());
        } else {
            std::fprintf(stderr, "wrote Chrome trace to %s  (open "
                                 "in ui.perfetto.dev)\n",
                         path_.c_str());
        }
    }

  private:
    std::string path_;
};

} // namespace wmr::cli

#endif // WMR_TOOLS_CLI_COMMANDS_HH
