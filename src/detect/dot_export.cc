#include "detect/dot_export.hh"

#include <fstream>

#include "common/logging.hh"
#include "common/string_util.hh"

namespace wmr {

namespace {

std::string
escape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

std::string
eventLabel(const Event &ev, const Program *prog)
{
    if (ev.kind == EventKind::Sync) {
        const char *what = ev.syncOp.kind == OpKind::Write
                               ? (ev.syncOp.release ? "Release"
                                                    : "SyncW")
                               : (ev.syncOp.acquire ? "Acquire"
                                                    : "SyncR");
        const std::string addr =
            prog ? prog->addrName(ev.syncOp.addr)
                 : strformat("[%u]", ev.syncOp.addr);
        return strformat("E%u %s(%s)", ev.id, what, addr.c_str());
    }
    std::string rw;
    const auto show = [&](const char *tag,
                          const std::vector<Addr> &words) {
        for (std::size_t i = 0; i < words.size() && i < 3; ++i) {
            rw += tag + (prog ? prog->addrName(words[i])
                              : strformat("[%u]", words[i])) +
                  " ";
        }
    };
    show("R", ev.readSet);
    show("W", ev.writeSet);
    return strformat("E%u comp(%u ops)\\n%s", ev.id, ev.opCount,
                     escape(rw).c_str());
}

const char *
fillFor(ScpMembership m)
{
    switch (m) {
      case ScpMembership::Full: return "#d4edd4";    // green: in SCP
      case ScpMembership::Partial: return "#fff3c4"; // amber: boundary
      case ScpMembership::Outside: return "#f4d3d3"; // red: diverged
    }
    return "#ffffff";
}

} // namespace

std::string
toDot(const DetectionResult &result, const Program *prog,
      const DotOptions &opts)
{
    const auto &trace = result.trace();
    std::string out = "digraph hb1 {\n"
                      "  rankdir=TB;\n"
                      "  node [shape=box, style=filled, "
                      "fontname=\"Helvetica\", fontsize=10];\n"
                      "  edge [fontname=\"Helvetica\", fontsize=9];\n";

    // Nodes, grouped into per-processor clusters like the paper's
    // column layout.
    for (ProcId p = 0; p < trace.numProcs(); ++p) {
        if (opts.processorColumns) {
            out += strformat("  subgraph cluster_p%u {\n"
                             "    label=\"P%u\";\n",
                             p, p + 1);
        }
        for (const EventId e : trace.procEvents(p)) {
            const Event &ev = trace.event(e);
            const char *fill =
                opts.shadeScp ? fillFor(result.scp().membership(e))
                              : "#ffffff";
            const char *shape =
                ev.kind == EventKind::Sync ? "ellipse" : "box";
            out += strformat(
                "    e%u [label=\"%s\", shape=%s, fillcolor=\"%s\"];"
                "\n",
                e, eventLabel(ev, prog).c_str(), shape, fill);
        }
        if (opts.processorColumns)
            out += "  }\n";
    }

    // po and so1 edges.
    for (const auto &edge : result.hbGraph().edges()) {
        if (edge.kind == HbEdgeKind::ProgramOrder) {
            out += strformat("  e%u -> e%u [label=\"po\"];\n",
                             edge.from, edge.to);
        } else {
            out += strformat("  e%u -> e%u [label=\"so1\", "
                             "style=dashed, color=blue, "
                             "constraint=false];\n",
                             edge.from, edge.to);
        }
    }

    // Race edges: doubly directed; red when in a first partition,
    // orange otherwise (Figure 3's first / non-first distinction).
    if (opts.showRaceEdges) {
        const auto &parts = result.partitions();
        for (RaceId r = 0;
             r < static_cast<RaceId>(result.races().size()); ++r) {
            const auto &race = result.races()[r];
            const bool first =
                parts.partitions[parts.partitionOf[r]].first;
            out += strformat(
                "  e%u -> e%u [dir=both, color=%s, penwidth=%s, "
                "label=\"race %u%s\", constraint=false];\n",
                race.a, race.b, first ? "red" : "orange",
                first ? "2.0" : "1.0", r, first ? " (FIRST)" : "");
        }
    }

    out += "}\n";
    return out;
}

void
writeDotFile(const DetectionResult &result, const std::string &path,
             const Program *prog, const DotOptions &opts)
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        fatal("cannot open dot file '%s'", path.c_str());
    f << toDot(result, prog, opts);
    if (!f)
        fatal("short write to dot file '%s'", path.c_str());
}

} // namespace wmr
