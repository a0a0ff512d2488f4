#include "engines/engine.hh"

#include <algorithm>
#include <utility>

namespace wmr::engines {

const char *
engineName(EngineKind kind)
{
    switch (kind) {
    case EngineKind::Hb1:
        return "hb1";
    case EngineKind::Shb:
        return "shb";
    case EngineKind::Wcp:
        return "wcp";
    case EngineKind::Vc:
        return "vc";
    case EngineKind::Epoch:
        return "epoch";
    case EngineKind::Lockset:
        return "lockset";
    }
    return "?";
}

std::optional<std::vector<EngineKind>>
parseEngineSelection(std::string_view name)
{
    if (name == "all")
        return std::vector<EngineKind>{
            EngineKind::Hb1, EngineKind::Shb, EngineKind::Wcp};
    if (name == "hb1")
        return std::vector<EngineKind>{EngineKind::Hb1};
    if (name == "shb")
        return std::vector<EngineKind>{EngineKind::Shb};
    if (name == "wcp")
        return std::vector<EngineKind>{EngineKind::Wcp};
    if (name == "vc")
        return std::vector<EngineKind>{EngineKind::Vc};
    if (name == "epoch")
        return std::vector<EngineKind>{EngineKind::Epoch};
    if (name == "lockset")
        return std::vector<EngineKind>{EngineKind::Lockset};
    return std::nullopt;
}

const char *
engineSelectionHelp()
{
    return "hb1|shb|wcp|vc|epoch|lockset|all";
}

EngineVerdict
reportEveryRace(std::string engine, std::string semantics,
                std::vector<EngineRace> races)
{
    std::sort(races.begin(), races.end(),
              [](const EngineRace &x, const EngineRace &y) {
                  return x.a != y.a ? x.a < y.a : x.b < y.b;
              });
    EngineVerdict v;
    v.engine = std::move(engine);
    v.semantics = std::move(semantics);
    v.races = std::move(races);
    v.reported.reserve(v.races.size());
    for (std::uint32_t i = 0; i < v.races.size(); ++i) {
        if (v.races[i].isDataRace)
            ++v.numDataRaces;
        v.reported.push_back(i);
    }
    v.anyDataRace = v.numDataRaces != 0;
    return v;
}

} // namespace wmr::engines
