#include "options.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace wmr::cli {

static std::string
join(const std::vector<std::string> &parts, const char *sep)
{
    std::string out;
    for (const std::string &p : parts)
        out += (out.empty() ? "" : sep) + p;
    return out;
}

Option
flag(std::string name, std::string help)
{
    return {std::move(name), Kind::Flag, "", std::move(help)};
}

Option
text(std::string name, std::string arg, std::string help)
{
    return {std::move(name), Kind::Text, std::move(arg), std::move(help)};
}

Option
number(std::string name, std::uint64_t min, std::uint64_t max,
       std::string help)
{
    return {std::move(name), Kind::Number, "N", std::move(help), min,
            max};
}

Option
fraction(std::string name, std::string help)
{
    return {std::move(name), Kind::Fraction, "X", std::move(help)};
}

Option
choice(std::string name, std::vector<std::string> choices,
       std::string help)
{
    return {std::move(name), Kind::Choice, join(choices, "|"),
            std::move(help), 0, 0, std::move(choices)};
}

/** Print @p cmd's generated usage text to @p out. */
static void
printUsage(const Command &cmd, std::FILE *out)
{
    std::fprintf(out, "usage: wmrace %s%s%s%s\n  %s\n", cmd.name.c_str(),
                 cmd.options.empty() ? "" : " [options]",
                 cmd.operands.empty() ? "" : " ", cmd.operands.c_str(),
                 cmd.summary.c_str());
    for (const Option &opt : cmd.options) {
        std::string left = "--" + opt.name;
        if (!opt.arg.empty())
            left += " " + opt.arg;
        std::string help = opt.help;
        if (opt.kind == Kind::Number &&
            opt.max != std::numeric_limits<std::uint64_t>::max())
            help += " (" + std::to_string(opt.min) + ".." +
                    std::to_string(opt.max) + ")";
        if (left.size() > 24)
            std::fprintf(out, "  %s\n  %-24s  %s\n", left.c_str(), "",
                         help.c_str());
        else
            std::fprintf(out, "  %-24s  %s\n", left.c_str(),
                         help.c_str());
    }
    for (const auto &[a, b] : cmd.needs)
        std::fprintf(out, "  --%s requires --%s\n", a.c_str(), b.c_str());
    for (const auto &[a, b] : cmd.conflicts)
        std::fprintf(out, "  --%s conflicts with --%s\n", a.c_str(),
                     b.c_str());
}

CommandLine::CommandLine(const Command &cmd, int argc, char **argv)
    : cmd_(cmd), values_(cmd.options.size())
{
    for (int i = 0; i < argc; ++i) {
        const std::string_view a = argv[i];
        if (a.size() < 2 || a[0] != '-') {
            if (operands_.size() == cmd.maxOperands)
                fail("unexpected argument '%s'", argv[i]);
            operands_.emplace_back(a);
            if (cmd.tail) {
                tail_ = argv + i;
                break;
            }
            continue;
        }
        std::size_t k = 0;
        while (k < cmd.options.size() &&
               a != "--" + cmd.options[k].name)
            ++k;
        if (k == cmd.options.size())
            fail("unknown option '%s'", argv[i]);
        const Option &opt = cmd.options[k];
        Value &v = values_[k];
        v.given = true;
        if (opt.kind == Kind::Flag)
            continue;
        if (i + 1 == argc || argv[i + 1][0] == '\0' ||
            std::string_view(argv[i + 1]).substr(0, 2) == "--")
            fail("--%s needs a value (%s)", opt.name.c_str(),
                 opt.arg.c_str());
        v.text = argv[++i];
        parseValue(opt, v);
    }
    if (operands_.size() < cmd.minOperands)
        fail("missing %s", cmd.operands.c_str());
    for (const auto &[a, b] : cmd.conflicts) {
        if (has(a) && has(b))
            fail("--%s conflicts with --%s", a.c_str(), b.c_str());
    }
    for (const auto &[a, b] : cmd.needs) {
        if (has(a) && !has(b))
            fail("--%s requires --%s", a.c_str(), b.c_str());
    }
}

void
CommandLine::parseValue(const Option &opt, Value &v) const
{
    const char *s = v.text.c_str();
    const bool digit = std::isdigit(static_cast<unsigned char>(s[0]));
    char *end = nullptr;
    switch (opt.kind) {
      case Kind::Flag:
      case Kind::Text:
        return;
      case Kind::Number:
        errno = 0;
        if (digit)
            v.number = std::strtoull(s, &end, 10);
        if (!digit || *end != '\0' || errno == ERANGE ||
            v.number < opt.min || v.number > opt.max)
            fail("invalid --%s '%s': expected an integer between %llu "
                 "and %llu",
                 opt.name.c_str(), s,
                 static_cast<unsigned long long>(opt.min),
                 static_cast<unsigned long long>(opt.max));
        return;
      case Kind::Fraction:
        if (digit || s[0] == '.')
            v.fraction = std::strtod(s, &end);
        // The comparisons are false for NaN.
        if (end == nullptr || *end != '\0' || !(v.fraction >= 0.0) ||
            !(v.fraction <= 1.0))
            fail("invalid --%s '%s': expected a number between 0 and 1",
                 opt.name.c_str(), s);
        return;
      case Kind::Choice:
        for (const std::string &c : opt.choices) {
            if (std::equal(c.begin(), c.end(), v.text.begin(), v.text.end(),
                           [](unsigned char x, unsigned char y) {
                               return std::tolower(x) == std::tolower(y);
                           })) {
                v.text = c;
                return;
            }
        }
        fail("unknown --%s '%s': expected one of %s", opt.name.c_str(), s,
             join(opt.choices, ", ").c_str());
    }
}

std::size_t
CommandLine::index(std::string_view name) const
{
    for (std::size_t k = 0; k < cmd_.options.size(); ++k) {
        if (cmd_.options[k].name == name)
            return k;
    }
    panic("%s: reads --%.*s, which it does not declare", cmd_.name.c_str(),
          static_cast<int>(name.size()), name.data());
}

const CommandLine::Value &
CommandLine::value(std::string_view name, Kind kind,
                   std::uint64_t fieldMax) const
{
    const std::size_t k = index(name);
    const Option &opt = cmd_.options[k];
    if (opt.kind != kind || opt.max > fieldMax)
        panic("%s: reads --%s as another kind or into a narrower field "
              "than it declares",
              cmd_.name.c_str(), opt.name.c_str());
    return values_[k];
}

bool
CommandLine::has(std::string_view name) const
{
    return values_[index(name)].given;
}

const std::string &
CommandLine::text(std::string_view name) const
{
    return value(name, Kind::Text).text;
}

const std::string &
CommandLine::choice(std::string_view name) const
{
    return value(name, Kind::Choice).text;
}

double
CommandLine::fraction(std::string_view name, double dflt) const
{
    const Value &v = value(name, Kind::Fraction);
    return v.given ? v.fraction : dflt;
}

void
CommandLine::fail(const char *fmt, ...) const
{
    std::fprintf(stderr, "%s: ", cmd_.name.c_str());
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
    printUsage(cmd_, stderr);
    std::exit(2);
}

} // namespace wmr::cli
