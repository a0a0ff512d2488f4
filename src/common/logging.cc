#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace wmr {

namespace {
bool quietFlag = false;

void
vreport(const char *tag, const char *fmt, va_list args)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
}
} // namespace

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("fatal", fmt, args);
    va_end(args);
    std::exit(2);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
warn(const char *fmt, ...)
{
    if (quietFlag)
        return;
    va_list args;
    va_start(args, fmt);
    vreport("warn", fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    if (quietFlag)
        return;
    va_list args;
    va_start(args, fmt);
    vreport("info", fmt, args);
    va_end(args);
}

void
setQuiet(bool quiet)
{
    quietFlag = quiet;
}

bool
isQuiet()
{
    return quietFlag;
}

} // namespace wmr
