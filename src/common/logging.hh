/**
 * @file
 * Error and status reporting in the spirit of gem5's logging.hh.
 *
 * fatal()  — the user's fault (bad program, bad configuration);
 *            prints and exits with status 2 (1 means "data race
 *            found" to every wmrace command).
 * panic()  — a wmrace bug (broken invariant); prints and aborts.
 * warn()   — something dubious but survivable.
 * inform() — plain status output.
 */

#ifndef WMR_COMMON_LOGGING_HH
#define WMR_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace wmr {

/** Print a formatted fatal error (user error) and exit(2). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a formatted internal error (wmrace bug) and abort(). */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a formatted warning to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a formatted status message to stderr. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Globally silence warn()/inform() (benchmarks use this). */
void setQuiet(bool quiet);

/** @return whether warn()/inform() are silenced. */
bool isQuiet();

/**
 * Assert a wmrace-internal invariant; on failure panics with the
 * stringified condition, file and line.
 */
#define wmr_assert(cond)                                                 \
    do {                                                                 \
        if (!(cond)) {                                                   \
            ::wmr::panic("assertion '%s' failed at %s:%d", #cond,        \
                         __FILE__, __LINE__);                            \
        }                                                                \
    } while (0)

} // namespace wmr

#endif // WMR_COMMON_LOGGING_HH
