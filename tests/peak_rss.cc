/**
 * @file
 * peak_rss LIMIT_MB CMD [ARGS...]: run CMD as a child process, print
 * its peak resident set as wait4() reports it, and exit 0 only when
 * the child exited 0 or 1 (wmrace's "no race" / "race" verdicts)
 * with a peak below LIMIT_MB.
 *
 * A forked child starts out counting its parent's resident pages, so
 * the launcher must itself stay small; a shell or an interpreter
 * would set a floor under the reading.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr, "usage: peak_rss LIMIT_MB CMD [ARGS...]\n");
        return 2;
    }
    const double limitMb = std::strtod(argv[1], nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("peak_rss: fork");
        return 2;
    }
    if (pid == 0) {
        ::execvp(argv[2], argv + 2);
        std::perror("peak_rss: exec");
        ::_exit(127);
    }
    int status = 0;
    struct rusage ru = {};
    if (::wait4(pid, &status, 0, &ru) != pid) {
        std::perror("peak_rss: wait4");
        return 2;
    }
    const double peakMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    std::printf("peak RSS %.1f MB (limit %.1f MB), exit %d\n", peakMb,
                limitMb, code);
    if (code != 0 && code != 1)
        return 1;
    return peakMb < limitMb ? 0 : 1;
}
