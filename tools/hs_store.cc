/**
 * @file
 * hs_store — admin tool for persistent result stores.
 *
 * Subcommands:
 *
 *   hs_store prune DIR [--older-than DAYS] [--sweep-corrupt]
 *                      [--dry-run]
 *
 *     Garbage-collect the store rooted at DIR. `--older-than DAYS`
 *     deletes records whose mtime is strictly older than DAYS
 *     (fractional days allowed); `--sweep-corrupt` also deletes
 *     records that fail structural validation — they can only ever
 *     cost a recompute; `--dry-run` reports what would be deleted
 *     without touching anything. At least one of --older-than /
 *     --sweep-corrupt is required: a prune that could delete nothing
 *     is a mistyped command line, not a request.
 *
 *     Only regular `*.hsr` record files inside the two-hex-digit
 *     bucket directories are ever deleted. The event log, hidden temp
 *     files from interrupted writers, files older builds left, and
 *     anything else a user may have placed in the tree are refused
 *     and reported as skipped.
 *
 * Exit status: 0 on success, 2 on a command-line error. See
 * docs/DISTRIBUTED.md for the workflow.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/disk_store.hh"

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s prune DIR [--older-than DAYS] "
                 "[--sweep-corrupt] [--dry-run]\n",
                 argv0);
    std::exit(2);
}

/** Strict non-negative double parse; the whole string must parse. */
double
parseDays(const char *argv0, const std::string &s)
{
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (s.empty() || end == s.c_str() || *end != '\0' || v < 0.0) {
        std::fprintf(stderr,
                     "%s: --older-than needs a non-negative number of "
                     "days, got '%s'\n",
                     argv0, s.c_str());
        usage(argv0);
    }
    return v;
}

int
cmdPrune(const char *argv0, int argc, char **argv)
{
    std::string dir;
    hs::PruneOptions opts;
    bool haveAge = false;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--older-than") {
            if (i + 1 >= argc)
                usage(argv0);
            opts.olderThanDays = parseDays(argv0, argv[++i]);
            haveAge = true;
        } else if (arg == "--sweep-corrupt") {
            opts.sweepCorrupt = true;
        } else if (arg == "--dry-run") {
            opts.dryRun = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv0,
                         arg.c_str());
            usage(argv0);
        } else if (dir.empty()) {
            dir = arg;
        } else {
            std::fprintf(stderr, "%s: more than one store directory\n",
                         argv0);
            usage(argv0);
        }
    }
    if (dir.empty())
        usage(argv0);
    if (!haveAge && !opts.sweepCorrupt) {
        std::fprintf(stderr,
                     "%s: prune needs --older-than and/or "
                     "--sweep-corrupt\n",
                     argv0);
        usage(argv0);
    }

    hs::PruneStats stats = hs::pruneStore(dir, opts);
    std::printf("%s%s: %llu record(s) scanned, %llu %s (%llu corrupt, "
                "%.1f KiB), %llu kept, %llu non-record entr%s "
                "skipped\n",
                dir.c_str(), opts.dryRun ? " (dry run)" : "",
                static_cast<unsigned long long>(stats.scanned),
                static_cast<unsigned long long>(stats.pruned),
                opts.dryRun ? "would be pruned" : "pruned",
                static_cast<unsigned long long>(stats.corrupt),
                static_cast<double>(stats.bytesFreed) / 1024.0,
                static_cast<unsigned long long>(stats.kept),
                static_cast<unsigned long long>(stats.skipped),
                stats.skipped == 1 ? "y" : "ies");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0]);
    std::string cmd = argv[1];
    if (cmd == "prune")
        return cmdPrune(argv[0], argc - 2, argv + 2);
    std::fprintf(stderr, "%s: unknown subcommand '%s'\n", argv[0],
                 cmd.c_str());
    usage(argv[0]);
}
